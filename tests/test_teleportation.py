"""Teleportation-network fidelity and its inversion."""

from __future__ import annotations

import math

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contangle.teleportation import (
    CLASSICAL_FIDELITY,
    FidelityPoint,
    fidelity_from_squeezing,
    residual_from_fidelity,
    squeezing_from_fidelity,
)


def test_no_squeezing_gives_exactly_classical_fidelity():
    for n in (2, 3, 17, 500):
        assert fidelity_from_squeezing(n, 0.0) == CLASSICAL_FIDELITY
        assert squeezing_from_fidelity(n, CLASSICAL_FIDELITY) == 0.0


def test_frozen_fidelity_values():
    # frozen from the radical form evaluated with mpmath at 50 digits
    assert fidelity_from_squeezing(3, 0.5) == pytest.approx(
        0.69635613368432983, rel=1e-14
    )
    assert fidelity_from_squeezing(2, 1.0) == pytest.approx(
        0.880797077977882, rel=1e-13
    )
    assert fidelity_from_squeezing(10, 1.0) == pytest.approx(
        0.77392927613259, rel=1e-13
    )
    assert fidelity_from_squeezing(100, 1.0) == pytest.approx(
        0.590068421246545, rel=1e-13
    )


def test_fidelity_bounds():
    for n in (2, 5, 40):
        for r in (0.01, 0.5, 2.0, 6.0):
            f = fidelity_from_squeezing(n, r)
            assert CLASSICAL_FIDELITY < f < 1.0


def test_fidelity_increases_with_squeezing_decreases_with_parties():
    grid = [0.1 * k for k in range(1, 25)]
    values = [fidelity_from_squeezing(4, r) for r in grid]
    assert all(a < b for a, b in zip(values, values[1:]))
    by_n = [fidelity_from_squeezing(n, 0.8) for n in range(2, 40)]
    assert all(a > b for a, b in zip(by_n, by_n[1:]))


@settings(max_examples=300)
@given(
    n=st.integers(min_value=2, max_value=100),
    r=st.floats(min_value=0.0, max_value=3.0, allow_nan=False),
)
def test_roundtrip_through_fidelity(n, r):
    f = fidelity_from_squeezing(n, r)
    back = squeezing_from_fidelity(n, f)
    assert back == pytest.approx(r, abs=1e-10)


def test_inversion_against_bisection():
    # independent oracle: invert the forward map numerically
    def invert(n, f):
        lo, hi = 0.0, 50.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if fidelity_from_squeezing(n, mid) < f:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    for n in (2, 7, 30):
        for f in (0.55, 0.7, 0.9, 0.99):
            assert squeezing_from_fidelity(n, f) == pytest.approx(
                invert(n, f), abs=1e-10
            )


def test_fidelity_domain_errors():
    with pytest.raises(ValueError):
        squeezing_from_fidelity(3, 0.49)
    with pytest.raises(ValueError):
        squeezing_from_fidelity(3, 1.0)
    with pytest.raises(ValueError):
        fidelity_from_squeezing(1, 0.5)
    with pytest.raises(ValueError):
        fidelity_from_squeezing(3, -0.1)


def test_fidelity_beyond_the_exponential_range():
    # e**(4 r) overflows a double above r ~ 177; the fidelity does not
    assert fidelity_from_squeezing(3, 300.0) == 1.0
    n, r = 10**300, 180.0
    with mpmath.workdps(50):
        boosted = n + 2 * mpmath.expm1(4 * mpmath.mpf(r))
        expected = 1 / (1 + mpmath.sqrt(n / boosted))
    assert fidelity_from_squeezing(n, r) == pytest.approx(float(expected), rel=1e-14)


def test_fidelity_saturates_where_the_exponential_is_infinite():
    # 2 (e**(4 r) - 1) overflows without raising near r = 177.3, and so
    # does 4 r itself above r ~ 4.5e307; both take the decaying form
    for r in (177.3, 4.5e307, 1e308):
        assert fidelity_from_squeezing(3, r) == 1.0
    with pytest.raises(ValueError, match="saturates"):
        FidelityPoint.from_squeezing(3, 1e308)


def test_residual_from_fidelity_connects_the_two_quantities():
    from contangle.monogamy import SymmetricState, residual_contangle

    for n in (3, 8):
        for f in (0.6, 0.8, 0.95):
            r = squeezing_from_fidelity(n, f)
            direct = residual_contangle(SymmetricState.from_r_bar(n, 0, r))
            assert residual_from_fidelity(n, f) == pytest.approx(direct, rel=1e-10)


def test_residual_is_increasing_in_fidelity():
    for n in (3, 10):
        grid = [0.51 + 0.02 * k for k in range(24)]
        values = [residual_from_fidelity(n, f) for f in grid]
        assert all(a < b for a, b in zip(values, values[1:]))


def test_fidelity_point_construction():
    p = FidelityPoint.from_squeezing(3, 0.5)
    assert p.fidelity == pytest.approx(0.69635613368432983, rel=1e-14)
    q = FidelityPoint.from_fidelity(3, p.fidelity)
    assert q.r_bar == pytest.approx(0.5, abs=1e-12)

    flat = FidelityPoint.from_squeezing(5, 0.0)
    assert flat.fidelity == CLASSICAL_FIDELITY

    with pytest.raises(ValueError):
        FidelityPoint(3, 0.5, CLASSICAL_FIDELITY)  # squeezed yet classical
    with pytest.raises(ValueError):
        FidelityPoint(3, 0.0, 0.7)  # unsqueezed yet beating classical
    with pytest.raises(ValueError):
        FidelityPoint(1, 0.5, 0.7)


def test_fidelity_point_rejects_saturated_fidelity():
    # F rounds to 1 in double precision above r_bar ~ 18.5
    assert FidelityPoint.from_squeezing(3, 18.0).fidelity < 1.0
    with pytest.raises(ValueError, match="saturates"):
        FidelityPoint.from_squeezing(3, 20.0)
