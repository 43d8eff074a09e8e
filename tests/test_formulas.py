"""Closed-form determinants, purities and pairwise contangle terms."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from contangle import formulas


# Reference values below were frozen from a term-by-term evaluation with
# mpmath at 60 significant digits, independent of the library code.

def test_det_reduced_one_of_three():
    assert formulas.det_reduced(1, 3, 0.5) == pytest.approx(
        2.2276425293705028709, rel=1e-14
    )


def test_det_reduced_single_mode_of_pair():
    # one mode of a two-mode squeezed pair: cosh(4*r_bar)... the general
    # formula collapses to cosh**2(2*r_bar) at n_keep=1, n_total=2
    assert formulas.det_reduced(1, 2, 0.9) == pytest.approx(
        math.cosh(1.8) ** 2, rel=1e-14
    )


def test_det_reduced_whole_state_is_exactly_pure():
    for n in (1, 2, 5, 40):
        assert formulas.det_reduced(n, n, 1.3) == 1.0


def test_det_reduced_vacuum_is_exactly_unit():
    for k, n in ((1, 2), (3, 7), (10, 21)):
        assert formulas.det_reduced(k, n, 0.0) == 1.0


def test_det_reduced_complement_symmetry():
    # tracing is symmetric between a block and its complement for pure states
    for n in range(2, 12):
        for k in range(1, n):
            a = formulas.det_reduced(k, n, 0.7)
            b = formulas.det_reduced(n - k, n, 0.7)
            assert a == pytest.approx(b, rel=1e-14)


def test_det_reduced_validation():
    with pytest.raises(ValueError):
        formulas.det_reduced(0, 3, 0.5)
    with pytest.raises(ValueError):
        formulas.det_reduced(4, 3, 0.5)
    with pytest.raises(ValueError):
        formulas.det_reduced(1, 3, -0.1)
    with pytest.raises(ValueError):
        formulas.det_reduced(1, 3, math.inf)


def test_localized_purities():
    triple = formulas.localized_purities(1, 1, 3, 0.5)
    assert triple.left == pytest.approx(0.67000377500137389039, rel=1e-14)
    assert triple.left == triple.right
    assert triple.joint == pytest.approx(
        formulas.det_reduced(2, 3, 0.5) ** -0.5, rel=1e-14
    )


def test_det_reduced_whole_state_is_exactly_pure_at_huge_squeezing():
    for n in (1, 3, 40):
        assert formulas.det_reduced(n, n, 300.0) == 1.0


def test_det_reduced_past_the_cosh_overflow():
    # cosh(4r) overflows above r ~ 177.4, the determinant itself only later
    # det = (2 * 999 cosh(714) + base) / 1000**2, cosh(714) = e**714 / 2
    det = formulas.det_reduced(1, 1000, 178.5)
    assert det == pytest.approx(math.exp(714.0 + math.log(999e-6)), rel=1e-12)
    assert formulas.det_reduced(500, 1000, 175.0) == pytest.approx(
        0.5 * math.cosh(700.0), rel=1e-13
    )


def test_det_reduced_beyond_the_doubles_is_a_value_error():
    with pytest.raises(ValueError, match="double range"):
        formulas.det_reduced(1, 3, 300.0)


def test_localized_purities_at_huge_squeezing():
    # det = 4/9 cosh(1200) + 5/9, so the purity is 3 e**-600 / sqrt(2)
    triple = formulas.localized_purities(1, 1, 3, 300.0)
    expected = 3.0 / math.sqrt(2.0) * math.exp(-600.0)
    assert triple.left == pytest.approx(expected, rel=1e-13)
    assert triple.right == triple.left
    assert triple.joint == pytest.approx(expected, rel=1e-13)  # complement of one mode
    assert formulas.localized_purities(1, 2, 3, 300.0).joint == 1.0


def test_localized_purities_match_the_determinant():
    for nl, nr, n, r in ((1, 1, 3, 0.5), (2, 3, 10, 1.7), (1, 4, 6, 0.0), (3, 3, 40, 90.0)):
        triple = formulas.localized_purities(nl, nr, n, r)
        for purity, keep in ((triple.joint, nl + nr), (triple.left, nl), (triple.right, nr)):
            assert purity == pytest.approx(formulas.det_reduced(keep, n, r) ** -0.5, rel=1e-13)


def test_localized_purities_rejects_oversized_blocks():
    with pytest.raises(ValueError):
        formulas.localized_purities(2, 2, 3, 0.5)


def test_decomposition_term_frozen_values():
    assert formulas.decomposition_term(0, 3, 0, 0.5) == pytest.approx(
        0.91338375100258651205, rel=1e-14
    )
    assert formulas.decomposition_term(1, 3, 0, 0.5) == pytest.approx(
        0.18449925203047390367, rel=1e-14
    )


def test_pair_contangle_is_four_r_squared():
    # the 1|1 contangle of the pure two-mode state: asinh(sinh(2r))**2
    for r in (0.1, 0.37, 1.0, 2.5):
        assert formulas.bipartite_contangle(1, 2, r) == pytest.approx(
            4.0 * r * r, rel=1e-13
        )


def test_terms_decrease_with_index():
    values = [formulas.decomposition_term(j, 8, 2, 0.9) for j in range(7)]
    assert all(a > b for a, b in zip(values, values[1:]))


@given(
    n=st.integers(2, 40),
    m=st.integers(0, 10),
    r=st.floats(0.0, 4.0),
    data=st.data(),
)
def test_term_is_a_relabeled_bipartite_contangle(n, m, r, data):
    j = data.draw(st.integers(0, n - 2))
    term = formulas.decomposition_term(j, n, m, r)
    direct = formulas.bipartite_contangle(n - 1 - j, n + m, r)
    assert term == direct


def test_bipartite_contangle_zero_squeezing():
    assert formulas.bipartite_contangle(3, 7, 0.0) == 0.0


def test_bipartite_contangle_huge_squeezing_does_not_overflow():
    value = formulas.bipartite_contangle(2, 6, 200.0)
    assert math.isfinite(value)
    assert value > 0


def test_whole_rest_contangle_past_the_decay_underflow():
    # one mode against all others: e**(-4 r) leaves the normal range near
    # r = 177, where asinh(x)**2 = ln(2 x)**2 takes over without a jump
    # (ln 2x)**2 grows by 4 ln(2x) per unit of r
    below = formulas.bipartite_contangle(2, 3, 176.9)
    above = formulas.bipartite_contangle(2, 3, 177.1)
    slope = 4.0 * math.sqrt(formulas.bipartite_contangle(2, 3, 177.0))
    assert (above - below) / 0.2 == pytest.approx(slope, rel=1e-6)
    assert formulas.decomposition_term(0, 3, 0, 190.0) == pytest.approx(
        (380.0 + math.log(2.0 * math.sqrt(2.0) / 3.0)) ** 2, rel=1e-15
    )


def test_bipartite_contangle_validation():
    with pytest.raises(ValueError):
        formulas.bipartite_contangle(0, 4, 0.5)
    with pytest.raises(ValueError):
        formulas.bipartite_contangle(4, 4, 0.5)


def test_decomposition_term_validation():
    with pytest.raises(ValueError):
        formulas.decomposition_term(-1, 4, 0, 0.5)
    with pytest.raises(ValueError):
        formulas.decomposition_term(3, 4, 0, 0.5)
    with pytest.raises(ValueError):
        formulas.decomposition_term(0, 4, -1, 0.5)


def test_decibel_conversion_round_trip():
    # r_db = (20 / ln 10) r_bar, so 10 dB of squeezing is r_bar = ln(10)/2
    assert formulas.r_bar_from_db(10.0) == pytest.approx(math.log(10) / 2, rel=1e-15)
    for r in (0.0, 0.3, 1.15, 2.0):
        assert formulas.r_bar_from_db(formulas.db_from_r_bar(r)) == pytest.approx(
            r, abs=1e-15
        )
