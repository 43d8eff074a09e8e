"""Extended-precision sum kernels: values, escalation, backends."""

from __future__ import annotations

import math
import random

import mpmath
import pytest
from hypothesis import given
from hypothesis import strategies as st

from contangle import config, kernels
from contangle.kernels import SumResult, compare, comparison_sum, pure, residual_sum


def _native():
    return pytest.importorskip(
        "contangle.kernels._sumcore", reason="compiled kernel not built"
    )


# Frozen references: term-by-term mpmath evaluations, 60 significant
# digits for the small cases, 1200+ digits (two agreeing precisions) for
# the deep-cancellation ones.
RESIDUAL_CASES = [
    (3, 0, 0.5, 0.54438524694163870471),
    (4, 0, 1.0, 2.6079885505327),
    (5, 0, 1.0, 2.15428001941619),
    (100, 0, 0.3, 3.00730244685e-39),
    (500, 0, 0.5, 4.95121243216e-101),
    (500, 0, 1.15, 1.88901251291e-13),
    (1000, 0, 0.5, 9.84798129864e-201),
    (1000, 0, 1.15, 6.13969489979e-26),
]


@pytest.mark.parametrize("n,m,r,expected", RESIDUAL_CASES)
def test_residual_frozen_values(n, m, r, expected):
    result = residual_sum(n, m, r)
    assert result.value == pytest.approx(expected, rel=1e-11)


def test_pair_residual_is_four_r_squared():
    result = residual_sum(2, 0, 0.37)
    assert result.value == pytest.approx(4 * 0.37**2, rel=1e-13)


def test_zero_squeezing_is_exact_zero():
    result = residual_sum(7, 2, 0.0)
    assert result.is_zero
    assert result.value == 0.0
    assert result.mantissa == 0.0


def test_sub_double_magnitudes_survive(monkeypatch):
    # true value 8.44427485718109e-1136, far below the double range; the
    # generic start would double through three noise passes first
    passes = _record_passes(monkeypatch)
    result = residual_sum(1000, 0, 0.05)
    assert len(passes) == 1
    assert result.value == 0.0
    assert result.mantissa > 0.0
    assert result.exp2 < -3000
    assert result.decimal(12) == "8.44427485718e-1136"
    assert math.isclose(result.magnitude_log2(), -1136 * math.log2(10), rel_tol=1e-2)


def _record_passes(monkeypatch):
    """Log ``(precision, surviving bits)`` of every residual pass."""
    passes = []
    evaluate = kernels._BACKEND.eval_residual

    def recording(n_kept, n_traced, r_bar, prec, *, top_exp2):
        out = evaluate(n_kept, n_traced, r_bar, prec, top_exp2=top_exp2)
        _, _, exp2, max_exp2, _ = out
        passes.append((prec, exp2 - (max_exp2 - prec)))
        return out

    monkeypatch.setattr(kernels._BACKEND, "eval_residual", recording)
    return passes


def _generic_start(n, m, r):
    """``residual_sum`` escalated from the generic start, not the predicted one."""
    _, top_exp2 = kernels._term_profile(n, m, r)
    return kernels._escalate(
        lambda prec: kernels._BACKEND.eval_residual(n, m, r, prec, top_exp2=top_exp2),
        n,
        config.starting_precision(n),
    )


@pytest.mark.parametrize(
    "n,r,expected,jumps",
    [
        # how escalation proceeds from the generic start
        (10, 0.8, 0.30806517901432, None),  # mild cancellation: one pass
        (100, 2.0, 3.0818026051983, None),  # ~2^95 cancels within the margin
        (500, 1.15, 1.88901251291e-13, True),  # short by a few bits: one jump
        (1000, 1.15, 6.13969489979e-26, True),
        (100, 0.05, 1.0362973876795e-114, False),  # noise first: doubling
    ],
)
def test_escalation_raises_precision_only_when_needed(
    monkeypatch, n, r, expected, jumps
):
    passes = _record_passes(monkeypatch)
    need = config.required_bits(n)
    # the jump and double rules, driven from the generic start
    start = config.starting_precision(n)
    generic = _generic_start(n, 0, r)
    assert generic.value == pytest.approx(expected, rel=1e-11)
    assert passes[0][0] == start
    assert passes[-1][0] == generic.precision
    assert passes[-1][1] >= need  # accepted on the error bound
    # every rejected pass fell short, and the next precision follows the rule
    for (prec, survived), (next_prec, _) in zip(passes, passes[1:]):
        assert survived < need
        if survived >= n.bit_length() + config.JUMP_SLACK:
            assert next_prec == prec + need - survived + config.JUMP_SLACK
        else:
            assert next_prec == 2 * prec
    if jumps is None:
        assert len(passes) == 1
    elif jumps:
        # the final precision is the bound plus at most one jump's slack
        cancelled = generic.precision - passes[-1][1]
        assert generic.precision <= cancelled + need + config.JUMP_SLACK
    else:
        assert len(passes) > 2
    # the predicted start accepts every case on its first pass, and spends
    # at most the slack (plus two bits of flooring) beyond the bound
    passes.clear()
    result = residual_sum(n, 0, r)
    assert len(passes) == 1 and passes[0][1] >= need
    assert result.precision == start or passes[0][1] <= need + config.JUMP_SLACK + 2
    assert (result.value, result.mantissa, result.exp2) == (
        generic.value,
        generic.mantissa,
        generic.exp2,
    )


def test_predicted_start_matches_the_generic_start():
    rng = random.Random(20261020)
    for _ in range(150):
        n, m, r = rng.randint(2, 60), rng.randint(0, 20), rng.uniform(0.05, 1.5)
        predicted = residual_sum(n, m, r)
        generic = _generic_start(n, m, r)
        assert (predicted.value, predicted.mantissa, predicted.exp2) == (
            generic.value,
            generic.mantissa,
            generic.exp2,
        ), (n, m, r)


@pytest.mark.parametrize(
    "n,m,r",
    [(3, 0, 0.0), (3, 0, 1e-300), (30, 2, 1e-300), (3, 0, 300.0), (3, 10**400, 0.5)],
    ids=[
        "zero",
        "sinh-underflow",
        "sinh-underflow-many-modes",
        "exp-overflow",
        "huge-traced-count",
    ],
)
def test_predictor_falls_back_to_the_generic_start(monkeypatch, n, m, r):
    # only zero squeezing has no profile; a squeezing whose sinh**2
    # underflows, one whose exponential overflows and a traced count beyond
    # the doubles all get a finite prediction, taken in log form, and one
    # pass (the generic start doubled (30, 2, 1e-300) up to 32,256 bits)
    profile = kernels._term_profile(n, m, r)
    passes = _record_passes(monkeypatch)
    result = residual_sum(n, m, r)
    if r == 0.0:
        assert profile is None
        assert passes[0][0] == config.starting_precision(n)
        assert result.is_zero
        return
    cancelled, top_exp2 = profile
    assert math.isfinite(cancelled) and math.isfinite(top_exp2)
    assert len(passes) == 1
    assert not result.is_zero
    generic = _generic_start(n, m, r)
    assert (result.value, result.mantissa, result.exp2) == (
        generic.value,
        generic.mantissa,
        generic.exp2,
    )


def test_fixed_point_pass_error_bound():
    # a pass errs by less than one unit of 2**(top_exp2 - prec) per term,
    # plus the rounding of its result to a double; near the predicted
    # cancellation that error is what separates the two passes
    rng = random.Random(5)
    for _ in range(60):
        n, m, r = rng.randint(2, 200), rng.randint(0, 20), rng.uniform(0.05, 3.0)
        cancelled, top_exp2 = kernels._term_profile(n, m, r)
        prec = max(8, cancelled + rng.randint(-16, 24))
        low = pure.eval_residual(n, m, r, prec, top_exp2=top_exp2)
        high = pure.eval_residual(n, m, r, 2 * prec, top_exp2=top_exp2)
        assert low[3] >= top_exp2
        with mpmath.mp.workprec(4 * prec):
            diff = abs(mpmath.ldexp(low[1], low[2]) - mpmath.ldexp(high[1], high[2]))
            # both mantissas are rounded to doubles: allow half an ulp each
            ulps = mpmath.ldexp(1, low[2] - 53) + mpmath.ldexp(1, high[2] - 53)
            assert diff <= (n - 1) * mpmath.ldexp(1, low[3] - prec) + ulps, (n, m, r, prec)


# (N, M, r) -> (mantissa, exp2) of the float pass this one replaced
FROZEN_EXTREMES = [
    (3, 0, 1e-300, 0.7119397697691651, -2987),
    (3, 0, 300.0, 0.6865095714041455, 19),
    (3, 0, 1e30, 0.6223015277861143, 202),
    (3, 0, 1e300, 0.5574278282379019, 1996),
    (3, 10**400, 0.5, 0.5201228452096197, -3985),
    (5, 0, 1e-300, 0.5296751370522849, -4979),
    (5, 0, 300.0, 0.6861326453151548, 19),
    (5, 0, 1e30, 0.6223015277861143, 202),
    (5, 0, 1e300, 0.5574278282379019, 1996),
    (5, 10**400, 0.5, 0.8009790163680514, -6640),
    (7, 0, 1e-300, 0.8653582230413182, -6972),
    (7, 0, 300.0, 0.6858261288511269, 19),
    (7, 0, 1e30, 0.6223015277861143, 202),
    (7, 0, 1e300, 0.5574278282379019, 1996),
    (7, 10**400, 0.5, 0.7709325193207084, -9293),
]


@pytest.mark.parametrize(
    "n,m,r,mantissa,exp2",
    FROZEN_EXTREMES,
    ids=[f"{n}-{'huge' if m else m}-{r}" for n, m, r, _, _ in FROZEN_EXTREMES],
)
def test_frozen_extremes(n, m, r, mantissa, exp2):
    result = residual_sum(n, m, r)
    assert (result.mantissa, result.exp2) == (mantissa, exp2)
    assert result.value == (math.ldexp(mantissa, exp2) if exp2 <= 1024 else math.inf)


def test_error_bound_gives_the_nearest_double():
    # the half-bits rule accepted this at 72 bits with ~33 bits left;
    # reference 1.275744375752709765e-10
    result = residual_sum(8, 7, 0.0809)
    assert result.value == 1.2757443757527098e-10


def test_min_precision_floor_is_respected():
    result = residual_sum(3, 0, 0.5, min_precision=512)
    assert result.precision >= 512
    assert result.value == pytest.approx(0.54438524694163870471, rel=1e-15)


def test_environment_floor(monkeypatch):
    monkeypatch.setenv(config.ENV_PRECISION, "300")
    assert config.starting_precision(3) == 300
    monkeypatch.setenv(config.ENV_PRECISION, "not-a-number")
    with pytest.raises(ValueError):
        config.starting_precision(3)


@pytest.mark.parametrize("bits", [1, 0, -64])
def test_explicit_min_precision_is_validated(bits):
    with pytest.raises(ValueError):
        config.starting_precision(3, bits)
    with pytest.raises(ValueError):
        residual_sum(3, 0, 0.5, min_precision=bits)


def test_explicit_min_precision_is_capped(monkeypatch):
    assert config.starting_precision(3, 10**9) == config.MAX_PRECISION
    monkeypatch.setenv(config.ENV_PRECISION, str(10**9))
    assert config.starting_precision(3) == config.MAX_PRECISION


def test_validation():
    with pytest.raises(ValueError):
        residual_sum(1, 0, 0.5)
    with pytest.raises(ValueError):
        residual_sum(3, -1, 0.5)
    with pytest.raises(ValueError):
        residual_sum(3, 0, -0.5)
    with pytest.raises(ValueError):
        residual_sum(3, 0, math.nan)
    with pytest.raises(TypeError):
        residual_sum(3.5, 0, 0.5)


@pytest.mark.parametrize(
    "n,m,r", [(2, 0, 0.37), (3, 0, 0.5), (50, 3, 0.8), (200, 0, 0.4)]
)
def test_backends_agree_bit_for_bit(n, m, r):
    native = _native()
    prec = config.starting_precision(n)
    _, top_exp2 = kernels._term_profile(n, m, r)
    assert pure.eval_residual(n, m, r, prec, top_exp2=top_exp2) == native.eval_residual(
        n, m, r, prec, top_exp2=top_exp2
    )


def test_comparison_backends_agree():
    native = _native()
    for n, a, b, c in [(2, 1.0, 1.0, 2.0), (30, 1.0, 0.5, 2.0), (30, 2.0, 1.0, 1.0)]:
        prec = config.starting_precision(n)
        assert pure.eval_comparison(n, a, b, c, prec) == native.eval_comparison(
            n, a, b, c, prec
        )


def test_backend_resolution():
    module, name = kernels._resolve("")
    assert name in ("native", "python")
    assert kernels._resolve("python") == (pure, "python")
    with pytest.raises(ValueError):
        kernels._resolve("bogus")
    assert kernels.backend_name() in kernels.available_backends()


def test_native_backend_resolution():
    native = _native()
    assert kernels._resolve("native") == (native, "native")


@given(
    binade=st.integers(min_value=-300, max_value=300),
    gap=st.integers(min_value=1, max_value=200),
)
def test_pure_mantissa_stays_below_one(binade, gap):
    # 2**binade * (1 - 2**-gap) rounds to 2**binade once gap > 53
    with mpmath.mp.workprec(256):
        x = mpmath.ldexp(1 - mpmath.ldexp(1, -gap), binade)
    mantissa, exp2 = pure._mantissa_exp2(x)
    assert 0.5 <= mantissa < 1.0
    assert math.ldexp(mantissa, exp2) == float(x)
    mantissa, exp2 = pure._mantissa_exp2(-x)
    assert -1.0 < mantissa <= -0.5
    assert math.ldexp(mantissa, exp2) == -float(x)


def test_pure_mantissa_at_a_power_of_two():
    # 1 / (1 + 2**-60) is the comparison sum's only term at n = 2, a = 0
    _, mantissa, exp2, _, _ = pure.eval_comparison(2, 0.0, 2.0**-60, 1.0, 128)
    assert (mantissa, exp2) == (0.5, 1)
    assert comparison_sum(2, 0.0, 2.0**-60, 1.0).value == 1.0


COMPARISON_CASES = [
    # (n, b, c) -> frozen alternating sum (a = 1 throughout)
    (3, 1.0, 1.0, 0.5),
    (4, 1.0, 1.0, 1.0 / 3.0),
    (30, 0.5, 2.0, 1.39043381535039e-5),
    (30, 2.0, 0.5, 0.783717475069129),
]


@pytest.mark.parametrize("n,b,c,expected", COMPARISON_CASES)
def test_comparison_frozen_values(n, b, c, expected):
    result = comparison_sum(n, 1.0, b, c)
    assert result.value == pytest.approx(expected, rel=1e-12)


def test_comparison_two_parties_is_inverse_offset():
    # only the j=0 term survives: 1/c
    result = comparison_sum(2, 1.0, 3.0, 4.0)
    assert result.value == pytest.approx(0.25, rel=1e-15)


def test_comparison_validation():
    with pytest.raises(ValueError):
        comparison_sum(1, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        comparison_sum(4, -1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        comparison_sum(4, 1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        comparison_sum(4, 1.0, 1.0, -1.0)


def test_compare_orders_by_true_magnitude():
    tiny_pos = residual_sum(1000, 0, 0.05)  # ~8.4e-1136
    small_pos = residual_sum(1000, 0, 0.5)  # ~9.8e-201
    one = residual_sum(3, 0, 0.5)
    zero = residual_sum(3, 0, 0.0)
    assert compare(tiny_pos, small_pos) < 0
    assert compare(small_pos, one) < 0
    assert compare(zero, tiny_pos) < 0
    assert compare(one, one) == 0
    assert compare(zero, zero) == 0
    negative = SumResult(-1e-10, -0.5, -32, 64)
    assert compare(negative, zero) < 0
    assert compare(negative, tiny_pos) < 0
    deeper_negative = SumResult(0.0, -0.5, -4000, 64)
    assert compare(deeper_negative, negative) > 0


def test_decimal_rendering():
    assert residual_sum(3, 0, 0.0).decimal() == "0"
    assert residual_sum(3, 0, 0.5).decimal(12) == "0.544385246942"
    assert residual_sum(500, 0, 0.05).decimal(12) == "1.17728449104e-568"
