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


def _exact_ln(y, width, bits):
    """``ln(y 2**-width) 2**bits`` in mpmath, 64 bits beyond ``bits``."""
    with mpmath.mp.workprec(bits + 64):
        return mpmath.ldexp(mpmath.log(mpmath.ldexp(y, -width)), bits)


def test_ln_fixed_error_bound():
    # _ln_fixed errs by less than K + 3 n + 6 units of 2**-p, with K the
    # factor count and n <= p / (4 (K + 1)) + 1 the series steps: under
    # 170 units at the cap.  The rounded logarithm of the pass errs by less
    # than 0.5 + 170 / 2**_LOG_GUARD units of 2**-width, and past the cap,
    # where mpf_log takes over, by less than 0.51
    rng = random.Random(20261021)
    cap_width = pure._LOG_CAP - pure._LOG_GUARD
    widths = [2, 3, 5, 8, 13, 30, 64, 100, 190, 400, 1000, 2390, 5000]
    widths += [cap_width, cap_width + 1, cap_width + 40]
    for width in widths:
        unit = 1 << width
        ys = [unit, 2 * unit, 4 * unit, 4 * unit - 1, 4 * unit + 1, 2 * unit - 1]
        ys += [rng.randrange(unit, 6 * unit) for _ in range(40 if width < 2000 else 4)]
        p = width + pure._LOG_GUARD
        for y in ys:
            rounded = pure._log_fixed(y, width)
            assert abs(rounded - _exact_ln(y, width, width)) < 0.5 + 170 / 2**pure._LOG_GUARD
            if p > pure._LOG_CAP:
                continue
            k = pure._factors(p)
            bound = k + 3 * (p // (4 * (k + 1)) + 1) + 6
            assert bound < 170
            assert abs(pure._ln_fixed(y, width, p) - _exact_ln(y, width, p)) < bound, (width, y)


def test_ln_constants_cache_is_one_bounded_list(monkeypatch):
    monkeypatch.setattr(pure, "_ln_cache", (0, []))
    y, width = 5 << 60, 62  # ln(5/4)
    first = pure._ln_fixed(y, width, 72)
    for p in (72, 300, 301, 2000, 6000, pure._LOG_CAP):
        pure._ln_fixed(y, width, p)
        prec, table = pure._ln_cache
        # at least the precision asked for, at most the cap
        assert p <= prec <= pure._LOG_CAP
        assert len(table) == pure._factors(prec) + 1 <= pure._LOG_FACTORS + 1
    # a pass past the cap leaves the cache at the cap
    pure.eval_residual(3, 0, 0.5, 3 * pure._LOG_CAP, top_exp2=1)
    assert pure._ln_cache[0] == pure._LOG_CAP
    # each entry is the exact floor of ln(1 + 2**-k) 2**prec, so a result
    # at lower precision does not depend on what filled the cache
    prec, table = pure._ln_cache
    with mpmath.mp.workprec(prec + 64):
        for k, entry in enumerate(table):
            assert entry == int(mpmath.floor(mpmath.ldexp(mpmath.log1p(mpmath.ldexp(1, -k)), prec)))
    assert pure._ln_fixed(y, width, 72) == first


def test_few_term_passes_leave_the_constants_unfilled(monkeypatch):
    # a fresh process pays the constants once per pass that needs them; a
    # pass with few terms takes mpf_log instead, from a cap that depends on
    # its term count alone
    assert [pure._log_cap(t) for t in range(1, 9)] == [
        256, 512, 1024, 2048, 4096, 8192, 8192, 8192
    ]
    monkeypatch.setattr(pure, "_ln_cache", (0, []))
    cold = [residual_sum(3, 0, 0.5, min_precision=p) for p in (2400, 8000)]
    assert pure._ln_cache == (0, [])
    # seven kept modes at r = 1e-300 take about 7,060-bit logarithms
    deep = residual_sum(7, 0, 1e-300)
    assert 7000 < pure._ln_cache[0] <= pure._LOG_CAP
    # a full cache changes no result
    pure._ln_constants(pure._LOG_CAP)
    assert [residual_sum(3, 0, 0.5, min_precision=p) for p in (2400, 8000)] == cold
    assert residual_sum(7, 0, 1e-300) == deep


# (N, M, r) -> (value, mantissa, exp2, precision) of the pass that took each
# logarithm with mpf_log: the twelve deep-sweep points of the benchmark, and
# a seeded grid with N 2-200, M 0-20 and r 0.01-5
FROZEN_DEEP_SWEEP = [
    (100, 0, 1.15, 0.0031897192860785946, 0.8165681372361202, -8, 196),
    (215, 0, 1.15, 3.1220640126454358e-06, 0.8184303485309251, -18, 311),
    (464, 0, 1.15, 1.5165997388901247e-12, 0.8337595237958688, -39, 571),
    (1000, 0, 1.15, 6.13969489979121e-26, 0.5937948551131078, -83, 1152),
    (100, 0, 0.6, 1.305082407303902e-15, 0.7346960804027054, -49, 217),
    (215, 0, 0.6, 1.7415369746409385e-32, 0.7064513251914369, -105, 388),
    (464, 0, 0.6, 7.877904291245144e-69, 0.849551518163545, -226, 758),
    (100, 0, 0.3, 3.007302446853569e-39, 0.5116659973312311, -127, 295),
    (215, 0, 0.3, 3.8149045190623505e-83, 0.5789919012495144, -273, 556),
    (464, 0, 0.3, 5.345845962049225e-178, 0.5415691173916711, -588, 1120),
    (100, 0, 0.1, 8.286769090629954e-85, 0.8049224264712252, -279, 444),
    (215, 0, 0.1, 5.171534570757268e-181, 0.5364840804090891, -598, 879),
]
FROZEN_GRID = [
    (141, 12, 0.3684, 3.685357117019604e-53, 0.8824677106767048, -174, 383),
    (4, 12, 0.1234, 2.6034227982720782e-06, 0.6824716660302357, -18, 100),
    (165, 20, 0.0426, 7.516990243268871e-209, 0.7722732470743638, -691, 920),
    (104, 12, 0.01001, 7.194919815509716e-197, 0.6722845574515982, -651, 813),
    (58, 0, 0.01398, 4.880802936399561e-99, 0.667221235010187, -326, 443),
    (161, 18, 0.4992, 5.435545143470217e-49, 0.794405812696776, -160, 389),
    (32, 14, 0.1267, 1.097979306524872e-30, 0.6959270634772146, -99, 196),
    (29, 9, 1.077, 2.753143842144392e-10, 0.5912331381596975, -31, 127),
    (174, 8, 1.416, 3.2319418659039754e-16, 0.7277686091484125, -51, 294),
    (38, 4, 0.02088, 2.614522883128589e-60, 0.5251720360606289, -197, 296),
    (168, 1, 0.02034, 6.44423186720026e-258, 0.7740828670676078, -854, 1084),
    (14, 8, 0.02879, 5.393530585166603e-23, 0.5094045611944614, -73, 146),
    (192, 0, 2.136, 2.67656150229777, 0.6691403755744425, 2, 288),
    (144, 11, 0.05688, 8.89003982562526e-162, 0.9998880701385968, -535, 743),
    (29, 4, 0.01901, 8.717442215975101e-48, 0.7962847544990715, -156, 244),
    (120, 2, 2.044, 2.2615015699595937e-05, 0.7410488344443596, -15, 216),
    (27, 18, 0.03815, 3.632511758778465e-41, 0.7910910074529773, -134, 221),
    (103, 20, 0.01806, 8.06454666658566e-172, 0.7791435799786008, -568, 731),
    (100, 13, 1.542, 7.483924069856674e-19, 0.8628376998982554, -60, 228),
    (169, 0, 0.0265, 1.3793725969164562e-239, 0.7185684675435856, -793, 1025),
    (144, 8, 0.5458, 7.2969442278345194e-34, 0.9471975147772255, -110, 323),
    (200, 19, 0.4104, 2.1405949925448773e-69, 0.9233652293596738, -228, 495),
    (20, 8, 0.2646, 8.552870494896979e-14, 0.75231844480012, -43, 129),
    (192, 19, 0.07577, 9.604047174432269e-194, 0.8763578984437892, -641, 898),
    (67, 10, 0.8203, 1.7194216054815604e-16, 0.7743586501739536, -52, 187),
    (13, 16, 0.05381, 4.556724920224963e-20, 0.8405673841768446, -64, 137),
    (66, 2, 0.2488, 1.8912753506994236e-32, 0.7671924267235134, -105, 238),
    (186, 2, 0.4344, 1.042623529652274e-48, 0.7618979978532618, -159, 413),
    (144, 6, 0.05743, 6.655113222691115e-159, 0.730976090864548, -525, 734),
    (60, 6, 0.01417, 1.2813800221202838e-104, 0.918388533528187, -345, 464),
    (3, 17, 0.1815, 3.8926398906908556e-05, 0.6377701196907898, -14, 99),
    (48, 4, 0.02282, 1.1671274272173491e-73, 0.8248542676005283, -242, 351),
    (133, 15, 0.2355, 7.536756749050462e-74, 0.5326518616003395, -242, 443),
    (46, 17, 0.06858, 4.6381991013135503e-54, 0.8885024300513986, -177, 286),
    (113, 7, 0.1975, 2.1338061140456945e-67, 0.7190912379088985, -221, 400),
    (132, 11, 3.637, 5.805163709676574e-18, 0.8366122598311726, -57, 258),
    (117, 1, 0.02629, 4.3457137640312455e-167, 0.6406468927532698, -552, 730),
    (65, 8, 0.0606, 3.4856887494175004e-73, 0.6158678935639348, -240, 370),
    (95, 14, 0.5177, 6.232887992445857e-31, 0.7901124204779314, -100, 262),
    (25, 8, 0.1745, 6.110022629325129e-20, 0.5635501186386729, -63, 153),
]


@pytest.mark.parametrize(
    "n,m,r,value,mantissa,exp2,precision",
    FROZEN_DEEP_SWEEP + FROZEN_GRID,
    ids=[f"{n}-{m}-{r}" for n, m, r, *_ in FROZEN_DEEP_SWEEP + FROZEN_GRID],
)
def test_shift_add_log_reproduces_the_mpf_log_pass(n, m, r, value, mantissa, exp2, precision):
    result = residual_sum(n, m, r)
    assert (result.value, result.mantissa, result.exp2, result.precision) == (
        value,
        mantissa,
        exp2,
        precision,
    )


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


@pytest.mark.parametrize("n,r", [(1000, 5e-324), (1000, 1e-100), (1000, 1e-10)])
def test_cost_budget_refuses_tiny_squeezing_at_many_modes(monkeypatch, n, r):
    # 1.07e9, 3.3e8 and 3.4e7 bit-terms: refused before any pass runs
    passes = _record_passes(monkeypatch)
    with pytest.raises(ValueError, match="budget"):
        residual_sum(n, 0, r)
    assert passes == []


def test_cost_budget_boundary(monkeypatch):
    passes = _record_passes(monkeypatch)
    expected = residual_sum(10, 0, 0.8)
    cost = passes[0][0] * 9  # the one pass, at its precision over 9 terms
    monkeypatch.setattr(config, "MAX_BIT_TERMS", cost)
    assert residual_sum(10, 0, 0.8) == expected
    monkeypatch.setattr(config, "MAX_BIT_TERMS", cost - 1)
    with pytest.raises(ValueError, match="budget"):
        residual_sum(10, 0, 0.8)
    # an exact zero costs nothing, at any size
    assert residual_sum(10**6, 0, 0.0).is_zero


def test_heaviest_tested_call_is_well_under_the_budget(monkeypatch):
    passes = _record_passes(monkeypatch)
    residual_sum(1000, 0, 0.05)
    assert [prec * 999 for prec, _ in passes] == [4829166]
    assert 4 * 4829166 < config.MAX_BIT_TERMS


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
