"""Alternating binomial sums with automatic precision escalation.

The residual contangle of an N-party state is an alternating sum whose
terms carry binomial weights up to ``C(N-1, (N-1)//2)``; for N around a
thousand the cancellation eats close to a thousand bits, and for weak
squeezing the surviving value can lie far below the double-precision
range.  The kernels therefore:

* profile the residual's terms once per call, in doubles and in log form
  (:func:`_term_profile`): ``top_exp2``, the exponent of the largest
  term, and the cancellation predicted from the Beta-function magnitude
  ``B(N, x0)`` of Rice's integral.  The profile is finite for every
  squeezing ``r > 0`` and every traced count;
* evaluate each residual pass in fixed point: every term is an integer in
  units of ``2**(top_exp2 - prec)``, off by less than one unit, and the
  terms are summed exactly, so the pass errs by at most
  ``(N-1) 2**(top_exp2 - prec)``.  The pass reports
  ``max_exp2 = max(top_exp2, observed)``, and the acceptance bound below
  holds whatever the estimate (see :mod:`contangle.kernels.pure`);
* accept a pass once the bits that survive the cancellation (the sum's
  exponent minus the largest term's, plus the working precision) cover a
  double plus the summation error bound of
  :func:`contangle.config.required_bits`;
* start the residual at the predicted cancellation plus that bound and a
  little slack, never below the generic ``N + 96`` bits, so almost every
  call is accepted on its first pass.  Other sums start at the generic
  precision;
* after a pass that falls short but still shows real leading bits, add
  exactly the missing bits plus the slack; after a pass with no real
  bits, double the precision.  The profile only chooses the first pass
  and the unit of the fixed point, so a wrong one costs time, never
  accuracy;
* report results as :class:`SumResult`, which carries the nearest double
  *and* an exponent-exact ``mantissa * 2**exp2`` view, so magnitudes below
  the double range stay ordered and printable.

Each pass is evaluated by :mod:`contangle.kernels.pure`, in Python
integers plus :mod:`mpmath`.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import mpmath

from .. import config
from . import pure

__all__ = [
    "SumResult",
    "compare",
    "residual_sum",
    "comparison_sum",
    "backend_name",
]

#: kept for ``perfbench/tracer.py``, which patches the pass functions
#: ``eval_residual`` and ``eval_comparison`` through this name
_BACKEND = pure


def backend_name() -> str:
    """Name of the kernel that evaluates the passes, ``'python'``."""
    return "python"


@dataclass(frozen=True)
class SumResult:
    """Value of an alternating sum, with headroom below the double range.

    ``value`` is the sum rounded to the nearest binary64 (zero when the
    true magnitude underflows).  ``mantissa * 2**exp2`` reproduces the sum
    with the mantissa in ``[0.5, 1)`` up to sign; both are zero only for
    an exactly zero sum.  ``precision`` records the working precision in
    bits at which the escalation loop accepted the result.
    """

    value: float
    mantissa: float
    exp2: int
    precision: int

    @property
    def is_zero(self) -> bool:
        return self.mantissa == 0.0

    def magnitude_log2(self) -> float:
        """log2 of the absolute value; -inf for zero."""
        if self.is_zero:
            return -math.inf
        return self.exp2 + math.log2(abs(self.mantissa))

    def decimal(self, digits: int = 12) -> str:
        """Decimal string with ``digits`` significant digits.

        Unlike formatting ``value``, this stays exact for magnitudes
        outside the double range.
        """
        if self.is_zero:
            return "0"
        with mpmath.mp.workdps(max(digits + 10, 25)):
            exact = mpmath.ldexp(mpmath.mpf(self.mantissa), self.exp2)
            return mpmath.nstr(exact, digits)


def compare(x: SumResult, y: SumResult) -> int:
    """Three-way order of two results by true value (-1, 0 or +1).

    Works on the (sign, exp2, mantissa) view, so values far below the
    double range are still ordered correctly.
    """
    sx = (x.mantissa > 0.0) - (x.mantissa < 0.0)
    sy = (y.mantissa > 0.0) - (y.mantissa < 0.0)
    if sx != sy:
        return -1 if sx < sy else 1
    if sx == 0:
        return 0
    if x.exp2 != y.exp2:
        bigger = 1 if x.exp2 > y.exp2 else -1
        return bigger * sx
    if x.mantissa == y.mantissa:
        return 0
    return sx * (1 if abs(x.mantissa) > abs(y.mantissa) else -1)


def _escalate(evaluate, n_terms: int, prec: int) -> SumResult:
    need = config.required_bits(n_terms)
    while True:
        value, mantissa, exp2, max_exp2, any_term = evaluate(prec)
        if not any_term:
            return SumResult(0.0, 0.0, 0, prec)
        survived = exp2 - (max_exp2 - prec)
        if mantissa != 0.0 and survived >= need:
            return SumResult(value, mantissa, exp2, prec)
        if prec >= config.MAX_PRECISION:
            raise ArithmeticError(
                f"cancellation still leaves fewer than {need} bits at "
                f"{prec} bits; giving up"
            )
        if mantissa != 0.0 and survived >= n_terms.bit_length() + config.JUMP_SLACK:
            # the leading bits are real, so the cancellation is known:
            # add just the missing bits
            prec += need - survived + config.JUMP_SLACK
        else:  # the sum is rounding noise: nothing is known, double
            prec *= 2
        prec = min(prec, config.MAX_PRECISION)


_LN2 = math.log(2.0)


def _term_profile(n: int, m: int, r: float) -> tuple[int, int] | None:
    """``(cancelled bits, top_exp2)`` of the residual sum, in doubles.

    ``top_exp2 = floor(log2 max_j C(n-1, j) f_j) + 1`` is the exponent the
    pass takes as the largest term's.  The sum is the ``(n-1)``-th finite
    difference of ``f(z) = asinh(sqrt(w(z)))**2``, with ``w`` rational in
    ``z``.  By Rice's integral (Flajolet & Sedgewick, "Mellin transforms
    and asymptotics: finite differences and Rice's integrals", TCS 144,
    1995) it is dominated by the log singularity of ``f`` at the pole of
    ``w``, ``z = -x0``, so ``|sum| ~ B(n, x0) = Gamma(n) Gamma(x0) /
    Gamma(n + x0)``, and the cancellation is ``top_exp2 - log2 B``.

    Everything is taken in log form, with ``d = e**(-4r)`` decaying, so the
    profile is finite for every ``r > 0`` and every ``m``: squeezing whose
    ``sinh**2`` underflows or whose ``e**(4r)`` overflows, and traced
    counts beyond the doubles.  Returns None only at ``r = 0``, where
    every term vanishes.
    """
    if r == 0.0:
        return None
    nm = n + m
    d = math.exp(-4.0 * r)
    log_1md = math.log(-math.expm1(-4.0 * r))  # ln(1 - d)
    log_c = 2.0 * (log_1md - math.log(nm))  # c = (1 - d)**2 / nm**2
    c = math.exp(log_c)
    top = -math.inf  # log2 of the largest term
    log2_binom = 0.0
    for j in range(n - 1):
        if j + m == 0:
            # sqrt(w) = 2 sinh(2r) sqrt(n-1) / n = e**(2r + k0), unbounded
            k0 = log_1md + 0.5 * math.log(n - 1) - math.log(n)
            if 2.0 * r + k0 > 20.0:  # asinh = 2r + k0 + ln 2, maybe past the doubles
                log_a = math.log(r) + math.log(2.0 + (k0 + _LN2) / r)
            elif 2.0 * r + k0 < -20.0:  # asinh(x) = x to double precision
                log_a = 2.0 * r + k0
            else:
                log_a = math.log(math.asinh(math.exp(2.0 * r + k0)))
            log2_f = 2.0 * log_a / _LN2
        else:
            # w = c (n-1-j) / den < 1, den = (j + m + (n-j) d) / nm
            den = (j + m) / nm + (n - j) / nm * d
            if log_c > -700.0:
                log2_f = math.log2(math.asinh(math.sqrt(c * (n - 1 - j) / den)) ** 2)
            else:  # w underflows, and f = w to double precision
                log2_f = (log_c + math.log(n - 1 - j) - math.log(den)) / _LN2
        top = max(top, log2_binom + log2_f)
        log2_binom += math.log2((n - 1 - j) / (j + 1))
    # x0 = m + nm / (e**(4r) - 1); ln B = ln (n-1)! - ln(x0 (x0+1) ... (x0+n-1))
    log_x0 = math.log(nm) - 4.0 * r - log_1md
    if m:  # ln(m + e**log_x0)
        log_m = math.log(m)
        log_x0 = max(log_x0, log_m) + math.log1p(math.exp(-abs(log_x0 - log_m)))
    if log_x0 > 700.0:  # every x0 + k rounds to x0
        log_prod = n * log_x0
    else:
        x0 = math.exp(log_x0)
        log_prod = math.fsum([log_x0, *(math.log(x0 + k) for k in range(1, n))])
    # a magnitude above the largest term predicts no cancellation, which
    # the generic start covers anyway; this also caps x0 -> 0 (r -> inf)
    log2_b = min(top, (math.lgamma(n) - log_prod) / _LN2)
    top_exp2 = math.floor(top) + 1
    return top_exp2 - math.floor(log2_b), top_exp2


def _bit_terms(n: int, prec: int) -> int:
    """Cost of a residual pass of ``prec`` bits over ``n - 1`` terms.

    A pass costs its bit-terms, ``prec * (n - 1)``, weighted by
    ``max(1, prec / config.PRECISION_KNEE)`` because a bit-term grows
    dearer at high precision.
    """
    return prec * (n - 1) * max(prec, config.PRECISION_KNEE) // config.PRECISION_KNEE


def _check_budget(n: int, r: float, prec: int) -> None:
    """Refuse a residual pass of ``prec`` bits over ``n - 1`` terms that
    costs more (see :func:`_bit_terms`) than ``config.MAX_BIT_TERMS``.

    At ``r = 0`` every term vanishes and the pass costs nothing.
    """
    if r == 0.0:
        return
    cost = _bit_terms(n, prec)
    if cost > config.MAX_BIT_TERMS:
        shown = f"{cost:.3g}" if cost < 1e308 else "more than 1e+308"
        raise ValueError(
            f"residual of {n} kept modes at r_bar={r} needs a pass of {prec} bits "
            f"over {n - 1} terms, {shown} bit-terms, above the budget "
            f"of {config.MAX_BIT_TERMS:.3g}"
        )


def residual_sum(
    n_kept: int,
    n_traced: int,
    r_bar: float,
    *,
    min_precision: int | None = None,
) -> SumResult:
    """Residual contangle of the symmetric ``n_kept``-mode state.

    The state is the reduction of the pure ``n_kept + n_traced``-mode
    fully symmetric state with mean squeezing ``r_bar``.  Evaluated as the
    alternating binomial sum over the one-versus-block terms, at whatever
    precision the cancellation demands.

    The cancellation, and with it the cost, grows as about
    ``n_kept * log2(1 / r_bar)``.  A pass whose cost (see
    :func:`_bit_terms`) exceeds ``config.MAX_BIT_TERMS`` (2e7 bit-terms)
    raises ValueError instead of running; a call whose starting precision
    already does is refused before its terms are profiled.
    ``(1000, 0, 0.05)`` is 4.8e6 bit-terms and ``(1000, 0, 1e-10)`` 3.4e7;
    the dearest call under the budget takes about a minute on a 2-vCPU
    Xeon.
    """
    n = operator.index(n_kept)
    m = operator.index(n_traced)
    if n < 2:
        raise ValueError(f"need at least two kept modes, got {n}")
    if m < 0:
        raise ValueError(f"traced mode count must be >= 0, got {m}")
    r = float(r_bar)
    if not math.isfinite(r) or r < 0.0:
        raise ValueError(f"mean squeezing must be finite and >= 0, got {r}")
    prec = config.starting_precision(n, min_precision)
    # every pass runs at or above the starting precision, or at
    # MAX_PRECISION where the n - 1 terms are far above the budget anyway,
    # so a call refused here would be refused at its first pass
    _check_budget(n, r, prec)
    profile = _term_profile(n, m, r)
    if profile is None:  # r = 0: the pass returns an exact zero
        top_exp2 = 0
    else:
        cancelled, top_exp2 = profile
        predicted = cancelled + config.required_bits(n) + config.JUMP_SLACK
        prec = min(config.MAX_PRECISION, max(prec, predicted))

    def evaluate(prec: int):
        _check_budget(n, r, prec)
        return pure.eval_residual(n, m, r, prec, top_exp2=top_exp2)

    return _escalate(evaluate, n, prec)


def comparison_sum(
    n_parties: int,
    a: float,
    b: float,
    c: float,
    *,
    min_precision: int | None = None,
) -> SumResult:
    """Alternating binomial sum of the comparison sequence
    ``(n-1-j) / ((n-1) * (c + b * j**a))`` for ``j`` from 0 to ``n-1``."""
    n = operator.index(n_parties)
    if n < 2:
        raise ValueError(f"need at least two parties, got {n}")
    a, b, c = float(a), float(b), float(c)
    if not (math.isfinite(a) and a >= 0.0):
        raise ValueError(f"exponent a must be finite and >= 0, got {a}")
    if not (math.isfinite(b) and b > 0.0) or not (math.isfinite(c) and c > 0.0):
        raise ValueError(f"coefficients b, c must be finite and > 0, got {b}, {c}")
    return _escalate(
        lambda prec: pure.eval_comparison(n, a, b, c, prec),
        n,
        config.starting_precision(n, min_precision),
    )
