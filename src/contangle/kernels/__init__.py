"""Alternating binomial sums with automatic precision escalation.

The residual contangle of an N-party state is an alternating sum whose
terms carry binomial weights up to ``C(N-1, (N-1)//2)``; for N around a
thousand the cancellation eats close to a thousand bits, and for weak
squeezing the surviving value can lie far below the double-precision
range.  The kernels therefore:

* evaluate in arbitrary-precision arithmetic and accept a pass once the
  bits that survive the cancellation (the sum's exponent minus the
  largest term's, plus the working precision) cover a double plus the
  summation error bound of :func:`contangle.config.required_bits`;
* start the residual at the cancellation predicted in doubles from the
  Beta-function magnitude ``B(N, x0)`` of Rice's integral (see
  :func:`_predicted_cancellation`) plus that bound and a little slack,
  never below the generic ``N + 96`` bits, so almost every call is
  accepted on its first pass.  Other sums, and residuals without a
  finite prediction, start at the generic precision;
* after a pass that falls short but still shows real leading bits, add
  exactly the missing bits plus the slack; after a pass with no real
  bits, double the precision.  The prediction only chooses the first
  pass, so a wrong one costs time, never accuracy;
* report results as :class:`SumResult`, which carries the nearest double
  *and* an exponent-exact ``mantissa * 2**exp2`` view, so magnitudes below
  the double range stay ordered and printable.

Two interchangeable backends exist: a compiled MPFR kernel (built at
install time when the MPFR/GMP headers are available) and a pure
:mod:`mpmath` one.  Selection happens at import; set the environment
variable ``CONTANGLE_BACKEND`` to ``native`` or ``python`` to force a
choice, anything else defaults to the compiled kernel when present.
"""

from __future__ import annotations

import math
import operator
import os
from dataclasses import dataclass

import mpmath

from .. import config
from . import pure

try:
    from . import _sumcore
except ImportError:  # compiled kernel not built; the pure backend covers it
    _sumcore = None

__all__ = [
    "SumResult",
    "compare",
    "residual_sum",
    "comparison_sum",
    "backend_name",
    "available_backends",
]


def _resolve(choice: str):
    """Map a backend choice string to (module, name); '' means automatic."""
    choice = choice.strip().lower()
    if choice in ("", "auto"):
        if _sumcore is not None:
            return _sumcore, "native"
        return pure, "python"
    if choice == "native":
        if _sumcore is None:
            raise ImportError(
                f"{config.ENV_BACKEND}=native requested but the compiled "
                "kernel is not available; rebuild with MPFR/GMP installed"
            )
        return _sumcore, "native"
    if choice == "python":
        return pure, "python"
    raise ValueError(
        f"unrecognized {config.ENV_BACKEND} value {choice!r}; "
        "use 'native', 'python' or 'auto'"
    )


_BACKEND, _BACKEND_NAME = _resolve(os.environ.get(config.ENV_BACKEND, ""))


def backend_name() -> str:
    """Name of the backend selected at import ('native' or 'python')."""
    return _BACKEND_NAME


def available_backends() -> tuple[str, ...]:
    return ("native", "python") if _sumcore is not None else ("python",)


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


def _predicted_cancellation(n: int, m: int, r: float) -> int | None:
    """Bits the residual sum of :func:`residual_sum` should cancel, in doubles.

    The sum is the ``(n-1)``-th finite difference of
    ``f(z) = asinh(sqrt(w(z)))**2``, with ``w`` rational in ``z``.  By
    Rice's integral (Flajolet & Sedgewick, "Mellin transforms and
    asymptotics: finite differences and Rice's integrals", TCS 144, 1995)
    it is dominated by the log singularity of ``f`` at the pole of ``w``,
    ``z = -x0``, so ``|sum| ~ B(n, x0) = Gamma(n) Gamma(x0) / Gamma(n + x0)``.
    The cancellation is log2 of the largest term minus ``log2 B``.  Returns
    None where that is not a finite number (zero, overflowing or
    underflowing squeezing); the caller then keeps the generic start.
    """
    try:
        e4m1 = math.expm1(4.0 * r)
        scale = 4.0 * math.sinh(2.0 * r) ** 2 / (n + m)
        x0 = (e4m1 * m + m + n) / e4m1
    except (OverflowError, ZeroDivisionError):  # r = 0, or beyond the doubles
        return None
    e4 = e4m1 + 1.0
    top = -math.inf  # log2 of the largest term
    log2_binom = 0.0
    for j in range(n - 1):
        w = scale * (n - 1 - j) / (e4 * (j + m) + (n - j))
        f = math.asinh(math.sqrt(w)) ** 2
        if f > 0.0:
            top = max(top, log2_binom + math.log2(f))
        log2_binom += math.log2((n - 1 - j) / (j + 1))
    if not (math.isfinite(top) and math.isfinite(x0)):
        return None
    # ln B = ln (n-1)! - ln(x0 (x0+1) ... (x0+n-1)): unlike a difference
    # of lgamma values, this stays exact when x0 is huge (tiny squeezing)
    log_b = math.lgamma(n) - math.fsum(math.log(x0 + k) for k in range(n))
    log2_b = log_b / math.log(2)
    return math.floor(top) + 1 - math.floor(log2_b)


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
    cancelled = _predicted_cancellation(n, m, r)
    if cancelled is not None:
        predicted = cancelled + config.required_bits(n) + config.JUMP_SLACK
        prec = min(config.MAX_PRECISION, max(prec, predicted))
    return _escalate(lambda prec: _BACKEND.eval_residual(n, m, r, prec), n, prec)


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
        lambda prec: _BACKEND.eval_comparison(n, a, b, c, prec),
        n,
        config.starting_precision(n, min_precision),
    )
