"""mpmath implementation of the alternating-sum kernels.

This is the portable backend.  Each function evaluates one fixed-precision
pass of a sum; the escalation loop lives in the package ``__init__``.

Both backends share a calling convention: they return
``(value, mantissa, exp2, max_exp2, any_term)`` where ``value`` is the sum
rounded to the nearest double, ``mantissa * 2**exp2`` is an exponent-exact
view of the sum (``mantissa`` in ``[0.5, 1)`` up to sign), ``max_exp2``
bounds the magnitude of the largest term, and ``any_term`` is False when
every term vanished identically (then the sum is an exact zero rather
than a cancellation).
"""

from __future__ import annotations

import mpmath
from mpmath import mp

__all__ = ["eval_residual", "eval_comparison"]


def _mantissa_exp2(x) -> tuple[float, int]:
    """``x`` rounded to a double, as ``(mantissa, exp2)`` with the mantissa
    in ``[0.5, 1)`` up to sign, like MPFR's ``mpfr_get_d_2exp``.

    Just below a power of two the mantissa rounds up to 1.0; it is then
    renormalized into the next binade.
    """
    mantissa, exp2 = mpmath.frexp(x)
    mantissa, exp2 = float(mantissa), int(exp2)
    if abs(mantissa) == 1.0:
        mantissa, exp2 = mantissa / 2, exp2 + 1
    return mantissa, exp2


def eval_residual(n_kept: int, n_traced: int, r_bar: float, prec: int):
    """One pass of the alternating binomial contangle sum at ``prec`` bits.

    Terms are the one-versus-block contangles of the symmetric state of
    ``n_kept`` modes (``n_traced`` more traced out), weighted by
    ``(-1)**j * binomial(n_kept - 1, j)``.
    """
    with mp.workprec(prec):
        r = mpmath.mpf(r_bar)
        s = mpmath.sinh(2 * r)
        if s == 0:
            return (0.0, 0.0, 0, 0, False)
        e4 = mpmath.exp(4 * r)
        scale = 4 * s * s / (n_kept + n_traced)
        total = mpmath.mpf(0)
        binom = 1
        max_exp2 = None
        for j in range(n_kept - 1):
            arg = scale * (n_kept - 1 - j) / (e4 * (j + n_traced) + (n_kept - j))
            term = binom * mpmath.asinh(mpmath.sqrt(arg)) ** 2
            mag = int(mpmath.mag(term))
            if max_exp2 is None or mag > max_exp2:
                max_exp2 = mag
            total = total + term if j % 2 == 0 else total - term
            binom = binom * (n_kept - 1 - j) // (j + 1)
        return (float(total), *_mantissa_exp2(total), max_exp2, True)


def eval_comparison(n_parties: int, a: float, b: float, c: float, prec: int):
    """One pass of the alternating comparison-sequence sum at ``prec`` bits.

    Terms are ``(n-1-j) / ((n-1) * (c + b * j**a))`` with the same
    alternating binomial weights as the contangle sum.  The last index
    contributes zero and is kept only for bookkeeping symmetry.
    """
    n1 = n_parties - 1
    with mp.workprec(prec):
        aa = mpmath.mpf(a)
        bb = mpmath.mpf(b)
        cc = mpmath.mpf(c)
        total = mpmath.mpf(0)
        binom = 1
        max_exp2 = None
        any_term = False
        for j in range(n_parties):
            term = binom * (n1 - j) / (n1 * (cc + bb * mpmath.mpf(j) ** aa))
            if term != 0:
                any_term = True
                mag = int(mpmath.mag(term))
                if max_exp2 is None or mag > max_exp2:
                    max_exp2 = mag
            total = total + term if j % 2 == 0 else total - term
            if j < n1:
                binom = binom * (n1 - j) // (j + 1)
        if not any_term:
            return (0.0, 0.0, 0, 0, False)
        return (float(total), *_mantissa_exp2(total), max_exp2, True)
