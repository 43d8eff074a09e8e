"""Pure-Python implementation of the alternating-sum kernels.

This is the portable backend.  Each function evaluates one fixed-precision
pass of a sum; the escalation loop lives in the package ``__init__``.

Both backends share a calling convention: they return
``(value, mantissa, exp2, max_exp2, any_term)`` where ``value`` is the sum
rounded to the nearest double, ``mantissa * 2**exp2`` is an exponent-exact
view of the sum (``mantissa`` in ``[0.5, 1)`` up to sign), ``max_exp2``
bounds the magnitude of the largest term, and ``any_term`` is False when
every term vanished identically (then the sum is an exact zero rather
than a cancellation).

The residual pass works in fixed point.  The escalation loop accepts a
pass on an *absolute* error of ``2**(max_exp2 - prec)`` per term, so each
term is an integer ``T_j ~ C(N-1, j) f_j 2**F`` with ``F = prec - top_exp2``
and ``top_exp2`` the caller's estimate of the largest term's exponent, and
the sum of the ``T_j`` is exact.  Each term needs one ``mpf_log`` and one
``math.isqrt``:

* with ``d = exp(-4 r)`` and ``w_j = (1 - d)**2 (N-1-j) / ((N+M)(j+M + (N-j) d))``
  (the argument of the term, in a form whose exponentials all decay),
  ``w_j < 1`` whenever ``j + M >= 1``;
* ``y = 1 + 2 w + 2 sqrt(w (1 + w)) = (sqrt(w) + sqrt(1 + w))**2``, so
  ``ln y = 2 asinh(sqrt(w))`` and ``f_j = (ln y)**2 / 4``;
* ``w`` is a ``G_j``-bit fixed-point integer, ``G_j = F + bitlen(C_j) + 4``,
  computed from ``d`` carried ``bitlen(N)`` bits further, because ``w``
  varies with ``d`` up to ``N`` times as fast.

Error per term, in units of ``2**-G_j`` on ``f_j`` (``df/dw <= 1``,
``asinh(1) < 0.89``): at most 2 from ``w`` (``d`` and the floor
division), 1.8 from the ``isqrt`` floor and 0.5 from the rounded
logarithm.  Times ``C_j 2**(F - G_j) < 2**-4`` that is under 0.3 of a unit
of ``2**-F``, and the final rounding adds 0.5: ``|T_j - C_j f_j 2**F| < 1``.
The one term with ``j = M = 0`` has an unbounded ``w``; it is evaluated
as ``asinh(2 sinh(2 r) sqrt(N-1) / N)**2`` in ``prec + 8``-bit floats.  The
pass reports ``max_exp2 = max(top_exp2, observed)``, so the loop's bound
``N**2 2**(max_exp2 - prec)`` holds whatever the estimate, while the true
error is at most ``(N-1) 2**(top_exp2 - prec)``.  The returned double is
one correct rounding of the exact integer sum.
"""

from __future__ import annotations

import math

import mpmath
from mpmath import mp
from mpmath.libmp import (
    from_float,
    from_int,
    from_man_exp,
    mpf_asinh,
    mpf_div,
    mpf_exp,
    mpf_log,
    mpf_mul,
    mpf_shift,
    mpf_sinh,
    mpf_sqrt,
    round_nearest,
    to_float,
)

__all__ = ["eval_residual", "eval_comparison"]

#: bits per term beyond its binomial weight (see the module docstring)
_GUARD = 4
_LN2 = math.log(2.0)


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


def _fixed(x, bits: int) -> int:
    """The raw mpf ``x >= 0`` times ``2**bits``, rounded half up to an integer.

    A value below half a unit gives 0 without shifting by its exponent.
    """
    _, man, exp, bc = x
    shift = exp + bits
    if shift >= 0:
        return man << shift
    if bc + shift < 0:
        return 0
    return ((man >> (-shift - 1)) + 1) >> 1


def eval_residual(n_kept: int, n_traced: int, r_bar: float, prec: int, *, top_exp2: int):
    """One pass of the alternating binomial contangle sum at ``prec`` bits.

    Terms are the one-versus-block contangles of the symmetric state of
    ``n_kept`` modes (``n_traced`` more traced out), weighted by
    ``(-1)**j * binomial(n_kept - 1, j)``.  ``top_exp2`` estimates the
    exponent of the largest term; the terms are summed exactly in units of
    ``2**(top_exp2 - prec)``.
    """
    n, m = n_kept, n_traced
    if r_bar == 0.0:
        return (0.0, 0.0, 0, 0, False)
    frac = prec - top_exp2
    widest = math.comb(n - 1, (n - 1) // 2).bit_length()
    hi = frac + widest + _GUARD + n.bit_length()  # bits of d
    if hi > 0 and 4.0 * r_bar <= (hi + 2) * _LN2:
        d = _fixed(mpf_exp(from_float(-4.0 * r_bar), hi + 8, round_nearest), hi)
    else:  # d < 2**-(hi + 2) rounds to zero
        d = 0
    one = 1 << max(hi, 0)
    e_sq = (one - d) ** 2
    total = 0
    observed = 0
    binom = 1
    for j in range(n - 1):
        width = frac + binom.bit_length() + _GUARD
        if j + m == 0:
            bits = prec + 8
            x = mpf_sinh(mpf_shift(from_float(r_bar), 1), bits, round_nearest)
            x = mpf_mul(mpf_shift(x, 1), mpf_sqrt(from_int(n - 1), bits), bits, round_nearest)
            f = mpf_asinh(mpf_div(x, from_int(n), bits, round_nearest), bits, round_nearest)
            term = _fixed(mpf_mul(f, f, bits, round_nearest), frac)
        elif width > 0:
            # floor(w_j 2**width), from d at hi bits
            den = (n + m) * (((j + m) << hi) + (n - j) * d)
            w = e_sq * (n - 1 - j) // (den << (hi - width))
            unit = 1 << width
            y = unit + 2 * w + 2 * math.isqrt(w * (unit + w))
            log_y = _fixed(mpf_log(from_man_exp(y, -width), width + 8, round_nearest), width)
            shift = 2 * width + 2 - frac
            term = (binom * log_y * log_y + (1 << (shift - 1))) >> shift
        else:  # below 2**-_GUARD units
            term = 0
        if term:
            observed = max(observed, term.bit_length())
        total = total + term if j % 2 == 0 else total - term
        binom = binom * (n - 1 - j) // (j + 1)
    max_exp2 = max(top_exp2, observed - frac) if observed else top_exp2
    if not total:
        return (0.0, 0.0, 0, max_exp2, True)
    rounded = from_man_exp(total, -frac, 53, round_nearest)
    sign, man, exp, bc = rounded
    mantissa = math.ldexp(-man if sign else man, -bc)
    return (to_float(rounded), mantissa, exp + bc, max_exp2, True)


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
