"""One fixed-precision pass of each alternating sum, in Python integers
and :mod:`mpmath`.  The escalation loop lives in the package ``__init__``.

Each pass returns ``(value, mantissa, exp2, max_exp2, any_term)`` where
``value`` is the sum rounded to the nearest double, ``mantissa * 2**exp2``
is an exponent-exact view of the sum (``mantissa`` in ``[0.5, 1)`` up to
sign), ``max_exp2`` bounds the magnitude of the largest term, and
``any_term`` is False when every term vanished identically (then the sum
is an exact zero rather than a cancellation).

The residual pass works in fixed point.  The escalation loop accepts a
pass on an *absolute* error of ``2**(max_exp2 - prec)`` per term, so each
term is an integer ``T_j ~ C(N-1, j) f_j 2**F`` with ``F = prec - top_exp2``
and ``top_exp2`` the caller's estimate of the largest term's exponent, and
the sum of the ``T_j`` is exact.  Each term needs one logarithm and one
``math.isqrt``:

* with ``d = exp(-4 r)`` and ``w_j = (1 - d)**2 (N-1-j) / ((N+M)(j+M + (N-j) d))``
  (the argument of the term, in a form whose exponentials all decay),
  ``w_j < 1`` whenever ``j + M >= 1``;
* ``y = 1 + 2 w + 2 sqrt(w (1 + w)) = (sqrt(w) + sqrt(1 + w))**2``, so
  ``ln y = 2 asinh(sqrt(w))`` and ``f_j = (ln y)**2 / 4``;
* ``w`` is a ``G_j``-bit fixed-point integer, ``G_j = F + bitlen(C_j) + 4``,
  computed from ``d`` carried ``bitlen(N)`` bits further, because ``w``
  varies with ``d`` up to ``N`` times as fast;
* ``ln y`` is taken in integers by shift and add (:func:`_ln_fixed`) at
  ``p = G_j + 10`` bits, with no table beyond one cached list of
  ``ln(1 + 2**-k)``, and rounded to ``G_j`` bits.  Past the pass's cap
  (:func:`_log_cap`, at most ``_LOG_CAP``) it is ``mpf_log`` at
  ``G_j + 8`` bits, rounded the same way.

The logarithm errs by less than 170 units of ``2**-p``, i.e. 0.17 units
of ``2**-G_j``, and its rounding adds 0.5; past the cap ``mpf_log`` errs
by less than 0.004 units before the same rounding.  Error per term, in
units of ``2**-G_j`` on ``f_j`` (``df/dw <= 1``, ``df/d ln y = asinh(sqrt(w))
< 0.89``): at most 2 from ``w`` (``d`` and the floor division), 1.8 from the
``isqrt`` floor and ``0.67 * 0.89 < 0.6`` from the logarithm.  Times
``C_j 2**(F - G_j) < 2**-4`` that is under 0.3 of a unit of ``2**-F``, and
the final rounding adds 0.5: ``|T_j - C_j f_j 2**F| < 1``.
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

#: guard bits of the shift-and-add logarithm, ``p = width + _LOG_GUARD``
_LOG_GUARD = 10
#: most factors ``1 + 2**-k`` the logarithm multiplies in
_LOG_FACTORS = 96
#: widest logarithm (``p``, bits) taken by shift and add; wider ones use
#: ``mpf_log``, which switches to the AGM.  The cap bounds the one-off cost
#: of the constants, which grows as ``p**2``: 30 ms at the cap on a 2-vCPU
#: Xeon, which a one-shot pass with few terms pays in full.  Per term, shift
#: and add is still about 3x faster than the AGM at 20,000 bits.
_LOG_CAP = 8192
#: fewest terms for which a pass takes logarithms up to ``_LOG_CAP`` by
#: shift and add (see :func:`_log_cap`)
_LOG_FULL_TERMS = 6

#: ``(P, [floor(ln(1 + 2**-k) 2**P) for k = 0 .. _factors(P)])``, one list
#: at the highest precision ``P <= _LOG_CAP`` filled so far.  The entries are
#: exact floors, so ``c >> (P - p)`` is the exact floor at ``p`` bits and no
#: result depends on what ran before.
_ln_cache: tuple[int, list[int]] = (0, [])


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


def _factors(p: int) -> int:
    """How many factors ``1 + 2**-k`` the logarithm at ``p`` bits uses.

    A factor costs one shift and add, a step of the series a product, so
    the best count grows with ``p``; the measured optimum is near ``p / 25``.
    """
    return min(_LOG_FACTORS, max(4, p // 25))


def _atanh_inv(q: int, bits: int) -> tuple[int, int]:
    """``atanh(1/q) 2**bits`` for an integer ``q >= 3``, low by less than
    the second value returned (every term of the series is floored)."""
    term = (1 << bits) // q
    q2 = q * q
    total = term
    i = 3
    while term:
        term //= q2
        total += term // i
        i += 2
    return total, i


def _ln_constants(p: int) -> tuple[int, list[int]]:
    """The constants cache, refilled first if it is below ``p`` bits.

    A refill goes to at least 1.5 times the old precision, so precisions
    that creep upwards refill a logarithmic number of times.  From
    ``ln(1 + 2**-K) = 2 atanh(1 / (2**(K+1) + 1))`` it steps down with
    ``ln(1 + 2**-(k-1)) = 2 ln(1 + 2**-k) - 2 atanh(1 / (2 (2**k + 1)**2 - 1))``,
    whose series converge twice as fast as the direct ones.  The step
    doubles the error, so the fill carries ``K + 48`` guard bits, and more
    in the rare case where an error bound straddles an integer.
    """
    global _ln_cache
    prec = _ln_cache[0]
    if p <= prec:
        return _ln_cache
    p = min(_LOG_CAP, max(p, prec + prec // 2))
    top = _factors(p)
    guard = top + 48
    while True:
        bits = p + guard
        c, err = _atanh_inv((2 << top) + 1, bits)
        c, err = 2 * c, 2 * err  # within err of ln(1 + 2**-top) 2**bits
        values = [(c, err)]
        for k in range(top, 0, -1):
            q = (1 << k) + 1
            a, a_err = _atanh_inv(2 * q * q - 1, bits)
            c, err = 2 * (c - a), 2 * (err + a_err)
            values.append((c, err))
        values.reverse()
        table = [(c - err) >> guard for c, err in values]
        if table == [(c + err) >> guard for c, err in values]:
            _ln_cache = (p, table)
            return _ln_cache
        guard += 32


def _ln_fixed(y: int, width: int, p: int) -> int:
    """``ln(y 2**-width) 2**p`` for ``2**width <= y < 2**(width + 3)``,
    ``width + 3 <= p <= _LOG_CAP``.

    Shift-and-add multiplicative normalisation (Muller, *Elementary
    Functions*, ch. 8): with ``Y = 2**k0 x``, ``x`` in ``[1, 2)``, multiply
    ``x`` by each ``1 + 2**-k``, ``k = 1..K``, that keeps it below 2.  That
    leaves ``x = 2 (1 - z)`` with ``z < 2**-K``, and with
    ``s = (2 - x) / (2 + x) < 2**-(K+1)``,
    ``ln Y = (k0 + 1) ln 2 - 2 atanh(s) - sum ln(1 + 2**-k)`` over the
    factors used.  The atanh series takes steps of ``s**4`` (Brent &
    Zimmermann, *Modern Computer Arithmetic*, 4.4); ``K = _factors(p)``.

    Error, in units of ``2**-p``: each used factor's floored shift makes
    ``x`` low by under one unit of ``2**-p`` relative, and each cached
    constant is a floor, so ``m <= K`` used factors move the result by
    less than ``m`` either way; ``ln 2`` costs under 3 more, ``s`` under 2,
    and the series, with ``n <= p / (4 (K + 1)) + 1`` steps, under
    ``3 n + 1``.  So the result is within ``K + 3 n + 6`` units: under 170
    for every ``p`` up to the cap.
    """
    prec, table = _ln_constants(p)
    shift = prec - p
    k0 = y.bit_length() - 1 - width
    x = y << (p - width - k0)  # x 2**-p in [1, 2)
    two = 1 << (p + 1)
    used = 0
    for k in range(1, _factors(p) + 1):
        t = x + (x >> k)
        if t < two:
            x = t
            used += table[k] >> shift
    s = ((two - x) << p) // (two + x)
    s2 = (s * s) >> p
    s4 = (s2 * s2) >> p
    # s**(4i+1) / (4i+1), and s**(4i+3) / (4i+3) over s**2
    odd, even = s, s // 3
    v = (s * s4) >> p
    i = 5
    while v:
        odd += v // i
        even += v // (i + 2)
        v = (v * s4) >> p
        i += 4
    atanh = odd + ((even * s2) >> p)
    return (k0 + 1) * (table[0] >> shift) - 2 * atanh - used


def _log_cap(terms: int) -> int:
    """Widest logarithm (``p``, bits) that a pass of ``terms`` terms takes
    by shift and add.

    A fresh process pays for the constants once, about ``p**2`` work, and a
    pass with few terms cannot earn that back.  Timed as first calls in
    fresh interpreters (2-vCPU Xeon), shift and add makes a 2-term pass
    slower than ``mpf_log`` from about 1,000 bits on, a 6-term pass breaks
    even (0.8-1.2x) up to ``_LOG_CAP``, and passes of 11 or more terms
    gain everywhere.  So each term fewer than ``_LOG_FULL_TERMS`` halves
    the cap.  The cap depends on the pass alone, never on what the cache
    holds, and both logarithms round to the same integers, so no result
    depends on what ran before.
    """
    return _LOG_CAP >> max(0, _LOG_FULL_TERMS - terms)


def _log_fixed(y: int, width: int, cap: int = _LOG_CAP) -> int:
    """``ln(y 2**-width) 2**width``, rounded half up to an integer.

    Shift and add at ``width + _LOG_GUARD`` bits up to ``cap``, ``mpf_log``
    past it.
    """
    p = width + _LOG_GUARD
    if p <= cap:
        return (_ln_fixed(y, width, p) + (1 << (_LOG_GUARD - 1))) >> _LOG_GUARD
    return _fixed(mpf_log(from_man_exp(y, -width), width + 8, round_nearest), width)


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
    cap = _log_cap(n - 1)
    if frac + _GUARD + _LOG_GUARD < cap:
        # fill the constants once, for the widest shift-and-add logarithm
        _ln_constants(min(frac + widest + _GUARD + _LOG_GUARD, cap))
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
            log_y = _log_fixed(y, width, cap)
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
