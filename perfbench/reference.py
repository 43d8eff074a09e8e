"""Independent reference values for the benchmark's correctness checks.

Nothing here imports ``contangle``.  The residual contangle of the
symmetric ``n``-mode state (``m`` more modes traced out of the pure
``n + m``-mode state, mean squeezing ``r``) is summed directly from its
definition: exact integer binomials times the one-versus-block contangles
``asinh(sqrt(w_k))**2``, with

    w_k = k * (1 - e^{-4r})^2 / (T * ((T - 1 - k) + e^{-4r} * (k + 1)))

for a block of ``k`` modes, ``T = n + m``, and the sign ``(-1)**(n-1-k)``.
The sum runs in mpmath at a fixed precision; a value is accepted only when
a second evaluation at twice the precision agrees with it to 2**-80
relative, otherwise both precisions double.  That rule is deliberately
unrelated to the program's own escalation test.

The teleportation fidelity and its inverse are written from the same
quadratic in unrationalized form.
"""

from __future__ import annotations

import math

import mpmath
from mpmath import mp

AGREEMENT_BITS = 80
START_MARGIN_BITS = 128


def _contangle_sum(n: int, m: int, r: mpmath.mpf, prec: int) -> mpmath.mpf:
    with mp.workprec(prec):
        total_modes = n + m
        decay = mpmath.exp(-4 * r)
        gain = -mpmath.expm1(-4 * r)
        acc = mpmath.mpf(0)
        for k in range(1, n):
            w = k * gain**2 / (total_modes * ((total_modes - 1 - k) + decay * (k + 1)))
            term = math.comb(n - 1, k) * mpmath.asinh(mpmath.sqrt(w)) ** 2
            acc = acc + term if (n - 1 - k) % 2 == 0 else acc - term
        return +acc


def residual(n: int, m: int, r_bar: float) -> mpmath.mpf:
    """Residual contangle as an mpf accurate to about 80 bits.

    ``r_bar`` is taken exactly (a binary64 value is exact in mpmath).
    Raises ``ArithmeticError`` if no two precisions up to 2**20 bits agree.
    """
    if n < 2 or m < 0 or not r_bar > 0.0:
        raise ValueError(f"reference needs n >= 2, m >= 0, r > 0; got {n}, {m}, {r_bar}")
    r = mpmath.mpf(r_bar)
    prec = n + START_MARGIN_BITS
    low = _contangle_sum(n, m, r, prec)
    while prec < 1 << 20:
        high = _contangle_sum(n, m, r, 2 * prec)
        if high != 0 and abs(low - high) <= abs(high) * mpmath.mpf(2) ** -AGREEMENT_BITS:
            return high
        prec, low = 2 * prec, high
    raise ArithmeticError(f"reference sum did not settle at ({n}, {m}, {r_bar})")


def block_contangle(k: int, total_modes: int, r_bar: float) -> mpmath.mpf:
    """Contangle between one mode and a block of ``k`` others (no cancellation)."""
    with mp.workprec(120):
        r = mpmath.mpf(r_bar)
        gain = -mpmath.expm1(-4 * r)
        w = k * gain**2 / (total_modes * ((total_modes - 1 - k) + mpmath.exp(-4 * r) * (k + 1)))
        return mpmath.asinh(mpmath.sqrt(w)) ** 2


def fidelity(n: int, r_bar: float) -> mpmath.mpf:
    """Teleportation fidelity ``1 / (1 + sqrt(n / (n + 2 (e^{4r} - 1))))``."""
    with mp.workprec(120):
        r = mpmath.mpf(r_bar)
        return 1 / (1 + mpmath.sqrt(n / (n + 2 * mpmath.expm1(4 * r))))


def squeezing(n: int, fid: float) -> mpmath.mpf:
    """Mean squeezing with the given fidelity, solving the same quadratic."""
    with mp.workprec(120):
        f = mpmath.mpf(fid)
        return mpmath.log(1 + n * (2 * f - 1) / (2 * (1 - f) ** 2)) / 4
