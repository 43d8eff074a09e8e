"""Closed forms for the fully symmetric Gaussian family.

Reduced-state determinants, localized purities and the pairwise (one mode
versus a block) contangle all admit exact expressions for permutation
invariant pure states.  Every function here depends on the two squeezing
degrees only through their arithmetic mean ``r_bar``; that collapse is one
of the identities the verification suites check against explicitly built
covariance matrices.

Entanglement is measured in squared inverse-hyperbolic-sine units
(the contangle), the squared logarithmic negativity of a two-mode squeezed
state of the same parameter.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass

__all__ = [
    "ContangleValue",
    "PurityTriple",
    "asinh_sq",
    "det_reduced",
    "localized_purities",
    "bipartite_contangle",
    "decomposition_term",
    "db_from_r_bar",
    "r_bar_from_db",
]

ContangleValue = float
"""Contangle value: nonnegative, in squared-arcsinh units."""

_LN10 = math.log(10.0)


def _check_r_bar(r_bar: float) -> float:
    r_bar = float(r_bar)
    if not math.isfinite(r_bar) or r_bar < 0.0:
        raise ValueError(f"mean squeezing must be finite and >= 0, got {r_bar}")
    return r_bar


def asinh_sq(x: float) -> float:
    """Square of the inverse hyperbolic sine, the unit of contangle."""
    return math.asinh(x) ** 2


def db_from_r_bar(r_bar: float) -> float:
    """Squeezing degree expressed in decibels: 10*log10 of the variance ratio."""
    return 20.0 * float(r_bar) / _LN10


def r_bar_from_db(db: float) -> float:
    """Inverse of :func:`db_from_r_bar`."""
    return float(db) * _LN10 / 20.0


def _det_parts(n_keep: int, n_total: int, r_bar: float) -> tuple[int, int, int, float]:
    """Validated ``(base, cross, n, r_bar)`` with
    ``det = (base + cross * cosh(4 r_bar)) / n**2``; ``cross`` is 0 exactly
    when the whole state is kept."""
    k = operator.index(n_keep)
    n = operator.index(n_total)
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= n_keep <= n_total, got {k} of {n}")
    r_bar = _check_r_bar(r_bar)
    return 2 * k * k - 2 * n * k + n * n, 2 * (n - k) * k, n, r_bar


def det_reduced(n_keep: int, n_total: int, r_bar: float) -> float:
    """Covariance determinant of ``n_keep`` modes kept out of ``n_total``.

    Closed form for the pure fully symmetric state.  Exactly 1 when the
    whole state is kept (purity) and at zero squeezing (vacuum); for proper
    reductions it grows like cosh of four times the mean squeezing.  Raises
    ``ValueError`` where the determinant exceeds the double range.
    """
    base, cross, n, r_bar = _det_parts(n_keep, n_total, r_bar)
    if cross == 0:
        return 1.0
    try:
        det = (base + cross * math.cosh(4.0 * r_bar)) / (n * n)
    except OverflowError:
        det = math.inf
    if det < math.inf:
        return det
    # cross * cosh(4r) left the doubles: cosh(4r) = e**(4r) / 2 and base is
    # negligible there
    try:
        return math.exp(4.0 * r_bar + math.log(cross / (2 * n * n)))
    except OverflowError:
        raise ValueError(
            f"det_reduced({n_keep}, {n_total}, {r_bar}) exceeds the double range"
        ) from None


@dataclass(frozen=True)
class PurityTriple:
    """Purities of a two-block reduction: the joint block and its halves."""

    joint: float
    left: float
    right: float


def localized_purities(
    n_left: int, n_right: int, n_total: int, r_bar: float
) -> PurityTriple:
    """Purities entering a block-versus-block entanglement estimate.

    ``joint`` is the purity of the (n_left + n_right)-mode reduction of the
    symmetric ``n_total``-mode pure state, ``left``/``right`` those of the
    single blocks.
    """
    nl = operator.index(n_left)
    nr = operator.index(n_right)
    if nl < 1 or nr < 1:
        raise ValueError("both blocks must contain at least one mode")
    return PurityTriple(
        _purity(nl + nr, n_total, r_bar), _purity(nl, n_total, r_bar), _purity(nr, n_total, r_bar)
    )


def _purity(n_keep: int, n_total: int, r_bar: float) -> float:
    """``det_reduced(...)**-0.5`` in decaying form, finite at any squeezing:
    ``n e**(-2r) / sqrt(base e**(-4r) + cross (1 + e**(-8r)) / 2)``."""
    base, cross, n, r_bar = _det_parts(n_keep, n_total, r_bar)
    if cross == 0:
        return 1.0
    decay = math.exp(-4.0 * r_bar)
    return n * math.exp(-2.0 * r_bar) / math.sqrt(base * decay + cross * (1.0 + decay * decay) / 2)


def bipartite_contangle(n_block: int, n_total: int, r_bar: float) -> ContangleValue:
    """Contangle between one mode and a block of ``n_block`` other modes.

    Both sides belong to the pure fully symmetric ``n_total``-mode state.
    Evaluated in a rationalized form (all exponentials decaying) so the
    result neither overflows at large squeezing nor loses accuracy near
    zero squeezing.
    """
    k = operator.index(n_block)
    n = operator.index(n_total)
    if n < 2:
        raise ValueError(f"need at least two modes, got {n}")
    if not 1 <= k <= n - 1:
        raise ValueError(f"need 1 <= n_block <= n_total - 1, got {k} of {n}")
    r_bar = _check_r_bar(r_bar)
    decay = math.exp(-4.0 * r_bar)
    num = math.sqrt(k) * -math.expm1(-4.0 * r_bar)
    rest = n - 1 - k
    if rest == 0 and decay < sys.float_info.min:
        # e**(-4 r) has left the normal range, so den = n * e**(-2 r) is
        # inexact or zero; the ratio is then far above 2**27, where
        # asinh(x) = ln(2 x) to double precision
        log_2x = math.log(2.0 * num / n) + 2.0 * r_bar
        return log_2x * log_2x
    den = math.sqrt(n) * math.sqrt(rest + decay * (k + 1))
    return asinh_sq(num / den)


def decomposition_term(
    j: int, n_kept: int, n_traced: int, r_bar: float
) -> ContangleValue:
    """The ``j``-th bipartite term of the alternating residual decomposition.

    For a symmetric state of ``n_kept`` modes obtained by discarding
    ``n_traced`` modes of the pure total state, this is the contangle
    between one kept mode and a block of ``n_kept - 1 - j`` others, i.e.
    ``bipartite_contangle(n_kept - 1 - j, n_kept + n_traced, r_bar)``.
    The terms decrease with ``j``; the residual alternates them with
    binomial weights.
    """
    j = operator.index(j)
    n = operator.index(n_kept)
    m = operator.index(n_traced)
    if n < 2:
        raise ValueError(f"need at least two kept modes, got {n}")
    if m < 0:
        raise ValueError(f"traced mode count must be >= 0, got {m}")
    if not 0 <= j <= n - 2:
        raise ValueError(f"term index must satisfy 0 <= j <= {n - 2}, got {j}")
    return bipartite_contangle(n - 1 - j, n + m, r_bar)
