"""Fidelity of coherent-state teleportation over symmetric resources.

An n-party fully symmetric Gaussian state, with its mean squeezing tuned
to the standard form, serves as the shared resource of a teleportation
network between any two parties.  The optimal fidelity for an unknown
coherent input is a closed-form function of the party count and the mean
squeezing, strictly increasing in the squeezing and equal to the
classical bound of one half exactly at zero squeezing.  Because the map
is monotone it doubles as an operational readout of the resource: the
inverse map recovers the squeezing, hence the residual contangle, from a
measured fidelity.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

from .kernels import residual_sum

__all__ = [
    "CLASSICAL_FIDELITY",
    "FidelityPoint",
    "fidelity_from_squeezing",
    "squeezing_from_fidelity",
    "residual_from_fidelity",
]

#: best fidelity achievable without shared entanglement
CLASSICAL_FIDELITY = 0.5


def _check_parties(n_parties: int) -> int:
    n = operator.index(n_parties)
    if n < 2:
        raise ValueError(f"a network needs at least two parties, got {n}")
    return n


def fidelity_from_squeezing(n_parties: int, r_bar: float) -> float:
    """Optimal teleportation fidelity of the n-party symmetric resource.

    The fidelity is the root in ``[1/2, 1)`` of a quadratic tying it to
    the squeezing; rationalized here to

        ``sqrt(s) / (sqrt(s) + sqrt(n))`` with ``s = n + 2 * (e**(4 r) - 1)``

    which returns exactly one half at zero squeezing and is immune to
    cancellation (``expm1`` keeps small squeezing exact).  Where
    ``e**(4 r)`` leaves the double range (``r`` above about 177) the same
    ratio is taken in decaying form, ``1 / (1 + sqrt(n d / ((n - 2) d + 2)))``
    with ``d = e**(-4 r)``.
    """
    n = _check_parties(n_parties)
    r = float(r_bar)
    if not math.isfinite(r) or r < 0.0:
        raise ValueError(f"mean squeezing must be finite and >= 0, got {r}")
    try:
        boosted = n + 2.0 * math.expm1(4.0 * r)
    except OverflowError:
        decay = math.exp(-4.0 * r)
        return 1.0 / (1.0 + math.sqrt(n * decay / ((n - 2) * decay + 2.0)))
    root = math.sqrt(boosted)
    return root / (root + math.sqrt(n))


def squeezing_from_fidelity(n_parties: int, fidelity: float) -> float:
    """Mean squeezing that produces the given network fidelity.

    Inverse of :func:`fidelity_from_squeezing`; defined for fidelities in
    ``[1/2, 1)``, returning exactly zero at the classical bound.
    """
    n = _check_parties(n_parties)
    f = float(fidelity)
    if not (CLASSICAL_FIDELITY <= f < 1.0):
        raise ValueError(
            f"fidelity must lie in [{CLASSICAL_FIDELITY}, 1), got {f}"
        )
    gain = n * (2.0 * f - 1.0) / (2.0 * (1.0 - f) ** 2)
    return 0.25 * math.log1p(gain)


def residual_from_fidelity(
    n_parties: int, fidelity: float, *, min_precision: int | None = None
) -> float:
    """Residual contangle of the resource read off a measured fidelity.

    Composes the inverse fidelity map with the pure-state residual; being
    a composition of monotone maps it is strictly increasing in the
    fidelity, which makes the fidelity itself an entanglement witness.
    """
    n = _check_parties(n_parties)
    r_bar = squeezing_from_fidelity(n, fidelity)
    return residual_sum(n, 0, r_bar, min_precision=min_precision).value


@dataclass(frozen=True)
class FidelityPoint:
    """A consistent (parties, squeezing, fidelity) triple."""

    n_parties: int
    r_bar: float
    fidelity: float

    def __post_init__(self):
        n = _check_parties(self.n_parties)
        object.__setattr__(self, "n_parties", n)
        r = float(self.r_bar)
        f = float(self.fidelity)
        if not math.isfinite(r) or r < 0.0:
            raise ValueError(f"mean squeezing must be finite and >= 0, got {r}")
        if not (CLASSICAL_FIDELITY <= f < 1.0):
            raise ValueError(f"fidelity must lie in [0.5, 1), got {f}")
        if (f == CLASSICAL_FIDELITY) != (r == 0.0):
            raise ValueError(
                "classical fidelity and zero squeezing must occur together"
            )

    @classmethod
    def from_squeezing(cls, n_parties: int, r_bar: float) -> "FidelityPoint":
        """The point at squeezing ``r_bar``.

        The infidelity ``1 - F`` decays like ``sqrt(n / 2) * e**(-2 r)``, so
        ``F`` rounds to 1 once ``r_bar`` exceeds about 18.5 (about 20 at a
        thousand parties); such a point has no fidelity in ``[1/2, 1)``
        and is rejected with a ``ValueError``.
        """
        fidelity = fidelity_from_squeezing(n_parties, r_bar)
        if fidelity == 1.0:
            raise ValueError(
                f"fidelity saturates: at r_bar={float(r_bar)} it rounds to 1 "
                f"in double precision for {operator.index(n_parties)} parties"
            )
        return cls(n_parties, r_bar, fidelity)

    @classmethod
    def from_fidelity(cls, n_parties: int, fidelity: float) -> "FidelityPoint":
        return cls(
            n_parties, squeezing_from_fidelity(n_parties, fidelity), fidelity
        )
