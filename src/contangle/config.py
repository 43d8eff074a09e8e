"""Central numeric policy: tolerances and working-precision rules.

Everything tolerance-like lives in one frozen record so the library, the
verification suites and the tests all agree on what "equal" means.  The
precision rules govern the extended-precision kernels in
:mod:`contangle.kernels`.
"""

from __future__ import annotations

import operator
import os
from dataclasses import dataclass

__all__ = [
    "Tolerances",
    "TOL",
    "PRECISION_FLOOR",
    "PRECISION_MARGIN",
    "DOUBLE_BITS",
    "GUARD_BITS",
    "JUMP_SLACK",
    "MAX_PRECISION",
    "MAX_BIT_TERMS",
    "ENV_PRECISION",
    "ENV_BACKEND",
    "default_min_precision",
    "starting_precision",
    "required_bits",
]


@dataclass(frozen=True)
class Tolerances:
    """Relative/absolute tolerances used across the package.

    These are deliberately centralized: a check in the verification module
    and the equivalent assertion in the test-suite must not drift apart.
    """

    #: relative asymmetry allowed when wrapping a covariance matrix
    cm_symmetry: float = 1e-12
    #: slack below 1 tolerated for symplectic eigenvalues of physical states
    physicality: float = 1e-9
    #: closed-form reduced determinant vs. explicit matrix determinant
    oracle_det: float = 1e-9
    #: bracket width for the standard-form squeezing solver
    standard_form_xtol: float = 1e-14
    #: recursion vs. direct closed form, and N=3 strong/weak coincidence
    recursion: float = 1e-12
    #: decomposition bookkeeping identity
    bookkeeping: float = 1e-10
    #: alternating comparison sum vs. its gamma-function closed form
    gamma: float = 1e-10
    #: squeezing -> fidelity -> squeezing round trip (absolute)
    fidelity_roundtrip: float = 1e-10
    #: dual-path molecular determinant agreement
    molecular_det: float = 1e-14
    #: most negative residual accepted as "zero up to noise" in scans
    positivity_floor: float = -1e-25


TOL = Tolerances()

#: never evaluate an alternating sum below this many bits
PRECISION_FLOOR = 64
#: extra bits on top of the term count at the first pass (the binomial
#: coefficients of an N-term alternating sum cancel up to about N bits;
#: spare bits are nearly free at low precision and spare most small sums
#: a second pass)
PRECISION_MARGIN = 96
#: bits of a double's significand: every accepted sum carries this many
DOUBLE_BITS = 53
#: bits kept beyond the summation error bound before a pass is accepted
GUARD_BITS = 4
#: slack added when jumping to the precision a pass showed is needed
JUMP_SLACK = 8
#: escalation gives up here; reaching it means the request is absurd
MAX_PRECISION = 1 << 22
#: cost budget of one residual pass, in bit-terms (working precision times
#: the N - 1 terms); a pass above it raises ValueError instead of running.
#: The predicted precision grows as about N log2(1/r_bar), so the cost has
#: no bound at tiny squeezing: (1000, 0, 5e-324) would be 1.07e9 bit-terms
#: and ran past 100 s.  Measured single calls on a 2-vCPU Xeon, pure
#: backend: (1000, 0, 0.05), the heaviest in the test-suite, 4.8e6
#: bit-terms in 0.7 s; (3000, 0, 0.5) 1.5e7 in 1.8 s; (1000, 0, 0.001)
#: 1.0e7 in 12 s; (2000, 0, 0.05) 1.9e7 in 22 s; (136, 0, 5e-324) 1.9e7,
#: at 144,052 bits, in 121 s.  A bit-term costs more at higher precision,
#: so the budget bounds a call's time only together with MAX_PRECISION.
MAX_BIT_TERMS = 20_000_000

ENV_PRECISION = "CONTANGLE_PRECISION_BITS"
ENV_BACKEND = "CONTANGLE_BACKEND"


def _checked_precision(value, source: str) -> int:
    """A requested minimum precision: at least 2 bits, capped at the maximum."""
    value = operator.index(value)
    if value < 2:
        raise ValueError(f"{source} must be >= 2, got {value}")
    return min(value, MAX_PRECISION)


def default_min_precision() -> int:
    """Minimum working precision in bits, overridable via the environment.

    Set ``CONTANGLE_PRECISION_BITS`` to force a higher starting precision
    for every kernel call (useful when validating the escalation logic or
    reproducing a scan bit-for-bit).
    """
    raw = os.environ.get(ENV_PRECISION)
    if raw is None:
        return PRECISION_FLOOR
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(
            f"{ENV_PRECISION} must be an integer, got {raw!r}"
        ) from exc
    return _checked_precision(value, ENV_PRECISION)


def starting_precision(n_terms: int, min_precision: int | None = None) -> int:
    """Initial working precision for an alternating sum with *n_terms* terms.

    An explicit *min_precision* (``--precision-bits`` on the command line)
    replaces the environment floor; it is validated and capped the same way.
    """
    if min_precision is None:
        floor = default_min_precision()
    else:
        floor = _checked_precision(min_precision, "min_precision")
    return max(PRECISION_FLOOR, n_terms + PRECISION_MARGIN, floor)


def required_bits(n_terms: int) -> int:
    """Bits that must survive cancellation before a pass is accepted.

    Recursive summation of N terms errs by at most ``gamma_N * sum |t_j|``
    (Higham, *Accuracy and Stability of Numerical Algorithms*, ch. 4),
    which is below ``N**2 * 2**(max_exp2 - prec)``.  Keeping a double's 53
    bits above that bound, plus guard bits, makes the rounded double exact
    up to ties closer than ``2**-GUARD_BITS`` ulp.
    """
    return DOUBLE_BITS + 2 * n_terms.bit_length() + GUARD_BITS
