"""Covariance-matrix toolbox for fully symmetric Gaussian states.

Conventions used throughout:

* quadratures are ordered ``(x_1, ..., x_n, p_1, ..., p_n)``;
* the vacuum covariance is the identity;
* the symplectic form is ``Omega = [[0, I], [-I, 0]]`` in that ordering.

The symmetric pure states are parametrized by two squeezing degrees: a
momentum squeezing ``r_p`` applied to every mode and a collective momentum
(anti)squeezing ``r_m`` of the joint quadratures.  Their arithmetic mean
``r_bar`` is the only combination entering reduced-state quantities, which
is why most of the package accepts ``r_bar`` alone.

NumPy is imported inside the functions that build or inspect a matrix,
not here: the residual and fidelity paths never need it, and importing it
is about a third of a command-line call's start-up.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .config import TOL

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "SqueezingParams",
    "CovarianceMatrix",
    "symplectic_form",
    "build_pure_symmetric_cm",
    "solve_standard_form",
    "partial_trace",
    "symplectic_eigenvalues",
    "purity",
]


def _as_finite(value: float, name: str) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


@dataclass(frozen=True)
class SqueezingParams:
    """Squeezing degrees of the symmetric-state construction.

    Populate either both single-quadrature degrees ``r_m`` and ``r_p``
    (the mean is filled in) or just the mean ``r_bar``.  All populated
    entries must be finite and nonnegative, and a full triple must satisfy
    ``r_bar == (r_m + r_p) / 2`` to within 1e-12.
    """

    r_m: float | None = None
    r_p: float | None = None
    r_bar: float | None = None

    def __post_init__(self):
        r_m, r_p, r_bar = self.r_m, self.r_p, self.r_bar
        if (r_m is None) != (r_p is None):
            raise ValueError("r_m and r_p must be populated together")
        if r_m is None and r_bar is None:
            raise ValueError("need either r_bar or the (r_m, r_p) pair")
        for name, value in (("r_m", r_m), ("r_p", r_p), ("r_bar", r_bar)):
            if value is None:
                continue
            value = _as_finite(value, name)
            if value < 0.0:
                raise ValueError(f"{name} must be >= 0, got {value}")
            object.__setattr__(self, name, value)
        if self.r_m is not None:
            mean = 0.5 * (self.r_m + self.r_p)
            if self.r_bar is None:
                object.__setattr__(self, "r_bar", mean)
            elif abs(self.r_bar - mean) > 1e-12 * max(1.0, abs(mean)):
                raise ValueError(
                    f"inconsistent triple: r_bar={self.r_bar} but "
                    f"(r_m + r_p)/2 = {mean}"
                )

    @property
    def is_explicit(self) -> bool:
        """True when the individual degrees (not just the mean) are known."""
        return self.r_m is not None


@dataclass(frozen=True)
class CovarianceMatrix:
    """Real symmetric covariance matrix of an n-mode Gaussian state.

    The wrapped array is validated (square, even-dimensional, symmetric to
    within ``TOL.cm_symmetry`` relative), exactly symmetrized, and stored
    read-only.
    """

    data: np.ndarray

    def __post_init__(self):
        import numpy as np

        arr = np.array(self.data, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {arr.shape}")
        if arr.shape[0] == 0 or arr.shape[0] % 2:
            raise ValueError(
                f"dimension must be a positive multiple of 2, got {arr.shape[0]}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError("covariance entries must be finite")
        scale = max(1.0, float(np.abs(arr).max()))
        if float(np.abs(arr - arr.T).max()) > TOL.cm_symmetry * scale:
            raise ValueError("covariance matrix is not symmetric")
        arr = 0.5 * (arr + arr.T)
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @property
    def n_modes(self) -> int:
        return self.data.shape[0] // 2


def symplectic_form(n_modes: int) -> np.ndarray:
    """The matrix of Poisson brackets in (x..., p...) ordering."""
    import numpy as np

    n = operator.index(n_modes)
    if n < 1:
        raise ValueError(f"need at least one mode, got {n}")
    eye = np.eye(n)
    zero = np.zeros((n, n))
    return np.block([[zero, eye], [-eye, zero]])


def build_pure_symmetric_cm(
    n_modes: int, squeezing: SqueezingParams
) -> CovarianceMatrix:
    """Covariance matrix of the pure fully symmetric n-mode state.

    Every mode carries local momentum squeezing ``r_p``; the collective
    quadratures carry ``r_m``.  Both quadrature blocks are a multiple of
    the identity plus a multiple of the all-ones matrix, which makes the
    state invariant under any mode permutation.  At zero squeezing the
    result is exactly the vacuum.
    """
    n = operator.index(n_modes)
    if n < 1:
        raise ValueError(f"need at least one mode, got {n}")
    if not squeezing.is_explicit:
        raise ValueError(
            "construction needs r_m and r_p, not just their mean; "
            "use solve_standard_form to split a mean"
        )
    import numpy as np

    r_m, r_p = squeezing.r_m, squeezing.r_p
    ones = np.ones((n, n)) / n
    eye = np.eye(n)
    sig_x = math.exp(-2.0 * r_p) * eye + (
        math.exp(2.0 * r_m) - math.exp(-2.0 * r_p)
    ) * ones
    sig_p = math.exp(2.0 * r_p) * eye + (
        math.exp(-2.0 * r_m) - math.exp(2.0 * r_p)
    ) * ones
    zero = np.zeros((n, n))
    return CovarianceMatrix(np.block([[sig_x, zero], [zero, sig_p]]))


def solve_standard_form(r_bar: float, n_modes: int) -> SqueezingParams:
    """Split a mean squeezing into the standard-form pair (r_m, r_p).

    The standard form balances the local covariance of each mode (equal x
    and p variances), which pins down the pair via
    ``sinh(2 r_m) == (n - 1) * sinh(2 r_p)`` at fixed mean.  Solved by
    bisection on ``r_p`` over the bracket ``[0, r_bar]``; the residual
    function is strictly decreasing there, and iteration continues until
    the bracket collapses to floating-point resolution.
    """
    n = operator.index(n_modes)
    if n < 2:
        raise ValueError(f"standard form needs at least two modes, got {n}")
    r_bar = _as_finite(r_bar, "r_bar")
    if r_bar < 0.0:
        raise ValueError(f"r_bar must be >= 0, got {r_bar}")
    if r_bar == 0.0:
        return SqueezingParams(r_m=0.0, r_p=0.0)

    def gap(r_p: float) -> float:
        return math.sinh(2.0 * (2.0 * r_bar - r_p)) - (n - 1) * math.sinh(2.0 * r_p)

    lo, hi = 0.0, r_bar
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if gap(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    r_p = 0.5 * (lo + hi)
    return SqueezingParams(r_m=2.0 * r_bar - r_p, r_p=r_p)


def partial_trace(cm: CovarianceMatrix, keep) -> CovarianceMatrix:
    """Covariance of the reduced state over the modes listed in ``keep``.

    For Gaussian states discarding modes is just selecting the principal
    submatrix of both quadrature blocks.  Mode order in the result follows
    the order of ``keep``.
    """
    import numpy as np

    modes = [operator.index(k) for k in keep]
    if not modes:
        raise ValueError("keep at least one mode")
    if len(set(modes)) != len(modes):
        raise ValueError(f"duplicate mode indices in {modes}")
    n = cm.n_modes
    if any(not 0 <= k < n for k in modes):
        raise ValueError(f"mode indices must lie in [0, {n}), got {modes}")
    idx = modes + [k + n for k in modes]
    return CovarianceMatrix(cm.data[np.ix_(idx, idx)])


def symplectic_eigenvalues(cm: CovarianceMatrix) -> np.ndarray:
    """Symplectic spectrum of a positive definite covariance matrix.

    Returned in descending order, one value per mode.  Uses the symmetric
    route: with ``S`` the matrix square root of the covariance, the
    ordinary eigenvalues of the Hermitian matrix ``i S Omega S`` are the
    symplectic eigenvalues in pairs of both signs.  This keeps the
    computation within well-conditioned symmetric eigensolvers.

    Physical states have every value >= 1; values below
    ``1 - TOL.physicality`` signal an unphysical matrix but are returned
    rather than raised, so callers can inspect them.
    """
    import numpy as np

    evals, vecs = np.linalg.eigh(cm.data)
    if evals[0] <= 0.0:
        raise ArithmeticError(
            f"covariance matrix is not positive definite (min eigenvalue {evals[0]})"
        )
    root = (vecs * np.sqrt(evals)) @ vecs.T
    core = root @ symplectic_form(cm.n_modes) @ root
    paired = np.linalg.eigvalsh(1j * core)
    return paired[::-1][: cm.n_modes].copy()


def purity(cm: CovarianceMatrix) -> float:
    """Purity of the Gaussian state, the inverse square root determinant."""
    import numpy as np

    sign, logdet = np.linalg.slogdet(cm.data)
    if sign <= 0.0:
        raise ArithmeticError("covariance determinant must be positive")
    return math.exp(-0.5 * logdet)
