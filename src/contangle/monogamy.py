"""Entanglement-distribution bookkeeping for symmetric Gaussian states.

The residual contangle measures how much of one party's entanglement with
the rest is not exhausted by pairwise couplings.  For the permutation
invariant family it reduces to an alternating binomial sum over closed
form terms; this module wires that sum to the extended precision kernels
and adds the structural machinery around it:

* :func:`recursive_decomposition` / :func:`symmetric_closed_form` peel an
  additive hierarchy of K-party terms out of any bipartite oracle (exact
  for exact arithmetic, e.g. fractions);
* positivity / monotonicity scans over deterministic grids, comparing via
  exponent-exact results so magnitudes below the double range still order
  correctly;
* molecular coarse-graining, where consecutive modes are grouped into
  molecules and the residual is evaluated between molecules;
* the parametric comparison sequence used to pinch the term sequence
  between two analytically summable laws.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Any, Callable, Mapping, NamedTuple, Sequence

from . import formulas
from .config import TOL
from .gaussian import SqueezingParams
from .kernels import SumResult, compare, comparison_sum, residual_sum

__all__ = [
    "SymmetricState",
    "DecompositionTerm",
    "Decomposition",
    "ComparisonSequence",
    "MoleculePartition",
    "SandwichBounds",
    "PositivityReport",
    "MonotonicityReport",
    "residual_contangle",
    "residual_contangle_extended",
    "weak_ckw_residual",
    "gaussian_oracle",
    "recursive_decomposition",
    "decompose_state",
    "symmetric_closed_form",
    "comparison_value",
    "comparison_alternating_sum",
    "comparison_gamma_value",
    "sandwich_constants",
    "positivity_scan",
    "monotonicity_scan",
    "molecular_residual",
]


@dataclass(frozen=True)
class SymmetricState:
    """A fully symmetric Gaussian state: kept modes, traced modes, squeezing.

    ``kept`` modes remain out of the pure ``kept + traced``-mode state.
    """

    kept: int
    traced: int
    squeezing: SqueezingParams

    def __post_init__(self):
        kept = operator.index(self.kept)
        traced = operator.index(self.traced)
        if kept < 1:
            raise ValueError(f"need at least one kept mode, got {kept}")
        if traced < 0:
            raise ValueError(f"traced mode count must be >= 0, got {traced}")
        if not isinstance(self.squeezing, SqueezingParams):
            raise ValueError("squeezing must be a SqueezingParams instance")
        object.__setattr__(self, "kept", kept)
        object.__setattr__(self, "traced", traced)

    @classmethod
    def from_r_bar(cls, kept: int, traced: int, r_bar: float) -> "SymmetricState":
        return cls(kept, traced, SqueezingParams(r_bar=r_bar))

    @property
    def total(self) -> int:
        return self.kept + self.traced

    @property
    def r_bar(self) -> float:
        return self.squeezing.r_bar


def _require_parties(state: SymmetricState) -> SymmetricState:
    if state.kept < 2:
        raise ValueError(
            f"residual quantities need at least two kept modes, got {state.kept}"
        )
    return state


def residual_contangle_extended(
    state: SymmetricState, *, min_precision: int | None = None
) -> SumResult:
    """Residual contangle with the exponent-exact result attached."""
    _require_parties(state)
    return residual_sum(
        state.kept, state.traced, state.r_bar, min_precision=min_precision
    )


def residual_contangle(
    state: SymmetricState, *, min_precision: int | None = None
) -> float:
    """Residual contangle of the symmetric state, as a double.

    Nonnegative up to roundoff; values whose magnitude lies below the
    double range come back as 0.0 (use the extended variant to see them).
    """
    return residual_contangle_extended(state, min_precision=min_precision).value


def weak_ckw_residual(state: SymmetricState) -> float:
    """Pairwise-only residual: one-vs-rest contangle minus the
    ``kept - 1`` equal pair contangles.

    Exactly zero for two kept modes.  For three kept modes it coincides
    with :func:`residual_contangle`; beyond that it is an upper bound.
    """
    _require_parties(state)
    n, m, r = state.kept, state.traced, state.r_bar
    one_vs_rest = formulas.decomposition_term(0, n, m, r)
    pair = formulas.decomposition_term(n - 2, n, m, r)
    return one_vs_rest - (n - 1) * pair


class DecompositionTerm(NamedTuple):
    """One K-party layer of a decomposition: its multiplicity and value."""

    multiplicity: int
    value: Any


@dataclass(frozen=True)
class Decomposition:
    """Additive hierarchy of K-party terms for one probe party.

    ``terms`` maps block size K (2 .. n_parties) to the K-party term and
    the number of K-1-sized blocks containing the probe.  The identity

        bipartite_total == sum(mult * value over terms)

    holds exactly by construction; ``identity_gap`` returns its defect.
    ``strong_residual`` is the genuine n-party term, conventionally zero
    for two parties, where "genuine multiparty" is vacuous.
    """

    probe: int
    n_parties: int
    terms: Mapping[int, DecompositionTerm]
    bipartite_total: Any
    weak_residual: Any
    strong_residual: Any

    @property
    def genuine_term(self) -> Any:
        """The full-size term, including the two-party degenerate case."""
        return self.terms[self.n_parties].value

    def identity_gap(self) -> Any:
        """Signed defect of the bookkeeping identity (zero when exact)."""
        acc = sum(t.multiplicity * t.value for t in self.terms.values())
        return self.bipartite_total - acc


def recursive_decomposition(
    oracle: Callable[[int, int], Any], n_parties: int
) -> Decomposition:
    """Peel K-party terms out of a bipartite entanglement oracle.

    ``oracle(probe, block_size)`` must return the entanglement between one
    party and a block of ``block_size`` others, for any probe choice; it
    may return floats, fractions or any ring element.  The peeling
    inverts the binomial layering: the 2-party term is ``oracle(probe, 1)``
    and each larger term is what remains of ``oracle(probe, K - 1)`` after
    subtracting all smaller layers it contains.

    The whole computation runs for two distinct probe parties and the
    results are required to match exactly; an oracle that is not
    permutation invariant (or not deterministic) is reported rather than
    silently averaged.
    """
    n = operator.index(n_parties)
    if n < 2:
        raise ValueError(f"need at least two parties, got {n}")

    def peel(probe: int):
        e = {2: oracle(probe, 1)}
        for k in range(3, n + 1):
            contained = sum(
                math.comb(k - 1, q - 1) * e[q] for q in range(2, k)
            )
            e[k] = oracle(probe, k - 1) - contained
        return e, oracle(probe, n - 1)

    first, total_first = peel(0)
    second, total_second = peel(1)
    if first != second or total_first != total_second:
        raise RuntimeError(
            "oracle is not permutation invariant: probes 0 and 1 disagree"
        )

    terms = {
        k: DecompositionTerm(math.comb(n - 1, k - 1), first[k])
        for k in range(2, n + 1)
    }
    zero = total_first - total_first
    weak = total_first - (n - 1) * first[2]
    strong = first[n] if n >= 3 else zero
    return Decomposition(
        probe=0,
        n_parties=n,
        terms=terms,
        bipartite_total=total_first,
        weak_residual=weak,
        strong_residual=strong,
    )


def gaussian_oracle(state: SymmetricState) -> Callable[[int, int], float]:
    """Bipartite one-vs-block contangle oracle for the symmetric family.

    The returned callable ignores the probe index (the state is
    permutation invariant) and evaluates the closed form on the pure
    ``state.total``-mode state.
    """
    total, r_bar = state.total, state.r_bar

    def oracle(probe: int, block_size: int) -> float:
        return formulas.bipartite_contangle(block_size, total, r_bar)

    return oracle


def decompose_state(state: SymmetricState) -> Decomposition:
    """Recursive decomposition of the symmetric state's kept modes."""
    _require_parties(state)
    return recursive_decomposition(gaussian_oracle(state), state.kept)


def symmetric_closed_form(bipartite: Sequence[Any], n_parties: int) -> Any:
    """Genuine n-party term directly from the one-vs-block values.

    ``bipartite[k - 1]`` must hold the one-vs-k entanglement for k from 1
    to ``n_parties - 1``.  Under permutation invariance the recursive
    peeling telescopes to this single alternating binomial sum; both
    routes agree exactly in exact arithmetic.
    """
    n = operator.index(n_parties)
    if n < 2:
        raise ValueError(f"need at least two parties, got {n}")
    if len(bipartite) != n - 1:
        raise ValueError(
            f"need one value per block size 1..{n - 1}, got {len(bipartite)}"
        )
    return sum(
        (-1) ** (k + n + 1) * math.comb(n - 1, k) * bipartite[k - 1]
        for k in range(1, n)
    )


@dataclass(frozen=True)
class ComparisonSequence:
    """Parametric stand-in for the normalized term sequence.

    Values follow ``(n-1-j) / ((n-1) * (c + b * j**a))`` for ``j`` from 0
    to ``n_parties - 1``; the ``a == 1`` family admits a gamma-function
    closed form for its alternating binomial sum.
    """

    a: float
    b: float
    c: float
    n_parties: int

    def __post_init__(self):
        n = operator.index(self.n_parties)
        if n < 2:
            raise ValueError(f"need at least two parties, got {n}")
        object.__setattr__(self, "n_parties", n)
        for name in ("a", "b", "c"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if not (math.isfinite(self.a) and self.a >= 0.0):
            raise ValueError(f"exponent a must be finite and >= 0, got {self.a}")
        if not (math.isfinite(self.b) and self.b > 0.0):
            raise ValueError(f"coefficient b must be finite and > 0, got {self.b}")
        if not (math.isfinite(self.c) and self.c > 0.0):
            raise ValueError(f"offset c must be finite and > 0, got {self.c}")


def comparison_value(seq: ComparisonSequence, j: int) -> float:
    """The ``j``-th element of the comparison sequence."""
    j = operator.index(j)
    n = seq.n_parties
    if not 0 <= j <= n - 1:
        raise ValueError(f"index must satisfy 0 <= j <= {n - 1}, got {j}")
    return (n - 1 - j) / ((n - 1) * (seq.c + seq.b * j**seq.a))


def comparison_alternating_sum(
    seq: ComparisonSequence, *, min_precision: int | None = None
) -> float:
    """Alternating binomial sum of the sequence (extended precision)."""
    return comparison_sum(
        seq.n_parties, seq.a, seq.b, seq.c, min_precision=min_precision
    ).value


def comparison_gamma_value(seq: ComparisonSequence) -> float:
    """Gamma-function closed form of the alternating sum, for ``a == 1``.

    Equals ``Gamma(c/b) * Gamma(n-1) / (b * Gamma(n-1+c/b))``; evaluated
    through log-gamma differences so large party counts do not overflow.
    """
    if seq.a != 1.0:
        raise ValueError(f"closed form requires a == 1, got a={seq.a}")
    n = seq.n_parties
    ratio = seq.c / seq.b
    log_value = (
        math.lgamma(ratio)
        + math.lgamma(n - 1)
        - math.lgamma(n - 1 + ratio)
        - math.log(seq.b)
    )
    return math.exp(log_value)


@dataclass(frozen=True)
class SandwichBounds:
    """Two comparison laws pinching the normalized term sequence.

    ``lower.b >= upper.b`` with both laws at ``a == c == 1``; the sequence
    with the larger slope sits below (larger denominators).  ``margin`` is
    the smallest pointwise slack observed, nonnegative up to roundoff.
    """

    lower: ComparisonSequence
    upper: ComparisonSequence
    margin: float


def sandwich_constants(
    n_kept: int, n_traced: int, r_bar: float
) -> SandwichBounds:
    """Fit comparison laws around the state's normalized term sequence.

    Writing each normalized term as ``(n-1-j) / ((n-1) * g_j)`` with
    ``g_0 == 1``, the slopes ``(g_j - 1) / j`` over j >= 1 give the
    tightest linear laws bounding the sequence from both sides.
    Requires at least three kept modes (with two there is nothing to fit)
    and nonzero squeezing.
    """
    n = operator.index(n_kept)
    if n < 3:
        raise ValueError(f"need at least three kept modes to fit, got {n}")
    r_bar = float(r_bar)
    if not (math.isfinite(r_bar) and r_bar > 0.0):
        raise ValueError(f"need strictly positive squeezing, got {r_bar}")
    terms = [
        formulas.decomposition_term(j, n, n_traced, r_bar) for j in range(n - 1)
    ]
    slopes = []
    for j in range(1, n - 1):
        g = (n - 1 - j) * terms[0] / ((n - 1) * terms[j])
        slopes.append((g - 1.0) / j)
    lower = ComparisonSequence(a=1.0, b=max(slopes), c=1.0, n_parties=n)
    upper = ComparisonSequence(a=1.0, b=min(slopes), c=1.0, n_parties=n)
    margin = math.inf
    for j in range(n - 1):
        normalized = terms[j] / terms[0]
        margin = min(
            margin,
            normalized - comparison_value(lower, j),
            comparison_value(upper, j) - normalized,
        )
    return SandwichBounds(lower=lower, upper=upper, margin=margin)


@dataclass(frozen=True)
class PositivityReport:
    """Outcome of a residual positivity scan over a parameter grid."""

    points: int
    min_result: SumResult
    min_point: tuple[int, int, float]
    violations: tuple[tuple[tuple[int, int, float], float], ...]

    @property
    def passed(self) -> bool:
        return not self.violations

    @property
    def min_value(self) -> float:
        return self.min_result.value


def positivity_scan(
    n_values: Sequence[int],
    m_values: Sequence[int],
    r_values: Sequence[float],
    *,
    floor: float | None = None,
    min_precision: int | None = None,
) -> PositivityReport:
    """Check the residual is nonnegative (above ``floor``) across a grid.

    Iterates kept-modes-major, then traced modes, then squeezing, and
    tracks the minimum with exponent-exact comparisons.
    """
    if floor is None:
        floor = TOL.positivity_floor
    points = 0
    min_result: SumResult | None = None
    min_point = None
    violations = []
    for n in n_values:
        for m in m_values:
            for r in r_values:
                res = residual_sum(n, m, r, min_precision=min_precision)
                points += 1
                if min_result is None or compare(res, min_result) < 0:
                    min_result, min_point = res, (n, m, r)
                if res.value < floor:
                    violations.append(((n, m, r), res.value))
    if min_result is None:
        raise ValueError("empty grid")
    return PositivityReport(
        points=points,
        min_result=min_result,
        min_point=min_point,
        violations=tuple(violations),
    )


@dataclass(frozen=True)
class MonotonicityReport:
    """Outcome of a directional scan along one grid axis."""

    axis: str
    series: int
    points: int
    violations: tuple[tuple[str, float, float], ...]

    @property
    def passed(self) -> bool:
        return not self.violations


_AXES = ("r_bar", "n_kept", "n_traced")


def monotonicity_scan(
    axis: str,
    n_values: Sequence[int],
    m_values: Sequence[int],
    r_values: Sequence[float],
    *,
    check_terms: bool = False,
    min_precision: int | None = None,
) -> MonotonicityReport:
    """Verify the residual's directional behavior along one axis.

    * ``axis="r_bar"``: strictly increasing in the squeezing;
    * ``axis="n_kept"``: nonincreasing in the number of kept modes;
    * ``axis="n_traced"``: nonincreasing in the number of traced modes.

    Grids must be ascending along the scanned axis.  Comparisons use the
    exponent-exact view, so the ordering is meaningful even where every
    double rounds to zero.  With ``check_terms`` (kept modes >= 3, double
    precision only) each K-party layer of the recursive decomposition is
    additionally required not to decrease along the squeezing axis.
    """
    if axis not in _AXES:
        raise ValueError(f"axis must be one of {_AXES}, got {axis!r}")
    if check_terms and axis != "r_bar":
        raise ValueError("per-layer checks only apply to the r_bar axis")

    def walk(values):
        if list(values) != sorted(values):
            raise ValueError(f"{axis} grid must be ascending")

    violations = []
    series = 0
    points = 0

    def scan_line(fixed_desc, sweep, evaluate, strict):
        nonlocal points
        prev = None
        prev_key = None
        for key in sweep:
            cur = evaluate(key)
            points += 1
            if prev is not None:
                order = compare(cur, prev)
                bad = order <= 0 if strict else order > 0
                if bad:
                    violations.append(
                        (f"{fixed_desc} {axis}={prev_key}->{key}", prev.value, cur.value)
                    )
            prev, prev_key = cur, key

    if axis == "r_bar":
        walk(r_values)
        for n in n_values:
            for m in m_values:
                series += 1
                scan_line(
                    f"n={n} m={m}",
                    r_values,
                    lambda r, n=n, m=m: residual_sum(
                        n, m, r, min_precision=min_precision
                    ),
                    strict=True,
                )
                if check_terms and n >= 3:
                    prev_terms = None
                    for r in r_values:
                        decomp = decompose_state(SymmetricState.from_r_bar(n, m, r))
                        layers = {
                            k: t.value for k, t in decomp.terms.items()
                        }
                        if prev_terms is not None:
                            for k, value in layers.items():
                                slack = 1e-10 * max(1.0, abs(prev_terms[k]))
                                if value < prev_terms[k] - slack:
                                    violations.append(
                                        (
                                            f"n={n} m={m} layer K={k} at r_bar={r}",
                                            prev_terms[k],
                                            value,
                                        )
                                    )
                        prev_terms = layers
    elif axis == "n_kept":
        walk(list(n_values))
        for m in m_values:
            for r in r_values:
                series += 1
                scan_line(
                    f"m={m} r_bar={r}",
                    n_values,
                    lambda n, m=m, r=r: residual_sum(
                        n, m, r, min_precision=min_precision
                    ),
                    strict=False,
                )
    else:
        walk(list(m_values))
        for n in n_values:
            for r in r_values:
                series += 1
                scan_line(
                    f"n={n} r_bar={r}",
                    m_values,
                    lambda m, n=n, r=r: residual_sum(
                        n, m, r, min_precision=min_precision
                    ),
                    strict=False,
                )
    return MonotonicityReport(
        axis=axis, series=series, points=points, violations=tuple(violations)
    )


@dataclass(frozen=True)
class MoleculePartition:
    """Grouping of ``modes_per_party * parties`` modes into equal molecules."""

    modes_per_party: int
    parties: int

    def __post_init__(self):
        n = operator.index(self.modes_per_party)
        parties = operator.index(self.parties)
        if n < 1:
            raise ValueError(f"molecules need at least one mode, got {n}")
        if parties < 2:
            raise ValueError(f"need at least two molecules, got {parties}")
        object.__setattr__(self, "modes_per_party", n)
        object.__setattr__(self, "parties", parties)


def molecular_residual(
    partition: MoleculePartition,
    traced_parties: int,
    r_bar: float,
    *,
    min_precision: int | None = None,
) -> float:
    """Residual contangle between molecules of a coarse-grained state.

    Grouping ``modes_per_party`` consecutive modes into one party leaves
    every reduced determinant of the symmetric family invariant, so the
    residual between ``parties`` molecules equals the unit-molecule
    residual of as many modes.  That invariance is exact algebra of
    :func:`contangle.formulas.det_reduced`; the ``scale`` verification
    suite checks it across block sizes.
    """
    if not isinstance(partition, MoleculePartition):
        raise ValueError("partition must be a MoleculePartition")
    traced = operator.index(traced_parties)
    if traced < 0:
        raise ValueError(f"traced molecule count must be >= 0, got {traced}")
    return residual_sum(
        partition.parties, traced, r_bar, min_precision=min_precision
    ).value
