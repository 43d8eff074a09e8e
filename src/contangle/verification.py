"""Built-in verification suites over deterministic grids.

Each suite exercises one structural property of the package end to end
and returns a :class:`SuiteReport`; the command line exposes them under
``contangle verify`` and the test-suite's acceptance module runs all of
them.  Grids are fixed here, not configurable, so that "the suite passed"
always means the same thing.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction

from . import formulas, gaussian, monogamy, teleportation
from .config import TOL
from .kernels import compare, residual_sum
from .monogamy import (
    ComparisonSequence,
    MoleculePartition,
    SymmetricState,
)

__all__ = ["SuiteReport", "SUITE_NAMES", "run_suite", "run_all"]

_MAX_RECORDED_FAILURES = 20


@dataclass
class SuiteReport:
    """Outcome of one verification suite."""

    name: str
    passed: bool
    checks: int
    worst: float | None
    seconds: float
    failures: list[str] = field(default_factory=list)

    def summary(self) -> str:
        state = "PASS" if self.passed else "FAIL"
        worst = "" if self.worst is None else f", worst {self.worst:.3e}"
        line = (
            f"suite {self.name}: {state} "
            f"({self.checks} checks{worst}, {self.seconds:.1f}s)"
        )
        if self.failures:
            shown = "\n  ".join(self.failures[:_MAX_RECORDED_FAILURES])
            extra = len(self.failures) - _MAX_RECORDED_FAILURES
            line += f"\n  {shown}"
            if extra > 0:
                line += f"\n  ... and {extra} more"
        return line


class _Collector:
    def __init__(self, name: str):
        self.name = name
        self.checks = 0
        self.failures: list[str] = []
        self.worst: float | None = None
        self._start = time.perf_counter()

    def check(self, ok: bool, message: str):
        self.checks += 1
        if not ok:
            self.failures.append(message)

    def observe(self, value: float, *, larger_is_worse: bool = True):
        if self.worst is None:
            self.worst = value
        elif larger_is_worse:
            self.worst = max(self.worst, value)
        else:
            self.worst = min(self.worst, value)

    def report(self) -> SuiteReport:
        return SuiteReport(
            name=self.name,
            passed=not self.failures,
            checks=self.checks,
            worst=self.worst,
            seconds=time.perf_counter() - self._start,
            failures=self.failures,
        )


def _rel(value: float, reference: float) -> float:
    return abs(value - reference) / abs(reference)


def _r_grid(step: float, count: int) -> list[float]:
    return [round(step * k, 10) for k in range(1, count + 1)]


def suite_positivity() -> SuiteReport:
    """Residual contangle is nonnegative across the bulk grid and spot
    checks deep into the large-ensemble regime."""
    col = _Collector("positivity")
    report = monogamy.positivity_scan(
        range(2, 101), range(0, 21), _r_grid(0.05, 60)
    )
    col.checks += report.points
    col.observe(report.min_value, larger_is_worse=False)
    for point, value in report.violations:
        col.failures.append(f"negative residual {value!r} at (n, m, r_bar)={point}")
    for n in (500, 1000):
        for r in (0.5, 1.15):
            res = residual_sum(n, 0, r)
            col.check(
                res.value >= TOL.positivity_floor,
                f"negative residual {res.value!r} at (n, m, r_bar)=({n}, 0, {r})",
            )
            col.observe(res.value, larger_is_worse=False)
    return col.report()


def suite_coincidence() -> SuiteReport:
    """For three kept modes the recursive residual coincides with the
    pairwise-only residual, and both match an independently frozen value."""
    col = _Collector("coincidence")
    for m in range(0, 11):
        for r in _r_grid(0.1, 30):
            state = SymmetricState.from_r_bar(3, m, r)
            strong = monogamy.residual_contangle(state)
            weak = monogamy.weak_ckw_residual(state)
            rel = _rel(weak, strong)
            col.observe(rel)
            col.check(
                rel <= TOL.recursion,
                f"three-party strong/weak mismatch {rel:.3e} at m={m} r_bar={r}",
            )
    # frozen: term-by-term evaluation at 60 significant digits
    frozen = 0.54438524694163870471
    spot = monogamy.residual_contangle(SymmetricState.from_r_bar(3, 0, 0.5))
    col.check(
        abs(spot - frozen) <= 1e-5,
        f"three-party spot value {spot!r} drifted from {frozen}",
    )
    return col.report()


def suite_oracle() -> SuiteReport:
    """Closed-form reduced determinants match determinants of explicitly
    constructed covariance matrices for every reduction size."""
    import numpy as np

    col = _Collector("oracle")
    r_values = [0.0] + [0.25 * k for k in range(1, 9)]
    for n in range(2, 13):
        for r in r_values:
            squeezing = gaussian.solve_standard_form(r, n)
            cm = gaussian.build_pure_symmetric_cm(n, squeezing)
            for keep in range(1, n + 1):
                sub = gaussian.partial_trace(cm, range(keep))
                det = float(np.linalg.det(sub.data))
                closed = formulas.det_reduced(keep, n, r)
                rel = _rel(det, closed)
                col.observe(rel)
                col.check(
                    rel <= TOL.oracle_det,
                    f"det mismatch {rel:.3e} at n={n} keep={keep} r_bar={r}",
                )
    return col.report()


def suite_recursion() -> SuiteReport:
    """Recursive peeling, the direct alternating sum and the one-shot
    closed form agree; exactly so in exact arithmetic."""
    col = _Collector("recursion")
    for n in range(2, 9):
        for m in (0, 1, 2):
            for r in (0.5, 0.8, 1.5, 2.5, 3.0):
                state = SymmetricState.from_r_bar(n, m, r)
                direct = monogamy.residual_contangle(state)
                decomp = monogamy.decompose_state(state)
                closed = monogamy.symmetric_closed_form(
                    [
                        formulas.bipartite_contangle(k, n + m, r)
                        for k in range(1, n)
                    ],
                    n,
                )
                for other, tag in (
                    (decomp.genuine_term, "recursive"),
                    (closed, "closed-form"),
                ):
                    rel = _rel(other, direct)
                    col.observe(rel)
                    col.check(
                        rel <= TOL.recursion,
                        f"{tag} route off by {rel:.3e} at n={n} m={m} r_bar={r}",
                    )
                gap = abs(decomp.identity_gap())
                col.check(
                    gap <= TOL.bookkeeping * max(1.0, abs(decomp.bipartite_total)),
                    f"bookkeeping identity violated by {gap:.3e} at n={n} m={m} r_bar={r}",
                )

    def rational_oracle(probe: int, block: int) -> Fraction:
        return Fraction(2 * block + 1, (block + 2) ** 2)

    for n in range(2, 8):
        decomp = monogamy.recursive_decomposition(rational_oracle, n)
        closed = monogamy.symmetric_closed_form(
            [rational_oracle(0, k) for k in range(1, n)], n
        )
        col.check(
            decomp.genuine_term == closed,
            f"exact-arithmetic routes disagree at n={n}",
        )
        col.check(
            decomp.identity_gap() == 0,
            f"exact bookkeeping identity violated at n={n}",
        )
    return col.report()


def suite_gamma() -> SuiteReport:
    """Alternating sums of the linear comparison family match their
    gamma-function closed form."""
    col = _Collector("gamma")
    for n in range(2, 31):
        for b in (0.5, 1.0, 2.0):
            for c in (0.5, 1.0, 2.0):
                seq = ComparisonSequence(a=1.0, b=b, c=c, n_parties=n)
                summed = monogamy.comparison_alternating_sum(seq)
                closed = monogamy.comparison_gamma_value(seq)
                rel = _rel(summed, closed)
                col.observe(rel)
                col.check(
                    rel <= TOL.gamma,
                    f"gamma identity off by {rel:.3e} at n={n} b={b} c={c}",
                )
    four = monogamy.comparison_alternating_sum(
        ComparisonSequence(a=1.0, b=1.0, c=1.0, n_parties=4)
    )
    col.check(
        abs(four - 1.0 / 3.0) <= 1e-13,
        f"four-party unit-law sum {four!r} is not one third",
    )
    return col.report()


def suite_scale() -> SuiteReport:
    """Grouping modes into molecules leaves reduced determinants and the
    residual invariant, and fewer larger molecules carry more residual."""
    col = _Collector("scale")
    for n in (1, 2, 3, 5):
        for parties in range(2, 11):
            for r in (0.5, 1.0):
                for block in range(1, parties):
                    fine = formulas.det_reduced(n * block, n * parties, r)
                    coarse = formulas.det_reduced(block, parties, r)
                    rel = _rel(fine, coarse)
                    col.observe(rel)
                    col.check(
                        rel <= TOL.molecular_det,
                        f"molecular det drift {rel:.3e} at n={n} parties={parties} "
                        f"block={block} r_bar={r}",
                    )
                mol = monogamy.molecular_residual(
                    MoleculePartition(n, parties), 0, r
                )
                unit = monogamy.residual_contangle(
                    SymmetricState.from_r_bar(parties, 0, r)
                )
                col.check(
                    mol == unit,
                    f"molecular residual diverged from unit-molecule value "
                    f"at n={n} parties={parties} r_bar={r}",
                )
    for total in (6, 12):
        sizes = [n for n in (1, 2, 3, 4, 6) if total % n == 0 and total // n >= 2]
        for r in (0.5, 1.0):
            residuals = [
                monogamy.molecular_residual(MoleculePartition(n, total // n), 0, r)
                for n in sizes
            ]
            # sizes ascend, so party counts descend: residuals must ascend
            for prev, cur, n_prev, n_cur in zip(
                residuals, residuals[1:], sizes, sizes[1:]
            ):
                col.check(
                    cur > prev,
                    f"{total}-mode ensemble: molecules of {n_cur} do not beat "
                    f"molecules of {n_prev} at r_bar={r}",
                )
    return col.report()


def suite_fidelity() -> SuiteReport:
    """The fidelity map hits the classical point exactly, inverts to the
    squeezing it came from, and is monotone in both arguments."""
    col = _Collector("fidelity")
    r_values = [1e-6, 0.01] + _r_grid(0.1, 30)
    for n in range(2, 101):
        col.check(
            teleportation.fidelity_from_squeezing(n, 0.0) == 0.5,
            f"classical fidelity not exact at n={n}",
        )
        col.check(
            teleportation.squeezing_from_fidelity(n, 0.5) == 0.0,
            f"zero squeezing not exact at n={n}",
        )
        prev = 0.5
        for r in r_values:
            fid = teleportation.fidelity_from_squeezing(n, r)
            back = teleportation.squeezing_from_fidelity(n, fid)
            err = abs(back - r)
            col.observe(err)
            col.check(
                err <= TOL.fidelity_roundtrip,
                f"roundtrip error {err:.3e} at n={n} r_bar={r}",
            )
            col.check(
                fid > prev,
                f"fidelity not increasing at n={n} r_bar={r}",
            )
            prev = fid
    for r in (0.3, 1.0, 2.0):
        prev = None
        for n in range(2, 101):
            fid = teleportation.fidelity_from_squeezing(n, r)
            if prev is not None:
                col.check(
                    fid < prev,
                    f"fidelity not decreasing with parties at n={n} r_bar={r}",
                )
            prev = fid
    for n in (3, 10):
        prev = None
        for k in range(11, 20):
            fid = 0.05 * k
            res = teleportation.residual_from_fidelity(n, fid)
            if prev is not None:
                col.check(
                    res > prev,
                    f"residual not increasing with fidelity at n={n} f={fid}",
                )
            prev = res
    return col.report()


def suite_shape() -> SuiteReport:
    """Residual contangle versus ensemble size and squeezing has the
    expected shape: nonnegative, rising with squeezing, falling with
    size, and vanishing for large ensembles."""
    col = _Collector("shape")
    n_values = list(range(2, 31)) + [
        35, 40, 50, 60, 75, 90, 110, 130, 160, 200, 250, 300, 400, 500, 650, 800, 1000,
    ]
    r_values = _r_grid(0.05, 23)
    grid = {}
    for n in n_values:
        prev = None
        for r in r_values:
            res = residual_sum(n, 0, r)
            grid[n, r] = res
            col.check(
                res.value >= TOL.positivity_floor,
                f"negative residual {res.value!r} at n={n} r_bar={r}",
            )
            col.observe(res.value, larger_is_worse=False)
            if prev is not None:
                col.check(
                    compare(res, prev) > 0,
                    f"residual not increasing in squeezing at n={n} r_bar={r}",
                )
            prev = res
    for r in r_values:
        prev = None
        for n in n_values:
            res = grid[n, r]
            if prev is not None:
                col.check(
                    compare(res, prev) <= 0,
                    f"residual increased with ensemble size at n={n} r_bar={r}",
                )
            prev = res
    for r in r_values:
        tail = grid[1000, r]
        col.check(
            abs(tail.value) <= 1e-20,
            f"residual has not vanished at n=1000 r_bar={r}: {tail.value!r}",
        )
    return col.report()


_SUITES = {
    "positivity": suite_positivity,
    "coincidence": suite_coincidence,
    "oracle": suite_oracle,
    "recursion": suite_recursion,
    "gamma": suite_gamma,
    "scale": suite_scale,
    "fidelity": suite_fidelity,
    "shape": suite_shape,
}

SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str) -> SuiteReport:
    """Run one suite by name; see ``SUITE_NAMES`` for the choices."""
    try:
        suite = _SUITES[name]
    except KeyError:
        raise ValueError(
            f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}"
        ) from None
    return suite()


def run_all() -> list[SuiteReport]:
    """Run every suite in declaration order."""
    return [suite() for suite in _SUITES.values()]
