"""The benchmark's three workloads: inputs from a seed, operations, checks.

A workload is a fixed list of operations (one *round*) built from the
seed.  The runner warms up with one untimed round and then repeats whole
rounds, so every run attempts the same operations in the same proportions
whatever its length.  The warm-up round's outputs are checked in full;
every timed round must reproduce them exactly.

* ``deep-sweep``: ``contangle sweep`` CSV columns over log-spaced N from
  100 to 1000 at squeezings 0.1 to 1.15; few points, each at thousands of
  bits after 2-4 escalation passes.  Checked against the shipped
  reference table (``reference/deep_sweep.json``).
* ``bulk-verify``: the six closed-form verification suites, a positivity
  scan and the three monotonicity scans on a seeded small-N grid; many
  cheap kernel calls at 64-200 bits.
* ``interactive``: a seeded stream of single-point ``residual`` and
  ``fidelity`` queries with N <= 60 through the click entry point, from
  one client in a closed loop.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import checks
import reference

HERE = Path(__file__).resolve().parent
REFERENCE_TABLE = HERE / "reference" / "deep_sweep.json"

#: (r_bar, (first N, last N, count)) of each deep-sweep column; N log-spaced
DEEP_COLUMNS = (
    (1.15, (100, 1000, 4)),
    (0.6, (100, 464, 3)),
    (0.3, (100, 464, 3)),
    (0.1, (100, 215, 2)),
)


def deep_points() -> list[tuple[int, float]]:
    return [
        (n, r)
        for r, (start, stop, count) in DEEP_COLUMNS
        for n in checks.expected_log_range(start, stop, count)
    ]


class Workload:
    #: span the tracer puts around each operation, if any
    op_span: str | None = None

    @staticmethod
    def digest(out):
        """What of an operation's output every round must reproduce."""
        return out

    def check_trace(self, layer_rounds) -> list[str]:
        return []


class CliWorkload(Workload):
    """Operations that are CLI invocations, run in-process through click."""

    op_span = "cli.main"

    def __init__(self, package):
        self.cli = package.cli
        self._buffer = io.StringIO()

    def invoke(self, argv: list[str]) -> str:
        buf = self._buffer
        buf.seek(0)
        buf.truncate()
        with contextlib.redirect_stdout(buf):
            self.cli.main.main(argv, prog_name="contangle", standalone_mode=False)
        return buf.getvalue()


class DeepSweep(CliWorkload):
    name = "deep-sweep"

    def __init__(self, seed: int, package):
        super().__init__(package)
        columns = list(DEEP_COLUMNS)
        random.Random(seed).shuffle(columns)
        self.columns = columns
        self.grid_points = len(deep_points())

    def operations(self):
        return [
            (f"sweep r_bar={r}", lambda spec=f"{a}:{b}:{c}:log", r=r: self.invoke(
                ["sweep", "--n", spec, "--rbar", repr(r)]
            ))
            for r, (a, b, c) in self.columns
        ]

    def check(self, outputs) -> list[str]:
        table = json.loads(REFERENCE_TABLE.read_text())["residual"]
        errors, values = [], {}
        for (r, (a, b, c)), text in zip(self.columns, outputs):
            errs, vals = checks.check_sweep_csv(text, r, checks.expected_log_range(a, b, c), table)
            errors += errs
            values.update(vals)
        return errors + checks.check_shape(values)

    def check_trace(self, layer_rounds) -> list[str]:
        return [
            f"traced round counted {m['kernels.calls']} kernel calls for "
            f"{self.grid_points} grid points"
            for m in layer_rounds
            if m["kernels.calls"] != self.grid_points
        ]


class BulkVerify(Workload):
    name = "bulk-verify"
    SAMPLE = 24

    def __init__(self, seed: int, package):
        self.pkg = package
        rng = random.Random(seed)
        # a small seeded offset in each stratum: the grids differ, their
        # cost (terms x bits x passes) barely does
        self.ns = [3 + 5 * k + rng.randrange(2) for k in range(8)]
        self.ms = [3 * k + rng.randrange(2) for k in range(4)]
        self.rs = [round(0.15 * (k + rng.uniform(0.45, 0.55)), 4) for k in range(12)]
        grid = [(n, m, r) for n in self.ns for m in self.ms for r in self.rs]
        self.sample = rng.sample(grid, self.SAMPLE)

    def operations(self):
        verification, monogamy = self.pkg.verification, self.pkg.monogamy
        grid = (self.ns, self.ms, self.rs)
        ops = [
            (f"suite {s}", lambda s=s: verification.run_suite(s))
            for s in ("coincidence", "oracle", "recursion", "gamma", "scale", "fidelity")
        ]
        ops.append(("positivity scan", lambda: monogamy.positivity_scan(*grid)))
        ops += [
            (f"monotonicity {axis}", lambda axis=axis: monogamy.monotonicity_scan(axis, *grid))
            for axis in ("r_bar", "n_kept", "n_traced")
        ]
        return ops

    @staticmethod
    def digest(out):
        if hasattr(out, "failures"):  # SuiteReport: everything but its timing
            return (out.name, out.passed, out.checks, out.worst, tuple(out.failures))
        return out

    def check(self, outputs) -> list[str]:
        errors = []
        points = len(self.ns) * len(self.ms) * len(self.rs)
        series = {
            "r_bar": len(self.ns) * len(self.ms),
            "n_kept": len(self.ms) * len(self.rs),
            "n_traced": len(self.ns) * len(self.rs),
        }
        for report in outputs[:6]:
            if not report.passed or report.checks == 0:
                errors.append(f"suite {report.name} failed: {report.failures[:3]}")
        positivity = outputs[6]
        if not positivity.passed or positivity.points != points:
            errors.append(f"positivity scan: {positivity.points} points, {positivity.violations[:3]}")
        for report in outputs[7:]:
            if not report.passed or (report.points, report.series) != (points, series[report.axis]):
                errors.append(
                    f"monotonicity {report.axis}: {report.points} points, "
                    f"{report.series} series, {report.violations[:3]}"
                )
        # the program's values on the whole grid, exactly, for the shape
        # properties and the scan's minimum; a seeded sample against the
        # independent evaluator
        residual_sum = self.pkg.kernels.residual_sum
        values = {}
        for n in self.ns:
            for m in self.ms:
                for r in self.rs:
                    res = residual_sum(n, m, r)
                    values[n, m, r] = Fraction(res.mantissa) * Fraction(2) ** res.exp2
        errors += checks.check_shape(values)
        argmin = min(values, key=values.get)
        if positivity.min_point != argmin:
            errors.append(f"positivity scan minimum at {positivity.min_point}, expected {argmin}")
        for n, m, r in self.sample + [argmin]:
            ref = reference.residual(n, m, r)
            if checks.rel_err(float(values[n, m, r]), ref) > checks.REL_TOL:
                errors.append(f"residual at ({n}, {m}, {r}) differs from the reference")
        return errors


#: (kind, N range) of the interactive queries.  No usage data says how
#: often each kind is asked, so every kind gets the same count per round.
INTERACTIVE_KINDS = (
    ("rbar", (2, 60)),
    ("n2", (2, 2)),
    ("verbose", (3, 60)),
    ("db", (2, 60)),
    ("m", (2, 40)),
    ("molecule", (2, 30)),
    ("fid-rbar", (2, 60)),
    ("fid-inverse", (2, 60)),
)
QUERIES_PER_KIND = 130  # formats alternate text/json within a kind


def _strata(rng: random.Random, count: int, lo: float, hi: float) -> list[float]:
    """One uniform draw in each of ``count`` equal slices of [lo, hi), shuffled:
    the spread of values, hence the cost of a round, barely moves with the seed."""
    width = (hi - lo) / count
    values = [lo + width * (i + rng.random()) for i in range(count)]
    rng.shuffle(values)
    return values


def interactive_queries(seed: int) -> list[checks.Query]:
    rng = random.Random(seed)
    queries = []
    for kind, (lo, hi) in INTERACTIVE_KINDS:
        ns = [int(x) for x in _strata(rng, QUERIES_PER_KIND, lo, hi + 1)]
        rs = [round(x, 4) for x in _strata(rng, QUERIES_PER_KIND, 0.05, 1.5)]
        for i, (n, r) in enumerate(zip(ns, rs)):
            fmt = "json" if kind == "n2" or i % 2 else "text"
            if kind in ("rbar", "n2", "verbose"):
                q = checks.Query("verbose" if kind == "verbose" else "rbar", n, r=r, fmt=fmt)
            elif kind == "db":
                q = checks.Query("db", n, db=round(20 * r / math.log(10), 3), fmt=fmt)
            elif kind == "m":
                q = checks.Query("m", n, m=rng.randint(1, 20), r=r, fmt=fmt)
            elif kind == "molecule":
                q = checks.Query(
                    "molecule", n, m=rng.randint(0, 2), r=r, size=rng.randint(2, 4), fmt=fmt
                )
            elif kind == "fid-rbar":
                q = checks.Query("fid-rbar", n, r=r, fmt=fmt)
            else:
                fid = 1 / (1 + math.sqrt(n / (n + 2 * math.expm1(4 * r))))
                q = checks.Query("fid-inverse", n, fid=round(fid, 6), fmt=fmt)
            queries.append(q)
    rng.shuffle(queries)
    return queries


class Interactive(CliWorkload):
    name = "interactive"

    def __init__(self, seed: int, package):
        super().__init__(package)
        self.queries = interactive_queries(seed)
        self.monogamy = package.monogamy

    def operations(self):
        return [
            (" ".join(q.argv()), lambda argv=q.argv(): self.invoke(argv)) for q in self.queries
        ]

    def check(self, outputs) -> list[str]:
        errors = []
        for q, text in zip(self.queries, outputs):
            errors += checks.check_query(q, text)
            if q.kind == "molecule":
                partition = self.monogamy.MoleculePartition(q.size, q.n)
                value = self.monogamy.molecular_residual(partition, q.m, q.r)
                errors += checks.check_molecule(
                    q, value, text, self.invoke(q.unit_molecule().argv())
                )
        return errors


WORKLOADS = {w.name: w for w in (DeepSweep, BulkVerify, Interactive)}
