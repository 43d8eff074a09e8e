"""Timing of the sum kernels, warm or cold.

Run as a script::

    python benchmarks/bench_kernels.py           # warm: best of 3 per case
    python benchmarks/bench_kernels.py --cold    # first call in a fresh interpreter

Each case is the full escalation loop (not a single fixed-precision
pass), so the numbers reflect what scans actually pay.  The warm table
times every backend that is built and asserts that they agree; the
compiled backend must have been built for a comparison to appear.

The cold table times the first call in a new interpreter, after the
imports, so it includes every cache the call fills (mpmath's constants
and the kernel's own).  Its first row times the imports themselves,
``from contangle import cli``.  Each row runs in ``COLD_PROCESSES`` fresh
interpreters; the table gives the fastest, the median and the slowest,
and whether numpy was loaded once the row's statement had run.  One-shot
command-line use pays these times.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import contangle
from contangle import kernels
from contangle.kernels import pure

try:
    from contangle.kernels import _sumcore
except ImportError:
    _sumcore = None

RESIDUAL_CASES = [
    (10, 0, 0.8),
    (50, 0, 0.8),
    (100, 0, 0.3),
    (100, 20, 0.05),
    (500, 0, 0.5),
    (1000, 0, 1.15),
]

COMPARISON_CASES = [
    (30, 1.0, 0.5, 2.0),
    (100, 1.0, 1.0, 1.0),
]

#: (label, statement run once and timed in a fresh interpreter)
COLD_CASES = [
    ("residual(1000, 0, 1.15)", "kernels.residual_sum(1000, 0, 1.15)"),
    ("residual(200, 5, 0.01)", "kernels.residual_sum(200, 5, 0.01)"),
    ("residual(100, 0, 1e-30)", "kernels.residual_sum(100, 0, 1e-30)"),
    ("residual(30, 2, 1e-300)", "kernels.residual_sum(30, 2, 1e-300)"),
    ("residual(7, 0, 1e-300)", "kernels.residual_sum(7, 0, 1e-300)"),
    *(
        (f"residual({n}, 0, 0.5, min_precision={p})",
         f"kernels.residual_sum({n}, 0, 0.5, min_precision={p})")
        for n, p in ((3, 2400), (3, 8000), (20, 8000), (3, 20000))
    ),
    (
        "sweep --n 100:1000:4:log --rbar 1.15",
        "cli.main.main(['sweep', '--n', '100:1000:4:log', '--rbar', '1.15'],"
        " standalone_mode=False)",
    ),
]
COLD_PROCESSES = 5

#: prints the seconds of the imports, of the statement, and whether numpy
#: was loaded after it
_COLD_CHILD = """
import contextlib, io, sys, time
sys.path.insert(0, {path!r})
start = time.perf_counter()
from contangle import cli, kernels
imported = time.perf_counter()
with contextlib.redirect_stdout(io.StringIO()):
    {statement}
done = time.perf_counter()
print(imported - start, done - imported, "numpy" in sys.modules)
"""


def _time(fn, *args, repeats: int = 3) -> tuple[float, object]:
    best = float("inf")
    value = None
    for _ in range(repeats):
        start = time.perf_counter()
        value = fn(*args)
        best = min(best, time.perf_counter() - start)
    return best, value


def _with_backend(module):
    """Temporarily pin the kernel dispatch to one backend module."""
    original = kernels._BACKEND

    class _Pin:
        def __enter__(self):
            kernels._BACKEND = module

        def __exit__(self, *exc):
            kernels._BACKEND = original

    return _Pin()


def _row(label: str, fn, args, backends) -> None:
    times = []
    results = []
    for _, module in backends:
        with _with_backend(module):
            best, value = _time(fn, *args)
        times.append(best)
        results.append(value)
    assert all(v == results[0] for v in results[1:]), f"backends disagree at {args}"
    row = "".join(f"{t * 1e3:>10.2f}ms" for t in times)
    speedup = f"{times[-1] / times[0]:>9.1f}x" if len(times) > 1 else ""
    print(f"{label:<28s}{row}{speedup}")


def run() -> None:
    backends = [("python", pure)]
    if _sumcore is not None:
        backends.insert(0, ("native", _sumcore))
    else:
        print("compiled kernel not built; timing the pure backend only\n")

    speedup = f"{'speedup':>10s}" if len(backends) > 1 else ""
    print(f"{'case':<28s}" + "".join(f"{name:>12s}" for name, _ in backends) + speedup)
    for n, m, r in RESIDUAL_CASES:
        _row(f"residual({n}, {m}, {r})", kernels.residual_sum, (n, m, r), backends)
    for n, a, b, c in COMPARISON_CASES:
        _row(f"comparison({n}, {a}, {b}, {c})", kernels.comparison_sum, (n, a, b, c), backends)


def _cold_runs(path: str, statement: str) -> list[tuple[float, float, bool]]:
    child = _COLD_CHILD.format(path=path, statement=statement)
    runs = []
    for _ in range(COLD_PROCESSES):
        out = subprocess.run(
            [sys.executable, "-c", child], check=True, capture_output=True, text=True
        ).stdout.split()
        runs.append((float(out[0]), float(out[1]), out[2] == "True"))
    return runs


def run_cold() -> dict[str, dict]:
    """Time the imports and each cold case in fresh interpreters; print
    and return the times and whether numpy was loaded."""
    path = str(Path(contangle.__file__).resolve().parent.parent)
    print(f"backend {kernels.backend_name()}, {COLD_PROCESSES} fresh interpreters per row")
    print(f"{'case':<44s}{'fastest':>12s}{'median':>12s}{'slowest':>12s}{'numpy':>7s}")
    rows = [("from contangle import cli", "pass", 0)] + [(label, statement, 1) for label, statement in COLD_CASES]
    table = {}
    for label, statement, column in rows:
        runs = _cold_runs(path, statement)
        times = [run[column] for run in runs]
        numpy = any(run[2] for run in runs)
        table[label] = {"seconds": times, "numpy": numpy}
        print(
            f"{label:<44s}{min(times) * 1e3:>10.1f}ms{statistics.median(times) * 1e3:>10.1f}ms"
            f"{max(times) * 1e3:>10.1f}ms{'yes' if numpy else 'no':>7s}"
        )
    print(json.dumps(table))
    return table


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--cold", action="store_true",
        help="time the first call of each case in fresh interpreters",
    )
    if parser.parse_args().cold:
        run_cold()
    else:
        run()
