"""Run one benchmark workload against the contangle sources of this checkout.

Usage (from the repository root)::

    python3 perfbench/run.py --workload deep-sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py            # every workload, each in a fresh interpreter

One process, no extra threads.  The run times cold set-ups in fresh
child interpreters and keeps the fastest (``setup_s``), runs one untimed warm-up round of the
workload's operations, then repeats whole rounds until ``--seconds`` have
passed, checks the outputs, and prints the metrics; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Timings take each operation's fastest time
over the rounds (see :func:`best_of`): ``run_s`` is their sum,
``query_p50_ms``/``query_p99_ms`` their percentiles over the round's
operations.  With ``--trace 1`` every other round runs with span wrappers
installed; the metrics are then the per-layer ones (median over traced
rounds) plus ``trace.overhead_s``, the traced minus the plain ``run_s``.
Raw per-operation times go to ``perfbench/out/result-*.json`` and the
spans of the first traced round to ``perfbench/out/trace-*.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path.cwd()
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
OUT = HERE / "out"

SETUP_PROBE = (
    "import sys; sys.path.insert(0, 'src'); from contangle import cli; "
    "cli.main.main(['residual', '--n', '3', '--rbar', '0.5'], standalone_mode=False)"
)
SETUP_PROBES = 5
END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
    "query_p50_ms": "ms",
    "query_p99_ms": "ms",
}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_package():
    sys.path.insert(0, str(SRC))
    import contangle
    import contangle.cli

    if Path(contangle.__file__).resolve().parent != (SRC / "contangle").resolve():
        fail(f"imported contangle from {contangle.__file__}, not from {SRC}")
    return contangle


def measure_setup() -> float:
    """Cold set-up: a fresh interpreter imports the CLI and answers once.

    Each probe is a new process, so each is a cold start; the run keeps the
    fastest of ``SETUP_PROBES`` probes, each pinned to the next allowed CPU, for
    the reason given in :func:`best_of`.  A single probe spread 24-43%
    (interquartile over ten runs) on a shared host.
    """
    cpus = sorted(os.sched_getaffinity(0))
    times = []
    for i in range(SETUP_PROBES):
        os.sched_setaffinity(0, {cpus[i % len(cpus)]})  # the child inherits it
        start = perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE],
            cwd=ROOT,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            timeout=120,
        )
        times.append(perf_counter() - start)
        if proc.returncode != 0:
            fail(f"set-up probe failed:\n{proc.stderr}")
    os.sched_setaffinity(0, cpus)
    return min(times)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def best_of(rounds: list[list[float]]) -> list[float]:
    """Each operation's fastest time over the rounds.

    Operations are deterministic, so their spread between rounds is the
    machine's, not the program's: other tenants of a shared host slow it
    by up to 1.7x in phases that last from one to tens of seconds, enough
    to move a median over a whole run.  The fastest of a dozen repeats of
    each operation is the calm-machine cost, as ``timeit`` reports it.
    """
    return [min(times) for times in zip(*rounds)]


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    setup_s = measure_setup()
    package = load_package()
    import tracer as tracing
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, package)
    ops = workload.operations()
    tracer = tracing.Tracer(package) if trace else None
    # warm-up: one untimed round, whose outputs are the ones checked
    errors: list[str] = []
    warm_outputs = []
    for label, op in ops:
        try:
            warm_outputs.append(op())
        except Exception as exc:  # a failing operation is reported, not fatal
            warm_outputs.append(None)
            errors.append(f"{label}: {type(exc).__name__}: {exc}")
    reference_digest = [workload.digest(o) for o in warm_outputs]

    attempted = failed = 0
    plain_rounds: list[list[float]] = []  # per round, each operation's seconds
    traced_rounds: list[list[float]] = []
    layer_rounds: list[dict] = []
    clock = perf_counter()
    cpus = sorted(os.sched_getaffinity(0))
    rounds = 0
    while True:
        # rotate over the CPUs this process may use: slow phases hit one
        # virtual CPU at a time, so each operation's best time is calm.
        # Traced runs alternate plain and traced rounds, so they move every
        # second round to give both kinds every CPU.
        os.sched_setaffinity(0, {cpus[rounds // (1 + trace) % len(cpus)]})
        rounds += 1
        traced = trace and len(plain_rounds) > len(traced_rounds)
        if traced:
            tracer.install()
            first_span = len(tracer.spans)
        outputs = []
        op_times = []
        for label, op in ops:
            attempted += 1
            t0 = perf_counter()
            try:
                out = tracer.call(workload.op_span, op) if traced and workload.op_span else op()
            except Exception as exc:  # a failed operation is counted; the run goes on
                failed += 1
                out = None
                errors.append(f"{label}: {type(exc).__name__}: {exc}")
            op_times.append(perf_counter() - t0)
            outputs.append(out)
        if traced:
            tracer.uninstall()
            traced_rounds.append(op_times)
            layer_rounds.append(tracer.layer_metrics(first_span, len(tracer.spans)))
            if len(layer_rounds) == 1:
                write_spans(name, seed, tracer.spans, first_span)
        else:
            plain_rounds.append(op_times)
        if [workload.digest(o) for o in outputs] != reference_digest:
            errors.append("a timed round's outputs differ from the warm-up round's")
        if perf_counter() - clock >= seconds and (not trace or traced_rounds):
            break
    os.sched_setaffinity(0, cpus)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if not errors:
        errors += workload.check(warm_outputs)
    if trace:
        errors += workload.check_trace(layer_rounds)
        metrics = tracing.median_metrics(layer_rounds)
        metrics["trace.overhead_s"] = sum(best_of(traced_rounds)) - sum(best_of(plain_rounds))
        units = dict(tracing.PER_LAYER)
    else:
        metrics = {
            "setup_s": setup_s,
            "run_s": sum(best := best_of(plain_rounds)),
            "peak_rss_mb": peak_rss_mb,
            "query_p50_ms": statistics.median(best) * 1e3,
            "query_p99_ms": percentile(best, 0.99) * 1e3,
        }
        units = END_TO_END_UNITS
    info = {
        "workload": name,
        "seed": seed,
        "backend": package.kernels.backend_name(),
        "mpmath": __import__("mpmath").__version__,
        "python": platform.python_version(),
        "rounds": len(plain_rounds) + len(traced_rounds),
        "operations_per_round": len(ops),
    }
    print(" ".join(f"{k}={v}" for k, v in info.items()))
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps({**info, "metrics": metrics, "errors": errors,
                    "op_s": plain_rounds, "traced_op_s": traced_rounds})
    )
    for message in errors[:20]:
        print(f"CHECK FAILED: {message}")
    for key, value in metrics.items():
        print(f"  {key:<28s} {value:.6g} {units[key]}")
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }


def write_spans(name: str, seed: int, spans: list[list], first: int) -> None:
    """Spans from index ``first`` on, times relative to the first one."""
    OUT.mkdir(exist_ok=True)
    t0 = spans[first][1] if len(spans) > first else 0.0
    rows = [[s[0], s[1] - t0, s[2] - s[1], s[3] - first if s[3] >= 0 else -1, s[5]] for s in spans[first:]]
    path = OUT / f"trace-{name}-seed{seed}.json"
    path.write_text(json.dumps({"columns": ["name", "start_s", "dur_s", "parent", "note"], "spans": rows}))


def run_all(args) -> dict:
    """Each workload in its own interpreter, one after the other."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            fail(f"workload {name} exited with {proc.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    return combined


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "contangle" / "__init__.py").is_file():
        fail(f"no contangle sources under {SRC}; run from the repository root")
    sys.path.insert(0, str(HERE))
    if args.workload == "all":
        result = run_all(args)
    else:
        from workloads import WORKLOADS

        if args.workload not in WORKLOADS:
            fail(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
