"""In-memory spans around the public functions of each contangle layer.

The program has no tracing of its own, so the benchmark wraps, from the
outside, every public function defined in ``formulas``, ``gaussian``,
``kernels``, ``teleportation``, ``monogamy``, ``verification`` and
``cli``, plus the backend's one-pass evaluators (``eval_residual``,
``eval_comparison``) that the escalation loop calls.  A wrapper replaces
the function wherever the package binds it (each module that imported it
by name), records ``[name, start, end, parent, child_seconds, note]`` in a
list, and is removed again by :meth:`Tracer.uninstall`, so untraced rounds
run the original functions.

Layer metrics are computed per traced round from those spans:

* ``*_self_s``: span time minus the time of its traced children;
* other ``*_s``: inclusive time of the outermost spans of that layer
  (a span whose parent is in the same layer is not counted twice);
* ``kernels.*`` bit statistics from the pass spans' notes.
"""

from __future__ import annotations

import inspect
import statistics
from time import perf_counter

LAYERS = ("formulas", "gaussian", "kernels", "teleportation", "monogamy", "verification", "cli")
SUITES = ("coincidence", "oracle", "recursion", "gamma", "scale", "fidelity")
PASS = "kernels.pass"
CALLS = ("kernels.residual_sum", "kernels.comparison_sum")
DOUBLE_BITS = 53

PER_LAYER = (
    ("kernels.calls", "count"),
    ("kernels.passes", "count"),
    ("kernels.accept_ratio", "ratio"),
    ("kernels.pass_s", "s"),
    ("kernels.escalate_self_s", "s"),
    ("kernels.start_bits_mean", "bits"),
    ("kernels.final_bits_mean", "bits"),
    ("kernels.needed_bits_mean", "bits"),
    ("kernels.overshoot", "ratio"),
    ("kernels.bit_terms", "bit-terms"),
    ("monogamy.scan_self_s", "s"),
    ("monogamy.molecular_self_s", "s"),
    ("monogamy.decompose_s", "s"),
    ("formulas.calls", "count"),
    ("formulas.s", "s"),
    ("gaussian.s", "s"),
    ("teleportation.s", "s"),
    *((f"verification.{suite}_s", "s") for suite in SUITES),
    ("cli.dispatch_s", "s"),
    ("cli.build_record_self_s", "s"),
    ("cli.render_s", "s"),
    ("trace.overhead_s", "s"),
)


def _residual_pass_note(args, result):
    n_kept, _, _, prec = args
    return _pass_note(prec, n_kept - 1, result)


def _comparison_pass_note(args, result):
    n_parties, _, _, _, prec = args
    return _pass_note(prec, n_parties, result)


def _pass_note(prec, terms, result):
    _, mantissa, exp2, max_exp2, any_term = result
    cancelled = max_exp2 - exp2 if any_term and mantissa != 0.0 else None
    return (prec, terms, cancelled)


class Tracer:
    """Installs span-recording wrappers into a loaded ``contangle`` package."""

    def __init__(self, package):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []
        modules = [getattr(package, layer) for layer in LAYERS]
        wrappers = {}
        for module, layer in zip(modules, LAYERS):
            for name, fn in vars(module).items():
                if (
                    not name.startswith("_")
                    and inspect.isfunction(fn)
                    and fn.__module__ == module.__name__
                ):
                    note = (lambda args, out: args[0]) if fn.__name__ == "run_suite" else None
                    wrappers[id(fn)] = self._wrap(f"{layer}.{name}", fn, note)
        for namespace in (package, *modules):
            for name, value in list(vars(namespace).items()):
                if id(value) in wrappers:
                    self._patches.append((namespace, name, value, wrappers[id(value)]))
        backend = package.kernels._BACKEND
        for name, note in (
            ("eval_residual", _residual_pass_note),
            ("eval_comparison", _comparison_pass_note),
        ):
            original = getattr(backend, name)
            self._patches.append((backend, name, original, self._wrap(PASS, original, note)))

    def _wrap(self, name, fn, note=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            record = [name, 0.0, 0.0, parent, 0.0, None]
            stack.append(len(spans))
            spans.append(record)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                record[1], record[2] = start, end
                if parent >= 0:
                    spans[parent][4] += end - start
            if note is not None:
                record[5] = note(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` under a span of the benchmark's own (an operation)."""
        return self._wrap(name, fn)(*args, **kwargs)

    def install(self):
        for namespace, name, _, wrapper in self._patches:
            setattr(namespace, name, wrapper)

    def uninstall(self):
        for namespace, name, original, _ in self._patches:
            setattr(namespace, name, original)

    def layer_metrics(self, first: int, last: int) -> dict[str, float]:
        """Per-layer metrics of the spans ``first:last`` (one traced round)."""
        spans = self.spans
        total: dict[str, float] = {}
        self_s: dict[str, float] = {}
        outer: dict[str, float] = {}
        count: dict[str, int] = {}
        suites = dict.fromkeys(SUITES, 0.0)
        passes_of: dict[int, list] = {}
        for i in range(first, last):
            name, start, end, parent, child, note = spans[i]
            dur = end - start
            layer = name.split(".", 1)[0]
            count[name] = count.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + dur
            self_s[name] = self_s.get(name, 0.0) + dur - child
            if parent < first or spans[parent][0].split(".", 1)[0] != layer:
                outer[layer] = outer.get(layer, 0.0) + dur
            if name == PASS:
                passes_of.setdefault(parent, []).append(note)
            elif name == "verification.run_suite" and note in suites:
                suites[note] += dur

        def sum_of(table, *names):
            return sum(table.get(n, 0.0) for n in names)

        calls = sum(count.get(n, 0) for n in CALLS)
        passes = count.get(PASS, 0)
        starts, finals, needed = [], [], []
        for notes in passes_of.values():
            starts.append(notes[0][0])
            finals.append(notes[-1][0])
            if notes[-1][2] is not None:
                needed.append(notes[-1][2] + DOUBLE_BITS)
        metrics = {
            "kernels.calls": calls,
            "kernels.passes": passes,
            "kernels.accept_ratio": calls / passes if passes else 0.0,
            "kernels.pass_s": total.get(PASS, 0.0),
            "kernels.escalate_self_s": sum_of(self_s, *CALLS),
            "kernels.start_bits_mean": mean(starts),
            "kernels.final_bits_mean": mean(finals),
            "kernels.needed_bits_mean": mean(needed),
            "kernels.overshoot": mean(finals) / mean(needed) if needed else 0.0,
            "kernels.bit_terms": sum(
                prec * terms for notes in passes_of.values() for prec, terms, _ in notes
            ),
            "monogamy.scan_self_s": sum_of(
                self_s, "monogamy.positivity_scan", "monogamy.monotonicity_scan"
            ),
            "monogamy.molecular_self_s": sum_of(self_s, "monogamy.molecular_residual"),
            "monogamy.decompose_s": self._outermost(
                first, last, ("monogamy.decompose_state", "monogamy.recursive_decomposition")
            ),
            "formulas.calls": sum(c for n, c in count.items() if n.startswith("formulas.")),
            "formulas.s": outer.get("formulas", 0.0),
            "gaussian.s": outer.get("gaussian", 0.0),
            "teleportation.s": outer.get("teleportation", 0.0),
            "cli.dispatch_s": sum_of(self_s, "cli.main"),
            "cli.build_record_self_s": sum_of(self_s, "cli.build_record"),
            "cli.render_s": sum_of(total, "cli.render_text", "cli.render_json", "cli.render_csv"),
        }
        metrics.update((f"verification.{s}_s", v) for s, v in suites.items())
        return metrics

    def _outermost(self, first: int, last: int, names) -> float:
        spans = self.spans
        return sum(
            spans[i][2] - spans[i][1]
            for i in range(first, last)
            if spans[i][0] in names
            and not (spans[i][3] >= first and spans[spans[i][3]][0] in names)
        )


def mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def median_metrics(rounds: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median(r[name] for r in rounds) for name in rounds[0]}
