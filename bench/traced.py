"""Traced in-process replay of one workload's command-line ops.

Run by ``run.py`` in a fresh interpreter:

    python bench/traced.py ROOT WORKLOAD SEED INDIR OUTDIR MODE RESULT

It imports ``predictu.cli`` (timing the import), then wraps every
function that one package module imports from another, in the
importing module's namespace, so each call across a layer boundary
records a span: name, start, end and parent span.  The package source
is not modified.  Each op is one ``cli.main`` call inside a root span,
so the CLI calls the same public functions in the same order with the
same arguments as the untraced run.  Spans stay in memory and are
written to RESULT as JSON when the run ends.

MODE ``time`` records timestamps only.  MODE ``memory`` also records,
per span, the ``tracemalloc`` peak above the span's starting level; it
is a separate pass because tracing allocations slows Python-heavy code.
Allocations are traced only inside spans of ``MEMORY_LAYERS``.
"""

import functools
import json
import os
import sys
import time
import tracemalloc
import types

LAYERS = ("cli", "fileio", "risk_model", "summary_indices", "curve_links",
          "inference", "isotonic", "simulate")
# Layers whose allocation peak is reported.  The memory pass traces
# allocations only inside their spans: tracing the whole simulation
# harness would slow it several-fold and report nothing used.
MEMORY_LAYERS = ("fileio", "risk_model", "inference")


class Tracer:
    """Span recorder; one span is [id, parent id or -1, name, start, end, peak bytes]."""

    def __init__(self, memory: bool):
        self.memory = memory
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.frames: list[list[int]] = []  # memory mode: [start bytes, highest bytes seen]
        self.tracing_owner: int | None = None  # span that started tracemalloc
        self.counts: dict[str, int] = {"fileio.rows": 0, "risk_model.genotypes": 0,
                                       "inference.replicates": 0}

    def enter(self, name: str) -> list:
        rec = [len(self.spans), self.stack[-1] if self.stack else -1, name, 0.0, 0.0, 0]
        self.spans.append(rec)
        self.stack.append(rec[0])
        if self.memory:
            if self.tracing_owner is None and name.split(".", 1)[0] in MEMORY_LAYERS:
                tracemalloc.start()
                self.tracing_owner = rec[0]
            current, peak = tracemalloc.get_traced_memory()
            if self.frames:
                self.frames[-1][1] = max(self.frames[-1][1], peak)
            tracemalloc.reset_peak()
            self.frames.append([current, current])
        rec[3] = time.perf_counter()
        return rec

    def exit(self, rec: list) -> None:
        rec[4] = time.perf_counter()
        self.stack.pop()
        if self.memory:
            _, peak = tracemalloc.get_traced_memory()
            start, seen = self.frames.pop()
            seen = max(seen, peak)
            rec[5] = seen - start
            if self.frames:
                self.frames[-1][1] = max(self.frames[-1][1], seen)
            if self.tracing_owner == rec[0]:
                tracemalloc.stop()
                self.tracing_owner = None

    def count(self, name: str, args, result) -> None:
        """Work counts read from the arguments and results at the boundary."""
        if name in ("fileio.parse_subject_file", "fileio.parse_counts_file"):
            self.counts["fileio.rows"] += result[1].n_rows
        elif name in ("risk_model.estimate_risk_table", "risk_model.build_risk_table"):
            self.counts["risk_model.genotypes"] = max(self.counts["risk_model.genotypes"],
                                                      result.n_genotypes)
        elif name.startswith("inference."):
            self.counts["inference.replicates"] += sum(
                a.n_replicates for a in args if type(a).__name__ == "ResamplePlan")

    def wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit(rec)
            self.count(name, args, result)
            return result

        return traced


def instrument(tracer: Tracer) -> None:
    """Wrap each cross-module function reference inside the package."""
    for layer in LAYERS:
        module = sys.modules[f"predictu.{layer}"]
        for attr, obj in list(vars(module).items()):
            if (isinstance(obj, types.FunctionType) and obj.__module__.startswith("predictu.")
                    and obj.__module__ != module.__name__):
                setattr(module, attr, tracer.wrap(obj))


def main(argv: list[str]) -> int:
    root, workload, seed, indir, outdir, mode, result_path = argv
    sys.path.insert(0, os.path.join(root, "src"))
    start = time.perf_counter()
    import predictu.cli as cli

    import_s = time.perf_counter() - start

    import workloads

    tracer = Tracer(memory=mode == "memory")
    instrument(tracer)
    failures = []
    with open(os.devnull, "w") as sink:
        for name, args in workloads.WORKLOADS[workload].ops(indir, int(seed)):
            out = os.path.join(outdir, name)
            stdout, sys.stdout = sys.stdout, sink
            rec = tracer.enter(f"cli.{name}")
            try:
                code = cli.main(args + ["--out", out])
            finally:
                tracer.exit(rec)
                sys.stdout = stdout
            if code != 0:
                failures.append(f"{name}: exit {code}")
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"import_s": import_s, "spans": tracer.spans, "counts": tracer.counts,
                   "failures": failures}, fh)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
