"""predictu benchmark runner.

    python3 bench/run.py --workload {cohort,holdout,simcov} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program under test is
``src/predictu`` of that checkout, run as ``python -m predictu.cli``.
The runner generates the workload's inputs from the seed, measures
set-up time (``--version``), then runs the workload's op sequence again
and again, one op at a time, until ``--seconds`` have passed.  Every op
runs under the guard in ``guard.py``; the artifacts of the first
sequence are checked against the oracle in ``oracle.py``, and those of
later sequences must match the first byte for byte (the package's
determinism contract).

With ``--trace 1`` it then replays the ops in process twice, in fresh
interpreters: once for span timings and once for allocation peaks (see
``traced.py``), and reports the per-layer metrics.

Standard output carries a readable report, one ``{"environment": ...}``
line, and last one JSON result line with the metrics named in
``BENCHMARK.json``.  Scratch files live under ``.bench_work/`` and are
removed on exit.
"""

from __future__ import annotations

import argparse
import filecmp
import importlib.metadata
import json
import os
import shutil
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

from guard import OpResult, run_guarded
from traced import LAYERS
from workloads import WORKLOADS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

SETUP_SAMPLES = 3
OP_TIMEOUT_S = 60.0
# a traced pass replays a whole sequence, slower under tracemalloc
TRACE_TIMEOUT_S = 90.0
# everything, traced passes included, must end well inside 180 s
RUN_BUDGET_S = 165.0
THREAD_VARS = ("OMP_", "OPENBLAS_", "MKL_", "BLIS_", "VECLIB_", "NUMEXPR_", "GOTO_", "PREDICTU_")


def _cli(*args: str) -> list[str]:
    return [sys.executable, "-m", "predictu.cli", *args]


def _git_commit(root: str) -> str | None:
    try:
        with open(os.path.join(root, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(root, ".git", ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(args, inputs: dict) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "git_commit": _git_commit(ROOT),
        "workload": args.workload,
        "seed": args.seed,
        "inputs": inputs,
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if k.startswith(THREAD_VARS)},
    }


def same_outputs(first: str, again: str) -> bool:
    names = sorted(os.listdir(first))
    if names != sorted(os.listdir(again)):
        return False
    _, mismatch, errors = filecmp.cmpfiles(first, again, names, shallow=False)
    return not mismatch and not errors


class Runner:
    def __init__(self, args, work: str):
        self.args = args
        self.work = work
        self.indir = os.path.join(work, "in")
        self.outdir = os.path.join(work, "out")
        self.logdir = os.path.join(work, "log")
        for d in (self.indir, self.outdir, self.logdir):
            os.makedirs(d)
        self.env = dict(os.environ)
        src = os.path.join(ROOT, "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else src
        self.started = time.perf_counter()
        self.results: list[OpResult] = []

    def remaining(self) -> float:
        return RUN_BUDGET_S - (time.perf_counter() - self.started)

    def guarded(self, name: str, argv: list[str], timeout_s: float = OP_TIMEOUT_S) -> OpResult:
        timeout = min(timeout_s, self.remaining())
        log = os.path.join(self.logdir, f"{len(self.results)}-{name}.err")
        result = run_guarded(name, argv, cwd=self.work, env=self.env, timeout_s=timeout, log_path=log)
        self.results.append(result)
        return result

    def run_sequence(self, k: int, ops, checks) -> list[OpResult]:
        seq = []
        for name, op_args in ops:
            out = os.path.join(self.outdir, str(k), name)
            res = self.guarded(name, _cli(*op_args, "--out", out))
            if res.ok:
                if k == 0:
                    problems = checks[name](out)
                    if problems:
                        res = res.failed("check: " + "; ".join(problems[:3]))
                else:
                    first = os.path.join(self.outdir, "0", name)
                    if not same_outputs(first, out):
                        res = res.failed("output differs from the first sequence")
                    shutil.rmtree(out)
                self.results[-1] = res
            seq.append(res)
        return seq

    def traced(self, mode: str) -> dict | None:
        result_path = os.path.join(self.work, f"trace-{mode}.json")
        argv = [sys.executable, os.path.join(BENCH_DIR, "traced.py"), ROOT, self.args.workload,
                str(self.args.seed), self.indir, os.path.join(self.outdir, f"trace-{mode}"), mode,
                result_path]
        res = self.guarded(f"trace-{mode}", argv, TRACE_TIMEOUT_S)
        if not res.ok:
            return None
        with open(result_path, encoding="utf-8") as fh:
            return json.load(fh)


def layer_metrics(timing: dict, memory: dict, per_op: dict, wall_s: float, setup_s: float) -> dict:
    """Per-layer numbers from the traced passes and the untraced per-op times."""
    spans = timing["spans"]
    children = defaultdict(float)
    root = {}
    for sid, parent, name, start, end, _ in spans:
        root[sid] = sid if parent < 0 else root[parent]
        if parent >= 0:
            children[parent] += end - start
    names = {sid: name for sid, _, name, *_ in spans}
    m: dict[str, float] = defaultdict(float)
    total = 0.0
    for sid, parent, name, start, end, _ in spans:
        layer, func = name.split(".", 1)
        dur = end - start
        m[f"{layer}.self_s"] += dur - children[sid]
        m[f"fn:{name}"] += dur
        if parent < 0:
            total += dur
        elif names[parent].startswith("cli.") and layer in ("summary_indices", "curve_links"):
            m[f"{layer}.{'indices_s' if layer == 'summary_indices' else 'links_s'}"] += dur
        if name == "simulate.run_bias_coverage":
            m[f"bias:{names[root[sid]]}"] += dur
        if name == "isotonic.pava":
            m["isotonic.rows"] += 1
        if layer == "fileio" and func.startswith("write_"):
            m["fileio.write_s"] += dur
    out = {f"{layer}.self_s": m[f"{layer}.self_s"] for layer in LAYERS}
    out.update({
        "cli.import_s": timing["import_s"],
        "fileio.parse_subjects_s": m["fn:fileio.parse_subject_file"],
        "fileio.parse_counts_s": m["fn:fileio.parse_counts_file"],
        "fileio.write_s": m["fileio.write_s"],
        "risk_model.estimate_s": m["fn:risk_model.estimate_risk_table"],
        "risk_model.apply_s": m["fn:risk_model.apply_model_to_test"],
        "summary_indices.indices_s": m["summary_indices.indices_s"],
        "curve_links.links_s": m["curve_links.links_s"],
        "inference.bootstrap_s": m["fn:inference.bootstrap_ci"],
        "inference.partial_s": m["fn:inference.partial_u_variance"],
        "inference.permutation_s": m["fn:inference.permutation_test"],
        "isotonic.pava_s": m["fn:isotonic.pava"],
        "isotonic.rows": int(m["isotonic.rows"]),
        "isotonic.refit_extra_s": m["bias:cli.simulate_iso"] - m["bias:cli.simulate"],
        "simulate.preset_s": m["fn:simulate.preset"],
        "simulate.bias_coverage_s": m["bias:cli.simulate"],
        "trace.total_s": total,
        # the untraced sequence pays interpreter start and import once per op
        "trace.overhead_s": total - (wall_s - len(per_op) * setup_s),
    })
    out.update(timing["counts"])
    peaks = defaultdict(int)
    for _, _, name, _, _, peak in memory["spans"]:
        layer = name.split(".", 1)[0]
        peaks[layer] = max(peaks[layer], peak)
    for layer in ("fileio", "risk_model", "inference"):
        out[f"{layer}.peak_alloc_mb"] = peaks[layer] / 2**20
    for op in ("curve", "links", "summarize", "validate", "simulate", "simulate_iso",
               "simulate_iso_partial"):
        out[f"cli.{op}_s"] = per_op.get(op, 0.0)
    return out


def run(args, spec: dict) -> tuple[dict, str]:
    """Run one workload; return the result object and the readable report."""
    workload = WORKLOADS[args.workload]
    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-s{args.seed}-p{os.getpid()}")
    runner = Runner(args, work)
    try:
        inputs = workload.generate(runner.indir, args.seed)
        checks = workload.checks(runner.indir, args.seed)
        ops = workload.ops(runner.indir, args.seed)

        setup = [runner.guarded("setup", _cli("--version")) for _ in range(SETUP_SAMPLES)]
        sequences = []
        loop_start = time.perf_counter()
        while True:
            seq = runner.run_sequence(len(sequences), ops, checks)
            sequences.append(seq)
            if not all(r.ok for r in seq) or time.perf_counter() - loop_start >= args.seconds:
                break
            if runner.remaining() < 2 * (time.perf_counter() - loop_start) / len(sequences) + 60:
                break

        wall_s = statistics.median(sum(r.wall_s for r in s) for s in sequences)
        setup_s = statistics.median(r.wall_s for r in setup)
        per_op = {name: statistics.median(s[i].wall_s for s in sequences)
                  for i, (name, _) in enumerate(ops)}
        op_results = [r for s in sequences for r in s]
        layers = {}
        if args.trace:
            timing = runner.traced("time")
            memory = runner.traced("memory") if timing is not None else None
            if timing is not None and memory is not None:
                layers = layer_metrics(timing, memory, per_op, wall_s, setup_s)
        attempted = len(runner.results)
        failed = sum(not r.ok for r in runner.results)
        end_to_end = {
            "wall_s": wall_s,
            "peak_rss_mb": max(r.peak_rss_mb for r in op_results),
            "setup_s": setup_s,
            "ok_frac": (attempted - failed) / attempted,
        }
        samples = {"wall_s": f"median of {len(sequences)} sequences",
                   "setup_s": f"median of {len(setup)} --version runs",
                   "peak_rss_mb": f"max over {len(op_results)} ops",
                   "ok_frac": f"{attempted - failed}/{attempted} ops passed, "
                              f"fail_frac {failed / attempted:.3g}"}

        report = [f"predictu benchmark  workload={args.workload} seed={args.seed} "
                  f"seconds={args.seconds:g} trace={args.trace}"]
        report += [f"  input {name}: " + ", ".join(f"{k}={v}" for k, v in stats.items())
                   for name, stats in inputs.items()]
        report += [f"  op {name:<22s} {per_op[name]:8.3f} s   median of {len(sequences)}"
                   for name, _ in ops]
        report += [f"  FAILED {r.name}: {r.reason}" for r in runner.results if not r.ok]

        def listing(values: dict, wanted: list) -> dict:
            out = {}
            for m in wanted:
                value = values.get(m["name"])
                out[m["name"]] = {"value": value, "unit": m["unit"]}
                shown = "missing" if value is None else f"{value:.6g}"
                report.append(f"  {m['name']:<28s} {shown:>14s} {m['unit']:<6s} "
                              f"{samples.get(m['name'], '')}")
            return out

        result_metrics = listing(end_to_end, spec["end_to_end"])
        if args.trace:
            result_metrics = listing(layers, spec["per_layer"])
        env = environment(args, inputs)
        env["samples"] = {"sequences": len(sequences), "setup": len(setup)}
        correct = failed == 0 and all(m["value"] is not None for m in result_metrics.values())
        result = {"correct": correct, "attempted": attempted, "failed": failed,
                  "metrics": result_metrics}
        return result, "\n".join(report) + "\n" + json.dumps({"environment": env})
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "predictu", "cli.py")):
        print(f"error: no predictu source under {ROOT}/src; run from a source checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    result, report = run(args, spec)
    print(report)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
