"""biheun benchmark: closed-loop CLI workloads with every output checked.

    python3 perfbench/run.py --workload spectrum --seed 1 --seconds 12 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``. One client calls ``biheun.cli.main(argv)`` in this process, one op
at a time, with ``--out`` pointing at a file under ``.perfbench_out/``. Ops
run in whole rounds (see ``workloads``) until their measured time reaches
``--seconds``, and each op is judged against an mpmath reference built
before timing.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` wraps the
package's public functions (see ``tracer``) and reports per-layer metrics.
The last line of standard output is one JSON object; the lines before it
describe the machine, each failed op, and every metric by name with its unit.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

# Pin BLAS/OpenMP pools before numpy loads: one client, one thread.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
os.environ.update(dict.fromkeys(THREAD_VARS, "1"))

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(ROOT))

from perfbench import speed, workloads  # noqa: E402
from perfbench import tracer as tracing  # noqa: E402

WORKLOADS = ("spectrum", "spectrum-verify", "wavefunction", "acceptance")
SETUP_REPEATS = 5
# Times the import, then probes the child's speed (see perfbench.speed).
SETUP_SNIPPET = ("import time; t = time.perf_counter(); import biheun.cli; "
                 "dt = time.perf_counter() - t; from perfbench import speed; "
                 "print(dt, speed.probe_median())")
# Per-layer metrics: inclusive seconds per op, and call counts per solution
# or per op, of these wrapped functions.
TIMED = ("quantize.constraint_polynomial", "quantize.solve_b_roots", "quantize.wavefunction",
         "quantize.normalize", "heun.ode_residual", "heun.coefficient_sequence",
         "model.turning_points", "oracle.fd_eigensolve", "oracle.fd_eigenvalues_richardson")
CALLS_PER_SOLUTION = ("heun.ode_residual", "heun.coefficient_sequence", "model.turning_points")
CALLS_PER_OP = ("oracle.fd_eigensolve", "oracle.fd_eigenvalues_richardson")


def measure_setup_s() -> float:
    """Median reference-speed time to import biheun.cli in a fresh interpreter.

    One unrecorded import first fills the bytecode and file caches."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(ROOT))))
    times = []
    for _ in range(SETUP_REPEATS + 1):
        proc = subprocess.run([sys.executable, "-c", SETUP_SNIPPET], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        dt, probe_s = map(float, proc.stdout.split())
        times.append(dt * speed.PROBE_REF_S / probe_s)
    return statistics.median(times[1:])


def machine() -> dict:
    import mpmath
    import numpy
    import scipy

    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "note": "process-own wall/CPU only; no machine-wide tracing",
    }


def percentile(ok: list[float], failed: int, q: float) -> float:
    """q-quantile of the op latencies, failed ops ranking above every success.

    Where the quantile falls among failed ops it reads as the slowest
    successful op, a lower bound. Needs at least one success."""
    ordered = sorted(ok) + [float("inf")] * failed
    pos = (len(ordered) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    if ordered[hi] == float("inf"):
        return ordered[min(lo, len(ok) - 1)]
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def end_to_end(runner: workloads.Runner, setup_s: float) -> dict:
    """The BENCHMARK.json end-to-end metrics of an untraced run."""
    recs = runner.records
    ok_ms = [r["scaled_s"] * 1e3 for r in recs if r["status"] == "ok"]
    n_failed = len(recs) - len(ok_ms)
    return {
        "setup_s": (setup_s, "s"),
        "ok_ops_per_s": (len(ok_ms) / sum(r["scaled_s"] for r in recs), "1/s"),
        "op_p50_ms": (percentile(ok_ms, n_failed, 0.5), "ms"),
        "op_p90_ms": (percentile(ok_ms, n_failed, 0.9), "ms"),
        "ok_ratio": (len(ok_ms) / len(recs), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def accuracy(runner: workloads.Runner) -> dict:
    """Worst errors against the reference; 0 where a workload has no such output."""
    recs = runner.records
    return {
        "b_rel_err_max": (max(r["b_err"] for r in recs), "ratio"),
        "wf_rel_diff_max": (max(r["wf_err"] for r in recs), "ratio"),
    }


def run_figures(runner: workloads.Runner) -> dict:
    """Figures printed beside the metrics: unscaled latencies, failures, pass time."""
    recs = runner.records
    ok_raw_ms = [r["s"] * 1e3 for r in recs if r["status"] == "ok"]
    n_failed = len(recs) - len(ok_raw_ms)
    passes = [sum(r["scaled_s"] for r in recs if r["round"] == i) for i in range(runner.rounds_run)]
    return {
        "unscaled_op_p50_ms": (percentile(ok_raw_ms, n_failed, 0.5), "ms"),
        "unscaled_op_p90_ms": (percentile(ok_raw_ms, n_failed, 0.9), "ms"),
        "fail_ratio": (n_failed / len(recs), "ratio"),
        "pass_s": (statistics.median(passes), "s"),
    }


def per_layer(runner: workloads.Runner, tracer: tracing.Tracer) -> dict:
    """Per-layer metrics of a traced run."""
    recs = runner.records
    n_ops = len(recs)
    incl: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    for (name, start, end, _, _), self_ns in zip(tracer.spans, tracer.self_times()):
        incl[name] = incl.get(name, 0.0) + (end - start) * 1e-9
        own[name] = own.get(name, 0.0) + self_ns * 1e-9
        calls[name] = calls.get(name, 0) + 1
    layer_self = dict.fromkeys(tracing.LAYERS, 0.0)
    for name, s in own.items():
        layer_self[name.split(".")[0]] += s
    traced_s = sum(layer_self.values())
    op_s = sum(r["s"] for r in recs)
    ok_ms = [r["scaled_s"] * 1e3 for r in recs if r["status"] == "ok"]
    c = tracer.counts

    metrics = {
        **accuracy(runner),
        "quantize.root_yield": (c["solutions"] / max(c["roots_expected"], 1), "ratio"),
        "quantize.solve_family.self_s": (own.get("quantize.solve_family", 0.0) / n_ops, "s/op"),
        "oracle.grid_points": (c["grid_points"] / max(calls.get("oracle.fd_eigensolve", 0), 1),
                               "points/call"),
        "oracle.eigenpairs_computed": (c["eigenpairs"] / n_ops, "1/op"),
        "oracle.useful_ratio": (c["matched"] / max(c["eigenpairs"], 1), "ratio"),
        "oracle.match_failures": (c["match_failures"] / n_ops, "1/op"),
        "cli.self_s": (own.get("cli.main", 0.0) / n_ops, "s/op"),
        "cli.bytes_out": (sum(r["bytes"] for r in recs) / n_ops, "B/op"),
    }
    for name in TIMED:
        metrics[f"{name}.s"] = (incl.get(name, 0.0) / n_ops, "s/op")
    for name in CALLS_PER_SOLUTION:
        metrics[f"{name}.calls"] = (calls.get(name, 0) / max(c["solutions"], 1), "1/solution")
    for name in CALLS_PER_OP:
        metrics[f"{name}.calls"] = (calls.get(name, 0) / n_ops, "1/op")
    for i in range(1, 9):
        metrics[f"verify.criterion_{i}.s"] = (incl.get(f"verify.criterion_{i}", 0.0)
                                              / runner.rounds_run, "s/pass")
    for layer, s in layer_self.items():
        metrics[f"{layer}.self_share"] = (s / traced_s if traced_s else 0.0, "ratio")
    metrics["trace.op_p50_ms"] = (percentile(ok_ms, n_ops - len(ok_ms), 0.5), "ms")
    metrics["trace.spans_per_op"] = (len(tracer.spans) / n_ops, "1/op")
    metrics["trace.overhead_ratio"] = (len(tracer.spans) * tracing.span_cost_ns() * 1e-9 / op_s,
                                       "ratio")
    metrics["trace.unattributed_ratio"] = (1.0 - traced_s / op_s, "ratio")
    return metrics


def write_spans(tracer: tracing.Tracer, workload: str, seed: int) -> Path:
    path = workloads.OUT_DIR / f"spans-{workload}-{seed}.jsonl.gz"
    with gzip.open(path, "wt") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "biheun" / "__init__.py").is_file():
        print(f"error: no biheun sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    seed = args.seed % 2**63

    setup_s = None if args.trace else measure_setup_s()
    tracer = tracing.Tracer() if args.trace else None
    runner = workloads.Runner(args.workload, seed, tracer)
    if tracer is not None:
        tracer.install()
    try:
        runner.run(args.seconds)
    finally:
        if tracer is not None:
            tracer.uninstall()

    recs = runner.records
    failed = [r for r in recs if r["status"] != "ok"]
    print(f"machine: {json.dumps(machine())}")
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"ops={len(recs)} rounds={runner.rounds_run} wall_s={runner.wall_s:.2f} "
          f"scaled={runner.scaled}")
    for r in failed[:20]:
        print(f"failed op: {r['status']} {' '.join(r['op'].args)} -- {r['detail']}")
    if len(failed) == len(recs):
        print("error: every op failed; no latency to report", file=sys.stderr)
        return 1
    if tracer is not None:
        metrics = per_layer(runner, tracer)
        print(f"spans written to {write_spans(tracer, args.workload, seed)}")
        if tracer.absent:
            print(f"absent from the package (reported as 0): {', '.join(tracer.absent)}")
    else:
        metrics = end_to_end(runner, setup_s)
        for name, (value, unit) in accuracy(runner).items():
            print(f"figure {name} = {value:.6g} {unit}")
    for name, (value, unit) in run_figures(runner).items():
        print(f"figure {name} = {value:.6g} {unit}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    result = {
        "correct": not any(r["status"] == "wrong" for r in recs),
        "attempted": len(recs),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
