"""Benchmark of the thermoreg pipeline: flow, plant, regulator design, simulation.

    python3 bench/run.py --workload dual_n21 --seed 1 --seconds 45 --trace 0

Run from the root of a checkout.  ``--trace 0`` runs the whole pipeline (one
operation) once to warm up, then repeats it until ``--seconds`` have passed
and reports the mean operation time and the other end-to-end metrics; ``--trace 1``
warms up the same way, then alternates untraced operations with ones that
record spans around every layer boundary and reports the per-layer metrics.  Every run is
checked by the correctness gates of ``workloads.check_gates``; a run that
raises or fails a gate counts as failed.  Each metric is printed with its
unit, the full record (environment, per-operation values, spans) is written
to ``bench/results/``, and the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import ctypes
import glob
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / "bench" / "results"
DEFAULT_SEED = 20240607
# Set-up probes are fresh processes of about half a second each.
SETUP_PROBES = 7
# Do not start another operation that would end past this wall time.
WALL_LIMIT_S = 150.0

END_TO_END = {"solve_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "tail_error": "1"}
PER_LAYER = {
    "mesh.build_s": "s",
    "fem.assemble_s": "s",
    "fem.assemble_calls": "count",
    "flow.solve_s": "s",
    "flow.newton_iters": "count",
    "flow.spsolve_s": "s",
    "flow.spsolve_calls": "count",
    "flow.divergence_norm": "1",
    "plant.build_s": "s",
    "plant.standard_form_s": "s",
    "plant.transfer_value_s": "s",
    "plant.states": "count",
    "lti.riccati_control_s": "s",
    "lti.riccati_control_iters": "count",
    "lti.riccati_control_residual": "1",
    "lti.riccati_filter_s": "s",
    "lti.riccati_filter_iters": "count",
    "lti.riccati_filter_residual": "1",
    "lti.balanced_truncation_s": "s",
    "lti.bt_error_bound": "1",
    "lti.schur_calls": "count",
    "lti.schur_s": "s",
    "controller.synthesis_s": "s",
    "controller.order": "count",
    "controller.freq_error": "1",
    "sim.simulate_s": "s",
    "sim.steps": "count",
    "sim.step_us": "us",
    "sim.splu_s": "s",
    "sim.decay_rate": "1/s",
    "sim.perturbed_tail_error": "1",
    "fem.self_s": "s",
    "flow.self_s": "s",
    "plant.self_s": "s",
    "lti.self_s": "s",
    "controller.self_s": "s",
    "sim.self_s": "s",
    "trace.solve_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


def blas_threads():
    """Thread count of each OpenBLAS that numpy and scipy load."""
    import numpy
    import scipy

    found = {}
    for pkg in (numpy, scipy):
        libs = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for path in sorted(glob.glob(str(libs / "*openblas*.so*"))):
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
                getter = getattr(lib, symbol, None)
                if getter is not None:
                    found[pkg.__name__] = int(getter())
                    break
    return found


def cpu_times():
    """Host-wide CPU jiffies (user, nice, system, idle, iowait, irq, softirq, steal)."""
    try:
        with open("/proc/stat") as f:
            return [int(x) for x in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return None


def steal_share(before, after):
    """Share of this VM's CPU time the hypervisor gave to others during the run."""
    if before is None or after is None:
        return None
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / max(sum(delta), 1)


def environment():
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "blas_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def setup_probe(sizes):
    """Child process: imports plus mesh builds; prints the monotonic end time."""
    import workloads  # noqa: F401  (the imports are the set-up being timed)
    from thermoreg import mesh

    geometry = mesh.Geometry()
    for n in sizes:
        mesh.build_structured_mesh(geometry, n)
    print(repr(time.monotonic()))


def measure_setup(workload, probes):
    """Time from process start to imports done and meshes built, per probe."""
    sizes = ",".join(str(n) for n in (workload.flow_n, workload.design_n) if n)
    samples = []
    for _ in range(probes):
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe", sizes],
            check=True, capture_output=True, text=True, cwd=ROOT, timeout=60,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]) - start)
    return samples


def operation(workload, meshes, seed):
    """One gated pipeline run; returns its record and the pipeline outputs."""
    import workloads

    try:
        solve_s, out = workloads.run_pipeline(workload, meshes, seed)
        gates = workloads.gate_values(out)
    except Exception:  # any error of one operation is that operation's failure
        return {"ok": False, "error": traceback.format_exc()}, None
    failed = workloads.check_gates(gates)
    record = {
        "ok": not failed,
        "failed_gates": failed,
        "solve_s": solve_s,
        "tail_error": gates["tail_error"],
        "gates": gates,
        "sizes": workloads.describe(out),
    }
    return record, out


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def timed_loop(seconds, started, step):
    """Call ``step()`` at least once and until ``seconds`` have passed.

    No call starts that would end past ``WALL_LIMIT_S`` after ``started``,
    judged by the duration of the call before it.

    Each call is pinned to the next CPU of the process's affinity set in
    turn.  On a shared host the speed of each virtual CPU changes by up to
    1.5x over tens of seconds, nearly independently of the other CPUs
    (adjacent samples on the two CPUs of a 2-core VM correlated at 0.16), so
    a run that stays on one CPU reports that one CPU's state.
    """
    cpus = sorted(os.sched_getaffinity(0))
    loop_start = time.perf_counter()
    try:
        for i in itertools.count():
            os.sched_setaffinity(0, {cpus[i % len(cpus)]})
            call_start = time.perf_counter()
            step()
            now = time.perf_counter()
            if now - loop_start >= seconds or time.monotonic() - started + (now - call_start) > WALL_LIMIT_S:
                return
    finally:
        os.sched_setaffinity(0, cpus)


def end_to_end_run(workload, meshes, seed, seconds, probes, started):
    """Set-up probes, one warm-up operation, then operations for ``seconds``.

    The warm-up pays the first-call costs, is gated like every operation and
    is left out of ``solve_s``, the mean over the operations after it.  The
    host moves each CPU between a fast and a slow state, about 1.45x apart on
    ``lowgain_n61``, for tens of seconds at a time.  The median of a run then
    jumps between the two states, while the mean moves with the share of time
    spent in each: in three sets of 5-8 ``lowgain_n61`` runs on a 2-core VM
    the spread between runs was 0.23, 0.13 and 0.37 with the median and 0.17,
    0.09 and 0.24 with the mean.  ``setup_s`` is the median over the probes.

    The warm-up simulates the unperturbed fine plant, and its tail error is
    ``tail_error``: the perturbed tail error depends on the seed through the
    slowest closed-loop decay rate, which a random +-1e-3 perturbation of the
    drift entries moves (on a dual design on n=31 for an n=61 plant from 0.23
    to 0.29 1/s, so the tail error ranged over 0.03-0.075).  The nominal value
    is the same for every seed and moves only when the pipeline's numerics do.
    """
    setup = measure_setup(workload, probes)
    warmup, _ = operation(workload, meshes, None)
    records = [dict(warmup, warmup=True)]
    # Peak of set-up plus one operation, whatever the number of repeats.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tail_error = warmup.get("tail_error")
    timed_loop(seconds, started, lambda: records.append(operation(workload, meshes, seed)[0]))
    samples = {
        "solve_s": [r["solve_s"] for r in records[1:] if "solve_s" in r],
        "setup_s": setup,
    }
    metrics = {"setup_s": statistics.median(setup)}
    if samples["solve_s"]:
        metrics["solve_s"] = statistics.fmean(samples["solve_s"])
    metrics["peak_rss_mb"] = peak_rss_mb
    if tail_error is not None:
        metrics["tail_error"] = tail_error
    stats = {
        name: dict(zip(("q1", "median", "q3"), quartiles(v)), samples=len(v))
        for name, v in samples.items() if v
    }
    return records, metrics, {"stats": stats}


def traced_operation(workload, seed):
    """One operation with every layer boundary wrapped; its per-layer metrics."""
    import tracing
    import workloads

    tracer = tracing.Tracer()
    with tracer.installed():
        record, out = operation(workload, workloads.build_meshes(workload), seed)
    if out is None:
        return record, None, tracer.records()
    metrics = tracing.layer_metrics(tracer.spans)
    metrics.update({
        "controller.order": record["sizes"]["simulated_controller_order"],
        "controller.freq_error": workloads.frequency_error(out),
        "sim.decay_rate": float(out["tracking"].decay_rate),
        "sim.perturbed_tail_error": record["tail_error"],
        "trace.solve_s": record["solve_s"],
        "trace.spans": len(tracer.spans),
    })
    return record, metrics, tracer.records()


def traced_run(workload, meshes, seed, seconds, started):
    """One warm-up operation, then pairs of an untraced and a traced one.

    The order within a pair alternates, so neither side is always the warmer
    second one; ``trace.overhead_s`` is the median over pairs of the traced
    minus the untraced ``solve_s``.  Each per-layer metric is its low median
    over the traced operations, so a count stays a whole number.
    """
    warmup, _ = operation(workload, meshes, seed)
    records = [dict(warmup, warmup=True)]
    layer, traces, overheads = [], [], []

    def pair():
        solve = {}
        for traced in (False, True) if len(traces) % 2 == 0 else (True, False):
            if traced:
                record, metrics, spans = traced_operation(workload, seed)
                traces.append(spans)
                if metrics is not None:
                    layer.append(metrics)
            else:
                record, _ = operation(workload, meshes, seed)
            records.append(record)
            solve[traced] = record.get("solve_s")
        if None not in solve.values():
            overheads.append(solve[True] - solve[False])

    timed_loop(seconds, started, pair)
    if not layer:
        return records, {}, {"traces": traces}
    metrics = {name: statistics.median_low(m[name] for m in layer) for name in layer[0]}
    if overheads:
        metrics["trace.overhead_s"] = statistics.median(overheads)
    return records, metrics, {"traces": traces}


def run(workload, seed, seconds, trace, probes=SETUP_PROBES, started=None):
    """Measure one workload; returns the full result record."""
    import workloads

    started = time.monotonic() if started is None else started
    jiffies = cpu_times()
    meshes = workloads.build_meshes(workload)
    if trace:
        records, metrics, extra = traced_run(workload, meshes, seed, seconds, started)
    else:
        records, metrics, extra = end_to_end_run(workload, meshes, seed, seconds, probes, started)
    env = environment()
    env["steal_share"] = steal_share(jiffies, cpu_times())
    units = PER_LAYER if trace else END_TO_END
    failed = sum(not r["ok"] for r in records)
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": env,
        "sizes": next((r["sizes"] for r in records if "sizes" in r), {}),
        "operations": records,
        "summary": {
            "correct": failed == 0 and set(metrics) == set(units),
            "attempted": len(records),
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items() if name in metrics},
        },
        **extra,
    }


def report(result, stream=sys.stdout):
    """Print every metric with its unit; the summary JSON is the last line."""
    summary = result["summary"]
    print(f"workload {result['workload']}  seed {result['seed']}  trace {result['trace']}", file=stream)
    print(f"environment {json.dumps(result['environment'], sort_keys=True)}", file=stream)
    print(f"sizes {json.dumps(result['sizes'], sort_keys=True)}", file=stream)
    for record in result["operations"]:
        if not record["ok"]:
            print(f"FAILED operation: {record.get('failed_gates') or record.get('error')}", file=stream)
    stats = result.get("stats", {})
    for name, metric in summary["metrics"].items():
        line = f"{name:30s} {metric['value']:<14.6g} {metric['unit']}"
        if name in stats:
            s = stats[name]
            line += f"  ({s['samples']} samples: q1 {s['q1']:.6g}, median {s['median']:.6g}, q3 {s['q3']:.6g})"
        print(line, file=stream)
    print(f"attempted {summary['attempted']}  failed {summary['failed']}  correct {summary['correct']}", file=stream)
    print(json.dumps(summary), file=stream)


def main(argv=None):
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    # One BLAS thread: on two cores, two threads made the dual pipeline slower
    # (7.2-8.1 s against 4.5-5.9 s per run with an n=21 design on n=41).
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        setup_probe([int(n) for n in args.setup_probe.split(",")])
        return 0

    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    result = run(workloads.WORKLOADS[args.workload], args.seed, args.seconds, args.trace, started=started)
    RESULTS.mkdir(parents=True, exist_ok=True)
    path = RESULTS / f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1, default=str))
    print(f"results written to {path.relative_to(ROOT)}")
    report(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
