"""matmi benchmark: one workload, one seed, a fixed measuring time.

Usage, from the root of a checkout:

    python3 bench/run.py --workload invert-incrime-128 --seed 1 --seconds 45 --trace 0

The package is imported from ``src/`` of the same checkout and driven
in-process as a closed loop: one client, one operation in flight, BLAS
threads capped at 1.  A run does the set-up, one warm-up operation (its time
is ``first_solve_s``), then timed operations until ``--seconds`` would be
exceeded.  Every operation passes a correctness gate or counts as failed and
is not timed.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
traced and untraced operations and reports the per-layer metrics of the
traced ones, plus the tracing overhead.  Every metric is printed by name with
its unit; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Spans of a traced
run are written to ``.bench_work/trace-<workload>-seed<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
#: fresh interpreters timed for set-up, besides this process
SETUP_PROBES = 8

END_TO_END = {
    "solve_s": "s", "setup_s": "s",
    "peak_rss_mb": "MB", "rel_error": "ratio", "success_rate": "ratio",
}
# every per-layer metric is per operation; the mesh and phantom times also
# include the set-up, where the derivative workload builds its inputs.
# first_solve_s is a single sample per run, too noisy for a bound on a small
# shared machine, so it is reported here rather than end to end.
PER_LAYER = {
    "first_solve_s": "s",
    "fem.solve_neumann.s": "s", "fem.solve_neumann.calls": "count",
    "fem.cg_iters": "count",
    "fem.assemble_weighted_stiffness.s": "s", "fem.assemble_weighted_stiffness.calls": "count",
    "fem.dirichlet_system.s": "s", "fem.solve_dirichlet.s": "s",
    "fem.l2_norm.s": "s", "fem.mass_matrix.s": "s", "fem.mass_matrix.calls": "count",
    "fem.lumped_mass.s": "s", "fem.lumped_mass.calls": "count",
    "transport.assemble_advection.s": "s", "transport.transport_solve.s": "s",
    "transport.advection_matrix_derivative.s": "s", "transport.apply_data_operator.s": "s",
    "forward.compute_field.s": "s", "forward.compute_field.calls": "count",
    "forward.forward_map.s": "s", "forward.forward_map.total_s": "s",
    "frechet.frechet_derivative.s": "s", "frechet.frechet_derivative.calls": "count",
    "recon.reconstruct.s": "s", "recon.sweeps": "count", "recon.sweep_s": "s",
    "cli.parse_config.s": "s", "cli.synthesize_data.s": "s", "cli.write.s": "s",
    "cli.bytes_written": "byte",
    "mesh.build_mesh.s": "s", "phantoms.make_phantom.s": "s",
    "trace.solve_s": "s", "trace.overhead_s": "s",
}
SETUP_INCLUDED = ("mesh.build_mesh.s", "phantoms.make_phantom.s")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--n", type=int, default=128,
                        help="mesh size; the workloads are defined at 128, "
                             "smaller values are for smoke tests")
    parser.add_argument("--setup-probe", action="store_true",
                        help="only set up, print the set-up time and exit")
    return parser.parse_args(argv)


def set_up(args, workdir: Path, traced=False):
    """Import the package, generate the inputs; returns the set-up time."""
    start = time.perf_counter()
    import matmi
    if Path(matmi.__file__).resolve().parent != ROOT / "src" / "matmi":
        raise RuntimeError(f"imported matmi from {matmi.__file__}, not from this checkout")
    import workloads
    workload = workloads.WORKLOADS[args.workload]
    tracer = None
    if traced:
        from tracer import Tracer
        tracer = Tracer()
    with tracer.active("setup") if tracer else nullcontext():
        state = workload.make_state(args.seed, str(workdir), args.n)
    return workload, state, tracer, time.perf_counter() - start


def probe_setup(args) -> list[float]:
    """Set-up time of fresh interpreters running this script's set-up."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed), "--n", str(args.n)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def run_operation(workload, state, tracer=None, op_id=""):
    """One operation; returns its wall time and its gate."""
    workload.prepare(state)
    start = time.perf_counter()
    try:
        with tracer.active(op_id) if tracer else nullcontext():
            raw = workload.call(state)
        elapsed = time.perf_counter() - start
        return elapsed, workload.check(state, raw)
    except Exception:
        traceback.print_exc()
        return time.perf_counter() - start, None


def highest_percentile(samples):
    """Highest of p99/p95/p90/p75/p50 with at least 10 samples beyond it."""
    for p in (99, 95, 90, 75, 50):
        if len(samples) * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(samples, n=100)[p - 1]
    return None


def commit() -> str:
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown (not a git checkout)"
    return lines[1]


def environment(args) -> dict:
    import numpy
    import scipy
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "n": args.n, "commit": commit(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


class Run:
    """Counts and samples of one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.first = None
        self.samples: list[float] = []          # untraced timed operations
        self.traced: list[tuple[str, float]] = []
        self.rel_errors: list[float] = []
        self.walls: list[float] = []

    def record(self, check, label) -> bool:
        self.attempted += 1
        if check is None or not check.ok:
            self.failed += 1
            why = "raised" if check is None else check.why
            print(f"# FAILED {label}: {why}", file=sys.stderr)
            return False
        if check.rel_error is not None:
            self.rel_errors.append(check.rel_error)
        return True


def measure(args, workload, state, tracer) -> Run:
    """Warm-up, then operations until the next would end after
    ``args.seconds``; with a tracer every other operation is traced."""
    run = Run()
    elapsed, check = run_operation(workload, state)
    run.walls.append(elapsed)
    if run.record(check, "warm-up"):
        run.first = elapsed
    start = time.perf_counter()
    k = 0
    while True:
        spent = time.perf_counter() - start
        estimate = statistics.median(run.walls)
        enough = run.samples and (tracer is None or run.traced)
        if spent + estimate > args.seconds and (enough or k >= 6):
            break
        traced = tracer is not None and k % 2 == 0
        op_id = f"op{k}"
        elapsed, check = run_operation(workload, state, tracer if traced else None, op_id)
        run.walls.append(elapsed)
        if run.record(check, op_id):
            if traced:
                run.traced.append((op_id, elapsed))
            else:
                run.samples.append(elapsed)
        k += 1
    try:
        check = workload.run_check(state)
    except Exception:
        traceback.print_exc()
        run.record(None, "run check")
    else:
        if check is not None:
            run.record(check, "run check")
    return run


def end_to_end(run: Run, setup_times: list[float]) -> dict:
    return {
        "solve_s": statistics.median(run.samples),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "rel_error": statistics.median(run.rel_errors),
        "success_rate": 1.0 - run.failed / run.attempted,
    }


def per_layer(run: Run, tracer) -> dict:
    from tracer import median_over
    rows_by_op = tracer.per_op()
    rows = [rows_by_op.get(op, {}) for op, _ in run.traced]
    setup = rows_by_op.get("setup", {})
    values = {name: median_over(rows, name) for name in PER_LAYER}
    for name in SETUP_INCLUDED:
        values[name] += setup.get(name, 0.0)
    values["recon.sweep_s"] = statistics.median(
        row["recon.reconstruct.total_s"] / row["recon.sweeps"]
        if row.get("recon.sweeps") else 0.0 for row in rows)
    traced = statistics.median(t for _, t in run.traced)
    values["first_solve_s"] = run.first
    values["trace.solve_s"] = traced
    values["trace.overhead_s"] = traced - statistics.median(run.samples)
    return values


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "matmi" / "__init__.py").is_file():
        print(f"error: no matmi package under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    workdir = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_probe:
            print(set_up(args, workdir)[3])
            return 0
        setup_times = [] if args.trace else probe_setup(args)
        workload, state, tracer, own_setup = set_up(args, workdir, traced=bool(args.trace))
        setup_times.append(own_setup)
        run = measure(args, workload, state, tracer)
        env = environment(args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = (run.failed == 0 and run.first is not None and bool(run.samples)
               and (tracer is None or bool(run.traced)))
    units = PER_LAYER if args.trace else END_TO_END
    metrics = {}
    if correct:
        values = per_layer(run, tracer) if args.trace else end_to_end(run, setup_times)
        metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    if tracer is not None:
        tracer.dump(WORK / f"trace-{args.workload}-seed{args.seed}.jsonl")

    print(f"# {json.dumps(env)}")
    print(f"# operations: {run.attempted} attempted, {run.failed} failed, "
          f"error_rate {run.failed / run.attempted:.4g}; timed samples "
          f"{len(run.samples)} untraced, {len(run.traced)} traced; "
          f"set-up samples {len(setup_times)}")
    top = highest_percentile(run.samples)
    print("# highest percentile with 10 samples beyond it: "
          + (f"p{top[0]} = {top[1]:.6g} s" if top else f"none ({len(run.samples)} samples)"))
    for name, metric in metrics.items():
        print(f"{name:42s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
