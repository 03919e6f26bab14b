"""semgmm benchmark: one workload, its end-to-end metrics or a traced run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the library is imported from ./src.  The
inputs are made from --seed.  After a set-up (repeated, median reported),
the workload's operation repeats for --seconds; every operation's output is
checked.  --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
metrics of a traced run, with the tracing overhead against an untraced run
of the same operations.  The last line of standard output is the result as
JSON; a record with the environment, all figures and any failed checks is
written to .bench_out/.  Exits 1 when an output check fails, 2 when the
library cannot be found.
"""
from __future__ import annotations

import os

# BLAS and OpenMP pools are sized when numpy loads: pin them to one thread
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
SETUP_SECONDS = 2.0


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown (not a git checkout)"
    return out.stdout.strip()


def environment(args, n_jobs: int) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]
    except TypeError:  # numpy < 1.26 prints its configuration only
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            np.show_config()
        blas = buf.getvalue()
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "n_jobs": n_jobs, "nproc": nproc(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "blas": blas, "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "git_sha": git_sha(),
    }


def measure(workload, state, seconds: float, ops: int | None = None):
    """Repeat the operation for `seconds` (or exactly `ops` times); return
    the outcomes, each with its own wall time, and the total wall time."""
    outcomes = []
    start = time.perf_counter()
    while True:
        op_start = time.perf_counter()
        outcomes.append(workload.operation(state))
        wall = time.perf_counter() - start
        outcomes[-1].wall_s = wall - (op_start - start)
        if (len(outcomes) >= ops) if ops else (wall >= seconds):
            return outcomes, wall


def timed_setup(workload, seed: int, work: Path):
    start = time.perf_counter()
    state = workload.setup(seed, work)
    return state, time.perf_counter() - start


def more_setups(workload, seed: int, work: Path, first, first_s: float):
    """Set up again until there are SETUP_REPEATS set-ups lasting at least
    SETUP_SECONDS in all; return the median time and an error if the inputs
    changed."""
    times, same = [first_s], True
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_SECONDS:
        state, seconds = timed_setup(workload, seed, work)
        times.append(seconds)
        same = same and (state.data.points == first.data.points).all()
    return statistics.median(times), [] if same else ["set-up inputs differ between repeats"]


def check_repeats(outcomes) -> list[str]:
    errors = [e for o in outcomes for e in o.errors]
    if len({o.fingerprint for o in outcomes}) > 1:
        errors.append("operation outputs differ between repeats with the same seed")
    return errors


def run(args, workload, work: Path, out_dir: Path):
    import tracing

    workload.prepare(args.seed, work)
    record: dict = {}
    if not args.trace:
        state, first_s = timed_setup(workload, args.seed, work)
        warm = [workload.operation(state)] if workload.warmup else []
        outcomes, _ = measure(workload, state, args.seconds)
        # the further set-ups come after, so they do not shape the heap the
        # operations run in
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        setup_s, errors = more_setups(workload, args.seed, work, state, first_s)
        rates = [o.units / o.wall_s for o in outcomes]
        metrics = {
            "throughput_per_s": (statistics.median(rates), "1/s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_mb, "MB"),
        }
        record["workload_figures"] = workload.summary(outcomes)
        record["ops"] = len(outcomes)
        record["op_rates"] = rates
        return metrics, outcomes, errors + check_repeats(warm + outcomes), record

    setup_tracer = tracing.Tracer()
    with setup_tracer.active():
        state = workload.setup(args.seed, work)
    warm = [workload.operation(state)] if workload.warmup else []
    plain, plain_wall = measure(workload, state, args.seconds / 2)
    op_tracer = tracing.Tracer()
    with op_tracer.active():
        traced, traced_wall = measure(workload, state, 0, ops=len(plain))
    outcomes = plain + traced
    delivered = sum(o.units for o in traced) / len(traced) if workload.unit == "rounds" else 0.0
    figures = tracing.layer_metrics(setup_tracer.spans, op_tracer.spans, len(traced), delivered)
    figures.update(workload.summary(plain))
    figures["trace.overhead_frac"] = traced_wall / plain_wall - 1.0
    attempted = sum(o.attempted for o in outcomes)
    figures["harness.failed_frac"] = sum(o.failed for o in outcomes) / attempted
    units = {m[0]: m[1] for m in tracing.LAYER_METRICS + WORKLOAD_LAYER_METRICS}
    metrics = {name: (figures.get(name, 0.0), unit) for name, unit in units.items()}
    tracing.write_spans(setup_tracer.spans + op_tracer.spans,
                        out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")
    # E-step (log-joint + normalisation) and M-step self time over the thread
    # capacity of one traced operation
    step_ms = sum(figures[f"{n}.self_ms"] for n in (
        "model.component_log_joint", "estep.responsibilities", "em.m_step", "sem.sem_m_step"))
    capacity_ms = 1e3 * traced_wall / len(traced) * workload.n_jobs
    record["workload_figures"] = {"trace.estep_mstep_share": step_ms / capacity_ms}
    record["ops"] = len(traced)
    return metrics, outcomes, check_repeats(warm + outcomes), record


#: per-layer metrics that come from the workload rather than from spans
WORKLOAD_LAYER_METRICS = (
    ("speed.em_round_ms_p50", "ms", "lower"),
    ("speed.em_round_ms_p90", "ms", "lower"),
    ("speed.sem_round_ms_p50", "ms", "lower"),
    ("speed.sem_round_ms_p90", "ms", "lower"),
    ("speed.em_sem_wall_ratio", "ratio", "higher"),
    ("speed.em_sem_mult_ratio", "ratio", "higher"),
    ("speed.paper_ratio", "ratio", "higher"),
    ("harness.failed_frac", "ratio", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    src = ROOT / "src"
    if not (src / "semgmm" / "__init__.py").is_file():
        print(f"bench: library sources not found at {src / 'semgmm'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import semgmm
    import workloads

    if Path(semgmm.__file__).resolve().parent != (src / "semgmm").resolve():
        print(f"bench: imported semgmm from {semgmm.__file__}, not {src}", file=sys.stderr)
        return 2
    table = workloads.workloads(nproc())
    if args.workload not in table:
        p.error(f"unknown workload {args.workload!r}; choose from {', '.join(table)}")
    workload = table[args.workload]

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        metrics, outcomes, errors, record = run(args, workload, Path(tmp), out_dir)
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    env = environment(args, workload.n_jobs)
    record.update(env=env, errors=errors, attempted=attempted, failed=failed,
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1, default=str) + "\n")

    print("env " + json.dumps(env, default=str))
    for key, value in record.get("workload_figures", {}).items():
        print(f"{key} {value}")
    print(f"failed_frac {failed / attempted} ({failed}/{attempted})")
    for e in errors:
        print(f"CHECK FAILED: {e}")
    print(json.dumps({
        "correct": not errors, "attempted": attempted, "failed": failed,
        "metrics": record["metrics"],
    }))
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
