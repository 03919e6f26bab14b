"""Alternating parent/change benchmark pairs, written as a BENCH_*.json record.

    python3 tools/bench_pairs.py --parent DIR --change DIR --out BENCH_name.json \\
        --description TEXT --pairs 10 --seconds 20 --seed 100 \\
        --workload speed_d10k10 [--workload ...]

DIR is a checkout of each side (a git clone or `git archive` of the commit).
Pair i of a workload runs `python3 bench/run.py --workload W --seed S+i
--seconds T --trace 0` once in each checkout, the parent first on even i and
the change first on odd i, one process at a time.  Every run is recorded
with its end-to-end metrics and the minor page faults of its whole process
(set-up included).  The metrics, their better direction and their bound are
the `end_to_end` list of the change checkout's BENCHMARK.json.  Per workload
and metric the record gives both sides' medians, the parent's own
quartiles, the pairs the change wins, the median of the paired differences
(change minus parent) and a verdict (see `verdict`), next to every run and
the environment.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path


def end_to_end(checkout: Path) -> dict[str, tuple[str, float]]:
    """Each end-to-end metric of the checkout's BENCHMARK.json, as
    name -> (better, bound)."""
    spec = json.loads((checkout / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}


def run_once(checkout: Path, workload: str, seed: int, seconds: float,
             metrics: dict[str, tuple[str, float]]) -> tuple[dict, dict]:
    before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    res = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    minflt = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before
    if res.returncode != 0:
        raise SystemExit(f"{checkout}: {workload} seed {seed} exited {res.returncode}:\n"
                         f"{res.stdout[-2000:]}{res.stderr[-2000:]}")
    out = json.loads(res.stdout.strip().splitlines()[-1])
    env = json.loads(next(line for line in res.stdout.splitlines()
                          if line.startswith("env "))[4:])
    run = {name: out["metrics"][name]["value"] for name in metrics}
    run.update(failed=out["failed"], attempted=out["attempted"], minflt=minflt)
    return run, env


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def verdict(parent: list[float], change: list[float], wins: int, of: int,
            sign: float, bound: float) -> str:
    """One metric's verdict on one workload, the first rule that holds:
    `worse` when the change's median is worse than the parent's by more than
    bound x the parent's median; `unresolved` when the parent's IQR exceeds
    bound x its median, unless every change run beats every parent run;
    `gain` when the change wins at least 9/10 of the pairs (ties count for
    neither) and the medians differ, in its favour, by more than the
    parent's IQR; `within_bound` otherwise.  `sign` is +1 when higher is
    better and -1 when lower is."""
    pm = statistics.median(parent)
    gap = sign * (statistics.median(change) - pm)
    q1, q3 = quartiles(parent)
    beats_all = min(sign * c for c in change) > max(sign * p for p in parent)
    if gap < -bound * abs(pm):
        return "worse"
    if q3 - q1 > bound * abs(pm) and not beats_all:
        return "unresolved"
    if 10 * wins >= 9 * of and gap > q3 - q1:
        return "gain"
    return "within_bound"


def summary(runs: list[dict], metrics: dict[str, tuple[str, float]]) -> dict:
    """Per workload: both sides' medians (with their run counts), the
    parent's quartiles, and per metric the pairs the change wins, the
    median paired difference (change minus parent) and the verdict."""
    out = {"median": {}, "parent_quartiles": {}, "pairs": {}, "verdicts": {}}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        side = {s: [r for r in runs if r["workload"] == workload and r["side"] == s]
                for s in ("parent", "change")}
        out["median"][workload] = {
            s: {**{m: statistics.median(r[m] for r in rs) for m in metrics}, "runs": len(rs)}
            for s, rs in side.items()
        }
        out["parent_quartiles"][workload] = {
            m: quartiles([r[m] for r in side["parent"]]) for m in metrics
        }
        change = {r["seed"]: r for r in side["change"]}
        pairs, verdicts = {}, {}
        for m, (better, bound) in metrics.items():
            sign = 1.0 if better == "higher" else -1.0
            diffs = [change[r["seed"]][m] - r[m] for r in side["parent"]]
            pairs[m] = {"change_wins": sum(sign * d > 0 for d in diffs),
                        "of": len(diffs), "median_diff": statistics.median(diffs)}
            verdicts[m] = verdict([r[m] for r in side["parent"]],
                                  [r[m] for r in side["change"]],
                                  pairs[m]["change_wins"], len(diffs), sign, bound)
        out["pairs"][workload] = pairs
        out["verdicts"][workload] = verdicts
    return out


def record(description: str, seconds: float, envs: dict, runs: list[dict],
           metrics: dict[str, tuple[str, float]]) -> dict:
    env = envs["parent"]
    blas = env["blas"]
    if isinstance(blas, dict):
        blas = blas.get("blas", {}).get("openblas configuration", blas)
    return {
        "description": description,
        "command": f"bench/run.py --seconds {seconds:g} --trace 0",
        "env": {
            "nproc": env["nproc"],
            "thread_env": env["thread_env"],
            "python": env["python"],
            "numpy": env["numpy"],
            "scipy": env["scipy"],
            "blas": blas,
            "parent_git_sha": envs["parent"]["git_sha"],
            "change_git_sha": envs["change"]["git_sha"],
        },
        **summary(runs, metrics),
        "runs": runs,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", type=Path, required=True)
    p.add_argument("--change", type=Path, required=True)
    p.add_argument("--workload", action="append", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--seed", type=int, default=100)
    p.add_argument("--description", required=True)
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)

    metrics = end_to_end(args.change)
    runs, envs = [], {}
    for workload in args.workload:
        for i in range(args.pairs):
            seed = args.seed + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                run, envs[side] = run_once(getattr(args, side), workload, seed, args.seconds,
                                           metrics)
                runs.append({"side": side, "workload": workload, "seed": seed, **run})
                print(json.dumps(runs[-1]), flush=True)
            # written after every pair, so an interrupted batch keeps its runs
            rec = record(args.description, args.seconds, envs, runs, metrics)
            args.out.write_text(json.dumps(rec, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
