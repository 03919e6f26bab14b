"""Tests of the benchmark itself: metric tables, computed counts, span
arithmetic, determinism of the workloads' traces, and the command's
contract.  Run with `python -m pytest bench`."""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import tracing
import workloads
from semgmm import GenSpec, SemConfig, em_fit, generate_mixture, initialize, sample_dataset
from semgmm.harness import OpCounter
from semgmm.rng import substream

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def bench(*args):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=run.ROOT,
        capture_output=True, text=True, timeout=170,
    )


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.workloads(2))
    layer = [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]]
    assert layer == list(tracing.LAYER_METRICS + run.WORKLOAD_LAYER_METRICS)


def test_computed_counts_follow_opcounter():
    n, d, k = 1000, 4, 3
    data = type("D", (), {"n": n, "d": d})()
    model = type("M", (), {"k": k})()
    resp = type("R", (), {"probs": np.zeros((n, k))})()
    for add, counts in (
        (lambda c: c.add_estep(n, d, k), tracing._log_joint_counts((model, data), {})),
        (lambda c: c.add_em_mstep(n, d, k), tracing._em_mstep_counts((resp, data), {})),
        (lambda c: c.add_sem_mstep(n, d), tracing._sem_mstep_counts((None, data), {})),
    ):
        counter = OpCounter()
        add(counter)
        assert counts["mults"] == counter.mults


def span(sid, start, end, parent=None):
    return tracing.Span(sid, "s", start, end, parent, 0)


def test_self_time_subtracts_union_of_children():
    spans = [
        span(1, 0, 100),
        span(2, 10, 30, 1), span(3, 20, 50, 1),  # overlap, as on two threads
        span(4, 90, 120, 1),                     # clipped to the parent
        span(5, 12, 14, 2),
    ]
    selfs = tracing.self_times_ns(spans)
    assert selfs == {1: 100 - 40 - 10, 2: 18, 3: 30, 4: 30, 5: 2}


def test_tracer_records_and_restores_bindings():
    import semgmm.em
    import semgmm.estep

    truth = generate_mixture(GenSpec(d=2, k=2, n=300), substream(1, 0))
    data, _ = sample_dataset(truth, 300, substream(1, 1))
    model0 = initialize(data, 2, substream(1, 2))
    originals = (semgmm.em.responsibilities, semgmm.estep.component_log_joint)
    tracer = tracing.Tracer()
    with tracer.active():
        em_fit(model0, data, 3, SemConfig(rng_seed=1))
    assert (semgmm.em.responsibilities, semgmm.estep.component_log_joint) == originals
    names = [s.name for s in tracer.spans]
    assert names.count("estep.responsibilities") == 3
    assert names.count("model.component_log_joint") == 3
    by_id = {s.id: s for s in tracer.spans}
    for s in tracer.spans:
        if s.name == "model.component_log_joint":
            assert by_id[s.parent].name == "estep.responsibilities"


def traces(workload, seed, work: Path) -> dict[str, bytes]:
    work.mkdir()
    workload.prepare(seed, work)
    state = workload.setup(seed, work)
    workload.operation(state)
    return {p.name: p.read_bytes() for p in sorted(work.glob("*_trace.csv"))}


def without_wall_ns(trace: bytes) -> bytes:
    return b"\n".join(line.rsplit(b",", 1)[0] for line in trace.splitlines())


@pytest.mark.parametrize("name", ["speed_d10k10", "bounds_d3k3", "compare_d3k3_csv"])
def test_same_seed_writes_identical_traces(name, tmp_path):
    workload = workloads.workloads(2)[name]
    first = traces(workload, 7, tmp_path / "a")
    second = traces(workload, 7, tmp_path / "b")
    assert first
    if name == "speed_d10k10":  # wall-clock is the one column allowed to differ
        first = {k: without_wall_ns(v) for k, v in first.items()}
        second = {k: without_wall_ns(v) for k, v in second.items()}
    assert first == second


def test_compare_traces_identical_across_n_jobs(tmp_path):
    one = traces(workloads.CompareD3K3Csv(1), 7, tmp_path / "one")
    two = traces(workloads.CompareD3K3Csv(2), 7, tmp_path / "two")
    assert set(one) == {"likelihood_trace.csv", "diff_trace.csv"}
    assert one == two


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_result_line_reports_every_metric(trace, section):
    proc = bench("--workload", "speed_d10k10", "--seed", "3", "--seconds", "0.1",
                 "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC[section]
    }
    if section == "end_to_end":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_library(tmp_path):
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "speed_d10k10", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
