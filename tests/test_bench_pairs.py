"""The verdicts of tools/bench_pairs.py on synthetic parent/change runs."""
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = {"throughput_per_s": ("higher", 0.25), "setup_s": ("lower", 0.25)}
TIGHT = [100.0, 101.0, 102.0, 103.0, 104.0, 100.5, 101.5, 102.5, 103.5, 104.5]
WIDE = [60.0, 80.0, 100.0, 120.0, 140.0, 70.0, 90.0, 110.0, 130.0, 150.0]


def _runs(workload, parent, change):
    """Pair i of a workload reads parent[i] and change[i] on both metrics."""
    return [
        {"side": side, "workload": workload, "seed": i,
         "throughput_per_s": value, "setup_s": value}
        for i, (p, c) in enumerate(zip(parent, change))
        for side, value in (("parent", p), ("change", c))
    ]


@pytest.mark.parametrize("parent, change, higher, lower", [
    # the change's median is 30% below the parent's: worse when higher is
    # better, a gain (10/10 pairs, far beyond the IQR) when lower is
    (TIGHT, [0.7 * v for v in TIGHT], "worse", "gain"),
    # the parent's IQR/median is about 0.38 > 0.25, and the change's runs
    # interleave with the parent's
    (WIDE, [v + (5.0 if i % 2 else -5.0) for i, v in enumerate(WIDE)],
     "unresolved", "unresolved"),
    # as wide, but every change run beats every parent run
    (WIDE, [v + 200.0 for v in WIDE], "gain", "worse"),
    # 10/10 pairs won by 8, more than the parent's IQR of about 2.5
    (TIGHT, [v + 8.0 for v in TIGHT], "gain", "within_bound"),
    # 10/10 pairs won, but by less than the parent's IQR
    (TIGHT, [v + 1.0 for v in TIGHT], "within_bound", "within_bound"),
    # 8/10 pairs won by far: short of 9/10
    (TIGHT, [v + (8.0 if i < 8 else -0.5) for i, v in enumerate(TIGHT)],
     "within_bound", "within_bound"),
], ids=["worse", "unresolved", "wide-but-separated", "gain", "inside-iqr", "eight-of-ten"])
def test_summary_verdicts(parent, change, higher, lower):
    out = bench_pairs.summary(_runs("w", parent, change), METRICS)
    assert out["verdicts"]["w"] == {"throughput_per_s": higher, "setup_s": lower}
    # the fields the records have always had are still there
    assert out["pairs"]["w"]["throughput_per_s"]["of"] == 10
    assert out["median"]["w"]["parent"]["runs"] == 10
    assert set(out["parent_quartiles"]["w"]) == set(METRICS)


def test_verdicts_per_workload():
    runs = _runs("a", TIGHT, [0.7 * v for v in TIGHT]) + _runs("b", TIGHT, TIGHT)
    verdicts = bench_pairs.summary(runs, METRICS)["verdicts"]
    assert verdicts["a"]["throughput_per_s"] == "worse"
    assert verdicts["b"] == {"throughput_per_s": "within_bound", "setup_s": "within_bound"}


def test_metrics_come_from_the_benchmark_declaration():
    metrics = bench_pairs.end_to_end(ROOT)
    assert metrics["throughput_per_s"] == ("higher", 0.25)
    assert metrics["setup_s"] == ("lower", 0.25)
    assert metrics["peak_rss_mb"] == ("lower", 0.1)
