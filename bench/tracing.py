"""Span tracing around semgmm's layer boundaries, from outside the library.

`Tracer.active()` replaces each boundary function listed in BOUNDARIES, in
every semgmm module that binds it, with a wrapper that records a span
(name, start, end, parent, thread, computed counts).  Spans stay in memory;
`layer_metrics` turns them into per-layer figures and `write_spans` dumps
them as JSON lines when the run ends.

Every operation count and byte figure here is *computed* from array shapes
with the multiplication formulas of `semgmm.harness.OpCounter`; none comes
from hardware counters.
"""
from __future__ import annotations

import contextlib
import itertools
import json
import os
import sys
import threading
import time
from dataclasses import dataclass, field

F64 = 8  # bytes per float64


# --- computed counts per call, from the shapes of the arguments -------------
# Formulas follow semgmm.harness.OpCounter (tested to agree in test_bench.py).

def _log_joint_counts(args, kwargs):
    model, data = args[0], args[1]
    n, d, k = data.n, data.d, model.k
    # per point and component: product with the inverse factor (d^2) and the
    # squared norm (d); compulsory traffic: each of the K passes reads the
    # N x D points and writes one N-vector column
    return {"mults": n * k * (d * d + d), "bytes": F64 * k * n * (d + 1)}


def _em_mstep_counts(args, kwargs):
    resp, data = args[0], args[1]
    n, d, k = data.n, data.d, resp.probs.shape[1]
    return {"mults": n * k * (2 * d + d * d)}


def _sem_mstep_counts(args, kwargs):
    data = args[1]
    return {"mults": data.n * data.d * data.d}


def _finalize_counts(args, kwargs):
    partial, degenerate = args[0], args[1]
    return {"repaired": len(degenerate), "updated": len(partial.counts)}


def _file_bytes(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _load_csv_counts(args, kwargs):
    return {"bytes": _file_bytes(args[0])}


def _write_trace_counts(args, kwargs):
    return {"rows": len(args[3])}


def _write_trace_after(result, attrs):
    attrs["bytes"] = _file_bytes(result)


@dataclass(frozen=True)
class Boundary:
    """One traced layer boundary: span name, defining module and attribute.

    `before` computes counts from the call's arguments; `after` may add counts
    from the result.  A dotted attribute (Class.method) is patched on its
    class; a plain one is patched in every semgmm module that binds the same
    function object, so each caller's own binding is traced.
    """

    name: str
    module: str
    attr: str
    before: object = None
    after: object = None


BOUNDARIES = (
    Boundary("model.component_log_joint", "semgmm.model", "component_log_joint", _log_joint_counts),
    Boundary("model.log_likelihood", "semgmm.model", "log_likelihood"),
    Boundary("model.MixtureModel", "semgmm.model", "MixtureModel.__init__"),
    Boundary("estep.responsibilities", "semgmm.estep", "responsibilities"),
    Boundary("em.m_step", "semgmm.em", "_em_params", _em_mstep_counts),
    Boundary("em.ridge_repair", "semgmm.em", "ridge_repair"),
    Boundary("sem.sample_assignment", "semgmm.sem", "sample_assignment"),
    Boundary("sem.sem_m_step", "semgmm.sem", "sem_m_step", _sem_mstep_counts),
    Boundary("sem.finalize_model", "semgmm.sem", "finalize_model", _finalize_counts),
    Boundary("bounds.compute_tau", "semgmm.bounds", "compute_tau"),
    Boundary("bounds.compute_rho", "semgmm.bounds", "compute_rho"),
    Boundary("bounds.assemble_bounds", "semgmm.bounds", "assemble_bounds"),
    Boundary("bounds.monte_carlo_violation_rate", "semgmm.bounds", "monte_carlo_violation_rate"),
    Boundary("synth.generate_mixture", "semgmm.synth", "generate_mixture"),
    Boundary("synth.sample_dataset", "semgmm.synth", "sample_dataset"),
    Boundary("synth.initialize", "semgmm.synth", "initialize"),
    Boundary("ingest.load_csv", "semgmm.ingest", "load_csv", _load_csv_counts),
    Boundary("harness.write_trace", "semgmm.harness", "_write_trace",
             _write_trace_counts, _write_trace_after),
    Boundary("rng.substream", "semgmm.rng", "substream"),
)

#: the thread fan-out; wrapped specially so each task span points at it
MAP_RUNS = ("harness.map_runs", "semgmm.harness", "_map_runs")
TASK = "harness.run_task"


@dataclass
class Span:
    id: int
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    thread: int
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Records spans in memory while `active()` has the boundaries patched."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, attrs: dict | None = None, parent: int | None = None):
        """Record one span; `parent` overrides the enclosing span on this thread
        (used to link worker-thread tasks to the fan-out that started them)."""
        stack = self._stack()
        sid = next(self._ids)
        if parent is None and stack:
            parent = stack[-1]
        attrs = {} if attrs is None else attrs
        stack.append(sid)
        start = time.perf_counter_ns()
        try:
            yield attrs
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append(
                Span(sid, name, start, end, parent, threading.get_ident(), attrs)
            )

    def _wrap(self, boundary: Boundary, fn):
        tracer = self

        def traced(*args, **kwargs):
            attrs = boundary.before(args, kwargs) if boundary.before else {}
            with tracer.span(boundary.name, attrs):
                result = fn(*args, **kwargs)
                if boundary.after:
                    boundary.after(result, attrs)
                return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_map_runs(self, fn):
        tracer = self

        def traced(task_fn, keys, n_jobs):
            with tracer.span(MAP_RUNS[0], {"n_jobs": n_jobs}):
                parent = tracer._stack()[-1]

                def task(key):
                    with tracer.span(TASK, parent=parent):
                        return task_fn(key)

                return fn(task, keys, n_jobs)

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def active(self):
        """Patch every boundary that exists in the library, restore on exit.

        A boundary the library no longer defines is skipped; its metrics
        then read zero."""
        patches = []  # (owner, attribute, original)
        try:
            for boundary in BOUNDARIES + (Boundary(*MAP_RUNS),):
                original, owners = _bindings(boundary)
                if original is None:
                    continue
                if boundary.name == MAP_RUNS[0]:
                    wrapped = self._wrap_map_runs(original)
                else:
                    wrapped = self._wrap(boundary, original)
                for obj, attr in owners:
                    patches.append((obj, attr, original))
                    setattr(obj, attr, wrapped)
            yield self
        finally:
            for obj, attr, original in reversed(patches):
                setattr(obj, attr, original)


def _bindings(boundary: Boundary):
    """The boundary's function and every (owner, attribute) that binds it;
    (None, []) when the library does not define it."""
    owner_path, _, leaf = boundary.attr.rpartition(".")
    owner = sys.modules.get(boundary.module)
    for part in filter(None, owner_path.split(".")):
        owner = getattr(owner, part, None)
    original = getattr(owner, leaf, None)
    if original is None:
        return None, []
    if owner_path:
        return original, [(owner, leaf)]
    return original, [
        (mod, attr)
        for name, mod in list(sys.modules.items())
        if name == "semgmm" or name.startswith("semgmm.")
        for attr, value in list(vars(mod).items())
        if value is original
    ]


def self_times_ns(spans: list[Span]) -> dict[int, int]:
    """Span id -> duration minus the part of its interval that child spans
    cover (children may overlap when they run on worker threads)."""
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start_ns, s.end_ns))
    out = {}
    for s in spans:
        covered = 0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(s.id, ())):
            lo, hi = max(lo, s.start_ns), min(hi, s.end_ns)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s.id] = (s.end_ns - s.start_ns) - covered
    return out


#: boundaries reported as <name>.calls and <name>.self_ms
TIMED = tuple(b.name for b in BOUNDARIES if b.name != "em.ridge_repair") + (MAP_RUNS[0],)

#: (metric, unit, better) for everything `layer_metrics` returns
LAYER_METRICS = tuple(
    m
    for name in TIMED
    for m in ((f"{name}.calls", "count", "lower"), (f"{name}.self_ms", "ms", "lower"))
) + (
    ("em.ridge_repair.calls", "count", "lower"),
    ("model.component_log_joint.mults", "count", "lower"),
    ("model.component_log_joint.bytes", "B", "lower"),
    ("model.log_joint_per_round", "ratio", "lower"),
    ("em.m_step.mults", "count", "lower"),
    ("sem.sem_m_step.mults", "count", "lower"),
    ("sem.repaired_frac", "ratio", "lower"),
    ("ingest.load_csv.mb_per_s", "MB/s", "higher"),
    ("harness.write_trace.rows", "count", "lower"),
    ("harness.write_trace.bytes", "B", "lower"),
    ("harness.map_runs.parallel_eff", "ratio", "higher"),
    ("harness.recomputed_round_frac", "ratio", "lower"),
)


def _totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: calls, self_ns, wall_ns and the sum of each count."""
    selfs = self_times_ns(spans)
    out: dict[str, dict[str, float]] = {}
    for s in spans:
        t = out.setdefault(s.name, {"calls": 0, "self_ns": 0, "wall_ns": 0})
        t["calls"] += 1
        t["self_ns"] += selfs[s.id]
        t["wall_ns"] += s.end_ns - s.start_ns
        for key, value in s.attrs.items():
            if key == "n_jobs":
                t["busy_capacity_ns"] = t.get("busy_capacity_ns", 0) + value * (s.end_ns - s.start_ns)
            else:
                t[key] = t.get(key, 0) + value
    return out


def layer_metrics(
    setup_spans: list[Span], op_spans: list[Span], n_ops: int, delivered_rounds: float
) -> dict[str, float]:
    """Per-layer figures for one set-up followed by one operation.

    Set-up spans count once; operation spans are divided by the number of
    traced operations.  `delivered_rounds` is the rounds one operation
    delivers in its traces; every E-step the operation runs is a round
    executed, so the excess over delivered rounds is recomputation.
    """
    setup, ops = _totals(setup_spans), _totals(op_spans)
    zero: dict[str, float] = {}

    def get(name, key):
        return setup.get(name, zero).get(key, 0) + ops.get(name, zero).get(key, 0) / n_ops

    def op(name, key):
        return ops.get(name, zero).get(key, 0) / n_ops

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for name in TIMED:
        out[f"{name}.calls"] = get(name, "calls")
        out[f"{name}.self_ms"] = get(name, "self_ns") / 1e6
    out["em.ridge_repair.calls"] = get("em.ridge_repair", "calls")
    out["model.component_log_joint.mults"] = get("model.component_log_joint", "mults")
    out["model.component_log_joint.bytes"] = get("model.component_log_joint", "bytes")
    rounds_run = op("estep.responsibilities", "calls")
    out["model.log_joint_per_round"] = ratio(op("model.component_log_joint", "calls"), rounds_run)
    out["em.m_step.mults"] = get("em.m_step", "mults")
    out["sem.sem_m_step.mults"] = get("sem.sem_m_step", "mults")
    out["sem.repaired_frac"] = ratio(
        get("sem.finalize_model", "repaired"), get("sem.finalize_model", "updated")
    )
    out["ingest.load_csv.mb_per_s"] = ratio(
        get("ingest.load_csv", "bytes") / 1e6, get("ingest.load_csv", "wall_ns") / 1e9
    )
    out["harness.write_trace.rows"] = get("harness.write_trace", "rows")
    out["harness.write_trace.bytes"] = get("harness.write_trace", "bytes")
    out["harness.map_runs.parallel_eff"] = ratio(
        get(TASK, "wall_ns"), get(MAP_RUNS[0], "busy_capacity_ns")
    )
    out["harness.recomputed_round_frac"] = (
        max(0.0, 1.0 - delivered_rounds / rounds_run) if rounds_run else 0.0
    )
    return out


def write_spans(spans: list[Span], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps(s.__dict__, sort_keys=True) + "\n")
