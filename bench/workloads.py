"""The benchmark's workloads: inputs made from the seed, one repeated
operation through semgmm's public entry points, and its output checks.

Library functions are looked up on their modules at call time, so the
tracer's patches apply when a traced run is active.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import semgmm.bounds as bounds
import semgmm.estep as estep
import semgmm.harness as harness
import semgmm.ingest as ingest
from semgmm import ExperimentPlan, GenSpec
from semgmm.rng import substream

N = 100_000


@dataclass
class Outcome:
    """What one operation delivered and what its output checks found.

    `attempted` counts trajectories (or validator calls); `failed` those
    excluded for degeneracy or failing a check.  `fingerprint` digests the
    operation's deterministic output, which must not change between repeats.
    """

    units: int
    attempted: int
    failed: int
    errors: list[str]
    fingerprint: str
    samples: dict = field(default_factory=dict)
    wall_s: float = 0.0  # set by the runner


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p)
    return h.hexdigest()


def _trace_rows(path: Path) -> tuple[list[str], list[list[str]]]:
    """Comment lines and data rows of a harness CSV trace."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    body = [ln.split(",") for ln in lines if not ln.startswith("#")]
    return comments, body[1:]  # body[0] is the header


def _excluded(comments: list[str]) -> int:
    return sum(c.startswith("# excluded:") for c in comments)


def _synthetic_plan(seed: int, d: int, k: int, work: Path, **kw) -> ExperimentPlan:
    return ExperimentPlan(
        dataset=GenSpec(d=d, k=k, n=N, rng_seed=seed), k=k, master_seed=seed,
        out_dir=str(work), **kw,
    )


@dataclass
class State:
    plan: ExperimentPlan
    data: object
    resp: object = None


class Workload:
    """Base: a synthetic draw plus the plan's initial models as set-up."""

    name = ""
    why = ""
    n_jobs = 1
    #: whether one untimed operation runs before timing starts
    warmup = True
    #: what `Outcome.units` counts: delivered trajectory rounds or MC trials
    unit = "rounds"

    def plan(self, seed: int, work: Path) -> ExperimentPlan:
        raise NotImplementedError

    def prepare(self, seed: int, work: Path) -> None:
        """Untimed work done once before the timed set-ups."""

    def setup(self, seed: int, work: Path) -> State:
        plan = self.plan(seed, work)
        data = harness.prepare_data(plan)
        harness.initial_models(plan, data)
        return State(plan, data)

    def operation(self, state: State) -> Outcome:
        raise NotImplementedError

    def summary(self, outcomes: list[Outcome]) -> dict[str, float]:
        """Workload-specific figures over the measured operations."""
        return {}


class SpeedD10K10(Workload):
    name = "speed_d10k10"
    why = ("criterion-08 speed experiment at D10/K10/N1e5: log-joint GEMMs and "
           "the EM weighted M-step dominate; checks the paper's EM/SEM cost claim")
    d = k = 10
    rounds = 9

    def plan(self, seed, work):
        return _synthetic_plan(seed, self.d, self.k, work, rounds=self.rounds,
                               n_inits=1, runs_per_init=1)

    def operation(self, state):
        path = harness.run_speed_experiment(state.plan, state.data)
        _, rows = _trace_rows(path)
        mults = {"em": [], "sem": []}
        walls = {"em": [], "sem": []}
        for algo, it, m, wall_ns in rows:
            if int(it) > 1:  # iteration 1 is warm-up, as in criterion 08
                mults[algo].append(int(m))
                walls[algo].append(int(wall_ns) / 1e6)
        mult_ratio = float(np.median(mults["em"]) / np.median(mults["sem"]))
        em_vs_model = float(np.median(mults["em"]) / (2 * self.k * N * self.d**2))
        errors = []
        if not 1.8 <= mult_ratio <= 3.0:
            errors.append(f"multiplication ratio {mult_ratio:.3f} outside [1.8, 3.0]")
        if not 0.8 <= em_vs_model <= 1.5:
            errors.append(f"EM count / 2KND^2 = {em_vs_model:.3f} outside [0.8, 1.5]")
        # wall_ns is the only column that may differ between repeats
        stable = "\n".join(",".join(r[:3]) for r in rows).encode()
        return Outcome(
            units=len(rows), attempted=2, failed=2 if errors else 0, errors=errors,
            fingerprint=_digest(stable),
            samples={"em_ms": walls["em"], "sem_ms": walls["sem"],
                     "mult_ratio": mult_ratio},
        )

    def summary(self, outcomes):
        em = [v for o in outcomes for v in o.samples["em_ms"]]
        sem = [v for o in outcomes for v in o.samples["sem_ms"]]
        return {
            "speed.em_round_ms_p50": float(np.percentile(em, 50)),
            "speed.em_round_ms_p90": float(np.percentile(em, 90)),
            "speed.sem_round_ms_p50": float(np.percentile(sem, 50)),
            "speed.sem_round_ms_p90": float(np.percentile(sem, 90)),
            "speed.em_sem_wall_ratio": float(np.median(em) / np.median(sem)),
            "speed.em_sem_mult_ratio": outcomes[0].samples["mult_ratio"],
            "speed.paper_ratio": 2 * self.k / (self.k + 1),
        }


class BoundsD3K3(Workload):
    name = "bounds_d3k3"
    why = ("criterion-07 bound experiment at D3/K3/N1e5, delta 1/1200: tau, rho "
           "and assemble_bounds are half of each round; cheap E-step")
    rounds, runs = 10, 2

    def plan(self, seed, work):
        return _synthetic_plan(seed, 3, 3, work, rounds=self.rounds, n_inits=1,
                               runs_per_init=self.runs, delta=1.0 / 1200.0)

    def operation(self, state):
        path = harness.run_bound_experiment(state.plan, state.data)
        comments, rows = _trace_rows(path)
        excluded = _excluded(comments)
        held = total = 0
        for row in rows:
            if row[6] == "1":
                total += 1
                held += float(row[4]) <= float(row[5])
        errors = []
        if total == 0 or held < 0.99 * total:
            errors.append(f"actual mean distance within bound in {held}/{total} applicable cells")
        attempted = state.plan.n_inits * state.plan.runs_per_init
        return Outcome(
            units=len({tuple(r[:3]) for r in rows}), attempted=attempted,
            failed=attempted if errors else excluded, errors=errors,
            fingerprint=_digest(Path(path).read_bytes()),
        )


class CompareD3K3Csv(Workload):
    name = "compare_d3k3_csv"
    why = ("the semgmm compare flow on a CSV of a D3/K3/N1e5 draw with 2 threads: "
           "CSV parse, log_likelihood pass, recomputed diff trajectories, trace writes")
    rounds, runs = 10, 4

    def __init__(self, n_jobs: int):
        self.n_jobs = n_jobs

    def plan(self, seed, work):
        return ExperimentPlan(
            dataset=str(work / "data.csv"), k=3, rounds=self.rounds, n_inits=1,
            runs_per_init=self.runs, master_seed=seed, out_dir=str(work),
            n_jobs=self.n_jobs,
        )

    def prepare(self, seed, work):
        draw = harness.prepare_data(_synthetic_plan(seed, 3, 3, work))
        ingest.save_csv(draw, work / "data.csv")

    def operation(self, state):
        plan = state.plan
        lik = harness.run_likelihood_experiment(plan, state.data)
        diff = harness.run_diff_experiment(plan, state.data)
        comments, rows = _trace_rows(lik)
        errors = []
        em_rows = 0
        em_failed = 0
        for i in range(plan.n_inits):
            nll = [float(r[4]) for r in rows if r[0] == str(i) and r[1] == "em"]
            em_rows += len(nll)
            if any(b > a + 1e-9 * abs(a) for a, b in zip(nll, nll[1:])):
                em_failed += 1
                errors.append(f"init {i}: EM negative log-likelihood rose")
        excluded = _excluded(comments)
        sem_runs = plan.n_inits * plan.runs_per_init
        return Outcome(
            units=em_rows + plan.rounds * (sem_runs - excluded),
            attempted=plan.n_inits + sem_runs, failed=em_failed + excluded,
            errors=errors,
            fingerprint=_digest(Path(lik).read_bytes(), Path(diff).read_bytes()),
        )


class McValidateD3K3(Workload):
    name = "mc_validate_d3k3"
    why = ("Monte-Carlo validator for mean and covariance bounds at fixed "
           "responsibilities of a D3/K3/N1e5 draw: the only validator workload")
    # each call allocates its batches afresh, so a warm-up call (about half
    # the run) would warm nothing
    warmup = False
    unit = "trials"
    delta = 0.05
    trials = 1000  # the validator's minimum
    batch = 64     # one-hot batch of batch * N * K floats, about 150 MB
    targets = ("means", "covariances")

    def plan(self, seed, work):
        return _synthetic_plan(seed, 3, 3, work, rounds=1, n_inits=1, runs_per_init=1)

    def setup(self, seed, work):
        plan = self.plan(seed, work)
        data = harness.prepare_data(plan)
        model0 = harness.initial_models(plan, data)[0]
        return State(plan, data, estep.responsibilities(model0, data))

    def operation(self, state):
        band = self.delta + 3.0 * math.sqrt(self.delta * (1 - self.delta) / self.trials)
        errors, digests = [], []
        for i, which in enumerate(self.targets):
            rep = bounds.monte_carlo_violation_rate(
                state.resp, state.data, self.delta, self.trials,
                substream(state.plan.master_seed, 9, i), which, batch=self.batch,
            )
            rates = rep.violation_rate[rep.conditioning_rate > 0]
            if rates.size == 0 or (rates > band).any():
                errors.append(f"{which}: violation rate above {band:.4f} or never conditioned")
            digests.append(np.ascontiguousarray(rep.violation_rate).tobytes())
        return Outcome(
            units=self.trials * len(self.targets), attempted=len(self.targets),
            failed=len(errors), errors=errors, fingerprint=_digest(*digests),
        )


def workloads(nproc: int) -> dict[str, Workload]:
    """All workloads by name; only the compare flow fans out, to at most 2
    threads and never more than the cores available."""
    items = (SpeedD10K10(), BoundsD3K3(), CompareD3K3Csv(min(2, nproc)), McValidateD3K3())
    return {w.name: w for w in items}
