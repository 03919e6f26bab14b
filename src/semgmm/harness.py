"""Experiment driver: the three comparison protocols and the runtime
measurement, with deterministic seeding and plot-ready CSV traces.

Seeding layout (all streams derive from the plan's master seed):
  (master, 0, ...)        ground-truth generation and sampling
  (master, 1, i)          initial model for init i
  (master, 2, i, j)       stochastic run j from init i
  (master, 3, i)          repair stream of the deterministic run for init i
Results are a pure function of the plan and are independent of n_jobs and
scheduling: every (init, run) pair owns its streams and rows are merged in
sorted (init, run, round) order.

Parallelism: with n_jobs > 1 a protocol sweep runs every trajectory (each
init's EM run and each SEM run) as one task in a pool of n_jobs worker
processes, forked once per sweep.  The workers inherit the data set, the
initial models and the parent's BLAS thread settings, so their results
carry the bits of an n_jobs 1 run; each task sends back only a compact
payload (negative log-likelihoods, a packed parameter array or bound rows).
The process tree holds the parent and n_jobs workers; a worker's resident
set counts the pages it shares with the parent (the data set) plus its own
round temporaries, about 40 MB per worker against 45 MB for the parent on
a D3/K3/N1e5 compare run.
"""
from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .bounds import assemble_bounds
from .em import em_fit, em_round
from .estep import responsibilities
from .ingest import FMT, load_csv, write_rows
from .model import DataSet, DegeneracyError, MixtureModel, log_likelihood
from .rng import check_seed, derive_seed, substream
from .rounds import SemConfig, fit_rounds
from .sem import sem_fit, sem_round, sem_step
from .synth import GenSpec, check_k, generate_mixture, initialize, sample_dataset

_TAG_DATA, _TAG_INIT, _TAG_RUN, _TAG_EM = 0, 1, 2, 3


@dataclass(frozen=True)
class ExperimentPlan:
    """One experiment: data source, algorithm settings, and budgets.

    delta is the per-check failure budget; None selects 1/(100 K (D+1)), so
    the union over all K(D+1) weight and mean-coordinate checks holds with
    probability at least 99/100.
    """

    dataset: str | GenSpec
    k: int
    rounds: int = 50
    n_inits: int = 30
    runs_per_init: int = 100
    master_seed: int = 0
    delta: float | None = None
    out_dir: str = "."
    n_jobs: int = 1

    def __post_init__(self):
        check_k(self.k)
        if self.rounds < 1 or self.n_inits < 1 or self.runs_per_init < 1:
            raise ValueError("rounds, n_inits and runs_per_init must be >= 1")
        if self.delta is not None and not 0.0 < self.delta < 1.0:
            raise ValueError("delta must be in (0, 1)")
        if self.n_jobs < 1:
            raise ValueError("n_jobs must be >= 1")
        check_seed(self.master_seed)
        if self.n_jobs > 1:
            import multiprocessing  # see _map_runs

            if "fork" not in multiprocessing.get_all_start_methods():
                raise ValueError(
                    "n_jobs > 1 needs the 'fork' process start method, which this platform lacks"
                )

    def ci_scale(self) -> "ExperimentPlan":
        """Desk-scale profile: 3 inits x 10 runs x 20 rounds."""
        return replace(self, rounds=20, n_inits=3, runs_per_init=10)

    def full_scale(self) -> "ExperimentPlan":
        """Full-scale profile: 30 inits x 100 runs x 50 rounds."""
        return replace(self, rounds=50, n_inits=30, runs_per_init=100)


def prepare_data(plan: ExperimentPlan) -> DataSet:
    """Materialize the plan's data set (synthetic draw or CSV load)."""
    if isinstance(plan.dataset, GenSpec):
        truth = generate_mixture(plan.dataset, substream(plan.master_seed, _TAG_DATA, 0))
        data, _ = sample_dataset(
            truth, plan.dataset.n, substream(plan.master_seed, _TAG_DATA, 1)
        )
        return data
    return load_csv(plan.dataset)


def _initial_model(plan: ExperimentPlan, data: DataSet, i: int) -> MixtureModel:
    return initialize(data, plan.k, substream(plan.master_seed, _TAG_INIT, i))


def initial_models(plan: ExperimentPlan, data: DataSet) -> list[MixtureModel]:
    return [_initial_model(plan, data, i) for i in range(plan.n_inits)]


def model_hash(model: MixtureModel) -> str:
    h = hashlib.sha256()
    for a in (model.weights, model.means, model.covariances):
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:12]


def effective_delta(plan: ExperimentPlan, d: int) -> float:
    if plan.delta is not None:
        return plan.delta
    return 1.0 / (100.0 * plan.k * (d + 1))


#: the task of the pool this worker process belongs to (set in each worker)
_worker_task = None


def _set_worker_task(fn):
    global _worker_task
    _worker_task = fn


def _run_worker_task(key):
    return _worker_task(key)


def _map_runs(fn, keys, n_jobs):
    """Apply fn over keys; results keyed for deterministic merge order.

    n_jobs 1 runs in this process.  Otherwise fn runs in min(n_jobs,
    len(keys)) worker processes started with "fork": they inherit fn and all
    it reaches (data, models, module state) and the parent's BLAS thread
    settings, and only keys and results are pickled.  The first error in key
    order reaches the caller with its type, after the tasks not yet started
    are cancelled and the workers have exited.
    """
    keys = list(keys)
    if n_jobs <= 1:
        return {key: fn(key) for key in keys}
    # imported on first use: these modules add about 1 MB to the resident
    # memory of every run that never starts a worker
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(
        min(n_jobs, len(keys)),
        mp_context=multiprocessing.get_context("fork"),
        initializer=_set_worker_task,
        initargs=(fn,),  # not pickled: a forked worker inherits them
    ) as pool:
        futures = {key: pool.submit(_run_worker_task, key) for key in keys}
        try:
            return {key: fut.result() for key, fut in futures.items()}
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise


class _Body:
    """A trace's (row_format, rows) parts for ingest.write_rows, which may be
    formed as they are written; its length is the trace's line count, which
    bench/tracing.py reads as the trace's row count."""

    def __init__(self, parts, lines=None):
        self.parts = parts
        self.lines = sum(len(rows) for _, rows in parts) if lines is None else lines

    def __len__(self) -> int:
        return self.lines


def _write_trace(path: Path, comments: list[str], header: list[str], rows: _Body) -> Path:
    write_rows(path, rows.parts, "".join(f"# {c}\n" for c in comments) + ",".join(header) + "\n")
    return path


def _sem_cfg(plan: ExperimentPlan, i: int, j: int) -> SemConfig:
    return SemConfig(rng_seed=derive_seed(plan.master_seed, _TAG_RUN, i, j))


def _em_cfg(plan: ExperimentPlan, i: int) -> SemConfig:
    return SemConfig(rng_seed=derive_seed(plan.master_seed, _TAG_EM, i))


def _sweep(plan: ExperimentPlan, data: DataSet, per_run, per_init=None):
    """The scaffolding of the protocol experiments.

    Draws the plan's initial models and runs per_init(i, model0) once per
    init (when given) and per_run(i, j, model0) once per run, all as tasks
    of one _map_runs call on plan.n_jobs workers.  The init tasks come
    first, so they run next to the runs rather than ahead of them.  A run
    that raises DegeneracyError is excluded; an error of per_init aborts
    the sweep.  Returns the trace comments (one hash line per init, then one
    line per excluded run) and, per init, per_init's result (None without
    per_init) with the results of its kept runs, keyed by run in run order.
    """
    inits = initial_models(plan, data)
    comments = [f"init {i} hash {model_hash(m)}" for i, m in enumerate(inits)]
    runs = [(i, j) for i in range(plan.n_inits) for j in range(plan.runs_per_init)]
    init_keys = [(i, None) for i in range(plan.n_inits)] if per_init else []

    def task(key):
        i, j = key
        if j is None:
            return per_init(i, inits[i])
        try:
            return per_run(i, j, inits[i])
        except DegeneracyError as exc:
            return exc

    results = _map_runs(task, init_keys + runs, plan.n_jobs)
    excluded = []
    swept = [(results.get((i, None)), {}) for i in range(plan.n_inits)]
    for i, j in runs:
        if isinstance(results[i, j], DegeneracyError):
            excluded.append(f"excluded: init {i} run {j}: {results[i, j]}")
        else:
            swept[i][1][j] = results[i, j]
    return comments + excluded, swept


def _run_protocols(plan: ExperimentPlan, data: DataSet, protocols) -> list[Path]:
    """One sweep for all the given protocols: EM runs once per init and SEM
    once per (init, run), each trajectory as one task.

    A protocol is a pair (payload, write).  payload(traj) runs inside the
    trajectory's task and returns what the trace needs of it; write(plan,
    comments, swept) writes the trace from, per init, the payload of the EM
    trajectory and the payloads of its kept runs, keyed by run.
    """

    def payloads(traj):
        return [payload(traj) for payload, _ in protocols]

    def em_task(i, model0):
        return payloads(em_fit(model0, data, plan.rounds, _em_cfg(plan, i)))

    def sem_task(i, j, model0):
        return payloads(sem_fit(model0, data, plan.rounds, _sem_cfg(plan, i, j)))

    comments, swept = _sweep(plan, data, sem_task, em_task)
    return [
        write(plan, comments, [(em[n], {j: run[n] for j, run in kept.items()}) for em, kept in swept])
        for n, (_, write) in enumerate(protocols)
    ]


def _likelihood_protocol(data: DataSet):
    def payload(traj):
        # read where the trajectory ran: the E-step of round t + 1 left each
        # model's log-likelihood in its memo, so only the last needs one more
        return [-log_likelihood(m, data) for m in traj]

    def write(plan, comments, swept):
        rows = []
        for i, (em_nlls, nlls) in enumerate(swept):
            for t, nll in enumerate(em_nlls, start=1):
                rows.append((i, "em", t, "value", nll))
            if not nlls:
                continue
            # per round of the (runs, rounds) array: min, quartiles and max
            stats = np.percentile(np.array(list(nlls.values())), [0, 25, 50, 75, 100], axis=0)
            for t, column in enumerate(stats.T, start=1):
                for name, value in zip(("min", "q1", "median", "q3", "max"), column):
                    rows.append((i, "sem", t, name, float(value)))
        titles = [
            "semgmm likelihood trace",
            "stats over stochastic runs; quartiles use linear interpolation on sorted values",
        ]
        out = Path(plan.out_dir) / "likelihood_trace.csv"
        return _write_trace(
            out, titles + comments, ["init_id", "algorithm", "round", "stat", "nll"],
            _Body([(f"%d,%s,%d,%s,{FMT}\n", rows)]),
        )

    return payload, write


def diff_normalizers(data: DataSet) -> tuple[float, float]:
    """Scale units for mean and covariance differences:
    Gamma_mu = sqrt(D) * max_d spread_d, Gamma_Sigma = D * (max_d spread_d)^2."""
    delta = float(data.spread.max())
    return float(np.sqrt(data.d)) * delta, float(data.d) * delta**2


def _packed_params(traj) -> np.ndarray:
    """A trajectory's parameters as one R x K x (1 + D + D^2) array: per
    round and component the weight, the mean and the row-major covariance."""
    return np.stack([
        np.concatenate([m.weights[:, None], m.means, m.covariances.reshape(m.k, -1)], axis=1)
        for m in traj
    ])


def _diff_protocol(data: DataSet):
    gamma_mu, gamma_sigma = diff_normalizers(data)
    d = data.d
    # one record per round and component, one line per difference: the
    # weight, the mean coordinates, the mean's Euclidean norm, the row-major
    # covariance entries and the covariance's Frobenius norm
    cells = (
        ["weight,,"] + [f"mean,{a}," for a in range(d)] + ["mean_euclid,,"]
        + [f"cov,{a},{b}" for a in range(d) for b in range(d)] + ["cov_frobenius,,"]
    )
    record = "".join(f"%d,%d,%d,%d,{cell},{FMT},{FMT}\n" for cell in cells)
    scale = np.array([1.0] + [gamma_mu] * (d + 1) + [gamma_sigma] * (d * d + 1))

    def run_rows(i, j, em_params, sem_params):
        """The run's rows (init, run, round, component, raw, normalized),
        one per line of its records."""
        diff = em_params - sem_params
        nu, cd = diff[..., 1 : d + 1], diff[..., d + 1 :]
        norms = [np.sqrt((x**2).sum(axis=-1, keepdims=True)) for x in (nu, cd)]
        raw = np.concatenate([diff[..., :1], nu, norms[0], cd, norms[1]], axis=-1)
        rounds = np.arange(1, len(raw) + 1)[:, None, None]
        components = np.arange(raw.shape[1])[:, None]
        rows = np.stack(np.broadcast_arrays(i, j, rounds, components, raw, raw / scale), axis=-1)
        return record, rows.reshape(-1, 6)

    def write(plan, comments, swept):
        titles = [
            "semgmm diff trace",
            f"gamma_mu {FMT % gamma_mu} gamma_sigma {FMT % gamma_sigma}",
        ]
        header = [
            "init_id", "run_id", "round", "component", "param",
            "index_i", "index_j", "raw_diff", "normalized_diff",
        ]
        runs = [(i, j, em, sem) for i, (em, kept) in enumerate(swept) for j, sem in kept.items()]
        lines = len(cells) * sum(sem[..., 0].size for *_, sem in runs)
        rows = _Body((run_rows(*run) for run in runs), lines)
        return _write_trace(Path(plan.out_dir) / "diff_trace.csv", titles + comments, header, rows)

    return _packed_params, write


def run_likelihood_experiment(plan: ExperimentPlan, data: DataSet | None = None) -> Path:
    """First protocol: negative log-likelihood per round.

    Per init, one deterministic trajectory (emitted as its own series) and
    runs_per_init stochastic trajectories summarized per round by
    min / lower quartile / median / upper quartile / max.
    """
    if data is None:
        data = prepare_data(plan)
    return _run_protocols(plan, data, [_likelihood_protocol(data)])[0]


def run_diff_experiment(plan: ExperimentPlan, data: DataSet | None = None) -> Path:
    """Second protocol: paired per-round parameter differences.

    Both algorithms start from the same initial model per init; rows carry
    raw differences and differences normalized by 1 (weights), Gamma_mu
    (means) and Gamma_Sigma (covariances).
    """
    if data is None:
        data = prepare_data(plan)
    return _run_protocols(plan, data, [_diff_protocol(data)])[0]


def run_compare_experiment(
    plan: ExperimentPlan, data: DataSet | None = None
) -> tuple[Path, Path]:
    """The likelihood and diff traces from one pass over the plan.

    Each EM and SEM trajectory is computed once and feeds both traces, whose
    bytes equal those of run_likelihood_experiment and run_diff_experiment.
    """
    if data is None:
        data = prepare_data(plan)
    lik, diff = _run_protocols(plan, data, [_likelihood_protocol(data), _diff_protocol(data)])
    return lik, diff


def run_bound_experiment(plan: ExperimentPlan, data: DataSet | None = None) -> Path:
    """Third protocol: actual Euclidean mean distance vs the assembled bound.

    Each stochastic round is sem_step on the responsibilities of the
    current model, run through the same round loop as sem_fit.  From those
    responsibilities the deterministic mean update is also computed (its
    means only: the EM covariances are never formed, and a run is excluded
    only when a component has no responsibility mass); the per-component
    actual distance between the raw sampled means and the deterministic
    means is emitted next to the union-bound Euclidean mean bound.
    Inapplicable components (weight bound hypothesis failed, lambda_w >= 1,
    or an empty sample) are emitted with missing values.
    """
    if data is None:
        data = prepare_data(plan)
    delta = effective_delta(plan, data.d)
    applicable_row, inapplicable_row = f"%d,%d,%d,%d,{FMT},{FMT},1\n", "%d,%d,%d,%d,,,0\n"

    def bound_run(i, j, model0):
        parts = []  # one (row format, [row]) part per line

        def bound_round(model, data, cfg, t):
            resp = responsibilities(model, data)
            report = assemble_bounds(resp, data, delta)
            partial, next_model = sem_step(resp, data, model, cfg, t)
            for k in range(plan.k):
                if report.applicable[k] and partial.counts[k] >= 1:
                    actual = float(np.sqrt(((partial.means[k] - report.em_means[k]) ** 2).sum()))
                    bound = float(report.mean_bound_euclid[k])
                    parts.append((applicable_row, [(i, j, t + 1, k, actual, bound)]))
                else:
                    parts.append((inapplicable_row, [(i, j, t + 1, k)]))
            return next_model

        for _ in fit_rounds(bound_round, model0, data, plan.rounds, _sem_cfg(plan, i, j)):
            pass
        return parts

    comments, swept = _sweep(plan, data, bound_run)
    parts = [part for _, kept in swept for run in kept.values() for part in run]
    out = Path(plan.out_dir) / "bound_trace.csv"
    titles = ["semgmm bound trace", f"per-check delta {FMT % delta}"]
    header = [
        "init_id", "run_id", "round", "component",
        "actual_euclid", "bound_euclid", "applicable",
    ]
    return _write_trace(out, titles + comments, header, _Body(parts))


# ---------------------------------------------------------------------------
# runtime measurement


@dataclass
class OpCounter:
    """Count of real multiplications performed by one round, in the paper's
    cost model.

    Each method adds the analytical count of one stage (the E-step's
    triangular products, the weighted accumulations, the outer products), so
    the count is portable rather than read from hardware counters.  Both
    M-steps are counted as a full D^2 outer product per point, as the paper
    counts them.  EM forms its scatter as a general product (GEMM), which
    computes all of those products; SEM's _rows_mle forms it as one
    symmetric product (SYRK), which computes half of them.
    """

    mults: int = 0

    def add_estep(self, n: int, d: int, k: int) -> None:
        # per point and component: the product with the inverse factor (d^2)
        # and the squared norm of the result (d)
        self.mults += n * k * (d * d + d)

    def add_em_mstep(self, n: int, d: int, k: int) -> None:
        # per point and component: weighted mean accumulation (d), weighting
        # the centered point (d), and its outer product (d^2)
        self.mults += n * k * (2 * d + d * d)

    def add_sem_mstep(self, n: int, d: int) -> None:
        # each point contributes one centered outer product to exactly one
        # component (d^2); sums and counts need no multiplications
        self.mults += n * d * d


def _thread_settings() -> str:
    """nproc (the CPUs this process may run on) and the BLAS thread variables."""
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        nproc = os.cpu_count()
    env = " ".join(
        f"{var} {os.environ.get(var, 'unset')}"
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")
    )
    return f"nproc {nproc} {env}"


def run_speed_experiment(plan: ExperimentPlan, data: DataSet | None = None) -> Path:
    """Per-iteration multiplication counts and wall-clock for both algorithms,
    run from the same initial model (init 0's; no other init is drawn) on
    the same data.

    The two trajectories are advanced alternately through the round loop,
    and the rounds are timed in pairs: EM round t, then SEM round t, so
    that drift in the machine's speed affects both algorithms alike.  Rows
    are written EM first, then SEM.
    """
    if data is None:
        data = prepare_data(plan)
    model0 = _initial_model(plan, data, 0)
    n, d, k = data.n, data.d, model0.k
    em_count, sem_count = OpCounter(), OpCounter()
    em_count.add_estep(n, d, k)
    em_count.add_em_mstep(n, d, k)
    sem_count.add_estep(n, d, k)
    sem_count.add_sem_mstep(n, d)
    runs = {
        "em": (fit_rounds(em_round, model0, data, plan.rounds, _em_cfg(plan, 0)), em_count.mults),
        "sem": (
            fit_rounds(sem_round, model0, data, plan.rounds, _sem_cfg(plan, 0, 0)),
            sem_count.mults,
        ),
    }
    rows = {algo: [] for algo in runs}
    for t in range(plan.rounds):
        for algo, (trajectory, mults) in runs.items():
            start = time.perf_counter_ns()
            next(trajectory)
            wall = time.perf_counter_ns() - start
            rows[algo].append((algo, t + 1, mults, wall))
    out = Path(plan.out_dir) / "speed_trace.csv"
    return _write_trace(
        out,
        ["semgmm speed trace", _thread_settings()],
        ["algorithm", "iteration", "mults", "wall_ns"],
        _Body([("%s,%d,%d,%d\n", rows["em"] + rows["sem"])]),
    )
