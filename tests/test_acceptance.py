"""Acceptance gate: one test per release criterion, each ending in a single
PASS/FAIL line.  Quantitative targets and tolerances are pinned here."""
import math
import time

import numpy as np
import pytest

import semgmm.rounds
from semgmm import (
    DataSet,
    ExperimentPlan,
    GenSpec,
    MixtureModel,
    SemConfig,
    assemble_bounds,
    em_fit,
    load_csv,
    load_model,
    log_likelihood,
    monte_carlo_violation_rate,
    responsibilities,
    run_bound_experiment,
    run_likelihood_experiment,
    run_speed_experiment,
    sample_assignment,
    save_csv,
    save_model,
    sem_fit,
    validate,
)
from semgmm.estep import from_probs
from semgmm.rng import substream
from semgmm.synth import generate_mixture, initialize, sample_dataset

from conftest import make_instance, separated_instance
from oracles import scalar_bound_report, scalar_lambda_dev

#: Monte-Carlo acceptance band: delta plus 3 binomial standard errors
MC_DELTA = 0.05
MC_TRIALS = 20_000
MC_BAND = MC_DELTA + 3.0 * math.sqrt(MC_DELTA * (1 - MC_DELTA) / MC_TRIALS)

#: pilot-run-derived relative NLL threshold for the at-scale proximity check
PROXIMITY_REL_TOL = 0.01


def conclude(num, name, ok, started, limit_s, detail=""):
    """Print the criterion's verdict line and fail on FAIL, with `detail`
    (the readings behind the verdict) appended to the failure message."""
    elapsed = time.perf_counter() - started
    verdict = "PASS" if ok and elapsed < limit_s else "FAIL"
    line = f"[criterion {num:02d}] {name}: {verdict} ({elapsed:.1f}s / limit {limit_s:.0f}s)"
    print(line)
    assert verdict == "PASS", line + detail


def half_half_fixture(r):
    """K = 2, every responsibility exactly 1/2, so r_k = r for both."""
    n = 2 * r
    data = DataSet(substream(400, r).normal(size=(n, 1)))
    return data, from_probs(np.full((n, 2), 0.5))


def test_criterion_01_row_stochastic_and_valid():
    started = time.perf_counter()
    rng = substream(401)
    ok = True
    for i in range(200):
        d = int(rng.integers(1, 11))
        k = int(rng.integers(1, 9))
        n = int(rng.integers(max(d + 1, k, 20), 5001))
        seed = int(rng.integers(2**32))
        spec = GenSpec(d=d, k=k, n=n, rng_seed=seed)
        truth = generate_mixture(spec, substream(seed, 0))
        data, _ = sample_dataset(truth, n, substream(seed, 1))
        model0 = initialize(data, k, substream(seed, 2))
        resp = responsibilities(model0, data)
        ok &= bool(np.abs(resp.probs.sum(axis=1) - 1.0).max() <= 1e-12)
        for m in em_fit(model0, data, 2, SemConfig(rng_seed=seed)):
            ok &= validate(m) is None
        for m in sem_fit(model0, data, 2, SemConfig(rng_seed=seed)):
            ok &= validate(m) is None
        if not ok:
            break
    conclude(1, "row stochasticity and model validity (200 instances)", ok,
             started, 60)


def test_criterion_02_em_monotonicity():
    started = time.perf_counter()
    ok = True
    for i in range(20):
        _, data, _, model0 = make_instance(
            410 + i, d=2 + i % 3, k=2 + i % 3, n=2000
        )
        traj = em_fit(model0, data, 50, SemConfig(rng_seed=i))
        lls = [log_likelihood(m, data) for m in [model0] + traj]
        for prev, cur in zip(lls, lls[1:]):
            ok &= cur >= prev - 1e-9 * abs(prev)
    conclude(2, "EM negative log-likelihood monotone (50 rounds x 20)", ok,
             started, 120)


def test_criterion_03_hard_assignment_equivalence():
    started = time.perf_counter()
    ok = True
    for i in range(20):
        d = 1 + i % 2
        truth, data, _ = separated_instance(430 + i, d=d, k=2, n=400)
        # start from slightly perturbed truth so responsibilities stay one-hot
        rng = substream(430 + i, 9)
        model0 = MixtureModel(
            truth.weights,
            truth.means + rng.normal(scale=0.5, size=truth.means.shape),
            truth.covariances * 2.0,
        )
        em_traj = em_fit(model0, data, 50, SemConfig(rng_seed=i))
        sem_traj = sem_fit(model0, data, 50, SemConfig(rng_seed=i))
        for em_m, sem_m in zip(em_traj, sem_traj):
            ok &= np.array_equal(em_m.weights, sem_m.weights)
            ok &= np.array_equal(em_m.means, sem_m.means)
            ok &= np.array_equal(em_m.covariances, sem_m.covariances)
    conclude(3, "one-hot responsibilities: stochastic == deterministic, exact",
             ok, started, 60)


def test_criterion_04_weight_bound_monte_carlo():
    started = time.perf_counter()
    ok = True
    for r in (50, 500, 5000):
        data, resp = half_half_fixture(r)
        rep = monte_carlo_violation_rate(
            resp, data, MC_DELTA, MC_TRIALS, substream(440, r), "weights"
        )
        ok &= bool((rep.violation_rate <= MC_BAND).all())
    conclude(4, "weight-bound violation rate <= delta band (r in 50/500/5000)",
             ok, started, 120)


def test_criterion_05_mean_cov_bound_monte_carlo():
    started = time.perf_counter()
    ok = True
    for r in (50, 500, 5000):
        data, resp = half_half_fixture(r)
        for which in ("means", "covariances"):
            rep = monte_carlo_violation_rate(
                resp, data, MC_DELTA, MC_TRIALS, substream(450, r), which
            )
            rates = rep.violation_rate[rep.conditioning_rate > 0]
            ok &= bool((rates <= MC_BAND).all())
    conclude(5, "conditional mean/cov violation rates <= delta band", ok,
             started, 300)


def test_criterion_06_weight_expectation_identity():
    started = time.perf_counter()
    _, data, _, model0 = make_instance(460, d=2, k=3, n=500)
    resp = responsibilities(model0, data)
    w_em = resp.column_sums / data.n
    samples = np.empty((10_000, 3))
    for t in range(10_000):
        assign = sample_assignment(resp, substream(461, t))
        samples[t] = assign.counts / data.n
    se = samples.std(axis=0, ddof=1) / math.sqrt(samples.shape[0])
    ok = bool((np.abs(samples.mean(axis=0) - w_em) <= 4.0 * se).all())
    conclude(6, "mean sampled weight within 4 SE of deterministic weight", ok,
             started, 60)


def test_criterion_07_bound_vs_actual_experiment(tmp_path):
    started = time.perf_counter()
    plan = ExperimentPlan(
        dataset=GenSpec(d=3, k=3, n=100_000, rng_seed=470),
        k=3, rounds=20, n_inits=3, runs_per_init=10,
        master_seed=470, delta=1.0 / 1200.0, out_dir=str(tmp_path),
    )
    path = run_bound_experiment(plan)
    held = total = 0
    with open(path) as fh:
        for line in fh:
            if line.startswith("#") or line.startswith("init_id"):
                continue
            cells = line.rstrip("\n").split(",")
            if cells[6] == "1":
                total += 1
                held += float(cells[4]) <= float(cells[5])
    ok = total > 0 and held / total >= 0.99
    conclude(7, f"actual mean distance within bound in {held}/{total} applicable cells",
             ok, started, 600)


def test_criterion_08_speed_ratios(tmp_path):
    started = time.perf_counter()
    plan = ExperimentPlan(
        dataset=GenSpec(d=10, k=10, n=100_000, rng_seed=480),
        k=10, rounds=9, n_inits=1, runs_per_init=1,
        master_seed=480, out_dir=str(tmp_path),
    )
    path = run_speed_experiment(plan)
    mults = {"em": [], "sem": []}
    walls = {"em": [], "sem": []}
    with open(path) as fh:
        for line in fh:
            if line.startswith("#") or line.startswith("algorithm"):
                continue
            algo, _, m, w = line.rstrip("\n").split(",")
            mults[algo].append(int(m))
            walls[algo].append(int(w))
    # medians drop the warm-up iteration
    mult_ratio = np.median(mults["em"][1:]) / np.median(mults["sem"][1:])
    wall_ratio = np.median(walls["em"][1:]) / np.median(walls["sem"][1:])
    em_vs_model = np.median(mults["em"][1:]) / (2 * 10 * 100_000 * 10**2)
    em_ms, sem_ms = np.median(walls["em"][1:]) / 1e6, np.median(walls["sem"][1:]) / 1e6
    per_round = "; ".join(
        f"{t} EM {em / 1e6:.1f} SEM {sem / 1e6:.1f}"
        for t, (em, sem) in enumerate(zip(walls["em"], walls["sem"]), start=1)
    )
    ok = (
        1.8 <= mult_ratio <= 3.0
        and 1.5 <= wall_ratio <= 3.5
        and 0.8 <= em_vs_model <= 1.5
    )
    conclude(
        8,
        f"speed: mult ratio {mult_ratio:.2f} in [1.8,3.0], wall ratio "
        f"{wall_ratio:.2f} in [1.5,3.5], em/2KND^2 {em_vs_model:.2f} in [0.8,1.5] "
        f"(median round: EM {em_ms:.1f} ms, SEM {sem_ms:.1f} ms)",
        ok, started, 180,
        detail=f"\nwall ms per round (round 1 is the warm-up): {per_round}",
    )


def test_criterion_09_proximity_at_scale(tmp_path):
    started = time.perf_counter()
    plan = ExperimentPlan(
        dataset=GenSpec(d=3, k=3, n=100_000, rng_seed=490),
        k=3, rounds=50, n_inits=5, runs_per_init=10,
        master_seed=490, out_dir=str(tmp_path),
    )
    path = run_likelihood_experiment(plan)
    em_final = {}
    sem_final = {}
    with open(path) as fh:
        for line in fh:
            if line.startswith("#") or line.startswith("init_id"):
                continue
            init_id, algo, rnd, stat, nll = line.rstrip("\n").split(",")
            if int(rnd) != plan.rounds:
                continue
            if algo == "em" and stat == "value":
                em_final[init_id] = float(nll)
            elif algo == "sem" and stat == "median":
                sem_final[init_id] = float(nll)
    close = sum(
        abs(sem_final[i] - em_final[i]) <= PROXIMITY_REL_TOL * abs(em_final[i])
        for i in em_final
    )
    ok = len(em_final) == plan.n_inits and close >= 0.9 * plan.n_inits
    conclude(9, f"median stochastic final NLL within 1% of paired EM for {close}/{len(em_final)} inits",
             ok, started, 600)


def test_criterion_10_degeneracy_repair(monkeypatch):
    started = time.perf_counter()
    # adversarial truth: one component carries weight 0.001, so its sampled
    # point count falls below D+1 and must be repaired
    rng = substream(500)
    k, d, n = 5, 2, 1000
    weights = np.array([0.001, 0.24975, 0.24975, 0.24975, 0.24975])
    means = np.array([[0.0, 0.0], [8.0, 0.0], [0.0, 8.0], [8.0, 8.0], [4.0, 4.0]])
    truth = MixtureModel(weights, means, np.stack([np.eye(d)] * k))
    data, _ = sample_dataset(truth, n, rng)
    model0 = MixtureModel(weights, means, np.stack([np.eye(d)] * k))

    events = []
    original = semgmm.rounds.repair_component

    def recording(comp, *args, **kwargs):
        events.append(comp)
        return original(comp, *args, **kwargs)

    monkeypatch.setattr(semgmm.rounds, "repair_component", recording)
    traj = sem_fit(model0, data, 50, SemConfig(rng_seed=1))
    ok = len(traj) == 50
    ok &= all(validate(m) is None for m in traj)
    ok &= len(events) > 0  # the rare component triggered logged repairs
    conclude(10, f"adversarial run finished 50 rounds with {len(events)} logged repairs",
             ok, started, 60)


def test_criterion_11_determinism_and_round_trips(tmp_path):
    started = time.perf_counter()
    ok = True
    for sub, jobs in (("a", 1), ("b", 1), ("c", 2)):
        (tmp_path / sub).mkdir()
    def plan(sub, jobs):
        return ExperimentPlan(
            dataset=GenSpec(d=2, k=2, n=400, rng_seed=510), k=2,
            rounds=5, n_inits=2, runs_per_init=4, master_seed=510,
            out_dir=str(tmp_path / sub), n_jobs=jobs,
        )
    f1 = run_likelihood_experiment(plan("a", 1))
    f2 = run_likelihood_experiment(plan("b", 1))
    f3 = run_likelihood_experiment(plan("c", 2))
    ok &= f1.read_bytes() == f2.read_bytes() == f3.read_bytes()

    truth, data, _, _ = make_instance(511, d=3, k=3, n=200)
    save_csv(data, tmp_path / "rt.csv")
    ok &= bool(np.array_equal(load_csv(tmp_path / "rt.csv").points, data.points))
    save_model(truth, tmp_path / "rt_model.txt")
    loaded = load_model(tmp_path / "rt_model.txt")
    ok &= bool(
        np.array_equal(loaded.weights, truth.weights)
        and np.array_equal(loaded.means, truth.means)
        and np.array_equal(loaded.covariances, truth.covariances)
    )
    conclude(11, "byte-identical traces across reruns/thread counts; exact round-trips",
             ok, started, 60)


def test_criterion_12_bound_formula_fixture():
    started = time.perf_counter()
    data = DataSet([[0.0], [1.0], [2.0], [3.0]])
    ok = True

    # symmetric responsibilities: r_k = 2 for both components, below the
    # concentration hypothesis at any delta < 1, so both are inapplicable
    sym = np.array([[0.9, 0.1], [0.6, 0.4], [0.4, 0.6], [0.1, 0.9]])
    resp = from_probs(sym)
    report = assemble_bounds(resp, data, 0.05)
    oracle = scalar_bound_report(
        data.points[:, 0].tolist(), sym.tolist(), 0.05
    )
    for k, (wb, mb, cb, applicable) in enumerate(oracle):
        ok &= abs(report.weight_bound[k] - wb) <= 1e-10
        ok &= bool(report.applicable[k]) == applicable

    # skewed responsibilities: component 0 holds r = 3.9 of the mass and is
    # applicable at delta = 0.6; full mean/cov bounds against the oracle
    skew = np.array([[0.99, 0.01], [0.99, 0.01], [0.99, 0.01], [0.93, 0.07]])
    resp = from_probs(skew)
    delta = 0.6
    report = assemble_bounds(resp, data, delta)
    oracle = scalar_bound_report(
        data.points[:, 0].tolist(), skew.tolist(), delta
    )
    for k, (wb, mb, cb, applicable) in enumerate(oracle):
        ok &= abs(report.weight_bound[k] - wb) <= 1e-10
        ok &= bool(report.applicable[k]) == applicable
        if applicable:
            ok &= abs(report.mean_bound[k, 0] - mb) <= 1e-10
            ok &= abs(report.cov_bound[k, 0, 0] - cb) <= 1e-10
            ok &= abs(report.mean_bound_euclid[k] - mb) <= 1e-10

    # both branches of the deviation factor and the boundary between them
    from semgmm.bounds import lambda_mean
    for sd, cap, d_ in ((2.0, 1.0, 0.1), (0.5, 1.0, 0.1)):
        ok &= abs(lambda_mean(sd, cap, d_) - scalar_lambda_dev(sd, cap, d_)) <= 1e-10
    d_ = 0.07
    boundary = math.sqrt(2.0 * math.e * math.log(2.0 / d_)) / math.e
    lo = lambda_mean(boundary * (1 - 1e-12), 1.0, d_)
    hi = lambda_mean(boundary * (1 + 1e-12), 1.0, d_)
    ok &= abs(lo - hi) <= 1e-8 * hi

    conclude(12, "scalar bound-report oracle agreement to 1e-10 incl. branch boundary",
             ok, started, 10)
