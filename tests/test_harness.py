import multiprocessing
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import semgmm.bounds
import semgmm.cli
import semgmm.em
import semgmm.estep
import semgmm.harness
import semgmm.model
import semgmm.sem
from semgmm import (
    DataSet,
    DegeneracyError,
    ExperimentPlan,
    GenSpec,
    MixtureModel,
    load_csv,
    load_model,
    run_bound_experiment,
    run_compare_experiment,
    run_diff_experiment,
    run_likelihood_experiment,
    run_speed_experiment,
    save_csv,
    save_model,
)
from semgmm.harness import (
    OpCounter,
    diff_normalizers,
    effective_delta,
    initial_models,
    model_hash,
    prepare_data,
)
from semgmm.rng import derive_seed, substream


def tiny_plan(tmp_path, **overrides):
    defaults = dict(
        dataset=GenSpec(d=2, k=2, n=300, rng_seed=5),
        k=2,
        rounds=4,
        n_inits=2,
        runs_per_init=3,
        master_seed=5,
        out_dir=str(tmp_path),
    )
    defaults.update(overrides)
    return ExperimentPlan(**defaults)


def read_trace(path):
    comments = []
    rows = []
    header = None
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                comments.append(line)
            elif header is None:
                header = line.split(",")
            else:
                rows.append(line.split(","))
    return comments, header, rows


class TestPlanHelpers:
    def test_profiles(self, tmp_path):
        plan = tiny_plan(tmp_path)
        ci = plan.ci_scale()
        assert (ci.rounds, ci.n_inits, ci.runs_per_init) == (20, 3, 10)
        full = plan.full_scale()
        assert (full.rounds, full.n_inits, full.runs_per_init) == (50, 30, 100)

    def test_effective_delta_default(self, tmp_path):
        plan = tiny_plan(tmp_path, k=3)
        # 1 / (100 * K * (D + 1)) at D = 3
        assert effective_delta(plan, 3) == pytest.approx(1.0 / 1200.0, rel=1e-15)

    def test_effective_delta_override(self, tmp_path):
        plan = tiny_plan(tmp_path, delta=0.02)
        assert effective_delta(plan, 7) == 0.02

    def test_prepare_data_deterministic(self, tmp_path):
        plan = tiny_plan(tmp_path)
        a = prepare_data(plan)
        b = prepare_data(plan)
        np.testing.assert_array_equal(a.points, b.points)

    def test_initial_models_distinct_per_init(self, tmp_path):
        plan = tiny_plan(tmp_path)
        data = prepare_data(plan)
        models = initial_models(plan, data)
        assert len(models) == plan.n_inits
        assert model_hash(models[0]) != model_hash(models[1])

    def test_diff_normalizers(self, tmp_path):
        data = prepare_data(tiny_plan(tmp_path))
        g_mu, g_sigma = diff_normalizers(data)
        delta = data.spread.max()
        assert g_mu == pytest.approx(np.sqrt(2) * delta, rel=1e-14)
        assert g_sigma == pytest.approx(2 * delta**2, rel=1e-14)


class TestLikelihoodExperiment:
    def test_trace_structure(self, tmp_path):
        plan = tiny_plan(tmp_path)
        path = run_likelihood_experiment(plan)
        comments, header, rows = read_trace(path)
        assert header == ["init_id", "algorithm", "round", "stat", "nll"]
        # per init: rounds em rows + rounds * 5 sem stat rows
        assert len(rows) == plan.n_inits * plan.rounds * (1 + 5)
        stats = {r[3] for r in rows if r[1] == "sem"}
        assert stats == {"min", "q1", "median", "q3", "max"}

    def test_quartiles_ordered(self, tmp_path):
        plan = tiny_plan(tmp_path)
        _, _, rows = read_trace(run_likelihood_experiment(plan))
        by_key = {}
        for init_id, algo, rnd, stat, nll in rows:
            if algo == "sem":
                by_key.setdefault((init_id, rnd), {})[stat] = float(nll)
        for stats in by_key.values():
            assert (
                stats["min"] <= stats["q1"] <= stats["median"]
                <= stats["q3"] <= stats["max"]
            )

    def test_em_series_monotone(self, tmp_path):
        plan = tiny_plan(tmp_path, rounds=8)
        _, _, rows = read_trace(run_likelihood_experiment(plan))
        for i in range(plan.n_inits):
            series = [
                float(r[4]) for r in rows if r[0] == str(i) and r[1] == "em"
            ]
            assert len(series) == 8
            for prev, cur in zip(series, series[1:]):
                assert cur <= prev + 1e-9 * abs(prev)


class TestDiffExperiment:
    def test_trace_structure(self, tmp_path):
        plan = tiny_plan(tmp_path)
        path = run_diff_experiment(plan)
        comments, header, rows = read_trace(path)
        assert header == [
            "init_id", "run_id", "round", "component", "param",
            "index_i", "index_j", "raw_diff", "normalized_diff",
        ]
        params = {r[4] for r in rows}
        assert params == {"weight", "mean", "mean_euclid", "cov", "cov_frobenius"}
        d = 2
        per_round_component = 1 + d + 1 + d * d + 1
        assert len(rows) == (
            plan.n_inits * plan.runs_per_init * plan.rounds
            * plan.k * per_round_component
        )

    def test_normalization_applied(self, tmp_path):
        plan = tiny_plan(tmp_path)
        data = prepare_data(plan)
        g_mu, _ = diff_normalizers(data)
        _, _, rows = read_trace(run_diff_experiment(plan, data))
        for r in rows:
            if r[4] == "mean_euclid":
                raw, norm = float(r[7]), float(r[8])
                assert norm == pytest.approx(raw / g_mu, rel=1e-12, abs=1e-300)
            if r[4] == "weight":
                assert r[7] == r[8]


class TestBoundExperiment:
    def test_trace_structure(self, tmp_path):
        plan = tiny_plan(tmp_path, dataset=GenSpec(d=2, k=2, n=2000, rng_seed=6),
                         master_seed=6)
        path = run_bound_experiment(plan)
        comments, header, rows = read_trace(path)
        assert header == [
            "init_id", "run_id", "round", "component",
            "actual_euclid", "bound_euclid", "applicable",
        ]
        assert len(rows) == (
            plan.n_inits * plan.runs_per_init * plan.rounds * plan.k
        )
        assert any(c.startswith("# per-check delta") for c in comments)
        for r in rows:
            if r[6] == "1":
                assert r[4] != "" and r[5] != ""
                assert float(r[5]) >= 0.0
            else:
                assert r[4] == "" and r[5] == ""

    def test_never_computes_rho(self, tmp_path, monkeypatch):
        # the trace needs mean bounds only; covariance bounds stay unevaluated
        def forbidden(*args, **kwargs):
            raise AssertionError("compute_rho called by the bound experiment")

        monkeypatch.setattr(semgmm.bounds, "compute_rho", forbidden)
        plan = tiny_plan(tmp_path, dataset=GenSpec(d=2, k=2, n=2000, rng_seed=6),
                         master_seed=6)
        _, _, rows = read_trace(run_bound_experiment(plan))
        assert any(r[6] == "1" for r in rows)

    def test_never_computes_em_covariances(self, tmp_path, monkeypatch):
        # the EM reference of the trace is its means alone
        def forbidden(*args, **kwargs):
            raise AssertionError("EM covariances computed by the bound experiment")

        monkeypatch.setattr(semgmm.em, "_em_params", forbidden)
        plan = tiny_plan(tmp_path, dataset=GenSpec(d=2, k=2, n=2000, rng_seed=6),
                         master_seed=6)
        _, _, rows = read_trace(run_bound_experiment(plan))
        assert any(r[6] == "1" for r in rows)


class TestSpeedExperiment:
    def test_trace_and_counts(self, tmp_path):
        plan = tiny_plan(tmp_path, rounds=3)
        path = run_speed_experiment(plan)
        _, header, rows = read_trace(path)
        assert header == ["algorithm", "iteration", "mults", "wall_ns"]
        assert len(rows) == 2 * 3
        # rounds run in EM/SEM pairs, but rows are written EM first, then SEM
        assert [(r[0], int(r[1])) for r in rows] == [
            (algo, it) for algo in ("em", "sem") for it in (1, 2, 3)
        ]
        n, d, k = 300, 2, 2
        estep = n * k * (d * d + d)
        for algo, it, mults, wall in rows:
            assert int(wall) > 0
            if algo == "em":
                assert int(mults) == estep + n * k * (2 * d + d * d)
            else:
                assert int(mults) == estep + n * d * d

    def test_draws_init_0_alone(self, tmp_path, monkeypatch):
        # an n_inits 3 plan times init 0's model and draws no other
        plan = tiny_plan(tmp_path, rounds=1, n_inits=3)
        data = prepare_data(plan)
        expected = model_hash(initial_models(plan, data)[0])
        drawn = []

        def counted(*args, real=semgmm.harness.initialize):
            drawn.append(real(*args))
            return drawn[-1]

        monkeypatch.setattr(semgmm.harness, "initialize", counted)
        run_speed_experiment(plan, data)
        assert [model_hash(m) for m in drawn] == [expected]

    def test_header_records_thread_settings(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OMP_NUM_THREADS", "1")
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        comments, _, _ = read_trace(run_speed_experiment(tiny_plan(tmp_path, rounds=1)))
        assert any(
            re.fullmatch(r"# nproc \d+ OMP_NUM_THREADS 1 OPENBLAS_NUM_THREADS unset", c)
            for c in comments
        )

    def test_op_counter_formulas(self):
        c = OpCounter()
        c.add_estep(10, 3, 2)
        assert c.mults == 10 * 2 * (9 + 3)
        c = OpCounter()
        c.add_em_mstep(10, 3, 2)
        assert c.mults == 10 * 2 * (6 + 9)
        c = OpCounter()
        c.add_sem_mstep(10, 3)
        assert c.mults == 10 * 9


class TestDeterminism:
    @pytest.mark.parametrize(
        "experiment",
        [run_likelihood_experiment, run_diff_experiment, run_bound_experiment],
        ids=["likelihood", "diff", "bound"],
    )
    def test_jobs_invariant(self, tmp_path, experiment):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        p1 = tiny_plan(tmp_path / "a", n_jobs=1)
        p2 = tiny_plan(tmp_path / "b", n_jobs=2)
        f1 = experiment(p1)
        f2 = experiment(p2)
        assert f1.read_bytes() == f2.read_bytes()

    def test_rerun_identical(self, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        f1 = run_diff_experiment(tiny_plan(tmp_path / "a"))
        f2 = run_diff_experiment(tiny_plan(tmp_path / "b"))
        assert f1.read_bytes() == f2.read_bytes()

    def test_d10_traces_identical_across_blas_threads(self, tmp_path):
        # OpenBLAS splits a matrix-vector product over N differently at 1
        # and 2 threads, so a length-N GEMV anywhere on the EM path would
        # write other bits at the other setting
        script = (
            "import sys\n"
            "from semgmm import ExperimentPlan, GenSpec, run_bound_experiment,"
            " run_compare_experiment\n"
            "from semgmm.harness import prepare_data\n"
            "plan = ExperimentPlan(dataset=GenSpec(d=10, k=10, n=50_000, rng_seed=7), k=10,"
            " rounds=6, n_inits=1, runs_per_init=2, master_seed=7, out_dir=sys.argv[1])\n"
            "data = prepare_data(plan)\n"
            "run_compare_experiment(plan, data)\n"
            "run_bound_experiment(plan, data)\n"
        )
        src = os.path.dirname(os.path.dirname(semgmm.harness.__file__))
        traces = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            out.mkdir()
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            subprocess.run([sys.executable, "-c", script, str(out)], env=env, check=True)
            traces.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert sorted(traces[0]) == ["bound_trace.csv", "diff_trace.csv", "likelihood_trace.csv"]
        assert traces[0] == traces[1]


def run_traces(out, experiment, **overrides):
    """Run one experiment on tiny_plan in a fresh directory; returns the
    (comments, header, rows) and the bytes of each trace it writes."""
    out.mkdir()
    result = experiment(tiny_plan(out, **overrides))
    paths = result if isinstance(result, tuple) else (result,)
    return [read_trace(p) for p in paths], [p.read_bytes() for p in paths]


def force_exclusion(monkeypatch, plan, i, j, error=None):
    """Make every SEM M-step of run j from init i raise error (by default
    DegeneracyError(0, "forced"))."""
    # the run's stream, (master, 2, i, j) in the harness's seeding layout
    target = derive_seed(plan.master_seed, 2, i, j)
    real = semgmm.sem._hard_step
    error = DegeneracyError(0, "forced") if error is None else error

    def hard_step(assign, data, model, cfg, t):
        if cfg.rng_seed == target:
            raise error
        return real(assign, data, model, cfg, t)

    monkeypatch.setattr(semgmm.sem, "_hard_step", hard_step)


class CallLog:
    """Calls recorded as lines "<label> <pid>" in a file, each appended with
    one O_APPEND write, so calls made in forked worker processes are
    counted with the caller's (an in-process list never sees them)."""

    def __init__(self, path):
        self.path = path

    def record(self, label):
        fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
        try:
            os.write(fd, f"{label} {os.getpid()}\n".encode())
        finally:
            os.close(fd)

    def entries(self):
        if not self.path.exists():
            return []
        return [line.split() for line in self.path.read_text().splitlines()]

    def count(self, label):
        return sum(1 for name, _ in self.entries() if name == label)

    def pids(self):
        return {int(pid) for _, pid in self.entries()}


EXPERIMENTS = {
    "likelihood": run_likelihood_experiment,
    "diff": run_diff_experiment,
    "bound": run_bound_experiment,
    "compare": run_compare_experiment,
}


class TestSweep:
    @pytest.mark.parametrize("name", list(EXPERIMENTS))
    def test_excluded_run(self, tmp_path, monkeypatch, name):
        experiment = EXPERIMENTS[name]
        base3, _ = run_traces(tmp_path / "runs3", experiment)
        base2, _ = run_traces(tmp_path / "runs2", experiment, runs_per_init=2)
        force_exclusion(monkeypatch, tiny_plan(tmp_path), 1, 2)
        forced, bytes1 = run_traces(tmp_path / "jobs1", experiment, n_jobs=1)
        _, bytes2 = run_traces(tmp_path / "jobs2", experiment, n_jobs=2)
        assert bytes1 == bytes2
        note = "# excluded: init 1 run 2: component 0: forced"
        for (comments, header, rows), (c3, _, rows3), (_, _, rows2) in zip(forced, base3, base2):
            assert comments == c3 + [note]
            if header[1] == "algorithm":
                # the likelihood statistics of init 1 are over its runs 0 and 1
                expected = [r for r in rows3 if r[0] == "0"] + [r for r in rows2 if r[0] == "1"]
            else:
                expected = [r for r in rows3 if r[:2] != ["1", "2"]]
            assert rows == expected

    def test_compare_single_pass(self, tmp_path, monkeypatch):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        plan = tiny_plan(tmp_path / "a", n_jobs=2)
        singles = [run_likelihood_experiment(plan), run_diff_experiment(plan)]
        calls = CallLog(tmp_path / "calls.log")
        for module, name in ((semgmm.em, "em_round"), (semgmm.sem, "sem_round")):
            def counted(*args, real=getattr(module, name), name=name):
                calls.record(name)
                return real(*args)

            monkeypatch.setattr(module, name, counted)
        paths = run_compare_experiment(tiny_plan(tmp_path / "b", n_jobs=2))
        assert [p.read_bytes() for p in paths] == [p.read_bytes() for p in singles]
        assert calls.count("em_round") == plan.n_inits * plan.rounds
        assert calls.count("sem_round") == plan.n_inits * plan.runs_per_init * plan.rounds
        assert os.getpid() not in calls.pids()

    @pytest.mark.parametrize("experiment", [run_likelihood_experiment, run_compare_experiment])
    def test_likelihood_from_the_next_estep(self, tmp_path, monkeypatch, experiment):
        # each trajectory of R rounds runs R E-steps, and each model's
        # negative log-likelihood comes from the E-step that ran on it, so
        # only the last model of a trajectory needs one more
        plan = tiny_plan(tmp_path, n_jobs=2)
        calls = CallLog(tmp_path / "calls.log")
        real = semgmm.model.component_log_joint

        def counted(*args):
            calls.record("log_joint")
            return real(*args)

        for module in (semgmm.model, semgmm.estep):
            monkeypatch.setattr(module, "component_log_joint", counted)
        experiment(plan)
        trajectories = plan.n_inits + plan.n_inits * plan.runs_per_init
        assert calls.count("log_joint") == trajectories * (plan.rounds + 1)


def force_em_error(monkeypatch, plan, i, error):
    """Make every round of init i's EM trajectory raise error."""
    # the EM repair stream, (master, 3, i) in the harness's seeding layout
    target = derive_seed(plan.master_seed, 3, i)
    real = semgmm.em.em_round

    def em_round(model, data, cfg, t):
        if cfg.rng_seed == target:
            raise error
        return real(model, data, cfg, t)

    monkeypatch.setattr(semgmm.em, "em_round", em_round)


def no_children():
    return multiprocessing.active_children() == []


class TestProcessBackend:
    def test_tasks_run_in_worker_processes(self):
        caller = os.getpid()
        in_process = semgmm.harness._map_runs(lambda key: os.getpid(), range(4), 1)
        assert set(in_process.values()) == {caller}
        pids = set(semgmm.harness._map_runs(lambda key: os.getpid(), range(4), 2).values())
        assert caller not in pids and 1 <= len(pids) <= 2
        assert no_children()

    def test_map_runs_error_keeps_its_type(self):
        def task(key):
            if key == 3:
                raise KeyError("task 3")
            return key

        with pytest.raises(KeyError, match="task 3"):
            semgmm.harness._map_runs(task, range(6), 2)
        assert no_children()

    @pytest.mark.parametrize("name", list(EXPERIMENTS))
    def test_no_process_left(self, tmp_path, name):
        EXPERIMENTS[name](tiny_plan(tmp_path, n_jobs=2))
        assert no_children()

    @pytest.mark.parametrize("name", list(EXPERIMENTS))
    def test_worker_error_reaches_caller(self, tmp_path, monkeypatch, name):
        plan = tiny_plan(tmp_path, n_jobs=2)
        force_exclusion(monkeypatch, plan, 1, 0, FloatingPointError("forced in a run"))
        with pytest.raises(FloatingPointError, match="forced in a run"):
            EXPERIMENTS[name](plan)
        assert no_children()
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("n_jobs", [1, 2])
    @pytest.mark.parametrize("name", ["likelihood", "diff", "compare"])
    def test_em_degeneracy_aborts(self, tmp_path, monkeypatch, name, n_jobs):
        plan = tiny_plan(tmp_path, n_jobs=n_jobs)
        force_em_error(monkeypatch, plan, 1, DegeneracyError(0, "forced in EM"))
        with pytest.raises(DegeneracyError, match="forced in EM"):
            EXPERIMENTS[name](plan)
        assert no_children()
        # no trace is written, so the EM failure never becomes an exclusion
        assert list(tmp_path.iterdir()) == []

    def test_d10_traces_identical_across_n_jobs(self, tmp_path):
        # at N 5e4 OpenBLAS splits the length-N reductions of D10 across its
        # threads, so workers that ran with other BLAS thread settings than
        # the caller would write other bits
        traces = []
        for n_jobs in (1, 2):
            plan = ExperimentPlan(
                dataset=GenSpec(d=10, k=10, n=50_000, rng_seed=3), k=10, rounds=3,
                n_inits=1, runs_per_init=2, master_seed=3,
                out_dir=str(tmp_path / f"jobs{n_jobs}"), n_jobs=n_jobs,
            )
            data = prepare_data(plan)
            paths = [*run_compare_experiment(plan, data), run_bound_experiment(plan, data)]
            traces.append([p.read_bytes() for p in paths])
        assert traces[0] == traces[1]

    def test_n_jobs_needs_fork(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        tiny_plan(tmp_path, n_jobs=1)
        with pytest.raises(ValueError, match="'fork' process start method"):
            tiny_plan(tmp_path, n_jobs=2)
        with pytest.raises(SystemExit) as exc:
            semgmm.cli.main(["compare", "--gen", "2,2,300", "--inits", "1", "--runs", "2",
                             "--rounds", "2", "--jobs", "2", "--out", str(tmp_path)])
        assert exc.value.code == 1
        assert "semgmm: error: n_jobs > 1 needs the 'fork'" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# command-line interface


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "semgmm.cli", *map(str, args)],
        capture_output=True, text=True,
    )


class TestCli:
    def test_gen_outputs(self, tmp_path):
        res = run_cli("gen", "--d", 2, "--k", 2, "--n", 100,
                      "--seed", 3, "--out", tmp_path)
        assert res.returncode == 0
        data = load_csv(tmp_path / "data.csv")
        assert data.n == 100 and data.d == 2
        truth = load_model(tmp_path / "truth_model.txt")
        assert truth.k == 2
        labels = (tmp_path / "labels.csv").read_text().split()
        assert len(labels) == 100

    def test_init_and_fit_pipeline(self, tmp_path):
        run_cli("gen", "--d", 2, "--k", 2, "--n", 200, "--seed", 4,
                "--out", tmp_path)
        model_path = tmp_path / "init.txt"
        res = run_cli("init", "--data", tmp_path / "data.csv", "--k", 2,
                      "--seed", 4, "--out", model_path)
        assert res.returncode == 0
        for cmd in ("fit-em", "fit-sem"):
            out = tmp_path / cmd
            res = run_cli(cmd, "--data", tmp_path / "data.csv",
                          "--model", model_path, "--rounds", 3,
                          "--seed", 4, "--out", out)
            assert res.returncode == 0, res.stderr
            load_model(out / "final_model.txt")

    def test_init_creates_out_directory(self, tmp_path):
        run_cli("gen", "--d", 2, "--k", 2, "--n", 200, "--seed", 4,
                "--out", tmp_path)
        out = tmp_path / "new" / "dir"
        res = run_cli("init", "--data", tmp_path / "data.csv", "--k", 2,
                      "--seed", 4, "--out", out)
        assert res.returncode == 0, res.stderr
        assert load_model(out / "init_model.txt").k == 2

    def test_normalize_command(self, tmp_path):
        (tmp_path / "raw.csv").write_text("0,5\n10,5\n4,5\n")
        res = run_cli("normalize", "--data", tmp_path / "raw.csv",
                      "--out", tmp_path)
        assert res.returncode == 0
        norm = load_csv(tmp_path / "normalized.csv")
        assert norm.points[:, 0].max() == 1.0
        assert (norm.points[:, 1] == 0.0).all()

    def test_compare_command(self, tmp_path):
        res = run_cli("compare", "--gen", "2,2,300", "--seed", 5,
                      "--rounds", 3, "--inits", 2, "--runs", 2,
                      "--out", tmp_path)
        assert res.returncode == 0, res.stderr
        assert (tmp_path / "likelihood_trace.csv").exists()
        assert (tmp_path / "diff_trace.csv").exists()

    def test_speed_command(self, tmp_path):
        res = run_cli("speed", "--gen", "2,2,300", "--seed", 5,
                      "--rounds", 2, "--out", tmp_path)
        assert res.returncode == 0, res.stderr
        assert (tmp_path / "speed_trace.csv").exists()

    @pytest.mark.parametrize("command", ["compare", "bounds", "speed"])
    def test_too_few_points_is_data_error(self, tmp_path, command):
        # N = D = 3: every experiment's trajectories refuse the data before
        # their first round, and no trace is written
        (tmp_path / "few.csv").write_text("0,1,2\n1,0,2\n2,2,0\n")
        out = tmp_path / "out"
        res = run_cli(command, "--data", tmp_path / "few.csv", "--k", 2, "--rounds", 2,
                      "--inits", 1, "--runs", 1, "--out", out)
        assert res.returncode == 2
        assert "semgmm: data error: need N >= D+1 points, got N=3, D=3" in res.stderr
        assert not out.exists()

    def test_usage_error_exit_code(self):
        res = run_cli("fit-em", "--data")  # missing value
        assert res.returncode == 1

    @pytest.mark.parametrize("source", [(), ("--data", "x.csv", "--gen", "2,2,300")])
    def test_data_source_usage_error(self, source):
        res = run_cli("bounds", *source)
        assert res.returncode == 1
        assert "semgmm: error: give exactly one of --data or --gen" in res.stderr

    @pytest.mark.parametrize("flag", ["--inits", "--runs", "--rounds"])
    def test_profile_with_explicit_budget(self, tmp_path, flag):
        res = run_cli("speed", "--gen", "2,2,300", "--profile", "ci", flag, 2,
                      "--out", tmp_path)
        assert res.returncode == 1
        assert ("semgmm: error: --profile cannot be combined with "
                "--inits/--runs/--rounds") in res.stderr
        assert not (tmp_path / "speed_trace.csv").exists()

    def test_profile_alone(self, tmp_path):
        res = run_cli("speed", "--gen", "2,2,300", "--profile", "ci", "--out", tmp_path)
        assert res.returncode == 0, res.stderr
        _, _, rows = read_trace(tmp_path / "speed_trace.csv")
        assert len(rows) == 2 * 20  # the ci profile's 20 rounds per algorithm

    @pytest.mark.parametrize("argv", [
        ("compare", "--gen", "2,2,300", "--rounds", 0),
        ("compare", "--gen", "2,2,300", "--inits", 0),
        ("bounds", "--gen", "2,0,300"),
        ("bounds", "--gen", "2,2,300", "--delta", 2),
        ("speed", "--gen", "2,2,300", "--jobs", 0),
        ("speed", "--gen", "2,2"),
        ("gen", "--d", 2, "--n", 0),
        ("gen", "--d", 2, "--n", 10, "--k", 3, "--overlap", "nan"),
        ("gen", "--d", 2, "--n", 10, "--k", 3, "--overlap", "inf"),
        ("fit-em", "--data", "absent.csv", "--model", "absent.txt", "--rounds", -1),
        ("compare", "--data", "absent.csv", "--k", 0),
        ("init", "--data", "absent.csv", "--k", 0),
        ("gen", "--d", 1, "--n", 100, "--k", 50),
        ("compare", "--gen", "1,50,100"),
    ], ids=["rounds-0", "inits-0", "gen-k-0", "delta-2", "jobs-0", "gen-two-fields",
            "gen-n-0", "gen-overlap-nan", "gen-overlap-inf", "fit-rounds-negative", "compare-k-0", "init-k-0",
            "gen-unplaceable", "compare-gen-unplaceable"])
    def test_rejected_flag_value(self, tmp_path, argv):
        res = run_cli(*argv, "--out", tmp_path)
        assert res.returncode == 1
        assert "semgmm: error: " in res.stderr
        assert "Traceback" not in res.stderr
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ("gen", "--d", 2, "--k", 2, "--n", 100, "--seed", -1),
        ("init", "--data", "{csv}", "--k", 2, "--seed", -1),
        ("fit-em", "--data", "{csv}", "--model", "{model}", "--rounds", 2, "--seed", -1),
        ("fit-sem", "--data", "{csv}", "--model", "{model}", "--rounds", 2, "--seed", -1),
        ("compare", "--gen", "2,2,200", "--rounds", 2, "--inits", 1, "--runs", 1, "--seed", -3),
        ("bounds", "--data", "{csv}", "--k", 2, "--rounds", 2, "--inits", 1, "--runs", 1,
         "--seed", -1),
        ("speed", "--data", "{csv}", "--k", 2, "--rounds", 2, "--seed", -1),
    ], ids=["gen", "init", "fit-em", "fit-sem", "compare", "bounds", "speed"])
    def test_negative_seed_rejected(self, tmp_path, argv):
        # on valid inputs, so that the seed alone is what the command rejects
        run_cli("gen", "--d", 2, "--k", 2, "--n", 200, "--seed", 4, "--out", tmp_path)
        paths = {"csv": tmp_path / "data.csv", "model": tmp_path / "truth_model.txt"}
        out = tmp_path / "out"
        res = run_cli(*(str(a).format(**paths) for a in argv), "--out", out)
        assert res.returncode == 1
        assert f"semgmm: error: seed must be >= 0, got {argv[-1]}" in res.stderr
        assert "Traceback" not in res.stderr
        assert not out.exists()

    def test_unknown_command_exit_code(self):
        res = run_cli("frobnicate")
        assert res.returncode == 1

    def test_data_error_exit_code(self, tmp_path):
        (tmp_path / "bad.csv").write_text("1,notanumber\n")
        res = run_cli("init", "--data", tmp_path / "bad.csv", "--k", 1)
        assert res.returncode == 2
        assert "data error" in res.stderr

    def test_overflowing_point_is_data_error(self, tmp_path):
        # the point at 1e200 squares past the largest float under both
        # components: the E-step's data error is the only line on stderr
        x = substream(36, 0).normal(size=(50, 2))
        x[7] = 1e200
        save_csv(DataSet(x), tmp_path / "far.csv")
        model = MixtureModel([0.5, 0.5], [[0.0, 0.0], [1.0, 1.0]], [np.eye(2), np.eye(2)])
        save_model(model, tmp_path / "model.txt")
        out = tmp_path / "out"
        res = run_cli("fit-em", "--data", tmp_path / "far.csv", "--model", tmp_path / "model.txt",
                      "--rounds", 2, "--out", out)
        assert res.returncode == 2
        assert res.stderr == (
            "semgmm: data error: row 7: point is infinitely unlikely under every component\n"
        )
        assert not out.exists()

    def test_undecodable_csv_exit_code(self, tmp_path):
        (tmp_path / "bad.csv").write_bytes(b"1,2\n3,\xe9\n")
        res = run_cli("init", "--data", tmp_path / "bad.csv", "--k", 1)
        assert res.returncode == 2
        assert "semgmm: data error:" in res.stderr
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize("argv", [
        ("init", "--data", "{dir}", "--k", 1),
        ("fit-em", "--data", "{csv}", "--model", "{dir}", "--rounds", 1),
    ], ids=["init-data-dir", "fit-model-dir"])
    def test_directory_path_is_data_error(self, tmp_path, argv):
        (tmp_path / "ok.csv").write_text("0,1\n1,0\n2,2\n3,1\n")
        paths = {"dir": tmp_path, "csv": tmp_path / "ok.csv"}
        res = run_cli(*(str(a).format(**paths) for a in argv), "--out", tmp_path / "out")
        assert res.returncode == 2
        assert "semgmm: data error:" in res.stderr
        assert "Traceback" not in res.stderr

    def test_missing_file_exit_code(self, tmp_path):
        res = run_cli("init", "--data", tmp_path / "absent.csv", "--k", 1)
        assert res.returncode == 2
