"""Command-line entry point.

Subcommands: gen, init, normalize, fit-em, fit-sem, compare, bounds, speed.
Exit codes: 0 success, 1 usage error, 2 data error, 3 unrecoverable
degeneracy.  All randomness derives from --seed.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .harness import (
    ExperimentPlan,
    run_bound_experiment,
    run_compare_experiment,
    run_speed_experiment,
)
from .em import em_fit
from .ingest import load_csv, load_model, normalize, save_csv, save_model, write_rows
from .model import DataError, DegeneracyError, InvalidModelError
from .rng import check_seed, substream
from .rounds import SemConfig, check_rounds
from .sem import sem_fit
from .synth import (
    GenerationError, GenSpec, check_k, generate_mixture, initialize, sample_dataset
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_DEGENERACY = 3

DEFAULT_ROUNDS = 50
DEFAULT_INITS = 3
DEFAULT_RUNS = 10


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> _Parser:
    p = _Parser(prog="semgmm", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    with_out = argparse.ArgumentParser(add_help=False)
    with_out.add_argument("--out", type=Path, default=Path("."))
    with_seed = argparse.ArgumentParser(add_help=False, parents=[with_out])
    with_seed.add_argument("--seed", type=int, default=0)
    with_k = argparse.ArgumentParser(add_help=False, parents=[with_seed])
    with_k.add_argument("--k", type=int, default=3)

    g = sub.add_parser("gen", parents=[with_k], help="generate a synthetic mixture and data set")
    g.add_argument("--d", type=int, required=True)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--weight-mode", choices=("balanced", "unbalanced"), default="balanced")
    g.add_argument("--overlap", type=float, default=1.5)
    g.set_defaults(run=_cmd_gen)

    i = sub.add_parser("init", parents=[with_k], help="draw an initial model from a data set")
    i.add_argument("--data", type=Path, required=True)
    i.set_defaults(run=_cmd_init)

    nrm = sub.add_parser("normalize", parents=[with_out], help="min-max normalize a data set to [0, 1]")
    nrm.add_argument("--data", type=Path, required=True)
    nrm.set_defaults(run=_cmd_normalize)

    for name, fit in (("fit-em", em_fit), ("fit-sem", sem_fit)):
        f = sub.add_parser(name, parents=[with_seed], help=f"run {name.split('-')[1]} for a fixed round count")
        f.add_argument("--data", type=Path, required=True)
        f.add_argument("--model", type=Path, required=True)
        f.add_argument("--rounds", type=int, default=DEFAULT_ROUNDS)
        f.set_defaults(run=_cmd_fit, fit=fit)

    # the experiment commands add --rounds, --inits and --runs unset, so
    # that an explicit value can be told from a default when --profile is given
    for name, experiment, hlp in (
        ("compare", run_compare_experiment, "paired likelihood and difference traces"),
        ("bounds", run_bound_experiment, "bound-vs-actual mean distance trace"),
        ("speed", run_speed_experiment, "multiplication-count and wall-clock trace"),
    ):
        c = sub.add_parser(name, parents=[with_k], help=hlp)
        c.set_defaults(run=_cmd_experiment, experiment=experiment)
        c.add_argument("--data", type=Path, default=None)
        c.add_argument("--gen", metavar="D,K,N", default=None,
                       help="synthesize data instead of loading --data")
        c.add_argument("--rounds", type=int, default=None)
        c.add_argument("--inits", type=int, default=None)
        c.add_argument("--runs", type=int, default=None)
        c.add_argument("--jobs", type=int, default=1,
                       help="worker processes for the trajectories (1: run in this process)")
        c.add_argument("--profile", choices=("ci", "full"), default=None)
        if name == "bounds":
            c.add_argument("--delta", type=float, default=None)
        else:
            c.set_defaults(delta=None)
    return p


def _usage_error(message: str):
    print(f"semgmm: error: {message}", file=sys.stderr)
    raise SystemExit(EXIT_USAGE)


def _checked(build, **flags):
    """build(**flags), where a ValueError that rejects a flag value is a
    usage error."""
    try:
        return build(**flags)
    except ValueError as exc:
        _usage_error(str(exc))


def _experiment_plan(args) -> ExperimentPlan:
    if (args.data is None) == (args.gen is None):
        _usage_error("give exactly one of --data or --gen")
    budget = (args.inits, args.runs, args.rounds)
    if args.profile is not None and any(v is not None for v in budget):
        _usage_error("--profile cannot be combined with --inits/--runs/--rounds")
    if args.gen is not None:
        try:
            d, k, n = (int(v) for v in args.gen.split(","))
        except ValueError:
            _usage_error("--gen expects D,K,N")
        dataset: str | GenSpec = _checked(GenSpec, d=d, k=k, n=n, rng_seed=args.seed)
        args.k = k
    else:
        dataset = str(args.data)
    plan = _checked(
        ExperimentPlan,
        dataset=dataset,
        k=args.k,
        rounds=DEFAULT_ROUNDS if args.rounds is None else args.rounds,
        n_inits=DEFAULT_INITS if args.inits is None else args.inits,
        runs_per_init=DEFAULT_RUNS if args.runs is None else args.runs,
        master_seed=args.seed,
        delta=args.delta,
        out_dir=str(args.out),
        n_jobs=args.jobs,
    )
    if args.profile == "ci":
        plan = plan.ci_scale()
    elif args.profile == "full":
        plan = plan.full_scale()
    return plan


def _cmd_gen(args) -> int:
    spec = _checked(GenSpec, d=args.d, k=args.k, n=args.n,
                    weight_mode=args.weight_mode, overlap=args.overlap,
                    rng_seed=args.seed)
    truth = generate_mixture(spec, substream(args.seed, 0, 0))
    data, labels = sample_dataset(truth, args.n, substream(args.seed, 0, 1))
    save_model(truth, args.out / "truth_model.txt")
    save_csv(data, args.out / "data.csv")
    write_rows(args.out / "labels.csv", [("%d\n", labels[:, None])])
    return EXIT_OK


def _cmd_init(args) -> int:
    _checked(check_k, k=args.k)
    _checked(check_seed, seed=args.seed)
    data = load_csv(args.data)
    model = initialize(data, args.k, substream(args.seed, 1, 0))
    save_model(model, args.out if args.out.suffix else args.out / "init_model.txt")
    return EXIT_OK


def _cmd_normalize(args) -> int:
    data = load_csv(args.data)
    normalized, record = normalize(data)
    save_csv(normalized, args.out / "normalized.csv")
    record.save(args.out / "normalization.csv")
    return EXIT_OK


def _cmd_fit(args) -> int:
    _checked(check_rounds, rounds=args.rounds)
    cfg = _checked(SemConfig, rng_seed=args.seed)
    data = load_csv(args.data)
    model0 = load_model(args.model)
    traj = args.fit(model0, data, args.rounds, cfg)
    save_model(traj[-1] if traj else model0, args.out / "final_model.txt")
    return EXIT_OK


def _cmd_experiment(args) -> int:
    args.experiment(_experiment_plan(args))
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except GenerationError as exc:
        # the flags ask for a mixture that cannot be placed
        print(f"semgmm: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, InvalidModelError, OSError) as exc:
        print(f"semgmm: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except DegeneracyError as exc:
        print(f"semgmm: unrecoverable degeneracy: {exc}", file=sys.stderr)
        return EXIT_DEGENERACY


if __name__ == "__main__":
    raise SystemExit(main())
