"""Command-line interface.

Subcommands:
  train       csv -> tree JSON
  prune       tree JSON + csv + lambda (or grid/holdout) -> subtree + path
  stumps      tree JSON + csv -> expansion + identity deviations
  subopt      csv + strategy + kappa -> sub-optimality report
  experiment  config JSON -> rate/fast-rate/pruning report files
  generate    model spec JSON -> csv

Exit codes: 0 success, 1 input error, 2 assertion failure (a guaranteed
bound was violated).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields, replace

from . import dataset as ds
from . import experiments, pruning, ridge, splitting, stumps, tree


# Each strategy flag's argparse dest, and the SearchStrategy field it
# sets; the flag's default is that field's.
_STRATEGY_FLAGS = dict(
    sparsity="sparsity_d", candidates="num_candidates", restarts="restarts",
    iterations="max_iterations", node_cap="node_cap", seed="seed",
)


def _strategy_from_args(args) -> splitting.SearchStrategy:
    return splitting.SearchStrategy(
        kind=args.strategy, **{name: getattr(args, dest) for dest, name in _STRATEGY_FLAGS.items()}
    )


def _add_strategy_flags(parser):
    parser.add_argument("--strategy", default="axis_aligned", choices=splitting.STRATEGY_KINDS)
    defaults = {f.name: f.default for f in fields(splitting.SearchStrategy)}
    for dest, name in _STRATEGY_FLAGS.items():
        parser.add_argument(f"--{dest.replace('_', '-')}", type=int, default=defaults[name])


def _write_json(payload: dict, out: str | None) -> None:
    text = ds._json_text(payload)
    if out:
        with open(out, "w") as handle:
            handle.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _read_json(path: str) -> dict:
    with open(path) as handle:
        return ds._named(path, json.loads, handle.read())


def _cmd_train(args) -> int:
    data = ds.load_csv(args.csv, args.response)
    strategy = _strategy_from_args(args)
    grown = tree.grow(data, strategy, args.depth, args.min_node_size)
    _write_json(tree.to_dict(grown), args.out)
    return 0


def _cmd_prune(args) -> int:
    data = ds.load_csv(args.csv, args.response)
    grown = tree.from_dict(_read_json(args.tree))
    sequence = pruning.weakest_link_sequence(grown, data)
    payload = {"sequence": sequence.to_dict()}
    if args.lam is not None:
        selected = sequence.select(grown, args.lam)
        payload["lambda"] = args.lam
        payload["selected"] = tree.to_dict(selected)
    else:
        grid = (
            [float(v) for v in args.grid.split(",")]
            if args.grid
            else pruning.default_lambda_grid(data)
        )
        lam_star, errors = pruning.holdout_lambda(
            data,
            grown.strategy,
            grown.max_depth_reached,
            grid,
            args.holdout,
            args.seed,
            args.min_node_size,
        )
        payload["lambda_grid"] = grid
        payload["holdout_errors"] = errors
        payload["lambda"] = lam_star
        payload["selected"] = tree.to_dict(sequence.select(grown, lam_star))
    _write_json(payload, args.out)
    return 0


def _cmd_stumps(args) -> int:
    data = ds.load_csv(args.csv, args.response)
    grown = tree.from_dict(_read_json(args.tree))
    expansion = stumps.build_expansion(grown, data)
    gram_dev = stumps.verify_orthonormality(expansion, data)
    impurity_dev, worst = stumps._impurity_gap(grown, expansion)
    recon_dev = stumps._reconstruction_gap(grown, expansion, stumps._expansion_rows(grown, expansion))
    payload = {
        "expansion": expansion.to_dict(),
        "gram_deviation": gram_dev,
        "impurity_deviation": impurity_dev,
        "impurity_worst_node": worst,
        "reconstruction_deviation": recon_dev,
    }
    _write_json(payload, args.out)
    return 0


def _cmd_subopt(args) -> int:
    data = ds.load_csv(args.csv, args.response)
    strategy = _strategy_from_args(args)
    report = splitting.estimate_suboptimality(
        data, ds.root_index_set(data), strategy, args.kappa, args.trials
    )
    _write_json(report.to_dict(), args.out)
    return 0


def _cmd_experiment(args) -> int:
    config = experiments.ExperimentConfig.from_dict(_read_json(args.config))
    if args.mc is not None:
        config = replace(config, mc_size=args.mc)
    try:
        report = getattr(experiments, f"run_{args.kind}_experiment")(config)
    except experiments.BoundViolationError as exc:
        if args.out:
            exc.report.write(args.out)
        sys.stderr.write(f"bound violation: {exc}\n")
        return 2
    if args.out:
        report.write(args.out)
    else:
        sys.stdout.write(report.to_json() + "\n")
    return 0


def _cmd_generate(args) -> int:
    model = ridge.RidgeModel.from_dict(_read_json(args.model))
    box = ds._named("--box", json.loads, args.box)
    data = ridge.generate_dataset(model, args.n, args.noise, box, args.seed)
    ds.save_csv(data, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="obliquetree")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="grow a tree from a csv file")
    p_train.add_argument("csv")
    p_train.add_argument("--response", default="y")
    p_train.add_argument("--depth", type=int, default=4)
    p_train.add_argument("--min-node-size", type=int, default=1, dest="min_node_size")
    _add_strategy_flags(p_train)
    p_train.add_argument("--out")
    p_train.set_defaults(func=_cmd_train)

    p_prune = sub.add_parser("prune", help="weakest-link path and subtree selection")
    p_prune.add_argument("tree")
    p_prune.add_argument("csv")
    p_prune.add_argument("--response", default="y")
    p_prune.add_argument("--lambda", type=float, default=None, dest="lam")
    p_prune.add_argument("--grid", default=None, help="comma-separated lambda grid")
    p_prune.add_argument("--holdout", type=float, default=0.3)
    p_prune.add_argument("--seed", type=int, default=0)
    p_prune.add_argument("--min-node-size", type=int, default=1, dest="min_node_size")
    p_prune.add_argument("--out")
    p_prune.set_defaults(func=_cmd_prune)

    p_stumps = sub.add_parser("stumps", help="expansion and identity deviations")
    p_stumps.add_argument("tree")
    p_stumps.add_argument("csv")
    p_stumps.add_argument("--response", default="y")
    p_stumps.add_argument("--out")
    p_stumps.set_defaults(func=_cmd_stumps)

    p_subopt = sub.add_parser("subopt", help="sub-optimality probability report")
    p_subopt.add_argument("csv")
    p_subopt.add_argument("--response", default="y")
    p_subopt.add_argument("--kappa", type=float, required=True)
    p_subopt.add_argument("--trials", type=int, default=1)
    _add_strategy_flags(p_subopt)
    p_subopt.add_argument("--out")
    p_subopt.set_defaults(func=_cmd_subopt)

    p_exp = sub.add_parser("experiment", help="run a configured experiment")
    p_exp.add_argument("config")
    p_exp.add_argument("--kind", default="rate", choices=("rate", "fast_rate", "pruning"))
    p_exp.add_argument("--mc", type=int, default=None, help="override the config's Monte Carlo size")
    p_exp.add_argument("--out", help="output file prefix")
    p_exp.set_defaults(func=_cmd_experiment)

    p_gen = sub.add_parser("generate", help="sample a csv from a ridge model spec")
    p_gen.add_argument("model")
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--noise", type=float, default=0.0)
    p_gen.add_argument("--box", required=True, help='JSON box, e.g. "[[0,1],[0,1]]"')
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=_cmd_generate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
