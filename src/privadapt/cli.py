"""Command-line entry point.

Subcommands: gen-synth (emit a synthetic CSV), discrepancy (estimate the
loss gap of a CSV), fit-convex / fit-nonconvex (single private fits), and
sweep (the experiment grid driven by a JSON config).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .convex_solver import ConvexRunConfig, fit_convex
from .core import LossModel, PrivacyBudget, RegularizerConfig, SQUARED, check_epsilon
from .data_io import (
    DatasetManifest,
    SyntheticShiftSpec,
    generate_synthetic,
    load_dataset,
    write_csv,
)
from .discrepancy import discrepancy_dca, discrepancy_grid
from .harness import (
    emit_results,
    raw_d_hat,
    run_sweep,
    spec_from_config,
)
from .mechanisms import derive_rng, privatize_discrepancy
from .nonconvex_solver import NonConvexRunConfig, fit_nonconvex


FIT_NON_PRIVATE = ("objective_value", "grad_mapping_norm")


def _add_fit_args(sub):
    sub.add_argument("--data", required=True, help="CSV with f*,label,domain columns")
    sub.add_argument("--epsilon", type=float, default=math.inf)
    sub.add_argument("--delta", type=float, default=0.01)
    sub.add_argument("--disc-fraction", type=float, default=0.5)
    sub.add_argument("--lam", type=float, default=1.0, help="predictor norm bound")
    sub.add_argument("--alpha", type=float, default=0.5)
    sub.add_argument("--T", type=int, default=None)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--d-hat", default="dca",
                     help="'dca', 'grid', or a fixed value for the discrepancy")


def _fit_common(args, kind: str):
    budget = PrivacyBudget(args.epsilon, args.delta, args.disc_fraction)  # before the CSV
    manifest = DatasetManifest(path=args.data)
    data = load_dataset(manifest)
    model = LossModel(kind=kind, r=manifest.r_target, lam=args.lam)
    rng = derive_rng(args.seed, "cli-fit")
    d_dp = privatize_discrepancy(raw_d_hat(args.d_hat, data, model), model.B,
                                 budget.epsilon_disc, data.n, rng)
    return data, model, budget, d_dp, rng


def _print_result(out: dict, epsilon: float, non_private: tuple) -> None:
    """Print ``out`` as JSON, with a list of its keys computed from the
    target data without noise, and for a finite epsilon a note on stderr."""
    out["non_private"] = [key for key in non_private if key in out]
    print(json.dumps(out))
    if math.isfinite(epsilon):
        print("privadapt: note: the values listed in non_private are computed from the "
              "target data without noise; the privacy guarantee does not cover them",
              file=sys.stderr)


def cmd_gen_synth(args) -> int:
    spec = SyntheticShiftSpec(
        d=args.d,
        source_gaussian_fraction=args.source_fraction,
        target_gaussian_fraction=args.target_fraction,
        label_rule=args.label_rule,
        noise_std=args.noise_std,
    )
    rng = derive_rng(args.seed, "gen-synth")
    data, w_star = generate_synthetic(spec, args.m, args.n, rng)
    write_csv(data, args.out)
    print(json.dumps({"out": args.out, "m": data.m, "n": data.n, "d": data.d,
                      "w_star": w_star.tolist()}))
    return 0


def cmd_discrepancy(args) -> int:
    check_epsilon(args.epsilon)  # before the CSV
    manifest = DatasetManifest(path=args.data)
    data = load_dataset(manifest)
    model = LossModel(kind=SQUARED, r=manifest.r_target, lam=args.lam)
    est = (discrepancy_grid if args.solver == "grid" else discrepancy_dca)(data, model)
    d_dp = privatize_discrepancy(est.d_hat, model.B, args.epsilon, data.n,
                                 derive_rng(args.seed, "cli-discrepancy"))
    _print_result({"d_hat": est.d_hat, "d_dp": d_dp, "solver": est.solver,
                   "witness_w": est.witness_w.tolist()}, args.epsilon, ("d_hat", "witness_w"))
    return 0


def cmd_fit_convex(args) -> int:
    data, model, budget, d_dp, rng = _fit_common(args, SQUARED)
    reg = RegularizerConfig(alpha=args.alpha, kappa1=args.kappa1,
                            kappa2=args.kappa2, kappa_inf=args.kappa_inf)
    result = fit_convex(data, budget, reg, ConvexRunConfig(T=args.T), model, d_dp=d_dp, rng=rng)
    _print_result(result.to_dict() | {"d_dp": d_dp}, args.epsilon, FIT_NON_PRIVATE)
    return 0


def cmd_fit_nonconvex(args) -> int:
    data, model, budget, d_dp, rng = _fit_common(args, args.loss)
    reg = RegularizerConfig(alpha=args.alpha, lambda1=args.lambda1,
                            lambda2=args.lambda2, lambda_inf=args.lambda_inf,
                            mu=args.mu)
    result = fit_nonconvex(data, budget, reg, NonConvexRunConfig(T=args.T),
                           model, d_dp=d_dp, rng=rng)
    _print_result(result.to_dict() | {"d_dp": d_dp}, args.epsilon, FIT_NON_PRIVATE)
    return 0


def cmd_sweep(args) -> int:
    with open(args.spec) as fh:
        cfg = json.load(fh)
    try:
        spec = spec_from_config(cfg)
    except TypeError as exc:  # a value of the wrong type, such as a string for delta
        raise ValueError(f"{args.spec}: {exc}") from None
    try:  # a bad spec or CSV raises ValueError or OSError before any cell runs
        result = run_sweep(spec)
    except RuntimeError as exc:  # a failed cell, or a dead worker (BrokenProcessPool)
        print(f"sweep failed: {exc}", file=sys.stderr)
        return 1
    emit_results(result, args.out)
    print(json.dumps({"records": len(result.records), "out": args.out,
                      "wall_time": result.wall_time}))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="privadapt",
        description="Differentially private supervised domain adaptation")
    subs = parser.add_subparsers(dest="command", required=True)

    g = subs.add_parser("gen-synth", help="generate a synthetic shifted dataset")
    g.add_argument("--out", required=True)
    g.add_argument("--d", type=int, default=2)
    g.add_argument("--m", type=int, default=1000)
    g.add_argument("--n", type=int, default=1000)
    g.add_argument("--source-fraction", type=float, default=0.95)
    g.add_argument("--target-fraction", type=float, default=0.05)
    g.add_argument("--label-rule", default="linear_regression",
                   choices=["linear_regression", "linear_classification"])
    g.add_argument("--noise-std", type=float, default=0.0)
    g.add_argument("--seed", type=int, default=0)
    g.set_defaults(func=cmd_gen_synth)

    dsc = subs.add_parser("discrepancy", help="estimate the loss-gap discrepancy")
    dsc.add_argument("--data", required=True)
    dsc.add_argument("--solver", default="dca", choices=["dca", "grid"])
    dsc.add_argument("--lam", type=float, default=1.0)
    dsc.add_argument("--epsilon", type=float, default=math.inf,
                     help="budget for the Laplace release; inf = no noise")
    dsc.add_argument("--seed", type=int, default=0)
    dsc.set_defaults(func=cmd_discrepancy)

    fc = subs.add_parser("fit-convex", help="private fit, squared loss")
    _add_fit_args(fc)
    fc.add_argument("--kappa1", type=float, default=0.0)
    fc.add_argument("--kappa2", type=float, default=0.0)
    fc.add_argument("--kappa-inf", type=float, default=0.0)
    fc.set_defaults(func=cmd_fit_convex)

    fn = subs.add_parser("fit-nonconvex", help="private fit, smooth losses")
    _add_fit_args(fn)
    fn.add_argument("--loss", default="logistic", choices=["logistic", "squared"])
    fn.add_argument("--lambda1", type=float, default=0.0)
    fn.add_argument("--lambda2", type=float, default=0.0)
    fn.add_argument("--lambda-inf", type=float, default=0.0)
    fn.add_argument("--mu", type=float, default=None,
                    help="softmax sharpness; default sqrt(m+n)")
    fn.set_defaults(func=cmd_fit_nonconvex)

    sw = subs.add_parser("sweep", help="run an (epsilon, n) experiment grid")
    sw.add_argument("--spec", required=True, help="JSON config file")
    sw.add_argument("--out", required=True, help="JSONL output path")
    sw.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # bad input: one line and argparse's usage-error code
        print(f"privadapt: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
