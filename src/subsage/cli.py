"""Command-line frontend: simulate | train | rank | subsage | convert.

Exit codes: 0 success, 1 usage error, 2 data or model error, 3 numerical
failure. Every command is deterministic given its flags; all stochastic
paths take explicit seeds.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from itertools import zip_longest
from pathlib import Path

from . import bootstrap as bs
from .dataset import csv_writer, load_csv, write_csv
from .errors import InputError, NumericalError
from .estimator import LossKind
from .shap_erfc import erfc, rank_features, shap_exact
from .synthetic import COEFFICIENTS, SyntheticConfig, config_sidecar, generate_synthetic
from .trainer import TrainConfig, train
from .tree_model import (
    OBJECTIVES,
    annotate_probabilities,
    import_xgb_dump,
    load_model,
    write_model,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

_LOSS_BY_NAME = {
    "squared": LossKind.SQUARED_ERROR,
    "squared_error": LossKind.SQUARED_ERROR,
    "logistic": LossKind.BINARY_CROSS_ENTROPY,
    "binary_cross_entropy": LossKind.BINARY_CROSS_ENTROPY,
}


class _UsageExit(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageExit(message)


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message, file=sys.stderr)


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def build_parser() -> _Parser:
    parser = _Parser(prog="subsage", description=__doc__)
    parser.add_argument("--quiet", action="store_true",
                        help="suppress progress messages")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="write a synthetic benchmark dataset")
    sim.add_argument("--n", type=_positive_int, required=True)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out-dir", default=".")
    for name in (*COEFFICIENTS, "sigma-eps"):
        sim.add_argument(f"--{name}", type=float, default=None)
    sim.add_argument("--noise-seed", type=int, default=None)

    tr = sub.add_parser("train", help="fit a boosted tree ensemble")
    tr.add_argument("--train", required=True)
    tr.add_argument("--valid", required=True)
    tr.add_argument("--response", default="y")
    tr.add_argument("--loss", choices=sorted(_LOSS_BY_NAME), default="squared")
    tr.add_argument("--rounds", type=_positive_int, default=100)
    tr.add_argument("--eta", type=float, default=0.1)
    tr.add_argument("--max-depth", type=int, default=2)
    tr.add_argument("--subsample", type=float, default=1.0)
    tr.add_argument("--colsample", type=float, default=1.0)
    tr.add_argument("--lambda", dest="reg_lambda", type=float, default=1.0)
    tr.add_argument("--gamma", dest="min_gain", type=float, default=0.0)
    tr.add_argument("--early-stop", type=int, default=0)
    tr.add_argument("--seed", type=int, default=0)
    tr.add_argument("--out", required=True)

    rk = sub.add_parser("rank", help="rank features by ERFC score")
    rk.add_argument("--model", required=True)
    rk.add_argument("--data", required=True)
    rk.add_argument("--response", default="y")
    rk.add_argument("--top", type=_positive_int, default=10)

    sg = sub.add_parser("subsage", help="sub-SAGE estimates with bootstrap intervals")
    sg.add_argument("--model", required=True)
    sg.add_argument("--test", required=True)
    sg.add_argument("--response", default="y")
    sg.add_argument("--feature", action="append", required=True,
                    help="feature name; repeatable")
    sg.add_argument("--loss", choices=sorted(_LOSS_BY_NAME), default="squared")
    sg.add_argument("--bootstrap", type=_positive_int, default=1000, metavar="B")
    sg.add_argument("--alpha", type=float, default=0.025)
    sg.add_argument("--bca", choices=bs.BCA_MODES, default="off")
    sg.add_argument("--seed", type=int, default=0)
    sg.add_argument("--emit-draws", action="store_true")
    sg.add_argument("--hist-csv", default=None,
                    help="write per-draw values as CSV for plotting")
    sg.add_argument("--train-path", default=None,
                    help="training data path, used only to warn on overlap")
    sg.add_argument("--out", required=True)

    cv = sub.add_parser("convert", help="convert a boosted-tree JSON dump")
    cv.add_argument("--in", dest="src", required=True)
    cv.add_argument("--out", required=True)
    cv.add_argument("--objective", choices=OBJECTIVES, default="regression")
    cv.add_argument("--base-score", type=float, default=0.0)
    cv.add_argument("--n-features", type=int, default=None)
    return parser


def _cmd_simulate(args) -> int:
    given = {name: vars(args)[name] for name in (*COEFFICIENTS, "sigma_eps", "noise_seed")}
    overrides = {name: value for name, value in given.items() if value is not None}
    cfg = SyntheticConfig(n=args.n, seed=args.seed, **overrides)
    data = generate_synthetic(cfg)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "synthetic.csv"
    write_csv(data, csv_path)
    sidecar = out_dir / "synthetic_config.json"
    sidecar.write_text(json.dumps(config_sidecar(cfg), indent=1) + "\n")
    _say(args, f"wrote {csv_path} ({data.n_rows} rows) and {sidecar}")
    return EXIT_OK


def _cmd_train(args) -> int:
    train_data = load_csv(args.train, response=args.response)
    valid_data = load_csv(args.valid, response=args.response)
    pairs = zip_longest(train_data.feature_names, valid_data.feature_names)
    for i, (a, b) in enumerate(pairs, 1):
        if a != b:
            raise InputError(f"--train {args.train} and --valid {args.valid} differ at feature "
                             f"column {i}: {a!r} vs {b!r}")
    cfg = TrainConfig(
        learning_rate=args.eta,
        max_depth=args.max_depth,
        subsample=args.subsample,
        colsample=args.colsample,
        reg_lambda=args.reg_lambda,
        min_gain=args.min_gain,
        max_rounds=args.rounds,
        early_stopping_rounds=args.early_stop,
        loss=_LOSS_BY_NAME[args.loss],
        seed=args.seed,
    )
    model = train(train_data, valid_data, cfg)
    write_model(model, args.out)
    _say(args, f"wrote {args.out} ({model.n_trees} trees)")
    return EXIT_OK


def _model_and_data(model_path, data_path, response):
    """The model and the CSV, which must have one column per model feature."""
    model = load_model(model_path)
    data = load_csv(data_path, response=response)
    if data.n_cols != model.n_features:
        raise InputError(f"{data_path} has {data.n_cols} features, "
                         f"model {model_path} expects {model.n_features}")
    return model, data


def _cmd_rank(args) -> int:
    model, data = _model_and_data(args.model, args.data, args.response)
    annotated = annotate_probabilities(model, data)
    kappa = erfc(shap_exact(annotated, data))
    ranked = rank_features(kappa, min(args.top, data.n_cols))
    out = csv_writer(sys.stdout, [data.feature_names[k] for k, _ in ranked])
    out.writerow(("feature_name", "kappa"))
    out.writerows((data.feature_names[k], repr(score)) for k, score in ranked)
    return EXIT_OK


def _cmd_subsage(args) -> int:
    if args.train_path is not None and Path(args.train_path).resolve() == Path(args.test).resolve():
        warnings.warn("--test equals --train-path; sub-SAGE estimates on training data are biased")
    model, test = _model_and_data(args.model, args.test, args.response)
    loss = _LOSS_BY_NAME[args.loss]
    cfg = bs.BootstrapConfig(
        n_draws=args.bootstrap, alpha=args.alpha, seed=args.seed, bca=args.bca
    )
    features = list(dict.fromkeys(args.feature))
    ks = [test.feature_index(f) for f in features]
    for k in ks:
        bs.check_subset_keys(test.feature_names, k)
    results = [bs.paired_bootstrap(model, k, test, loss, cfg) for k in ks]

    reports = [
        bs.report_dict(r, test.feature_names, include_draws=args.emit_draws)
        for r in results
    ]
    Path(args.out).write_text(json.dumps(reports, indent=1) + "\n")

    if args.hist_csv:
        with open(args.hist_csv, "w", newline="", encoding="utf-8") as fh:
            out = csv_writer(fh, features)
            out.writerow(("feature", "iteration", "value"))
            for name, result in zip(features, results):
                out.writerows((name, i, v) for i, v in enumerate(result.draws.tolist(), start=1))

    print(f"{'feature':>10} {'psi_hat':>12} {'lo':>12} {'hi':>12}")
    for name, r in zip(features, results):
        lo, hi = r.percentile
        print(f"{name:>10} {r.point_estimate:>12.5g} {lo:>12.5g} {hi:>12.5g}")
    _say(args, f"wrote {args.out}")
    return EXIT_OK


def _cmd_convert(args) -> int:
    model = import_xgb_dump(
        args.src,
        objective=args.objective,
        base_score=args.base_score,
        n_features=args.n_features,
    )
    write_model(model, args.out)
    _say(args, f"wrote {args.out} ({model.n_trees} trees)")
    return EXIT_OK


_COMMANDS = {
    "simulate": _cmd_simulate,
    "train": _cmd_train,
    "rank": _cmd_rank,
    "subsage": _cmd_subsage,
    "convert": _cmd_convert,
}


# Destinations of the flags naming files that commands read, then of those
# naming files they write. --train-path is never read, but names training data.
_READS, _WRITES = ("train", "valid", "model", "test", "train_path", "src"), ("out", "hist_csv")


def _check_outputs(args) -> None:
    """Reject an output flag naming the file of an input or of another
    output, before any file is read or written."""
    seen: dict[Path, str] = {}
    for dest in (*_READS, *_WRITES):
        value = vars(args).get(dest)
        if value is None:
            continue
        flag = "--in" if dest == "src" else "--" + dest.replace("_", "-")
        path = Path(value).resolve()
        if dest in _WRITES and path in seen:
            raise _UsageExit(f"{flag} and {seen[path]} name the same file {value}")
        seen.setdefault(path, flag)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _check_outputs(args)
    except _UsageExit as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        with warnings.catch_warnings():
            warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
            return _COMMANDS[args.command](args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
