"""Command-line front end: train, evaluate, predict, importance.

Every run is reproducible from its flags and seed. Each flag can also be
supplied through an environment variable named CHURNNET_<FLAG> with the
flag spelled in upper case and dashes as underscores (CHURNNET_ETA,
CHURNNET_MAX_EPOCHS, ...); explicit flags win over environment values,
which win over defaults. Reports print to stdout in a human table by
default; --format machine emits one JSON object per line with stable keys.
Logs and warnings go to stderr. Exit status is 0 only when the requested
artifact was fully written or printed.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys

from . import data, model
from .errors import ChurnNetError, ConfigError

log = logging.getLogger(__name__)

ENV_PREFIX = "CHURNNET_"

_CONFIG_FLAGS = {
    "eta": float,
    "alpha": float,
    "max_epochs": int,
    "patience": int,
    "holdout": float,
    "hidden_min": int,
    "hidden_max": int,
    "seed": int,
}


def _defaults() -> dict:
    """Flag defaults: the training ones as TrainingConfig() has them."""
    config = model.TrainingConfig()
    hidden_min, hidden_max = config.hidden_range
    return {
        "eta": config.eta,
        "alpha": config.alpha,
        "max_epochs": config.max_epochs,
        "patience": config.patience,
        "holdout": config.holdout_fraction,
        "hidden_min": hidden_min,
        "hidden_max": hidden_max,
        "seed": config.seed,
        "format": "human",
    }


_DEFAULTS = _defaults()


def _resolve(name: str, flag_value, convert):
    """Flag > environment > default, with typed env parsing."""
    if flag_value is not None:
        return flag_value
    env_name = ENV_PREFIX + name.upper()
    raw = os.environ.get(env_name)
    if raw is not None:
        try:
            return convert(raw)
        except ValueError:
            raise ConfigError(f"{env_name} must be a {convert.__name__}, got {raw!r}") from None
    return _DEFAULTS.get(name)


def _machine(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True)


def _training_config(args) -> model.TrainingConfig:
    values = {
        name: _resolve(name, getattr(args, name), conv)
        for name, conv in _CONFIG_FLAGS.items()
    }
    return model.TrainingConfig(
        eta=values["eta"],
        alpha=values["alpha"],
        max_epochs=values["max_epochs"],
        patience=values["patience"],
        holdout_fraction=values["holdout"],
        hidden_range=(values["hidden_min"], values["hidden_max"]),
        seed=values["seed"],
    )


def _format_of(args) -> str:
    fmt = _resolve("format", args.format, str)
    if fmt not in ("human", "machine"):
        raise ConfigError(f"--format must be human or machine, got {fmt!r}")
    return fmt


def cmd_train(args) -> int:
    config = _training_config(args)
    fmt = _format_of(args)
    records = data.parse_csv(args.data)
    trained = model.train(records, config)

    if fmt == "machine":
        for c in trained.summary.candidates:
            print(_machine({
                "hidden": c.hidden,
                "epochs_run": c.epochs_run,
                "best_epoch": c.best_epoch,
                "holdout_accuracy": c.holdout_accuracy,
            }))
        print(_machine({
            "winner_hidden": trained.topology[1],
            "holdout_accuracy": trained.summary.holdout_accuracy,
            "model_path": args.model,
        }))
    else:
        print(f"{'hidden':>6}  {'epochs':>6}  {'best':>5}  holdout accuracy")
        for c in trained.summary.candidates:
            print(
                f"{c.hidden:>6}  {c.epochs_run:>6}  {c.best_epoch:>5}  "
                f"{c.holdout_accuracy:.4f}"
            )
        print(
            f"winner: hidden={trained.topology[1]} "
            f"(holdout accuracy {trained.summary.holdout_accuracy:.4f})"
        )
    model.save_model(trained, args.model)
    log.info("model written to %s", args.model)
    return 0


def _print_matrix(report: model.EvalReport) -> None:
    (tn, fp), (fn, tp) = report.confusion
    (pn, pp), (qn, qp) = report.row_percentages
    corner = "actual \\ predicted"
    print(f"{corner:>20}  {'false':>16}  {'true':>16}")
    print(f"{'false':>20}  {tn:>6} ({pn:6.3f}%)  {fp:>6} ({pp:6.3f}%)")
    print(f"{'true':>20}  {fn:>6} ({qn:6.3f}%)  {tp:>6} ({qp:6.3f}%)")
    print(f"overall accuracy: {report.overall_accuracy:.4f} ({report.total} records)")


def cmd_evaluate(args) -> int:
    fmt = _format_of(args)
    trained = model.load_model(args.model)
    records = data.parse_csv(args.data)
    report = model.evaluate(trained, records)
    if fmt == "machine":
        (tn, fp), (fn, tp) = report.confusion
        (pn, pp), (qn, qp) = report.row_percentages
        print(_machine({
            "actual": "false", "predicted_false": tn, "predicted_true": fp,
            "pct_false": pn, "pct_true": pp,
        }))
        print(_machine({
            "actual": "true", "predicted_false": fn, "predicted_true": tp,
            "pct_false": qn, "pct_true": qp,
        }))
        print(_machine({
            "overall_accuracy": report.overall_accuracy,
            "loyal_recall": report.loyal_recall,
            "churner_recall": report.churner_recall,
            "total": report.total,
        }))
    else:
        _print_matrix(report)
    return 0


def cmd_predict(args) -> int:
    trained = model.load_model(args.model)
    header, rows = data.read_raw_csv(args.data)
    colmap = data.map_header(header, require_label=False)
    records, kept = data.parse_rows(rows, colmap, args.data)

    predictions = model.predict_batch(trained, records)
    with data.open_atomic(args.out, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(header) + ["N_churn", "NC_churn"])
        for i, pred in zip(kept, predictions):
            writer.writerow(
                list(rows[i])
                + ["true" if pred.predicted_churn else "false", repr(pred.confidence)]
            )
    log.info("wrote %d predictions to %s", len(predictions), args.out)
    return 0


def cmd_importance(args) -> int:
    fmt = _format_of(args)
    seed = _resolve("seed", args.seed, int)
    trained = model.load_model(args.model)
    records = data.parse_csv(args.data)
    report = model.importance(trained, records, seed=seed)
    if fmt == "machine":
        for field, score in report.entries:
            print(_machine({"field": field, "score": score}))
    else:
        width = max(len(f) for f, _ in report.entries)
        print(f"{'field':<{width}}  relative importance")
        for field, score in report.entries:
            print(f"{field:<{width}}  {score:.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="churnnet",
        description="Train and apply a neural-network churn classifier.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p, model_required=True):
        p.add_argument("--data", required=True, help="input CSV path")
        p.add_argument("--model", required=model_required, help="model file path")
        p.add_argument("--format", choices=["human", "machine"], default=None,
                       help="report format (default human)")

    p_train = sub.add_parser("train", help="fit a model and write it to --model")
    add_common(p_train)
    p_train.add_argument("--eta", type=float, default=None, help="learning rate")
    p_train.add_argument("--alpha", type=float, default=None, help="momentum")
    p_train.add_argument("--max-epochs", type=int, default=None, dest="max_epochs")
    p_train.add_argument("--patience", type=int, default=None,
                         help="epochs without holdout improvement before stopping")
    p_train.add_argument("--holdout", type=float, default=None,
                         help="holdout fraction in (0,1)")
    p_train.add_argument("--hidden-min", type=int, default=None, dest="hidden_min")
    p_train.add_argument("--hidden-max", type=int, default=None, dest="hidden_max")
    p_train.add_argument("--seed", type=int, default=None)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("evaluate", help="confusion matrix on a labeled CSV")
    add_common(p_eval)
    p_eval.set_defaults(func=cmd_evaluate)

    p_pred = sub.add_parser("predict", help="append N_churn/NC_churn columns")
    add_common(p_pred)
    p_pred.add_argument("--out", required=True, help="output CSV path")
    p_pred.set_defaults(func=cmd_predict)

    p_imp = sub.add_parser("importance", help="permutation field importance")
    add_common(p_imp)
    p_imp.add_argument("--seed", type=int, default=None, help="permutation seed")
    p_imp.set_defaults(func=cmd_importance)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(
        stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(message)s"
    )
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ChurnNetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
