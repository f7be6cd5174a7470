"""Command-line front end: train, evaluate, predict, importance.

Every run is reproducible from its flags and seed. Each training flag,
--format and --seed can also be supplied through an environment variable
named CHURNNET_<FLAG> with the flag spelled in upper case and dashes as
underscores (CHURNNET_ETA, CHURNNET_MAX_EPOCHS, ...); explicit flags win
over environment values, which win over the defaults of TrainingConfig.
Reports print to stdout in a human table by default; --format machine
emits one JSON object per line with stable keys. Logs and warnings go to
stderr. Exit status is 0 only when the requested artifact was fully
written or printed.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import asdict

from . import data, model
from .errors import ChurnNetError, ConfigError

log = logging.getLogger(__name__)

ENV_PREFIX = "CHURNNET_"

# Each training flag: the TrainingConfig field it sets, the position it sets
# in a pair field, and its help. Its type and default are those of its value
# in TrainingConfig().
_TRAINING_FLAGS = {
    "eta": ("eta", None, "learning rate"),
    "alpha": ("alpha", None, "momentum"),
    "max_epochs": ("max_epochs", None, "most epochs to train each width"),
    "patience": ("patience", None, "epochs without holdout improvement before stopping"),
    "holdout": ("holdout_fraction", None, "holdout fraction in (0,1)"),
    "hidden_min": ("hidden_range", 0, "smallest hidden width searched"),
    "hidden_max": ("hidden_range", 1, "largest hidden width searched"),
    "seed": ("seed", None, "seed of the split, the initial weights and the shuffles"),
}


def _default(flag: str):
    field, position, _ = _TRAINING_FLAGS[flag]
    value = getattr(model.TrainingConfig(), field)
    return value if position is None else value[position]


def _resolve(name: str, flag_value, default):
    """Flag > environment > default; the environment value takes the default's type."""
    if flag_value is not None:
        return flag_value
    env_name = ENV_PREFIX + name.upper()
    raw = os.environ.get(env_name)
    if raw is None:
        return default
    convert = type(default)
    try:
        return convert(raw)
    except ValueError:
        raise ConfigError(f"{env_name} must be a {convert.__name__}, got {raw!r}") from None


def _machine(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True)


def _training_config(args) -> model.TrainingConfig:
    fields = {}
    for flag, (field, position, _) in _TRAINING_FLAGS.items():
        value = _resolve(flag, getattr(args, flag), _default(flag))
        # a pair field's flags come in position order
        fields[field] = value if position is None else fields.get(field, ()) + (value,)
    return model.TrainingConfig(**fields)


def _format_of(args) -> str:
    fmt = _resolve("format", args.format, "human")
    if fmt not in ("human", "machine"):
        raise ConfigError(f"--format must be human or machine, got {fmt!r}")
    return fmt


def cmd_train(args) -> int:
    config = _training_config(args)
    records = data.parse_csv(args.data)
    trained = model.train(records, config)

    if args.format == "machine":
        for c in trained.summary.candidates:
            print(_machine(asdict(c)))
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
    trained = model.load_model(args.model)
    records = data.parse_csv(args.data)
    report = model.evaluate(trained, records)
    if args.format == "machine":
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
    blocks = data.read_csv_blocks(args.data, data.BLOCK_ROWS)
    header = next(blocks)
    colmap = data.map_header(header, require_label=False)
    colmap.pop(data.LABEL_FIELD, None)  # a label cell is echoed, never parsed

    # One block at a time; the bad-row policy and the warnings cover the
    # whole file once it is read, before the output replaces --out.
    n_kept = n_unseen = 0
    with data.open_atomic(args.out, newline="") as fh:
        fh.write(data.csv_text([header + ["N_churn", "NC_churn"]]))
        for rows, table in data.parse_blocks(args.data, blocks, colmap):
            predicted, confidence, unseen = model.score(trained, table)
            # tolist() first: repr of a numpy float64 is "np.float64(...)"
            fh.write(rows.csv_text(table.kept.tolist(), [
                f"{'true' if p else 'false'},{c!r}"
                for p, c in zip(predicted.tolist(), confidence.tolist())
            ]))
            n_kept += len(table)
            n_unseen += unseen
        data.warn_unseen(n_unseen)
    log.info("wrote %d predictions to %s", n_kept, args.out)
    return 0


def cmd_importance(args) -> int:
    seed = _resolve("seed", args.seed, _default("seed"))
    trained = model.load_model(args.model)
    records = data.parse_csv(args.data)
    report = model.importance(trained, records, seed=seed)
    if args.format == "machine":
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

    def add_common(p):
        p.add_argument("--data", required=True, help="input CSV path")
        p.add_argument("--model", required=True, help="model file path")
        p.add_argument("--format", help="report format, human or machine (default human)")

    p_train = sub.add_parser("train", help="fit a model and write it to --model")
    add_common(p_train)
    for flag, (_, _, text) in _TRAINING_FLAGS.items():
        default = _default(flag)
        p_train.add_argument("--" + flag.replace("_", "-"), type=type(default),
                             help=f"{text} (default {default})")
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
    p_imp.add_argument("--seed", type=int, help="permutation seed")
    p_imp.set_defaults(func=cmd_importance)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(
        stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(message)s"
    )
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.format = _format_of(args)
        return args.func(args)
    except (ChurnNetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
