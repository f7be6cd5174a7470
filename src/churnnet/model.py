"""Training orchestration, scoring, evaluation, field importance, persistence.

Training searches single-hidden-layer topologies over a configurable width
range. Every candidate trains on the same train/holdout partition with its
own deterministically derived init and shuffle streams, monitors holdout
accuracy after each epoch, and keeps the best-scoring snapshot
(patience-based early stop). The candidates train in lockstep, one online
step each at a time, bit-identically to training each on its own. The
winner is the candidate with the highest holdout accuracy, smaller hidden
layer on ties.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import math
import typing
from dataclasses import dataclass, asdict

import numpy as np

from . import data
from .errors import ConfigError, EvaluationError, TrainingError
from .network import (
    LearningParams,
    LockstepBatch,
    Network,
    forward_batch,
    init_network,
    train_example,  # noqa: F401  the reference step; perfbench/layers.py wraps it here
)

log = logging.getLogger(__name__)

MODEL_FORMAT_VERSION = 1


@dataclass
class TrainingConfig:
    eta: float = 0.3
    alpha: float = 0.9
    max_epochs: int = 200
    patience: int = 20
    holdout_fraction: float = 0.25
    hidden_range: tuple[int, int] = (3, 7)
    seed: int = 0

    def __post_init__(self):
        LearningParams(self.eta, self.alpha)  # range check
        if self.max_epochs < 1:
            raise ConfigError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if self.patience < 1:
            raise ConfigError(f"patience must be >= 1, got {self.patience}")
        if not 0.0 < self.holdout_fraction < 1.0:
            raise ConfigError(
                f"holdout_fraction must be in (0, 1), got {self.holdout_fraction}"
            )
        lo, hi = self.hidden_range
        if lo > hi or lo < 1 or hi > 64:
            raise ConfigError(
                f"hidden_range must be a non-empty interval within [1, 64], got {self.hidden_range}"
            )
        _check_seed(self.seed)

    @property
    def params(self) -> LearningParams:
        return LearningParams(self.eta, self.alpha)


def _check_seed(seed: int) -> None:
    # numpy's generators take no negative seed
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")


@dataclass
class CandidateResult:
    """Outcome of one hidden-layer width in the topology search."""

    hidden: int
    epochs_run: int
    best_epoch: int
    holdout_accuracy: float


@dataclass
class TrainingSummary:
    epochs_run: int
    best_epoch: int
    holdout_accuracy: float
    seed: int
    n_train: int
    n_holdout: int
    candidates: list[CandidateResult]


@dataclass
class TrainedModel:
    network: Network
    schema: data.EncodingSchema
    topology: list[int]
    config: TrainingConfig
    summary: TrainingSummary


@dataclass
class Prediction:
    predicted_churn: bool
    confidence: float


@dataclass
class EvalReport:
    """2x2 actual-vs-predicted matrix; rows actual (false, true), columns predicted."""

    confusion: tuple[tuple[int, int], tuple[int, int]]
    row_percentages: tuple[tuple[float, float], tuple[float, float]]
    total: int
    overall_accuracy: float
    loyal_recall: float
    churner_recall: float


@dataclass
class ImportanceReport:
    """Per-field scores in [0,1], sorted descending (ties lexicographic)."""

    entries: list[tuple[str, float]]
    baseline_accuracy: float


def _candidate_seeds(seed: int, hidden: int) -> tuple[int, int]:
    # Well-mixed, collision-free derivation of (init, shuffle) seeds per
    # candidate so all widths are comparable under one top-level seed.
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(hidden,))
    init_seed, shuffle_seed = (int(s) for s in ss.generate_state(2))
    return init_seed, shuffle_seed


def predicted_classes(net: Network, features: np.ndarray) -> np.ndarray:
    """Boolean churn predictions for a feature matrix; ties resolve to loyal."""
    return decide(forward_batch(net, features))[0]


def _accuracy(net: Network, features: np.ndarray, labels: np.ndarray) -> float:
    return float(np.mean(predicted_classes(net, features) == labels))


@dataclass
class _Candidate:
    """Search state of one hidden-layer width."""

    hidden: int
    shuffle_rng: np.random.Generator
    best_net: Network
    best_acc: float
    best_epoch: int = 0
    stale: int = 0
    epochs_run: int = 0

    @property
    def result(self) -> CandidateResult:
        return CandidateResult(self.hidden, self.epochs_run, self.best_epoch, self.best_acc)


def _search(x_train, t_train, x_hold, y_hold, config) -> list[_Candidate]:
    """Train every width of ``config.hidden_range`` in one lockstep batch.

    Each epoch, every width still running draws its own example order,
    then all of them step through their orders together. After the epoch
    each is checked and scored on the holdout on its own; a width whose
    patience runs out leaves the batch, which is rebuilt from the others.
    Returns the candidates in width order.
    """
    lo, hi = config.hidden_range
    candidates, nets = [], []
    for hidden in range(lo, hi + 1):
        init_seed, shuffle_seed = _candidate_seeds(config.seed, hidden)
        net = init_network([x_train.shape[1], hidden, 2], init_seed)
        candidates.append(_Candidate(
            hidden, np.random.default_rng(shuffle_seed), net.copy(),
            _accuracy(net, x_hold, y_hold),
        ))
        nets.append(net)
    params = config.params
    active = candidates
    batch = LockstepBatch(nets)
    for epoch in range(1, config.max_epochs + 1):
        orders = [c.shuffle_rng.permutation(len(x_train)) for c in active]
        batch.train_epoch(x_train, t_train, orders, params)
        running = []
        for c, net in zip(active, batch.networks):
            if not net.all_finite():
                raise TrainingError(
                    f"non-finite parameter after epoch {epoch} (hidden={c.hidden}); "
                    "lower eta or alpha"
                )
            c.epochs_run = epoch
            acc = _accuracy(net, x_hold, y_hold)
            if acc > c.best_acc:
                c.best_acc, c.best_epoch, c.best_net = acc, epoch, net.copy()
                c.stale = 0
            else:
                c.stale += 1
                if c.stale >= config.patience:
                    continue
            running.append((c, net))
        if not running:
            break
        if len(running) < len(active):
            active = [c for c, _ in running]
            batch = LockstepBatch([net for _, net in running])
    return candidates


def train(records, config: TrainingConfig) -> TrainedModel:
    """Fit the full pipeline: split, encode, search topologies, keep the best.

    Requires at least 50 records with both classes present. Non-convergence
    is not an error; each candidate contributes its best holdout snapshot.
    """
    if len(records) < 50:
        raise TrainingError(f"need at least 50 records to train, got {len(records)}")
    labels_all = [r.churn for r in records]
    if any(l is None for l in labels_all):
        raise TrainingError("training data must be fully labeled")
    if len(set(labels_all)) < 2:
        raise TrainingError("training data contains a single class only")

    train_recs, hold_recs = data.split(records, config.holdout_fraction, config.seed)
    if not train_recs or not hold_recs:
        raise TrainingError(
            f"holdout fraction {config.holdout_fraction} of {len(records)} records leaves "
            f"{len(train_recs)} to train on and {len(hold_recs)} to hold out; both need one"
        )
    schema = data.fit_schema(train_recs)
    x_train, _ = data.encode_features(train_recs, schema)
    t_train = np.array([data.one_hot_target(r.churn) for r in train_recs])
    x_hold, n_unseen = data.encode_features(hold_recs, schema)
    data.warn_unseen(n_unseen)  # the training subset's levels are all seen
    y_hold = np.array([r.churn for r in hold_recs], dtype=bool)

    searched = _search(x_train, t_train, x_hold, y_hold, config)
    winner = None
    for c in searched:
        log.info(
            "candidate hidden=%d: holdout accuracy %.4f (best epoch %d, ran %d)",
            c.hidden, c.best_acc, c.best_epoch, c.epochs_run,
        )
        if winner is None or c.best_acc > winner.best_acc:
            winner = c

    summary = TrainingSummary(
        epochs_run=winner.epochs_run,
        best_epoch=winner.best_epoch,
        holdout_accuracy=winner.best_acc,
        seed=config.seed,
        n_train=len(train_recs),
        n_holdout=len(hold_recs),
        candidates=[c.result for c in searched],
    )
    topology = [schema.feature_width, winner.hidden, 2]
    return TrainedModel(winner.best_net, schema, topology, config, summary)


def decide(outputs) -> tuple[np.ndarray, np.ndarray]:
    """Decision rule on an ``(n, 2)`` array of output activations.

    Row i predicts a churner when its second activation is the larger (a
    tie goes to loyal); its confidence is the winning activation over the
    sum of both, or 0.5 when that sum is not positive, so scaling both
    outputs by any positive constant changes nothing. Returns the
    predictions (bool) and the confidences (float64).
    """
    outputs = np.asarray(outputs, dtype=float)
    loyal, churner = outputs[:, 0], outputs[:, 1]
    predicted = churner > loyal
    total = loyal + churner
    with np.errstate(divide="ignore", invalid="ignore"):
        confidence = np.where(total > 0, np.where(predicted, churner, loyal) / total, 0.5)
    return predicted, confidence


def classify_outputs(outputs) -> tuple[bool, float]:
    """:func:`decide` for one pair of output activations."""
    predicted, confidence = decide(np.reshape(outputs, (1, 2)))
    return bool(predicted[0]), float(confidence[0])


def predict(model: TrainedModel, record) -> Prediction:
    """Score one customer record."""
    return predict_batch(model, [record])[0]


def score(model: TrainedModel, records):
    """:func:`decide` on a CustomerTable or records, with one forward pass.

    Returns the predictions, the confidences and the count of unseen
    categorical values, which the caller logs (``data.warn_unseen``).
    """
    feats, n_unseen = data.encode_features(records, model.schema)
    return (*decide(forward_batch(model.network, feats)), n_unseen)


def predict_batch(model: TrainedModel, records) -> list[Prediction]:
    """Score many records with one forward pass."""
    if not records:
        return []
    predicted, confidence, n_unseen = score(model, records)
    data.warn_unseen(n_unseen)
    return [Prediction(*pc) for pc in zip(predicted.tolist(), confidence.tolist())]


def evaluate(model: TrainedModel, records) -> EvalReport:
    """Confusion matrix of actual (rows) vs predicted (columns) churn."""
    if not records:
        raise EvaluationError("no records to evaluate")
    if any(r.churn is None for r in records):
        raise EvaluationError("evaluation records must carry a churn label")
    actual = np.array([r.churn for r in records], dtype=bool)
    feats, n_unseen = data.encode_features(records, model.schema)
    data.warn_unseen(n_unseen)
    predicted = predicted_classes(model.network, feats)

    tn = int(np.sum(~actual & ~predicted))
    fp = int(np.sum(~actual & predicted))
    fn = int(np.sum(actual & ~predicted))
    tp = int(np.sum(actual & predicted))

    def row_pct(a: int, b: int) -> tuple[float, float]:
        total = a + b
        if total == 0:
            return 0.0, 0.0
        return 100.0 * a / total, 100.0 * b / total

    return EvalReport(
        confusion=((tn, fp), (fn, tp)),
        row_percentages=(row_pct(tn, fp), row_pct(fn, tp)),
        total=len(records),
        overall_accuracy=(tn + tp) / len(records),
        loyal_recall=tn / (tn + fp) if tn + fp else 0.0,
        churner_recall=tp / (fn + tp) if fn + tp else 0.0,
    )


def importance(model: TrainedModel, records, seed: int = 0) -> ImportanceReport:
    """Permutation-based relative importance of every retained input field.

    Each raw field's values are shuffled across records (all derived features
    move together) with a deterministic per-field permutation; the resulting
    accuracy drop, clamped at zero and scaled by the largest drop, is the
    field's score. Fields whose shuffling changes nothing score 0.0.
    """
    _check_seed(seed)
    if not records:
        raise EvaluationError("no records to measure importance on")
    if any(r.churn is None for r in records):
        raise EvaluationError("importance records must carry a churn label")
    if len(records) < 100:
        log.warning(
            "importance measured on only %d records; scores may be noisy", len(records)
        )
    actual = np.array([r.churn for r in records], dtype=bool)
    feats, n_unseen = data.encode_features(records, model.schema)
    # a shuffle moves a field's values between rows, so this count holds for all
    data.warn_unseen(n_unseen)
    baseline = float(np.mean(predicted_classes(model.network, feats) == actual))

    drops: dict[str, float] = {}
    for idx, field in enumerate(model.schema.retained_fields):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(idx,))
        )
        order = rng.permutation(len(records))
        values = [getattr(records[i], field) for i in order]
        shuffled = data.with_field_values(records, field, values)
        sh_feats, _ = data.encode_features(shuffled, model.schema)
        acc = float(np.mean(predicted_classes(model.network, sh_feats) == actual))
        drops[field] = max(0.0, baseline - acc)

    max_drop = max(drops.values())
    scores = {
        f: (d / max_drop if max_drop > 0 else 0.0) for f, d in drops.items()
    }
    entries = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
    return ImportanceReport(entries, baseline)


def model_to_dict(model: TrainedModel) -> dict:
    return {
        "format_version": MODEL_FORMAT_VERSION,
        "config": asdict(model.config),
        "schema": asdict(model.schema),
        "topology": model.topology,
        "weights": [w.tolist() for w in model.network.weights],
        "thresholds": [t.tolist() for t in model.network.thresholds],
        "summary": asdict(model.summary),
    }


def save_model(model: TrainedModel, path) -> None:
    """Persist a model as a self-describing JSON file.

    Floats serialize through repr, so reloading reproduces every weight
    bit-exactly and predictions survive a save/load round trip unchanged.
    The file is written whole or not at all (see data.open_atomic).
    """
    with data.open_atomic(path) as fh:
        json.dump(model_to_dict(model), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _finite_float(token: str) -> float:
    # Parses every JSON number and the NaN/Infinity extensions json accepts.
    value = float(token)
    if not math.isfinite(value):
        raise ConfigError(f"non-finite value {token}")
    return value


def load_model(path) -> TrainedModel:
    """Inverse of save_model; momentum buffers come back zeroed.

    Raises ConfigError, naming the file, unless the file is a whole model:
    valid JSON with every key, only finite numbers, each value of its
    field's type, a schema that data.feature_columns accepts, a topology of
    ``[feature_width, h, 2]`` and weights and thresholds of those shapes.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh, parse_float=_finite_float, parse_constant=_finite_float)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    except ValueError as exc:  # not JSON, or not UTF-8
        raise ConfigError(f"{path}: not a model file: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: not a model file: top level is not a JSON object")
    version = doc.get("format_version")
    if type(version) is not int or version != MODEL_FORMAT_VERSION:  # 1.0 and true equal 1
        raise ConfigError(
            f"{path}: unsupported model format version {version!r}, "
            f"expected {MODEL_FORMAT_VERSION}"
        )
    try:
        loaded = _model_from_dict(doc)
        data.feature_columns(loaded.schema)
    except KeyError as exc:
        raise ConfigError(f"{path}: model file lacks key {exc}") from None
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    except (TypeError, ValueError, AttributeError) as exc:
        raise ConfigError(f"{path}: malformed model file: {exc}") from None

    width, topology = loaded.schema.feature_width, loaded.topology
    if len(topology) != 3 or topology[0] != width or topology[2] != 2 or topology[1] < 1:
        raise ConfigError(f"{path}: topology {topology} is not [{width}, h, 2]")
    net = loaded.network
    want = list(zip(topology[:-1], topology[1:]))
    got_w = [w.shape for w in net.weights]
    got_t = [t.shape for t in net.thresholds]
    if got_w != want or got_t != [(n,) for _, n in want]:
        raise ConfigError(
            f"{path}: weight shapes {got_w} and threshold shapes {got_t} do not fit "
            f"topology {topology}"
        )
    return loaded


def _model_from_dict(doc: dict) -> TrainedModel:
    topology = _from_json(list[int], doc["topology"], "topology")
    weights = _from_json(list[list[list[float]]], doc["weights"], "weights")
    thresholds = _from_json(list[list[float]], doc["thresholds"], "thresholds")
    network = Network(
        topology,
        [np.array(w, dtype=float) for w in weights],
        [np.array(t, dtype=float) for t in thresholds],
    )
    return TrainedModel(
        network,
        _from_json(data.EncodingSchema, doc["schema"], "schema"),
        topology,
        _from_json(TrainingConfig, doc["config"], "config"),
        _from_json(TrainingSummary, doc["summary"], "summary"),
    )


def _from_json(hint, value, where: str):
    """``value`` from a model file, rebuilt as type ``hint``.

    A dataclass comes from an object holding each of its fields (a missing
    one is a KeyError naming it, never the field's default), a list or tuple
    from an array, a dict from an object. Each leaf must already have its
    type; an int passes for a float, a bool for neither.
    """
    origin = typing.get_origin(hint)
    kind = list if origin is tuple else origin or (dict if dataclasses.is_dataclass(hint) else hint)
    if not isinstance(value, (int, float) if kind is float else kind) or isinstance(value, bool):
        raise TypeError(f"{where} must be a {kind.__name__}, got {type(value).__name__}")
    if kind is hint:  # a leaf
        return value
    args = typing.get_args(hint)
    if origin is None:  # a dataclass
        hints, fields = typing.get_type_hints(hint), {}
        for f in dataclasses.fields(hint):
            if f.name not in value:
                raise KeyError(f"{where}.{f.name}")
            fields[f.name] = _from_json(hints[f.name], value[f.name], f"{where}.{f.name}")
        return hint(**fields)
    if kind is dict:
        return {k: _from_json(args[1], v, f"{where}.{k}") for k, v in value.items()}
    items = args if origin is tuple and args[-1] is not Ellipsis else args[:1] * len(value)
    if len(items) != len(value):
        raise ValueError(f"{where} must have {len(items)} items, got {len(value)}")
    return origin(_from_json(a, v, f"{where}[{i}]") for i, (a, v) in enumerate(zip(items, value)))
