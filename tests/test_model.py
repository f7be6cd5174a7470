"""Tests for training orchestration, scoring, evaluation, importance, persistence."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from churnnet import (
    ConfigError,
    EvaluationError,
    TrainingConfig,
    TrainingError,
    data,
    evaluate,
    forward_batch,
    importance,
    load_model,
    predict,
    predict_batch,
    save_model,
    train,
)
from churnnet import model
from churnnet.model import CandidateResult, classify_outputs
from churnnet.network import init_network, train_example


class TestTrainingConfig:
    def test_defaults(self):
        cfg = TrainingConfig()
        assert (cfg.eta, cfg.alpha) == (0.3, 0.9)
        assert (cfg.max_epochs, cfg.patience) == (200, 20)
        assert cfg.holdout_fraction == 0.25
        assert cfg.hidden_range == (3, 7)

    @pytest.mark.parametrize("kwargs", [
        {"eta": 0.0}, {"alpha": 1.0}, {"max_epochs": 0}, {"patience": 0},
        {"holdout_fraction": 0.0}, {"holdout_fraction": 1.0},
        {"hidden_range": (5, 3)}, {"hidden_range": (0, 4)}, {"seed": -1},
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            TrainingConfig(**kwargs)


class TestTrain:
    def test_topology_and_summary(self, quick_model, quick_config, small_records):
        width = quick_model.schema.feature_width
        assert quick_model.topology[0] == width
        assert quick_model.topology[2] == 2
        assert quick_config.hidden_range[0] <= quick_model.topology[1] <= quick_config.hidden_range[1]
        assert len(quick_model.summary.candidates) == 2
        assert quick_model.summary.n_train + quick_model.summary.n_holdout == len(small_records)
        assert 0.0 <= quick_model.summary.holdout_accuracy <= 1.0

    def test_deterministic(self, quick_model, quick_config, small_records):
        again = train(small_records, quick_config)
        for a, b in zip(quick_model.network.weights, again.network.weights):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(quick_model.network.thresholds, again.network.thresholds):
            np.testing.assert_array_equal(a, b)
        assert again.summary == quick_model.summary

    def test_winner_has_best_accuracy_smallest_on_tie(self, quick_model):
        winner_h = quick_model.topology[1]
        best = max(c.holdout_accuracy for c in quick_model.summary.candidates)
        tied = [c.hidden for c in quick_model.summary.candidates
                if c.holdout_accuracy == best]
        assert winner_h == min(tied)

    def test_reported_accuracy_matches_returned_network(
        self, quick_model, quick_config, small_records
    ):
        # the snapshot handed back must score exactly what the summary claims
        _, holdout = data.split(
            small_records, quick_config.holdout_fraction, quick_config.seed
        )
        rep = evaluate(quick_model, holdout)
        assert rep.overall_accuracy == quick_model.summary.holdout_accuracy

    def test_nan_weights_abort_with_diagnostic(self, small_records, monkeypatch):
        from churnnet import model as model_module
        from churnnet.network import init_network

        def poisoned_init(layer_sizes, seed):
            net = init_network(layer_sizes, seed)
            net.weights[0][0, 0] = np.nan
            return net

        monkeypatch.setattr(model_module, "init_network", poisoned_init)
        with pytest.raises(TrainingError, match="non-finite"):
            train(small_records, TrainingConfig(max_epochs=2, patience=1,
                                                hidden_range=(3, 3)))

    @pytest.mark.parametrize("max_epochs,patience", [(4, 10), (30, 6)])
    def test_lockstep_search_matches_independent_runs(
        self, small_records, max_epochs, patience
    ):
        # Widths 1-8 searched together must give each width the result, the
        # best snapshot and the momentum buffers of training it on its own.
        # With patience 6 the widths stop between epochs 6 and 22, so the
        # batch is repacked while the others keep going.
        cfg = TrainingConfig(max_epochs=max_epochs, patience=patience,
                             hidden_range=(1, 8), seed=0)
        train_recs, hold_recs = data.split(small_records, cfg.holdout_fraction, cfg.seed)
        schema = data.fit_schema(train_recs)
        x_train, _ = data.encode_features(train_recs, schema)
        t_train = np.array([data.one_hot_target(r.churn) for r in train_recs])
        x_hold, _ = data.encode_features(hold_recs, schema)
        y_hold = np.array([r.churn for r in hold_recs], dtype=bool)

        searched = model._search(x_train, t_train, x_hold, y_hold, cfg)
        assert [c.hidden for c in searched] == list(range(1, 9))
        epochs = {c.epochs_run for c in searched}
        if patience < max_epochs:
            assert len(epochs) > 3 and max(c.best_epoch for c in searched) > patience
        else:
            assert epochs == {max_epochs}

        for c in searched:
            init_seed, shuffle_seed = model._candidate_seeds(cfg.seed, c.hidden)
            net = init_network([x_train.shape[1], c.hidden, 2], init_seed)
            order_rng = np.random.default_rng(shuffle_seed)
            best_net, best_acc = net.copy(), model._accuracy(net, x_hold, y_hold)
            best_epoch = stale = 0
            for epoch in range(1, cfg.max_epochs + 1):
                for i in order_rng.permutation(len(x_train)):
                    train_example(net, x_train[i], t_train[i], cfg.params)
                acc = model._accuracy(net, x_hold, y_hold)
                if acc > best_acc:
                    best_net, best_acc, best_epoch, stale = net.copy(), acc, epoch, 0
                else:
                    stale += 1
                    if stale >= cfg.patience:
                        break
            assert c.result == CandidateResult(c.hidden, epoch, best_epoch, best_acc)
            for name in ("weights", "thresholds", "prev_weight_update",
                         "prev_threshold_update"):
                for a, b in zip(getattr(c.best_net, name), getattr(best_net, name),
                                strict=True):
                    assert np.array_equal(a, b), (c.hidden, name)

    def test_degenerate_range_single_candidate(self, small_records):
        cfg = TrainingConfig(max_epochs=2, patience=1, hidden_range=(4, 4), seed=3)
        m = train(small_records, cfg)
        assert [c.hidden for c in m.summary.candidates] == [4]
        assert m.topology[1] == 4

    @pytest.mark.parametrize("holdout", [0.001, 0.999])
    def test_split_leaving_a_side_empty_rejected(self, small_records, holdout):
        # 60 records: 0.001 rounds to no holdout rows, 0.999 to no train rows
        cfg = TrainingConfig(max_epochs=2, patience=1, hidden_range=(3, 3),
                             holdout_fraction=holdout)
        with pytest.raises(TrainingError, match="hold out"):
            train(small_records[:60], cfg)

    def test_too_few_records(self, small_records):
        with pytest.raises(TrainingError, match="50"):
            train(small_records[:40], TrainingConfig())

    def test_single_class_rejected(self, small_records):
        loyal = [r for r in small_records if not r.churn][:80]
        with pytest.raises(TrainingError, match="single class"):
            train(loyal, TrainingConfig())

    def test_unlabeled_rejected(self, small_records):
        recs = [dataclasses.replace(r, churn=None) for r in small_records[:60]]
        with pytest.raises(TrainingError, match="labeled"):
            train(recs, TrainingConfig())

    def test_candidate_seeds_are_pinned(self):
        # Every saved model's weights come from these seeds, written out here
        # as SeedSequence(entropy=seed, spawn_key=(hidden,)).generate_state(2).
        assert model._candidate_seeds(0, 3) == (3685993406, 3082302701)
        assert model._candidate_seeds(7, 5) == (1370054118, 166311599)


class TestClassify:
    def test_clear_loyal(self):
        predicted, conf = classify_outputs(np.array([0.9, 0.1]))
        assert predicted is False
        assert conf == pytest.approx(0.9)

    def test_clear_churner(self):
        predicted, conf = classify_outputs(np.array([0.2, 0.6]))
        assert predicted is True
        assert conf == pytest.approx(0.75)

    def test_tie_goes_to_loyal(self):
        predicted, conf = classify_outputs(np.array([0.5, 0.5]))
        assert predicted is False
        assert conf == pytest.approx(0.5)

    def test_invariant_under_positive_scaling(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            out = rng.random(2) * 0.98 + 0.01
            for scale in (1e-3, 0.5, 7.0):
                a = classify_outputs(out)
                b = classify_outputs(out * scale)
                assert a[0] == b[0]
                assert a[1] == pytest.approx(b[1], rel=1e-12)

    def test_confidence_in_unit_interval(self, quick_model, small_records):
        for p in predict_batch(quick_model, small_records):
            assert 0.0 <= p.confidence <= 1.0


class TestPredict:
    def test_batch_agrees_with_single(self, quick_model, small_records):
        batch = predict_batch(quick_model, small_records[:20])
        for rec, bp in zip(small_records[:20], batch):
            sp = predict(quick_model, rec)
            assert sp.predicted_churn == bp.predicted_churn
            assert sp.confidence == pytest.approx(bp.confidence, rel=1e-12)

    def test_unlabeled_record_scores(self, quick_model, small_records):
        rec = dataclasses.replace(small_records[0], churn=None)
        p = predict(quick_model, rec)
        assert p.predicted_churn in (True, False)
        assert 0.0 <= p.confidence <= 1.0

    def test_empty_batch(self, quick_model):
        assert predict_batch(quick_model, []) == []


class TestEvaluate:
    def test_counts_consistent(self, quick_model, small_records):
        rep = evaluate(quick_model, small_records)
        (tn, fp), (fn, tp) = rep.confusion
        assert tn + fp + fn + tp == rep.total == len(small_records)
        assert tn + fp == sum(1 for r in small_records if not r.churn)
        assert fn + tp == sum(1 for r in small_records if r.churn)
        assert rep.overall_accuracy == pytest.approx((tn + tp) / rep.total)

    def test_row_percentages(self, quick_model, small_records):
        rep = evaluate(quick_model, small_records)
        for row in rep.row_percentages:
            assert sum(row) == pytest.approx(100.0)

    def test_perfect_predictions_diagonal(self, quick_model, small_records):
        # relabel every record with the model's own prediction
        preds = predict_batch(quick_model, small_records)
        relabeled = [
            dataclasses.replace(r, churn=p.predicted_churn)
            for r, p in zip(small_records, preds)
        ]
        rep = evaluate(quick_model, relabeled)
        (tn, fp), (fn, tp) = rep.confusion
        assert fp == 0 and fn == 0
        assert rep.overall_accuracy == 1.0

    def test_empty_rejected(self, quick_model):
        with pytest.raises(EvaluationError):
            evaluate(quick_model, [])

    def test_unlabeled_rejected(self, quick_model, small_records):
        recs = [dataclasses.replace(small_records[0], churn=None)]
        with pytest.raises(EvaluationError):
            evaluate(quick_model, recs)


class TestImportance:
    def test_scores_shape(self, quick_model, small_records):
        rep = importance(quick_model, small_records, seed=0)
        fields = [f for f, _ in rep.entries]
        assert sorted(fields) == sorted(quick_model.schema.retained_fields)
        scores = [s for _, s in rep.entries]
        assert all(0.0 <= s <= 1.0 for s in scores)
        assert scores == sorted(scores, reverse=True)
        if any(s > 0 for s in scores):
            assert scores[0] == 1.0

    def test_sorted_with_lexicographic_ties(self, quick_model, small_records):
        rep = importance(quick_model, small_records, seed=0)
        assert rep.entries == sorted(rep.entries, key=lambda kv: (-kv[1], kv[0]))

    def test_deterministic_per_seed(self, quick_model, small_records):
        a = importance(quick_model, small_records, seed=5)
        b = importance(quick_model, small_records, seed=5)
        assert a == b

    def test_constant_field_scores_zero(self, quick_model, small_records):
        # a field with one value everywhere cannot change under permutation
        recs = data.with_field_values(
            small_records, "num_vmail_messages", [7] * len(small_records)
        )
        rep = importance(quick_model, recs, seed=0)
        assert dict(rep.entries)["num_vmail_messages"] == 0.0

    def test_empty_rejected(self, quick_model):
        with pytest.raises(EvaluationError):
            importance(quick_model, [], seed=0)

    def test_negative_seed_rejected(self, quick_model, small_records):
        with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
            importance(quick_model, small_records, seed=-1)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_shuffling_raw_values(self, quick_model, small_records, seed):
        assert importance(quick_model, small_records, seed=seed) == _record_level_importance(
            quick_model, small_records, seed
        )


def _record_level_importance(trained, records, seed):
    """Importance the record-level way: shuffle one raw field's values with
    ``with_field_values`` and encode every record again with ``encode``."""
    schema = trained.schema

    def accuracy(recs):
        feats = np.array([data.encode(r, schema).features for r in recs])
        return float(np.mean(model.predicted_classes(trained.network, feats) == actual))

    actual = np.array([r.churn for r in records], dtype=bool)
    baseline = accuracy(records)
    drops = {}
    for idx, field in enumerate(schema.retained_fields):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(idx,)))
        order = rng.permutation(len(records))
        values = [getattr(records[i], field) for i in order]
        drops[field] = max(0.0, baseline - accuracy(data.with_field_values(records, field, values)))
    top = max(drops.values())
    scores = {f: (d / top if top > 0 else 0.0) for f, d in drops.items()}
    return model.ImportanceReport(sorted(scores.items(), key=lambda kv: (-kv[1], kv[0])), baseline)


class TestPersistence:
    def test_round_trip_weights_and_predictions(self, quick_model, small_records, tmp_path):
        path = tmp_path / "model.json"
        save_model(quick_model, path)
        loaded = load_model(path)

        for a, b in zip(quick_model.network.weights, loaded.network.weights):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(quick_model.network.thresholds, loaded.network.thresholds):
            np.testing.assert_array_equal(a, b)
        assert loaded.schema == quick_model.schema
        assert loaded.topology == quick_model.topology
        assert loaded.config == quick_model.config
        assert loaded.summary == quick_model.summary

        feats, _ = data.encode_features(small_records, quick_model.schema)
        np.testing.assert_array_equal(
            forward_batch(quick_model.network, feats),
            forward_batch(loaded.network, feats),
        )

    def test_resave_byte_identical(self, quick_model, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        save_model(quick_model, first)
        save_model(load_model(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_load_resets_momentum(self, quick_model, tmp_path):
        # give the in-memory net visibly nonzero buffers before saving
        net = quick_model.network.copy()
        for p in net.prev_weight_update + net.prev_threshold_update:
            p.fill(0.25)
        dirty = dataclasses.replace(quick_model, network=net)
        path = tmp_path / "model.json"
        save_model(dirty, path)
        loaded = load_model(path)
        assert all(np.all(p == 0) for p in loaded.network.prev_weight_update)
        assert all(np.all(p == 0) for p in loaded.network.prev_threshold_update)

    def test_unknown_version_rejected(self, quick_model, tmp_path):
        path = tmp_path / "model.json"
        save_model(quick_model, path)
        doc = json.loads(path.read_text())
        doc["format_version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="version"):
            load_model(path)


def _nan_weight(doc):
    doc["weights"][0][0][0] = float("nan")


def _infinite_bound(doc):
    doc["schema"]["numeric_bounds"]["account_length"][1] = float("inf")


def _short_first_matrix(doc):
    doc["weights"][0].pop()


def _long_threshold_vector(doc):
    doc["thresholds"][1].append(0.0)


def _three_outputs(doc):
    doc["topology"][2] = 3


def _topology_off_schema(doc):
    doc["topology"][0] += 1


def _missing_summary(doc):
    del doc["summary"]


def _missing_weights(doc):
    del doc["weights"]


def _level_without_feature_name(doc):
    doc["schema"]["categorical_levels"]["area_code"].append("999")


def _missing_numeric_bound(doc):
    del doc["schema"]["numeric_bounds"]["total_day_minutes"]


def _one_element_bound(doc):
    doc["schema"]["numeric_bounds"]["total_day_minutes"] = [5.0]


def _inverted_bound(doc):
    doc["schema"]["numeric_bounds"]["total_day_minutes"] = [9.0, 1.0]


def _levels_of_a_numeric_field(doc):
    doc["schema"]["categorical_levels"]["account_length"] = []


def _null_weight(doc):
    doc["weights"][1][0][0] = None


def _bool_count(doc):
    doc["summary"]["n_train"] = True


def _fractional_count(doc):
    doc["config"]["max_epochs"] += 0.5


def _three_element_bound(doc):
    doc["schema"]["numeric_bounds"]["total_day_minutes"].append(500.0)


def _bool_version(doc):
    doc["format_version"] = True


def _float_version(doc):
    doc["format_version"] = 1.0


def _negative_seed(doc):
    doc["config"]["seed"] = -1


@pytest.mark.parametrize("corrupt", [
    _nan_weight, _infinite_bound, _short_first_matrix, _long_threshold_vector,
    _three_outputs, _topology_off_schema, _missing_summary, _missing_weights,
    _level_without_feature_name, _missing_numeric_bound, _one_element_bound,
    _inverted_bound, _levels_of_a_numeric_field, _null_weight, _bool_count,
    _fractional_count, _three_element_bound, _bool_version, _float_version, _negative_seed,
])
def test_load_rejects_broken_model(quick_model, tmp_path, corrupt):
    path = tmp_path / "model.json"
    save_model(quick_model, path)
    doc = json.loads(path.read_text())
    corrupt(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match="model.json"):
        load_model(path)


@pytest.mark.parametrize("section,key", [("schema", "dropped_fields"), ("config", "seed")])
def test_load_names_missing_key_without_default(quick_model, tmp_path, section, key):
    # dropped_fields has a dataclass default, and seed is also a summary key
    path = tmp_path / "model.json"
    save_model(quick_model, path)
    doc = json.loads(path.read_text())
    del doc[section][key]
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match=f"lacks key '{section}.{key}'"):
        load_model(path)


@pytest.mark.parametrize("text", ["{not json", "[1, 2]", ""])
def test_load_rejects_non_model_text(tmp_path, text):
    path = tmp_path / "model.json"
    path.write_text(text)
    with pytest.raises(ConfigError, match="model.json"):
        load_model(path)


def test_load_rejects_number_that_overflows(quick_model, tmp_path):
    # 1e999 is valid JSON but parses to infinity
    path = tmp_path / "model.json"
    save_model(quick_model, path)
    doc = json.loads(path.read_text())
    doc["thresholds"][1][0] = 0.125
    path.write_text(json.dumps(doc).replace("0.125", "1e999"))
    with pytest.raises(ConfigError, match="1e999"):
        load_model(path)


def test_save_failing_mid_write_keeps_previous_file(quick_model, tmp_path, monkeypatch):
    path = tmp_path / "model.json"
    save_model(quick_model, path)
    before = path.read_bytes()
    assert [p.name for p in tmp_path.iterdir()] == ["model.json"]

    def dump_then_fail(obj, fh, **kwargs):
        fh.write('{"format_version": 1, ')
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(json, "dump", dump_then_fail)
    with pytest.raises(OSError, match="No space"):
        save_model(quick_model, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.json"]


FINITE = st.floats(allow_nan=False, allow_infinity=False)


def _finite_array(draw, like):
    values = draw(st.lists(FINITE, min_size=like.size, max_size=like.size))
    return np.array(values).reshape(like.shape)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st_data=st.data())
def test_save_load_save_byte_identical(quick_model, tmp_path_factory, st_data):
    draw = st_data.draw
    net = quick_model.network
    bounds = {
        f: tuple(sorted(draw(st.lists(FINITE, min_size=2, max_size=2))))
        for f in quick_model.schema.numeric_bounds
    }
    variant = dataclasses.replace(
        quick_model,
        network=dataclasses.replace(
            net,
            weights=[_finite_array(draw, w) for w in net.weights],
            thresholds=[_finite_array(draw, t) for t in net.thresholds],
        ),
        schema=dataclasses.replace(quick_model.schema, numeric_bounds=bounds),
        config=TrainingConfig(
            eta=draw(st.floats(0.0, 1.0, exclude_min=True)),
            alpha=draw(st.floats(0.0, 1.0, exclude_max=True)),
            max_epochs=draw(st.integers(1, 10**6)),
            patience=draw(st.integers(1, 10**6)),
            holdout_fraction=draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
            hidden_range=tuple(sorted(draw(st.lists(st.integers(1, 64), min_size=2, max_size=2)))),
            seed=draw(st.integers(0, 2**64)),
        ),
        summary=dataclasses.replace(
            quick_model.summary,
            holdout_accuracy=draw(FINITE),
            n_train=draw(st.integers(0, 10**9)),
        ),
    )
    directory = tmp_path_factory.mktemp("roundtrip")
    first, second = directory / "a.json", directory / "b.json"
    save_model(variant, first)
    loaded = load_model(first)
    save_model(loaded, second)
    assert first.read_bytes() == second.read_bytes()
    assert (loaded.config, loaded.schema, loaded.summary) == (
        variant.config, variant.schema, variant.summary)


def _nodes(node, path=()):
    """(path, value) of every node of a JSON document, the root first."""
    yield path, node
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield from _nodes(child, path + (key,))


# Each mutation and the nodes it applies to.
_MUTATIONS = {
    "delete": lambda path, value: path and isinstance(path[-1], str),
    "retype": lambda path, value: not isinstance(value, (dict, list)),
    "shorten": lambda path, value: isinstance(value, list) and value,
}


def _wrong_typed(value):
    others = st.sampled_from([None, True, [], {}])
    if isinstance(value, str):
        return st.one_of(others, st.integers(), FINITE)
    return st.one_of(others, st.text(max_size=3))


def mutate_model_doc(doc, draw) -> None:
    """Delete one key of a model file's JSON document, give one leaf a value
    of another type, or drop the last item of one list, in place."""
    mutation = draw(st.sampled_from(sorted(_MUTATIONS)))
    where = draw(st.sampled_from([p for p, v in _nodes(doc) if _MUTATIONS[mutation](p, v)]))
    parent = doc
    for key in where[:-1]:
        parent = parent[key]
    if mutation == "delete":
        del parent[where[-1]]
    elif mutation == "retype":
        parent[where[-1]] = draw(_wrong_typed(parent[where[-1]]))
    else:
        parent[where[-1]].pop()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st_data=st.data())
def test_mutated_model_is_rejected_or_evaluates(quick_model, small_csv, tmp_path_factory, st_data):
    # One mutation: the load either fails with ConfigError or gives a model
    # with finite weights that evaluates a CSV.
    path = tmp_path_factory.mktemp("mutated") / "model.json"
    save_model(quick_model, path)
    doc = json.loads(path.read_text())
    mutate_model_doc(doc, st_data.draw)
    path.write_text(json.dumps(doc))

    try:
        loaded = load_model(path)
    except ConfigError:
        return
    assert loaded.network.all_finite()
    report = evaluate(loaded, data.parse_csv(small_csv))
    assert 0.0 <= report.overall_accuracy <= 1.0
