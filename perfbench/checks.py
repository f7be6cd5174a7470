"""Output checks of the three workloads.

Every check compares what the program wrote with what the reference scorer
(``reference.py``) or a property of the method says it must be. A failed
check yields one line, ``<check>: <the values it compared>``; each check
function returns the list of such lines, empty when all pass.
"""

from __future__ import annotations

import json

import numpy as np

from churnnet import synthetic
from reference import ReferenceModel, decide, labels

# Largest allowed gap between the model's holdout accuracy and that of the
# generator's own causal rule on the same holdout rows (500 rows at the
# `train` size, so one row is 0.002). Most seeds land within 0.03, but the
# default search sometimes stops most widths early on a plateau where the
# model calls most churners loyal, and returns a model ~0.06 below the rule;
# that is the method, not a broken program, so the margin sits above it.
# Flipped outputs, a wrong split or broken scoring miss by far more.
CAUSAL_MARGIN = 0.10
# Smallest lead of the holdout accuracy over the holdout's majority-class
# rate (calling every customer loyal). The causal margin alone cannot catch a
# model that learned nothing: churners are 13-20% of the holdout, so the
# all-loyal model lands within 0.06-0.14 of the rule. Seeds 0-9 lead by
# 0.040-0.106 at the `train` size, the plateau included; 0.02 is 10 of the
# 500 holdout rows.
MAJORITY_LEAD = 0.02
FLOAT_TOL = 1e-12


class Failures(list):
    def expect(self, check: str, ok: bool, detail: str) -> None:
        if not ok:
            self.append(f"{check}: {detail}")


def machine_lines(text: str) -> list[dict]:
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def holdout_indices(n: int, config: dict) -> np.ndarray:
    """The training split: a seeded permutation whose head is the holdout."""
    order = np.random.default_rng(config["seed"]).permutation(n)
    return order[: int(round(config["holdout_fraction"] * n))]


def causal_rule(header, rows) -> np.ndarray:
    """The generator's churn causes: heavy international use on an
    international plan, frequent service calls, very heavy daytime use."""
    c = {name: i for i, name in enumerate(header)}
    return np.array([
        (r[c["international_plan"]] == "yes"
         and float(r[c["total_intl_minutes"]]) >= synthetic.INTL_TRIGGER_MINUTES)
        or int(r[c["customer_service_calls"]]) >= synthetic.SERVICE_TRIGGER_CALLS
        or float(r[c["total_day_minutes"]]) >= synthetic.DAY_TRIGGER_MINUTES
        for r in rows
    ])


def train_quality(header, rows, doc) -> dict:
    """Holdout accuracy and recalls of a saved model, and the causal rule's accuracy."""
    hold = holdout_indices(len(rows), doc["config"])
    hold_rows = [rows[i] for i in hold]
    y = labels(header, hold_rows)
    ref = ReferenceModel(doc)
    pred = decide(ref.outputs(ref.encode(header, hold_rows)))[0]
    return {
        "n_holdout": len(hold),
        "accuracy": float(np.mean(pred == y)),
        "loyal_recall": float(np.mean(~pred[~y])),
        "churner_recall": float(np.mean(pred[y])),
        "causal_rule_accuracy": float(np.mean(causal_rule(header, hold_rows) == y)),
        "majority_rate": float(max(np.mean(y), np.mean(~y))),
    }


def check_train(header, rows, doc, stdout: str) -> list[str]:
    f = Failures()
    lines = machine_lines(stdout)
    cands = [d for d in lines if "hidden" in d]
    final = [d for d in lines if "winner_hidden" in d]
    cfg = doc["config"]
    summary = doc["summary"]
    q = train_quality(header, rows, doc)

    reported = summary["holdout_accuracy"]
    printed = final[0]["holdout_accuracy"] if final else None
    f.expect("train.holdout_accuracy",
             q["n_holdout"] == summary["n_holdout"]
             and abs(q["accuracy"] - reported) <= FLOAT_TOL and printed == reported,
             f"recomputed {q['accuracy']!r} on {q['n_holdout']} rows, model file says "
             f"{reported!r} on {summary['n_holdout']}, train printed {printed!r}")

    lo, hi = cfg["hidden_range"]
    widths = [c["hidden"] for c in cands]
    best = max((c["holdout_accuracy"] for c in cands), default=None)
    expected = min((c["hidden"] for c in cands if c["holdout_accuracy"] == best), default=None)
    winner = doc["topology"][1]
    f.expect("train.winner",
             widths == list(range(lo, hi + 1)) and winner == expected
             and (not final or final[0]["winner_hidden"] == winner)
             and cands == summary["candidates"],
             f"widths {widths}, best accuracy {best!r} first reached at hidden={expected}, "
             f"model file winner hidden={winner}, printed "
             f"{final[0]['winner_hidden'] if final else None}")

    wrong = [
        (c["hidden"], c["epochs_run"], c["best_epoch"])
        for c in cands
        if c["epochs_run"] != min(cfg["max_epochs"], c["best_epoch"] + cfg["patience"])
    ]
    f.expect("train.epochs_rule", not wrong,
             f"(hidden, epochs_run, best_epoch) breaking epochs_run == "
             f"min({cfg['max_epochs']}, best_epoch + {cfg['patience']}): {wrong}")

    gap = q["accuracy"] - q["causal_rule_accuracy"]
    f.expect("train.causal_margin", abs(gap) <= CAUSAL_MARGIN,
             f"holdout accuracy {q['accuracy']:.4f} vs causal rule "
             f"{q['causal_rule_accuracy']:.4f}: gap {gap:+.4f} exceeds {CAUSAL_MARGIN}")

    lead = q["accuracy"] - q["majority_rate"]
    f.expect("train.beats_majority", lead >= MAJORITY_LEAD,
             f"holdout accuracy {q['accuracy']:.4f} vs majority-class rate "
             f"{q['majority_rate']:.4f}: lead {lead:+.4f} below {MAJORITY_LEAD} "
             f"(churner recall {q['churner_recall']:.4f})")
    return f


def check_score(header, rows, bad_rows, out_header, out_rows, doc) -> list[str]:
    f = Failures()
    bad = set(bad_rows)
    kept = [r for i, r in enumerate(rows) if i not in bad]
    phone = header.index("phone_number")
    want_header = header + ["N_churn", "NC_churn"]
    f.expect("score.row_accounting",
             out_header == want_header and len(out_rows) == len(kept)
             and [r[phone] for r in out_rows] == [r[phone] for r in kept],
             f"{len(out_rows)} output rows for {len(rows)} input rows with "
             f"{len(bad)} malformed (expected {len(kept)}); header "
             f"{'ok' if out_header == want_header else out_header}")

    n = min(len(kept), len(out_rows))
    diff = [i for i in range(n) if out_rows[i][:-2] != kept[i]]
    f.expect("score.cells_verbatim", not diff,
             f"{len(diff)} rows differ from their input; first at output row "
             f"{diff[0] + 1 if diff else None}: "
             f"{out_rows[diff[0]][:-2] if diff else None} vs {kept[diff[0]] if diff else None}")

    ref = ReferenceModel(doc)
    pred, conf, tie = decide(ref.outputs(ref.encode(header, kept[:n])))
    got_pred = np.array([r[-2] == "true" for r in out_rows[:n]])
    got_conf = np.array([float(r[-1]) for r in out_rows[:n]])
    wrong = np.flatnonzero(((got_pred != pred) & ~tie) | (np.abs(got_conf - conf) > FLOAT_TOL))
    first = int(wrong[0]) if wrong.size else None
    f.expect("score.reference", wrong.size == 0,
             f"{wrong.size} of {n} rows disagree with the reference scorer; first at output "
             f"row {None if first is None else first + 1}: program "
             f"{None if first is None else (out_rows[first][-2], out_rows[first][-1])} vs "
             f"reference {None if first is None else (bool(pred[first]), float(conf[first]))}")
    return f


def reference_importance(ref: ReferenceModel, x, y, seed: int):
    """Permutation importance: shuffle each field's encoded columns together
    with ``SeedSequence(seed, spawn_key=(idx,))``; score = accuracy drop over
    the largest drop, sorted by score descending, then field name."""
    baseline = float(np.mean(decide(ref.outputs(x))[0] == y))
    drops = {}
    for idx, field in enumerate(ref.fields):
        order = np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(idx,))).permutation(len(x))
        cols = [j for j, _ in ref.columns[field]]
        xp = x.copy()
        xp[:, cols] = x[np.ix_(order, cols)]
        drops[field] = max(0.0, baseline - float(np.mean(decide(ref.outputs(xp))[0] == y)))
    top = max(drops.values())
    scores = {fld: (d / top if top > 0 else 0.0) for fld, d in drops.items()}
    return sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))


def check_audit(header, rows, doc, eval_stdout: str, importance_stdout: str, seed: int) -> list[str]:
    f = Failures()
    ref = ReferenceModel(doc)
    x = ref.encode(header, rows)
    y = labels(header, rows)
    pred, _, tie = decide(ref.outputs(x))
    want = (int(np.sum(~y & ~pred)), int(np.sum(~y & pred)),
            int(np.sum(y & ~pred)), int(np.sum(y & pred)))
    lines = machine_lines(eval_stdout)
    by_actual = {d["actual"]: d for d in lines if "actual" in d}
    got = tuple(
        by_actual.get(a, {}).get(k)
        for a in ("false", "true") for k in ("predicted_false", "predicted_true")
    )
    ok = None not in got and all(abs(g - w) <= int(tie.sum()) for g, w in zip(got, want))
    f.expect("audit.confusion", ok,
             f"(tn, fp, fn, tp) program {got} vs reference {want} "
             f"({int(tie.sum())} near-tie rows)")

    entries = [(d["field"], d["score"]) for d in machine_lines(importance_stdout)]
    expected = reference_importance(ref, x, y, seed)
    same = len(entries) == len(expected) and all(
        gf == wf and abs(gs - ws) <= FLOAT_TOL for (gf, gs), (wf, ws) in zip(entries, expected))
    f.expect("audit.importance", same,
             f"program {[(fld, round(s, 4)) for fld, s in entries]} vs reference "
             f"{[(fld, round(s, 4)) for fld, s in expected]}")

    fields = [fld for fld, _ in entries]
    scores = [s for _, s in entries]
    f.expect("audit.importance_shape",
             sorted(fields) == sorted(ref.fields) and len(set(fields)) == len(fields)
             and entries == sorted(entries, key=lambda kv: (-kv[1], kv[0]))
             and bool(scores) and scores[0] == 1.0,
             f"{len(entries)} entries for {len(ref.fields)} retained fields, scores {scores}")
    return f
