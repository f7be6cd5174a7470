"""Show that every output check can fail.

Usage, from the root of a checkout:

    python3 perfbench/selftest.py

Runs each workload's CLI operations once on the benchmark's inputs for seed
0, confirms that the clean outputs pass every check, then corrupts the
outputs once per check and confirms that that check fails, printing its
message. Exits 1 if a clean output fails or a corruption goes unnoticed.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import logging
import os
import shutil
import sys

import run  # sets the one-thread environment before numpy loads

sys.path.insert(0, run.SRC)
import inputs  # noqa: E402
from churnnet import cli  # noqa: E402


def _lines(text, edit):
    """Apply ``edit`` to the parsed machine-format lines of a report."""
    docs = [json.loads(line) for line in text.splitlines() if line.strip()]
    edit(docs)
    return "\n".join(json.dumps(d, sort_keys=True) for d in docs) + "\n"


def _flip_outputs(o):
    doc = o["model_doc"]
    doc["weights"][-1] = [row[::-1] for row in doc["weights"][-1]]
    doc["thresholds"][-1] = doc["thresholds"][-1][::-1]


def _all_loyal(o):
    # Output thresholds that pin the loyal unit near 1 and the churner unit
    # near 0: a model that learned nothing but the majority class.
    o["model_doc"]["thresholds"][-1] = [50.0, -50.0]


def _raise_loser(o):
    summary = o["model_doc"]["summary"]
    winner = o["model_doc"]["topology"][1]
    loser = next(c for c in summary["candidates"] if c["hidden"] != winner)
    loser["holdout_accuracy"] = summary["holdout_accuracy"] + 0.01

    def edit(docs):
        for d in docs:
            if d.get("hidden") == loser["hidden"]:
                d["holdout_accuracy"] = loser["holdout_accuracy"]

    o["stdout"][0] = _lines(o["stdout"][0], edit)


def _extra_epoch(o):
    def edit(docs):
        docs[0]["epochs_run"] += 1

    o["stdout"][0] = _lines(o["stdout"][0], edit)


def _shift_accuracy(o):
    s = o["model_doc"]["summary"]
    s["holdout_accuracy"] += 1.0 / s["n_holdout"]


def _flip_prediction(o):
    row = o["out_rows"][7]
    row[-2] = "false" if row[-2] == "true" else "true"


def _swap_confusion(o):
    def edit(docs):
        d = docs[0]
        d["predicted_false"], d["predicted_true"] = d["predicted_true"], d["predicted_false"]

    o["stdout"][0] = _lines(o["stdout"][0], edit)


def _swap_importance(o):
    def edit(docs):
        docs[0]["field"], docs[1]["field"] = docs[1]["field"], docs[0]["field"]

    o["stdout"][1] = _lines(o["stdout"][1], edit)


def _drop_importance(o):
    o["stdout"][1] = _lines(o["stdout"][1], lambda docs: docs.pop())


# workload -> [(check expected to fail, corruption, what it does)]
CORRUPTIONS = {
    "train": [
        ("train.holdout_accuracy", _shift_accuracy, "reported accuracy one holdout row higher"),
        ("train.winner", _raise_loser, "a losing width reported as the most accurate"),
        ("train.epochs_rule", _extra_epoch, "one extra epoch reported for a candidate"),
        ("train.causal_margin", _flip_outputs, "output units swapped in the saved model"),
        ("train.beats_majority", _all_loyal, "saved model calls every customer loyal"),
    ],
    "score": [
        ("score.row_accounting", lambda o: o["out_rows"].pop(10), "a valid row dropped"),
        ("score.cells_verbatim", lambda o: o["out_rows"][5].__setitem__(0, "ZZ"),
         "an input cell altered"),
        ("score.reference", _flip_prediction, "one prediction flipped"),
    ],
    "audit": [
        ("audit.confusion", _swap_confusion, "loyal row of the matrix swapped"),
        ("audit.importance", _swap_importance, "top two importance fields swapped"),
        ("audit.importance_shape", _drop_importance, "last importance entry dropped"),
    ],
}


def outputs_once(workload: str, seed: int, workdir: str):
    spec = inputs.prepare(workload, seed, workdir)
    stdout = []
    for argv in spec["ops"]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        if code != 0:
            raise SystemExit(f"{workload}: {argv[0]} exited with {code}")
        stdout.append(out.getvalue())
    return spec, run.read_outputs(workload, spec, {"stdout": stdout})


SEED = 0


def main() -> int:
    logging.disable(logging.WARNING)
    bad = 0
    for workload, cases in CORRUPTIONS.items():
        workdir = os.path.join(run.WORK, f"selftest-{workload}-{os.getpid()}")
        os.makedirs(workdir)
        try:
            spec, clean = outputs_once(workload, SEED, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.redirect_stderr(io.StringIO()):
            failures = run.check(workload, spec, clean)
        print(f"{workload}: clean outputs {'FAIL ' + str(failures) if failures else 'pass'}")
        bad += bool(failures)
        for name, corrupt, what in cases:
            o = copy.deepcopy(clean)
            corrupt(o)
            with contextlib.redirect_stderr(io.StringIO()):
                failures = run.check(workload, spec, o)
            mine = [f for f in failures if f.startswith(name + ":")]
            bad += not mine
            print(f"  {'ok' if mine else 'MISSED'}  {what}: "
                  f"{mine[0] if mine else f'{name} passed; failures: {failures}'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
