"""Workload inputs, made from the benchmark seed with ``churnnet.synthetic``.

The same seed always gives the same files. Every size and injected fault
count below is fixed, so the amount of work per round does not depend on
the seed; only the values do.
"""

from __future__ import annotations

import csv
import os

import numpy as np

from churnnet import data, model, synthetic

# Default search at this size, seeds 0-9: 207-447 epochs summed over the
# widths, 22-48 s a round on the 2-vCPU machine README.md describes.
TRAIN_ROWS = 2000
SCORE_ROWS = 50_000
AUDIT_ROWS = 3333  # size of the original churn benchmark
MODEL_ROWS = 1000  # training file of the model that `score` and `audit` load

# The model `score` and `audit` load: one width, a short fixed run. Its
# quality is not what those workloads measure; it only has to beat the
# majority class so that importance has a non-zero top score.
MODEL_CONFIG = dict(hidden_range=(5, 5), max_epochs=20, patience=20, seed=0)

UNSEEN_AREA_CODE = "650"
N_UNSEEN = 40
# (field, bad cell) pairs injected into the `score` input, each rejected by
# the row parser; None as the field truncates the row by three cells.
MALFORMED = (
    ("total_day_minutes", "n/a"),
    ("customer_service_calls", "-1"),
    ("international_plan", "maybe"),
    ("total_eve_charge", "nan"),
    ("account_length", "12.5"),
    (None, None),
)
N_MALFORMED = 30  # 0.06% of SCORE_ROWS, well under the 1% the parser allows

HEADER = list(data.FIELD_NAMES)
LABEL = data.LABEL_FIELD


def sub_seed(seed: int, stream: int) -> int:
    """Independent generator seed for one input stream of a benchmark seed."""
    return int(np.random.SeedSequence(seed, spawn_key=(stream,)).generate_state(1)[0])


def record_cells(r, labeled: bool) -> list[str]:
    cells = []
    for f in HEADER:
        v = getattr(r, f)
        if isinstance(v, bool):
            cells.append("yes" if v else "no")
        elif isinstance(v, float):
            cells.append(repr(v))
        else:
            cells.append(str(v))
    if labeled:
        cells.append("True." if r.churn else "False.")
    return cells


def write_csv(path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def labeled_file(path, n: int, seed: int) -> None:
    rows = [record_cells(r, True) for r in synthetic.generate(n, seed)]
    write_csv(path, HEADER + [LABEL], rows)


def fit_model(path, seed: int) -> None:
    """Train and save the model that `score` and `audit` load."""
    records = synthetic.generate(MODEL_ROWS, sub_seed(seed, 1))
    model.save_model(model.train(records, model.TrainingConfig(**MODEL_CONFIG)), path)


def scoring_file(path, seed: int) -> list[int]:
    """Unlabeled file with a few unseen area codes and malformed rows.

    Returns the 0-based data-row indices of the malformed rows.
    """
    rows = [record_cells(r, False) for r in synthetic.generate(SCORE_ROWS, sub_seed(seed, 0))]
    rng = np.random.default_rng(sub_seed(seed, 2))
    picked = rng.choice(SCORE_ROWS, size=N_UNSEEN + N_MALFORMED, replace=False)
    area = HEADER.index("area_code")
    for i in picked[:N_UNSEEN]:
        rows[i][area] = UNSEEN_AREA_CODE
    bad = sorted(int(i) for i in picked[N_UNSEEN:])
    for k, i in enumerate(bad):
        field, cell = MALFORMED[k % len(MALFORMED)]
        if field is None:
            rows[i] = rows[i][:-3]
        else:
            rows[i][HEADER.index(field)] = cell
    write_csv(path, HEADER, rows)
    return bad


def prepare(workload: str, seed: int, workdir: str) -> dict:
    """Write one workload's inputs and return its spec.

    The spec names the CLI invocations of one round (``ops``) and the files
    the checks read.
    """
    def p(name):
        return os.path.join(workdir, name)

    if workload == "train":
        labeled_file(p("train.csv"), TRAIN_ROWS, sub_seed(seed, 0))
        return {
            "ops": [["train", "--data", p("train.csv"), "--model", p("model.json"),
                     "--format", "machine"]],
            "data": p("train.csv"), "model": p("model.json"), "setup_model": None,
        }
    fit_model(p("model.json"), seed)
    if workload == "score":
        bad = scoring_file(p("customers.csv"), seed)
        return {
            "ops": [["predict", "--data", p("customers.csv"), "--model", p("model.json"),
                     "--out", p("scored.csv")]],
            "data": p("customers.csv"), "model": p("model.json"), "out": p("scored.csv"),
            "bad_rows": bad, "setup_model": p("model.json"),
        }
    if workload == "audit":
        labeled_file(p("labeled.csv"), AUDIT_ROWS, sub_seed(seed, 0))
        common = ["--data", p("labeled.csv"), "--model", p("model.json"), "--format", "machine"]
        return {
            "ops": [["evaluate"] + common, ["importance"] + common + ["--seed", str(seed)]],
            "data": p("labeled.csv"), "model": p("model.json"), "importance_seed": seed,
            "setup_model": p("model.json"),
        }
    raise ValueError(f"unknown workload {workload!r}")
