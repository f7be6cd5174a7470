"""Reference churn scorer, written from the model-file format alone.

It shares no code with the ``churnnet`` package: it reads a saved model JSON,
encodes raw CSV cells against the stored schema, runs the sigmoid forward
pass and applies the two-output decision rule. The benchmark's output checks
compare the program against it.
"""

from __future__ import annotations

import csv

import numpy as np

# Pre-activation clamp of the transfer function, as the model format defines it.
SIGMOID_CLAMP = 500.0
# Output pairs whose two activations differ by less than this are exact ties
# up to rounding; the decision rule may resolve them either way.
TIE_EPS = 1e-12


def read_csv(path):
    """Header and data rows of a CSV file, as lists of strings."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class ReferenceModel:
    """A saved model: schema, weights and thresholds."""

    def __init__(self, doc: dict):
        sch = doc["schema"]
        self.levels = sch["categorical_levels"]
        self.bounds = {f: (float(lo), float(hi)) for f, (lo, hi) in sch["numeric_bounds"].items()}
        self.constant = set(sch["constant_fields"])
        self.width = len(sch["feature_names"])
        self.weights = [np.array(w, dtype=float) for w in doc["weights"]]
        self.thresholds = [np.array(t, dtype=float) for t in doc["thresholds"]]
        # Retained fields in feature order, each with its encoded columns;
        # a categorical column is named "<field>=<level>".
        self.fields: list[str] = []
        self.columns: dict[str, list[tuple[int, str | None]]] = {}
        for j, name in enumerate(sch["feature_names"]):
            field, _, level = name.partition("=")
            if field not in self.columns:
                self.fields.append(field)
                self.columns[field] = []
            self.columns[field].append((j, level if field in self.levels else None))

    def encode(self, header, rows) -> np.ndarray:
        """Feature matrix for raw CSV rows (all of them valid)."""
        col = {name: i for i, name in enumerate(header)}
        x = np.zeros((len(rows), self.width))
        for field in self.fields:
            cells = [row[col[field]].strip() for row in rows]
            if field in self.levels:
                values = np.array(cells, dtype=object)
                for j, level in self.columns[field]:
                    x[:, j] = values == level  # an unseen level leaves the group all zero
            elif field in self.bounds:
                (j, _), = self.columns[field]
                if field in self.constant:
                    continue
                lo, hi = self.bounds[field]
                v = np.array([float(c) for c in cells])
                x[:, j] = np.clip((v - lo) / (hi - lo), 0.0, 1.0)
            else:
                (j, _), = self.columns[field]
                x[:, j] = [c.lower() == "yes" for c in cells]
        return x

    def outputs(self, x: np.ndarray) -> np.ndarray:
        """Output-layer activations, one row per input row."""
        a = x
        for w, t in zip(self.weights, self.thresholds):
            a = 1.0 / (1.0 + np.exp(-np.clip(a @ w + t, -SIGMOID_CLAMP, SIGMOID_CLAMP)))
        return a


def decide(outputs: np.ndarray):
    """Two-output rule: churn when the churner output is larger (a tie is loyal);
    confidence is the winning output over the sum of both.

    Returns ``(predicted, confidence, near_tie)`` arrays.
    """
    loyal, churner = outputs[:, 0], outputs[:, 1]
    predicted = churner > loyal
    total = loyal + churner
    winning = np.where(predicted, churner, loyal)
    confidence = np.where(total > 0, winning / np.where(total > 0, total, 1.0), 0.5)
    near_tie = np.abs(churner - loyal) < TIE_EPS
    return predicted, confidence, near_tie


def labels(header, rows) -> np.ndarray:
    """Churn labels of a labeled CSV ("True."/"False." or yes/no)."""
    j = header.index("churn")
    return np.array([row[j].strip().rstrip(".").lower() in ("true", "yes") for row in rows])
