"""Per-layer tracing from outside the package.

A traced round replaces the module attributes that callers look up
(``churnnet.data.*``, ``churnnet.model.*``, ``churnnet.network.*`` and
``churnnet.cli.cmd_predict``) with timing wrappers, and puts the originals
back afterwards. ``churnnet.model`` imports ``train_example`` and
``forward_batch`` by name, so those two are replaced in both modules and
recorded as one span. Spans nest: a span's self time is its duration minus
the time of the traced spans it called.
"""

from __future__ import annotations

import time

import churnnet.cli
import churnnet.data
import churnnet.model
import churnnet.network

# span name -> (module attributes to replace, units of work in one call)
_SPANS = {
    "data.read_raw_csv": ([(churnnet.data, "read_raw_csv")], lambda a, r: len(r[1])),
    "data.map_header": ([(churnnet.data, "map_header")], None),
    "data.parse_row": ([(churnnet.data, "parse_row")], None),
    "data.fit_schema": ([(churnnet.data, "fit_schema")], None),
    "data.split": ([(churnnet.data, "split")], None),
    "data.encode_features": ([(churnnet.data, "encode_features")], lambda a, r: r[0].shape[0]),
    "data.with_field_values": ([(churnnet.data, "with_field_values")], None),
    "network.train_example": (
        [(churnnet.network, "train_example"), (churnnet.model, "train_example")], None),
    "network.forward_batch": (
        [(churnnet.network, "forward_batch"), (churnnet.model, "forward_batch")],
        lambda a, r: r.shape[0]),
    "model.train": (
        [(churnnet.model, "train")],
        lambda a, r: sum(c.epochs_run for c in r.summary.candidates)),
    "model.predict_batch": ([(churnnet.model, "predict_batch")], lambda a, r: len(r)),
    "model.evaluate": ([(churnnet.model, "evaluate")], None),
    "model.importance": ([(churnnet.model, "importance")], None),
    "model.save_model": ([(churnnet.model, "save_model")], None),
    "model.load_model": ([(churnnet.model, "load_model")], None),
    "cli.cmd_predict": ([(churnnet.cli, "cmd_predict")], None),
}


class Tracer:
    """Install/remove the wrappers and accumulate one round's span totals."""

    def __init__(self):
        self._originals = [
            (module, attr, getattr(module, attr))
            for targets, _ in _SPANS.values() for module, attr in targets
        ]
        self._stack: list[list[float]] = []
        self._wrappers = {}
        for name, (targets, units) in _SPANS.items():
            for module, attr in targets:
                self._wrappers[(module, attr)] = self._wrap(name, getattr(module, attr), units)
        self.reset()

    def reset(self) -> None:
        # span -> [calls, total seconds, child seconds, units]
        self.totals = {name: [0, 0.0, 0.0, 0] for name in _SPANS}

    def _wrap(self, name, fn, units):
        stack = self._stack

        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                t = self.totals[name]
                t[0] += 1
                t[1] += dt
                t[2] += children[0]
            if units is not None:
                self.totals[name][3] += units(args, result)
            return result

        return traced

    def install(self) -> None:
        for (module, attr), wrapper in self._wrappers.items():
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in self._originals:
            setattr(module, attr, original)

    def snapshot(self) -> dict:
        """This round's spans: calls, total and self seconds, units of work."""
        return {
            name: {"calls": c, "total_s": tot, "self_s": tot - child, "units": u}
            for name, (c, tot, child, u) in self.totals.items()
        }
