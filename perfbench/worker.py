"""Run one workload's CLI operations in rounds, in this fresh process.

Usage: python3 perfbench/worker.py SPEC.json RESULT.json

SPEC names the operations of one round (argument lists for
``churnnet.cli.main``), how many seconds to keep starting rounds, and whether
to trace. Untraced, rounds repeat until the time is up. Traced, rounds
alternate untraced and traced, at least one of each, so the result carries
the tracing overhead as well as the per-layer spans.

Every PROBE_INTERVAL_S of wall time a timer signal interrupts the round and
times the machine-speed probe (``probe.py``); an operation's seconds exclude
the probes taken during it. RESULT receives each round's per-operation
seconds, probe times and exit codes, the last round's standard output, and
the process's peak resident memory.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import signal
import sys
import time
import traceback

import probe

PROBE_INTERVAL_S = 0.25


class Prober:
    """Times the probe on every SIGALRM and keeps the durations."""

    def __init__(self):
        self.durations: list[float] = []

    def _tick(self, signum, frame):
        self.durations.append(probe.seconds())

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)


def run_op(cli, argv, prober):
    """One CLI call: (exit code, seconds less probes, probe times, stdout)."""
    out = io.StringIO()
    k = len(prober.durations)
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    except Exception:  # an escaped exception is a failed operation; the round goes on
        traceback.print_exc()
        code = -1
    seconds = time.perf_counter() - t0
    probes = prober.durations[k:]
    return code, seconds - sum(probes), probes, out.getvalue()


def main(spec_path, result_path) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    from churnnet import cli

    tracer = None
    if spec["trace"]:
        from layers import Tracer

        tracer = Tracer()

    prober = Prober()
    rounds = []
    stdout = []
    prober.start()
    start = time.perf_counter()
    try:
        while True:
            traced = tracer is not None and len(rounds) % 2 == 1
            if traced:
                tracer.reset()
                tracer.install()
            try:
                ops = [run_op(cli, argv, prober) for argv in spec["ops"]]
            finally:
                if traced:
                    tracer.uninstall()
            rounds.append({
                "traced": traced,
                "codes": [op[0] for op in ops],
                "seconds": [op[1] for op in ops],
                "probes": [d for op in ops for d in op[2]],
                "spans": tracer.snapshot() if traced else None,
            })
            stdout = [op[3] for op in ops]
            if time.perf_counter() - start >= spec["seconds"] and (tracer is None or len(rounds) >= 2):
                break
    finally:
        prober.stop()

    result = {
        "rounds": rounds,
        "stdout": stdout,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:3]))
