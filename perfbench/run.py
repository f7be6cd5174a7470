"""churnnet benchmark: one workload, one seed, one JSON result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {train,score,audit} --seed N \
        --seconds S --trace {0,1}

The benchmark makes the workload's inputs from the seed, times a fresh
interpreter's import (and model load) several times, then runs the
workload's ``churnnet`` CLI operations in rounds for S seconds in a fresh
single-threaded process (``worker.py``). It checks the outputs against the
reference scorer and prints, as its last line, ``{"correct", "attempted",
"failed", "metrics"}``: the end-to-end metrics untraced (``--trace 0``) or
the per-layer metrics from a traced run (``--trace 1``). Human-readable
detail goes to standard error. See README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

# One thread for numpy here and in every child process.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import probe  # noqa: E402  (imports numpy, after the thread settings)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")

WORKLOADS = ("train", "score", "audit")
# Set-up is timed this many times before the rounds and as many after, so
# that its median spans the run rather than one phase of a shared machine's
# speed.
SETUP_REPEATS = 5
TIME_LIMIT_S = 170.0

# Prints the monotonic clock once churnnet is imported and the model loaded;
# the parent subtracts its own reading taken just before starting the
# interpreter. Timing the child's exit instead would add interpreter teardown
# and the up-to-50 ms polling step of subprocess waits with a timeout.
SETUP_CODE = (
    "import sys, time, churnnet.cli, churnnet.model\n"
    "if len(sys.argv) > 1: churnnet.model.load_model(sys.argv[1])\n"
    "print(time.monotonic())\n"
)


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=SRC, **THREAD_ENV)
    env.pop("PYTHONSTARTUP", None)
    return env


def setup_times(model_path) -> list[float]:
    """Seconds from starting an interpreter until churnnet is imported and,
    where the workload has one, the model is loaded; SETUP_REPEATS times.

    The caller scales them by the slowdown of the round next to them."""
    argv = [sys.executable, "-c", SETUP_CODE] + ([model_path] if model_path else [])
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.monotonic()
        proc = subprocess.run(argv, env=child_env(), check=True, timeout=60,
                              capture_output=True, text=True)
        times.append(float(proc.stdout) - t0)
    return times


def run_worker(spec: dict, workdir: str, deadline: float) -> dict:
    spec_path = os.path.join(workdir, "spec.json")
    result_path = os.path.join(workdir, "result.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    with open(os.path.join(workdir, "worker.log"), "w", encoding="utf-8") as log:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), spec_path, result_path],
            env=child_env(), stdout=log, stderr=log,
            timeout=max(1.0, deadline - time.perf_counter()),
        )
    if proc.returncode != 0:
        with open(os.path.join(workdir, "worker.log"), encoding="utf-8") as fh:
            sys.stderr.write(fh.read()[-4000:])
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def round_seconds(rounds, traced: bool) -> list[float]:
    """Each round's seconds at the reference speed: its wall time, less the
    probes taken in it, over the slowdown those probes measured."""
    return [sum(r["seconds"]) / probe.slowdown(r["probes"])
            for r in rounds if r["traced"] == traced]


def rows_per_round(workload: str, outputs: dict) -> int:
    """Rows one round processes: online steps (`train`), rows scored and
    written (`score`), rows of the labeled file (`audit`)."""
    if workload == "train":
        s = outputs["model_doc"]["summary"]
        return s["n_train"] * sum(c["epochs_run"] for c in s["candidates"])
    if workload == "score":
        return len(outputs["out_rows"])
    return len(outputs["rows"])


def end_to_end(workload, outputs, result, setup_s) -> dict:
    secs = statistics.median(round_seconds(result["rounds"], False))
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "ref_rows_per_s": {"value": rows_per_round(workload, outputs) / secs, "unit": "rows/s"},
        "peak_rss_mb": {"value": result["peak_rss_kb"] / 1024.0, "unit": "MB"},
    }


# per-layer metric -> (span, quantity, divisor, unit). A count ("calls",
# "units") is per round and must repeat exactly; a time ("total_s",
# "self_s") is in microseconds per divisor, or seconds per round without one.
PER_LAYER = {
    "data.read_raw_csv.us_per_row": ("data.read_raw_csv", "total_s", "units", "us"),
    "data.parse_row.us_per_row": ("data.parse_row", "total_s", "calls", "us"),
    "data.encode_features.us_per_row": ("data.encode_features", "total_s", "units", "us"),
    "data.encode_features.calls": ("data.encode_features", "calls", None, "count"),
    "data.with_field_values.s": ("data.with_field_values", "total_s", None, "s"),
    "network.train_example.calls": ("network.train_example", "calls", None, "count"),
    "network.train_example.us_per_call": ("network.train_example", "total_s", "calls", "us"),
    "network.forward_batch.us_per_row": ("network.forward_batch", "total_s", "units", "us"),
    "network.forward_batch.calls": ("network.forward_batch", "calls", None, "count"),
    "model.train.epochs": ("model.train", "units", None, "count"),
    "model.train.self_s": ("model.train", "self_s", None, "s"),
    "model.predict_batch.self_us_per_row": ("model.predict_batch", "self_s", "units", "us"),
    "model.importance.self_s": ("model.importance", "self_s", None, "s"),
    "model.evaluate.s": ("model.evaluate", "total_s", None, "s"),
    "model.save_model.s": ("model.save_model", "total_s", None, "s"),
    "model.load_model.s": ("model.load_model", "total_s", None, "s"),
    "cli.cmd_predict.self_s": ("cli.cmd_predict", "self_s", None, "s"),
}


def per_layer(result) -> tuple[dict, list[str]]:
    """Per-layer metrics over the traced rounds, plus the tracing overhead;
    the problems list names counts that differed between rounds."""
    traced = [r["spans"] for r in result["rounds"] if r["traced"]]
    problems = []
    metrics = {}
    for metric, (span, quantity, divisor, unit) in PER_LAYER.items():
        total = sum(t[span][quantity] for t in traced)
        if quantity in ("calls", "units"):
            counts = sorted({t[span][quantity] for t in traced})
            if len(counts) > 1:
                problems.append(f"{metric}: differs between traced rounds: {counts}")
            value = counts[0]
        elif divisor:
            n = sum(t[span][divisor] for t in traced)
            value = 1e6 * total / n if n else 0.0
        else:
            value = total / len(traced)
        metrics[metric] = {"value": value, "unit": unit}
    # Raw, not scaled: traced and untraced rounds alternate, so both meet the
    # same phases, and one round's few probes would add their own noise.
    plain = statistics.median(sum(r["seconds"]) for r in result["rounds"] if not r["traced"])
    with_trace = statistics.median(sum(r["seconds"]) for r in result["rounds"] if r["traced"])
    metrics["trace.overhead_pct"] = {"value": 100.0 * (with_trace - plain) / plain, "unit": "%"}
    return metrics, problems


def read_outputs(workload: str, spec: dict, result: dict) -> dict:
    from reference import read_csv

    header, rows = read_csv(spec["data"])
    with open(spec["model"], encoding="utf-8") as fh:
        outputs = {"header": header, "rows": rows, "model_doc": json.load(fh)}
    if workload == "score":
        outputs["out_header"], outputs["out_rows"] = read_csv(spec["out"])
    outputs["stdout"] = result["stdout"]
    return outputs


def check(workload: str, spec: dict, o: dict) -> list[str]:
    import checks

    if workload == "train":
        q = checks.train_quality(o["header"], o["rows"], o["model_doc"])
        cands = o["model_doc"]["summary"]["candidates"]
        print(
            f"quality: holdout accuracy {q['accuracy']:.4f} (causal rule "
            f"{q['causal_rule_accuracy']:.4f}, majority class {q['majority_rate']:.4f}), loyal recall {q['loyal_recall']:.4f}, "
            f"churner recall {q['churner_recall']:.4f}, winner hidden="
            f"{o['model_doc']['topology'][1]}, epochs "
            f"{[(c['hidden'], c['epochs_run']) for c in cands]}",
            file=sys.stderr,
        )
        return checks.check_train(o["header"], o["rows"], o["model_doc"], o["stdout"][0])
    if workload == "score":
        return checks.check_score(o["header"], o["rows"], spec["bad_rows"],
                                  o["out_header"], o["out_rows"], o["model_doc"])
    return checks.check_audit(o["header"], o["rows"], o["model_doc"],
                              o["stdout"][0], o["stdout"][1], spec["importance_seed"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + TIME_LIMIT_S

    if not os.path.isfile(os.path.join(SRC, "churnnet", "__init__.py")):
        print(f"perfbench: no churnnet sources under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import inputs

    workdir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        spec = inputs.prepare(args.workload, args.seed, workdir)
        before = setup_times(spec["setup_model"])
        spec.update(seconds=args.seconds, trace=bool(args.trace))
        result = run_worker(spec, workdir, deadline)
        after = setup_times(spec["setup_model"])
        # Set-up at the reference speed, each sample scaled by the slowdown
        # the probes measured over the round next to it: a few probes of its
        # own would be too few to follow the machine's phase.
        first, last = (probe.slowdown(result["rounds"][i]["probes"]) for i in (0, -1))
        setup_s = statistics.median([t / first for t in before] + [t / last for t in after])
        outputs = read_outputs(args.workload, spec, result)
        failures = check(args.workload, spec, outputs)
        if args.trace:
            metrics, problems = per_layer(result)
            failures += problems
        else:
            metrics = end_to_end(args.workload, outputs, result, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    codes = [c for r in result["rounds"] for c in r["codes"]]
    print(f"setup (s, raw): {' '.join(f'{t:.3f}' for t in before + after)}", file=sys.stderr)
    for r in result["rounds"]:
        print(f"{'traced' if r['traced'] else 'untraced'} round: {sum(r['seconds']):.3f} s, "
              f"slowdown {probe.slowdown(r['probes']):.3f} over {len(r['probes'])} probes",
              file=sys.stderr)
    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": len(codes),
        "failed": sum(1 for c in codes if c != 0),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
