#!/usr/bin/env python3
"""qspex benchmark: three seeded workloads, end-to-end or traced.

    python3 qbench/run.py --workload sweep|climb|probe --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The inputs are generated from the seed
(qbench/workloads.py) once, before anything is timed.  Each round starts a
fresh workload process (qbench/worker.py) that imports qspex from `src`, runs
every operation of the workload once, and reports per-operation times and
outputs.  Rounds repeat the same operations while another round fits in
--seconds; the sweep runs at least two, so its 90th percentile has ten
samples beyond it, and the probe at least three, so that one slow round
does not move its wall_s.  Set-up, from the start of a workload process to
its first timed operation, is timed on fifteen processes or more, four of
them after every round.  The outputs of every round are then checked apart
from the program (qbench/checks.py).

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced and
traced rounds and prints the per-layer metrics of the traced ones plus the
tracing overhead (traced minus untraced wall_s).  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.  Full
figures go to qbench/results/, spans of traced rounds to qbench/results/spans/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
WORKER = os.path.join(HERE, "worker.py")

MIN_ROUNDS = {"sweep": 2, "climb": 1, "probe": 3}
SETUP_SAMPLES = 15
SETUPS_PER_ROUND = 4  # set-up samples taken after every round, so they span the run
DEADLINE_S = 170.0  # every run ends well inside three minutes
BLAS_THREADS = "1"


def _declared_metrics() -> tuple[dict, dict]:
    """End-to-end and per-layer metric units, as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


class BenchError(RuntimeError):
    pass


def _worker_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


class Runner:
    def __init__(self, workload: str, seed: int):
        sys.path.insert(0, HERE)
        import workloads

        self.workload = workload
        self.started = time.monotonic()
        self.inputs = workloads.GENERATORS[workload](seed)
        self.env = _worker_env()

    def _remaining(self) -> float:
        left = DEADLINE_S - (time.monotonic() - self.started)
        if left <= 0:
            raise BenchError("ran out of time before all rounds ended")
        return left

    def round(self, *, trace=False, setup_only=False, span_path=None):
        """Run the inputs in a fresh worker process.

        Returns (set-up seconds, worker result).  Set-up runs from the start
        of the process to its first timed operation.
        """
        job = {"workload": self.workload, "inputs": self.inputs, "trace": trace,
               "setup_only": setup_only, "span_path": span_path}
        t0 = time.monotonic()
        proc = subprocess.Popen([sys.executable, WORKER], cwd=ROOT, env=self.env,
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        try:
            out, err = proc.communicate(json.dumps(job), timeout=self._remaining())
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError("a workload process overran the time limit") from None
        if proc.returncode != 0:
            raise BenchError(f"workload process exited {proc.returncode}: {err.strip()[-2000:]}")
        result = json.loads(out.strip().splitlines()[-1])
        return result["t_first"] - t0, result


def _percentile(samples: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-th quantile.

    A weighted mean of all order statistics, with weights concentrated
    around rank p*n.  A tail percentile then rests on the dozens of
    operations near it instead of the one or two that straddle it, each of
    which ran at a single moment of a host whose speed drifts.
    """
    from scipy.stats.mstats import hdquantiles

    return float(hdquantiles(samples, prob=[p])[0])


def _failures(workload: str, result: dict) -> int:
    if workload == "probe":
        return sum(1 for o in result["outputs"] if o is None or o[0] != 0)
    return sum(1 for o in result["outputs"] if o is None)


def _check(workload: str, inputs, result) -> list[str]:
    import checks

    outputs = result["outputs"]
    if workload == "sweep":
        return checks.check_sweep(inputs, outputs, result["members"], result["catalog_levels"])
    errors = []
    for item, out in zip(inputs, outputs):
        if out is None:
            continue
        if workload == "climb":
            errors += checks.check_climb(item, out)
        elif out[0] == 0:
            errors += checks.check_probe(item, out[1])
    return errors


def _environment() -> dict:
    import numpy
    import scipy

    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": int(BLAS_THREADS), "git_sha": sha}


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    end_to_end_units, per_layer_units = _declared_metrics()
    runner = Runner(workload, seed)
    rounds = []  # (traced, set-up seconds, result)
    setups = []
    measured = 0.0
    spans_dir = os.path.join(RESULTS, "spans")
    min_rounds = 2 if trace else MIN_ROUNDS[workload]  # one untraced-traced pair
    while True:
        done = len(rounds)
        if done >= min_rounds and not (trace and done % 2):
            # start another round (a pair when tracing) only if it fits in --seconds
            if measured * (1 + (2 if trace else 1) / done) > seconds:
                break
        traced = trace and done % 2 == 1
        span_path = None
        if traced:
            os.makedirs(spans_dir, exist_ok=True)
            span_path = os.path.join(
                spans_dir, f"{workload}-seed{seed}-round{done}.tsv")
        t0 = time.monotonic()
        setup, result = runner.round(trace=traced, span_path=span_path)
        rounds.append((traced, setup, result))
        if not traced:
            setups.append(setup)
        setups += [runner.round(setup_only=True)[0] for _ in range(SETUPS_PER_ROUND)]
        measured += time.monotonic() - t0
    while len(setups) < SETUP_SAMPLES:
        setups.append(runner.round(setup_only=True)[0])

    attempted = len(runner.inputs) * len(rounds)
    failed = sum(_failures(workload, r[2]) for r in rounds)
    errors = []
    for _, _, result in rounds:
        errors += _check(workload, runner.inputs, result)
        for e in result["errors"]:
            print(f"operation failed: {e}", file=sys.stderr)

    plain = [r[2] for r in rounds if not r[0]]
    op_ms = [t * 1e3 for r in plain for t in r["op_s"]]
    end_to_end = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(r["wall_s"] for r in plain),
        "op_p50_ms": _percentile(op_ms, 0.5),
        "op_p90_ms": _percentile(op_ms, 0.9),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
    }
    metrics = {k: {"value": end_to_end[k], "unit": u} for k, u in end_to_end_units.items()}
    layer = {}
    if trace:
        spans = [r[2] for r in rounds if r[0]]
        for r in spans:
            # The workload process starts with no catalog, so every level
            # above the K2 seed was grown, and kept, in the round.
            r["trace"]["search.catalog.kept"] = sum(r.get("catalog_levels", [0])[1:])
        for name in set().union(*(r["trace"] for r in spans)):
            layer[name] = statistics.median(r["trace"].get(name, 0) for r in spans)
        tried = layer.get("search.catalog.tried", 0)
        layer["search.catalog.kept_per_tried"] = (
            layer.get("search.catalog.kept", 0) / tried if tried else 0.0)
        layer["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in spans)
                                     - end_to_end["wall_s"])
        metrics = {k: {"value": round(layer.get(k, 0)) if u == "count" else layer.get(k, 0),
                       "unit": u} for k, u in per_layer_units.items()}

    os.makedirs(RESULTS, exist_ok=True)
    detail = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": _environment(), "end_to_end": end_to_end, "per_layer": layer,
        "rounds": [{"traced": t, "setup_s": s, "wall_s": r["wall_s"],
                    "peak_rss_mb": r["peak_rss_mb"], "op_s": r["op_s"]}
                   for t, s, r in rounds],
        "setup_samples_s": setups, "errors": errors[:50],
    }
    with open(os.path.join(RESULTS, f"{workload}-seed{seed}-trace{int(trace)}.json"),
              "w", encoding="ascii") as fh:
        json.dump(detail, fh, indent=1)
    for e in errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)
    return {"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="qspex benchmark")
    parser.add_argument("--workload", required=True, choices=("sweep", "climb", "probe"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "qspex", "__init__.py")):
        print(f"error: no qspex sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
