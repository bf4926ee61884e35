"""One workload process.

Reads a job (workload name, generated inputs, flags) as JSON on stdin,
imports qspex from the checkout's `src`, warms up, runs every operation once
with a per-operation timer, and prints one JSON line: per-operation times and
outputs, the monotonic time of the first timed operation, and peak resident
memory.  With tracing on, the spans are written to the job's span path after
the timed region and their summary is added to the result.  The process never
imports networkx, so its memory and start-up are the program's own.

Run by qbench/run.py; not meant to be started by hand.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _import_qspex():
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import qspex
    from qspex import cli, graphs, search, spectral, matching, verify

    if not os.path.abspath(qspex.__file__).startswith(src + os.sep):
        raise ImportError(f"qspex imported from {qspex.__file__}, not from {src}")
    return cli, graphs, search, spectral, matching, verify


cli, graphs, search, spectral, matching, verify = _import_qspex()


def _warm_up() -> None:
    # Touch the numeric and matching code paths once; the catalog stays empty.
    p3 = graphs.Graph.from_edges(3, [(0, 1), (1, 2)])
    spectral.q_radius(p3)
    matching.matching_number(p3)
    graphs.to_graph6(graphs.canonical_graph(p3))


# -- operations: each returns the program's output for the checks ----------


def sweep_op(item):
    m, beta = item
    if beta == 1:
        report = verify.verify_beta1(m)
    else:
        report = verify.verify_theorem1(m, beta)
    return verify.emit_report(report)


def climb_op(item):
    g6, m, beta = item
    return search.hill_climb(graphs.from_graph6(g6), search.EnumerationQuery(m, beta, "exact"))


def climb_output(trace):
    return {
        "steps": [[s.move, s.q_before, s.q_after, s.graph6] for s in trace.steps],
        "end": graphs.to_graph6(trace.end),
        "converged": trace.converged_to_prediction,
    }


def probe_op(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def sweep_collect(inputs):
    """Class members and catalog level sizes, read after the timed region."""
    members = {}
    for m, beta in inputs:
        query = search.EnumerationQuery(m, beta, "exact")
        members[f"{m},{beta}"] = [graphs.to_graph6(g) for g in search.enumerate_graphs(query)]
    top = max(m for m, _ in inputs)
    levels = [len(search.connected_catalog(k)) for k in range(1, top + 1)]
    return {"members": members, "catalog_levels": levels}


def _peak_rss_mb() -> float:
    # VmHWM belongs to this process's own address space.  ru_maxrss would not
    # do: Linux carries it across exec, so it would report the resident size
    # of the benchmark process this one was forked from whenever that is larger.
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def run(job) -> dict:
    workload = job["workload"]
    inputs = job["inputs"]
    _warm_up()
    tracer = None
    if job["trace"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    op = {"sweep": sweep_op, "climb": climb_op, "probe": probe_op}[workload]
    t_first = time.monotonic()
    if job["setup_only"]:
        return {"t_first": t_first}
    times, raw, errors = [], [], []
    clock = time.perf_counter
    round_start = clock()
    for item in inputs:
        t0 = clock()
        try:
            result = op(item)
        except Exception as exc:  # an operation that raises counts as failed
            result = None
            errors.append(f"{item!r}: {type(exc).__name__}: {exc}")
        times.append(clock() - t0)
        raw.append(result)
    wall = clock() - round_start
    peak_rss_mb = _peak_rss_mb()
    out = {"t_first": t_first, "wall_s": wall, "op_s": times, "errors": errors,
           "peak_rss_mb": peak_rss_mb}
    if tracer is not None:
        tracer.uninstall()
        out["trace"] = tracer.summary()
        if job.get("span_path"):
            tracer.write_spans(job["span_path"])
    if workload == "climb":
        raw = [None if r is None else climb_output(r) for r in raw]
    out["outputs"] = raw
    if workload == "sweep":
        out.update(sweep_collect(inputs))
    return out


def main() -> int:
    job = json.load(sys.stdin)
    result = run(job)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
