#!/usr/bin/env python3
"""Time the verification pipeline end to end and layer by layer, and write
BENCH_<sha>.json.

Each repetition runs two tasks, each in a fresh interpreter, so the catalog
starts empty:

- the sweep: verify_theorem1 and its CSV report for every (m, beta) with
  1 <= beta <= m <= --m-max, timed as a whole; inside that pass each
  beta >= 2 verdict is timed too (verdict_cold_s), and so are the matching
  and lemma checks of each of its maximizers (verify._lemma_status,
  lemma_status_s).  With every level built, the same process then times,
  per call: each beta >= 2 verdict again (verdict_s; by then every piece
  has been seen), q_radius on every catalog graph, canonical_graph on every
  catalog graph under a seeded relabeling, and the hill climber from seeded
  random starts, per step and per climb (its 90th percentile); an untimed
  second pass of the climbs counts the matrices certified and the admission
  checks made per step;
- the catalog: connected_catalog(k) for k = 1 .. --m-max, one level per
  call, each followed by the level's solve (search._solve), counting the
  pieces it passes to the eigensolver.

The file records the median over repetitions of the sweep time, of each
level's growth and solve times and of each per-call median, the pieces each
level's solve passed to the eigensolver, with the sample counts, the
machine (nproc, Python and numpy versions) and the source measured: the git
sha of HEAD, whether src/ differs from it (then the name ends in -dirty), and
a sha256 of the qspex sources.

Examples:
    PYTHONPATH=src python scripts/bench.py                  # bench/BENCH_<sha>.json
    PYTHONPATH=src python scripts/bench.py --m-max 8 --repeats 3 --out-dir /tmp
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
# climber starts: m edges drawn among the pairs of n vertices, as (m, n)
CLIMB_STRATA = ((8, 8), (10, 8), (12, 9))
SEED = 1  # of the relabelings and the climber starts


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--m-max", type=int, default=10,
                        help="largest edge count of the sweep and the catalog (default: 10)")
    parser.add_argument("--repeats", type=int, default=9,
                        help="fresh-process repetitions of each task (default: 9)")
    parser.add_argument("--climbs", type=int, default=100,
                        help="climber starts per repetition (default: 100)")
    parser.add_argument("--out-dir", type=Path, default=REPO / "bench",
                        help="directory of the BENCH file (default: bench/)")
    args = parser.parse_args(argv)
    for name in ("m_max", "repeats"):
        if getattr(args, name) < 1:
            parser.error(f"--{name.replace('_', '-')} must be at least 1")
    if args.climbs < 0:
        parser.error("--climbs must be nonnegative")
    return args


def _per_call(fn, items) -> list[float]:
    times = []
    for item in items:
        t0 = time.perf_counter()
        fn(item)
        times.append(time.perf_counter() - t0)
    return times


def _median(times: list[float]) -> float | None:
    return statistics.median(times) if times else None


def sweep_task(m_max: int, climbs: int) -> dict:
    """The sweep from an empty catalog, then per-call layer timings."""
    from qspex import verify
    from qspex.graphs import Graph, canonical_graph, induced_subgraph
    from qspex.matching import matching_number
    from qspex.search import EnumerationQuery, connected_catalog, hill_climb
    from qspex.spectral import q_radius
    from qspex.verify import emit_report, verify_theorem1

    queries = [(m, beta) for beta in range(1, m_max + 1) for m in range(beta, m_max + 1)]
    cold, lemma = [], []
    lemma_status = verify._lemma_status

    def timed_lemma_status(g, s, beta):
        t1 = time.perf_counter()
        status = lemma_status(g, s, beta)
        if beta >= 2:
            lemma.append(time.perf_counter() - t1)
        return status

    verify._lemma_status = timed_lemma_status
    t0 = time.perf_counter()
    for m, beta in queries:
        t1 = time.perf_counter()
        report = verify_theorem1(m, beta)
        if beta >= 2:
            cold.append(time.perf_counter() - t1)
        emit_report(report, "csv")
    sweep_s = time.perf_counter() - t0
    verify._lemma_status = lemma_status

    verdicts = _per_call(lambda q: verify_theorem1(*q), [q for q in queries if q[1] >= 2])
    catalog = [g for k in range(1, m_max + 1) for g, _ in connected_catalog(k)]
    radii = _per_call(q_radius, catalog)
    rng = random.Random(SEED)
    relabeled = [induced_subgraph(g, rng.sample(range(g.n), g.n)) for g in catalog]
    labelings = _per_call(canonical_graph, relabeled)

    starts = []
    for i in range(climbs):
        m, n = CLIMB_STRATA[i % len(CLIMB_STRATA)]
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        start = Graph.from_edges(n, rng.sample(pairs, m))
        starts.append((start, EnumerationQuery(m, matching_number(start), "exact")))
    steps, climb_times = [], []
    for start, query in starts:
        t0 = time.perf_counter()
        trace = hill_climb(start, query)
        climb_times.append(time.perf_counter() - t0)
        if trace.steps:
            steps.append(climb_times[-1] / len(trace.steps))
    climb_p90 = statistics.quantiles(climb_times, n=10)[-1] if len(climb_times) > 1 else None
    return {
        "sweep_s": sweep_s,
        "verdict_s": _median(verdicts),
        "verdict_cold_s": _median(cold),
        "lemma_status_s": _median(lemma),
        "q_radius_graph_s": _median(radii),
        "canonical_graph_call_s": _median(labelings),
        "climb_step_s": _median(steps),
        "climb_p90_s": climb_p90,
        **climb_counts(starts),
        "samples": {"verdicts": len(verdicts), "lemma_status_calls": len(lemma),
                    "q_radius_graphs": len(radii),
                    "canonical_graph_calls": len(labelings), "climbs_with_steps": len(steps)},
    }


def climb_counts(starts) -> dict[str, float | None]:
    """Matrices certified by the eigensolver and matching-number admission
    checks of the climber, each per applied step over all the climbs: a
    second, untimed pass that counts spectral._top_pairs rows and
    MatchedGraph.rewired_matching_number calls."""
    from qspex import spectral
    from qspex.matching import MatchedGraph
    from qspex.search import hill_climb

    counts = {"certified": 0, "admissions": 0}
    top_pairs, rewired = spectral._top_pairs, MatchedGraph.rewired_matching_number

    def counted_top_pairs(qs, residual_tol):
        counts["certified"] += len(qs)
        return top_pairs(qs, residual_tol)

    def counted_rewired(self, removed, added):
        counts["admissions"] += 1
        return rewired(self, removed, added)

    spectral._top_pairs, MatchedGraph.rewired_matching_number = counted_top_pairs, counted_rewired
    try:
        steps = sum(len(hill_climb(start, query).steps) for start, query in starts)
    finally:
        spectral._top_pairs, MatchedGraph.rewired_matching_number = top_pairs, rewired
    return {f"climb_{name}_per_step": count / steps if steps else None
            for name, count in counts.items()}


def catalog_task(m_max: int) -> dict[str, dict[str, float]]:
    """Seconds to grow each catalog level from the one below and then to
    solve it, from empty, and the pieces each level's solve passed to
    spectral.q_pairs."""
    from qspex import search

    q_pairs, solved = search.q_pairs, []

    def counted_q_pairs(graphs):
        solved.append(len(graphs))
        return q_pairs(graphs)

    search.q_pairs = counted_q_pairs
    growth, solve, pieces = {}, {}, {}
    for k in range(1, m_max + 1):
        t0 = time.perf_counter()
        search.connected_catalog(k)
        t1 = time.perf_counter()
        search._solve(k)
        t2 = time.perf_counter()
        growth[str(k)], solve[str(k)] = t1 - t0, t2 - t1
        pieces[str(k)] = sum(solved)
        solved.clear()
    return {"growth": growth, "solve": solve, "pieces": pieces}


def _fresh(fn, *args):
    """fn(*args) in a new interpreter, which imports qspex afresh."""
    with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("spawn")) as pool:
        return pool.submit(fn, *args).result()


def _git(*args: str) -> str:
    try:
        out = subprocess.run(["git", *args], cwd=REPO, capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return ""
    return out.stdout.strip()


def source_info() -> dict:
    digest = hashlib.sha256()
    for path in sorted((REPO / "src" / "qspex").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "sha": _git("rev-parse", "HEAD") or "unknown",
        "dirty": bool(_git("status", "--porcelain", "--untracked-files=no", "--", "src")),
        "source_sha256": digest.hexdigest(),
    }


def run(args) -> dict:
    import numpy

    sweeps = [_fresh(sweep_task, args.m_max, args.climbs) for _ in range(args.repeats)]
    growth = [_fresh(catalog_task, args.m_max) for _ in range(args.repeats)]

    def median_of(key: str) -> float | None:
        values = [s[key] for s in sweeps if s[key] is not None]
        return statistics.median(values) if values else None

    def level_median(key: str) -> dict[str, float]:
        return {k: statistics.median(g[key][k] for g in growth) for k in growth[0][key]}

    return {
        "machine": {
            "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
        },
        "git": source_info(),
        "settings": {"m_max": args.m_max, "repeats": args.repeats,
                     "climbs": args.climbs, "seed": SEED},
        "sweep_s": median_of("sweep_s"),
        "sweep_runs_s": [s["sweep_s"] for s in sweeps],
        "layers": {
            "catalog_level_s": level_median("growth"),
            "level_solve_s": level_median("solve"),
            # counts repeat exactly across repetitions
            "level_solved_pieces": growth[0]["pieces"],
            "canonical_graph_call_s": median_of("canonical_graph_call_s"),
            "q_radius_graph_s": median_of("q_radius_graph_s"),
            "verdict_s": median_of("verdict_s"),
            "verdict_cold_s": median_of("verdict_cold_s"),
            "lemma_status_s": median_of("lemma_status_s"),
            "climb_step_s": median_of("climb_step_s"),
            "climb_p90_s": median_of("climb_p90_s"),
            # counts repeat exactly across repetitions
            "climb_certified_per_step": sweeps[0]["climb_certified_per_step"],
            "climb_admissions_per_step": sweeps[0]["climb_admissions_per_step"],
        },
        "samples": sweeps[0]["samples"],
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    result = run(args)
    git = result["git"]
    name = f"BENCH_{git['sha'][:12]}{'-dirty' if git['dirty'] else ''}.json"
    args.out_dir.mkdir(parents=True, exist_ok=True)
    path = args.out_dir / name
    path.write_text(json.dumps(result, indent=2) + "\n", encoding="ascii")
    print(f"wrote {path}: sweep {result['sweep_s']:.3f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
