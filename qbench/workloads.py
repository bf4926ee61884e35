"""Seeded inputs of the three workloads.

Everything here is computed without qspex (networkx and numpy only), so the
workload process receives nothing but the generated inputs.

sweep  every (m, beta) with 1 <= beta <= m <= 10.  The beta = 1 queries come
       first with m ascending, so each of them grows one catalog level (the
       order of `scripts/run_verification.py --beta 1 2 ...`); the 45 queries
       with beta >= 2 follow in seeded order.
climb  CLIMB_PER_STRATUM start graphs for each (m, n) in CLIMB_STRATA: m edges
       drawn uniformly among the pairs of n vertices; the class is the exact
       one of the start graph's matching number.
probe  q and beta requests on PROBE_GNP random G(n, p) graphs, PROBE_TREES
       random labeled trees (n stratified over 10..62) and the paths on
       PROBE_PATH_N vertices under a seeded relabeling, plus an extremal request
       for every class of PROBE_EXTREMAL_M x PROBE_EXTREMAL_BETA; all requests
       in seeded order.
"""

from __future__ import annotations

import random

import networkx as nx
import numpy as np

from checks import matching_number, q_matrix

SWEEP_M_MAX = 10

# (m, n): vertex counts chosen so that the climbs of every stratum cost about
# the same, and the sparser strata leave room to reach the predicted graph.
# A climb's cost depends on its start graph, so the percentiles of a few
# climbs move with the seed; 378 climbs keep that within a few per cent.
CLIMB_STRATA = ((8, 8), (9, 8), (10, 8), (11, 8), (12, 9), (13, 9), (14, 10))
CLIMB_PER_STRATUM = 54

PROBE_GNP = 60
PROBE_TREES = 60
PROBE_PATH_N = tuple(range(38, 63))
PROBE_N_MIN, PROBE_N_MAX = 10, 62
PROBE_EXTREMAL_M = tuple(range(16, 26))
PROBE_EXTREMAL_BETA = (1, 2, 3, 4, 5)
# Graphs whose top signless-Laplacian gap, relative to the radius, falls below
# this are drawn again: power iteration's cost grows as 1/gap and it gives up
# near 1e-5 (see CHANGES.md).  The 62-vertex path sits at 2.0e-3.
PROBE_MIN_REL_GAP = 1e-3


def graph6(g: nx.Graph) -> str:
    return nx.to_graph6_bytes(g, nodes=sorted(g), header=False).decode("ascii").strip()


def sweep_inputs(seed: int) -> list[list[int]]:
    rest = [[m, beta] for m in range(2, SWEEP_M_MAX + 1) for beta in range(2, m + 1)]
    random.Random(seed).shuffle(rest)
    return [[m, 1] for m in range(1, SWEEP_M_MAX + 1)] + rest


def climb_inputs(seed: int) -> list[list]:
    rng = random.Random(seed)
    out = []
    for m, n in CLIMB_STRATA:
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for _ in range(CLIMB_PER_STRATUM):
            g = nx.Graph()
            g.add_nodes_from(range(n))
            g.add_edges_from(rng.sample(pairs, m))
            text = graph6(g)
            out.append([text, m, matching_number(text)])
    rng.shuffle(out)
    return out


def relative_gap(g: nx.Graph) -> float:
    """Smallest (q1 - q2) / q1 over the components with edges."""
    worst = 1.0
    for comp in nx.connected_components(g):
        if len(comp) < 2:
            continue
        ev = np.linalg.eigvalsh(q_matrix(g.subgraph(comp)))
        worst = min(worst, (ev[-1] - ev[-2]) / ev[-1])
    return worst


def _stratified_n(rng: random.Random, i: int, count: int) -> int:
    span = PROBE_N_MAX - PROBE_N_MIN + 1
    return PROBE_N_MIN + int(span * (i + rng.random()) / count)


def _relabel(g: nx.Graph, rng: random.Random) -> nx.Graph:
    perm = list(range(g.number_of_nodes()))
    rng.shuffle(perm)
    return nx.relabel_nodes(g, dict(zip(range(len(perm)), perm)))


def probe_graphs(rng: random.Random) -> list[nx.Graph]:
    out = []
    for kind, count in (("gnp", PROBE_GNP), ("tree", PROBE_TREES)):
        for i in range(count):
            n = _stratified_n(rng, i, count)
            while True:
                if kind == "gnp":
                    p = rng.uniform(1.5, 6.0) / (n - 1)
                    g = nx.gnp_random_graph(n, p, seed=rng.randrange(2**32))
                else:
                    g = nx.random_labeled_tree(n, seed=rng.randrange(2**32))
                if g.number_of_edges() and relative_gap(g) >= PROBE_MIN_REL_GAP:
                    break
            out.append(g)
    for n in PROBE_PATH_N:
        out.append(_relabel(nx.path_graph(n), rng))
    return out


def probe_inputs(seed: int) -> list[list[str]]:
    rng = random.Random(seed)
    requests = []
    for g in probe_graphs(rng):
        text = graph6(g)
        requests.append(["q", text])
        requests.append(["beta", text])
    for m in PROBE_EXTREMAL_M:
        for beta in PROBE_EXTREMAL_BETA:
            requests.append(["extremal", "--m", str(m), "--beta", str(beta)])
    rng.shuffle(requests)
    return requests


GENERATORS = {"sweep": sweep_inputs, "climb": climb_inputs, "probe": probe_inputs}
