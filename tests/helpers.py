"""Shared test fixtures: independent oracles and random-graph generators.

Each oracle takes a code path disjoint from the library's: graph6 encoding by
naive bit-list packing, matching number by exhaustive memoized edge-branching,
spectral radius by power iteration (and, as a second route, by a dense
eigenvalue-only solve), and class enumeration by labeled edge-set recursion.
Agreement between routes is what the tests buy.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import combinations

import numpy as np
from hypothesis import strategies as st

from qspex.graphs import Graph, induced_subgraph


def ref_graph6_encode(n: int, edges: set[tuple[int, int]]) -> str:
    """Independent graph6 encoder: explicit bit list, then 6-bit chunks."""
    bits = []
    for v in range(1, n):
        for u in range(v):
            bits.append(1 if ((u, v) in edges or (v, u) in edges) else 0)
    while len(bits) % 6:
        bits.append(0)
    out = [chr(n + 63)]
    for i in range(0, len(bits), 6):
        chunk = bits[i : i + 6]
        out.append(chr(sum(b << (5 - j) for j, b in enumerate(chunk)) + 63))
    return "".join(out)


def oracle_matching_number(g: Graph) -> int:
    """Exhaustive search over matchings: branch on the lowest live vertex
    (pair it with each live neighbor or drop it), memoized on the live set.
    Explores every maximal matching implicitly; exact for all graphs."""
    adj = [g.neighbors_mask(v) for v in range(g.n)]

    @lru_cache(maxsize=None)
    def best(mask: int) -> int:
        if not mask:
            return 0
        low = mask & -mask
        v = low.bit_length() - 1
        rest = mask ^ low
        out = best(rest)
        nb = adj[v] & rest
        while nb:
            lowb = nb & -nb
            u = lowb.bit_length() - 1
            nb ^= lowb
            out = max(out, 1 + best(rest ^ (1 << u)))
        return out

    return best((1 << g.n) - 1)


def ref_q_matrix(g: Graph) -> np.ndarray:
    """D + A built edge by edge."""
    a = np.zeros((g.n, g.n))
    for u, v in g.edges():
        a[u, v] = a[v, u] = 1.0
    return a + np.diag(a.sum(axis=1))


def oracle_q_radius(g: Graph) -> float:
    """Dense full eigensolve of D + A."""
    if g.m == 0:
        return 0.0
    return float(np.linalg.eigvalsh(ref_q_matrix(g)).max())


def q_gap(g: Graph) -> float:
    """Top eigenvalue of D + A minus the next distinct one (inf if none)."""
    w = np.linalg.eigvalsh(ref_q_matrix(g))
    below = w[w < w[-1] - 1e-9] if w.size else w
    return float(w[-1] - below[-1]) if below.size else float("inf")


def oracle_power_q(g: Graph, residual_tol: float = 1e-10) -> float:
    """Power iteration on the whole D + A from the all-ones vector, which has
    positive overlap with the Perron vector of every component.  Iterates
    until the Rayleigh quotient stalls AND the residual is certified; its cost
    grows as 1/gap, so use it only where q_gap(g) >= 1e-3."""
    if g.m == 0:
        return 0.0
    q_mat = ref_q_matrix(g)
    x = np.full(g.n, 1.0 / np.sqrt(g.n))
    prev_q = None
    for _ in range(10**6):
        y = q_mat @ x
        q = float(x @ y)
        residual = float(np.linalg.norm(y - q * x))
        if residual <= 0.5 * residual_tol and prev_q is not None and abs(q - prev_q) <= 1e-13:
            return q
        prev_q = q
        x = y / float(np.linalg.norm(y))
    raise ArithmeticError("power iteration failed to converge")


def oracle_all_matchings_of_size(g: Graph, k: int) -> set[tuple[tuple[int, int], ...]]:
    """All size-k matchings by literal edge-subset scan (small graphs only)."""
    out = set()
    for subset in combinations(g.edges(), k):
        verts = [w for e in subset for w in e]
        if len(set(verts)) == 2 * k:
            out.add(tuple(sorted(subset)))
    return out


def oracle_class_forms(m: int) -> dict[int, set[bytes]]:
    """Canonical forms of every isolated-vertex-free graph with m edges,
    bucketed by matching number.

    Generation: choose the m edges in increasing lexicographic order over a
    vertex pool of size 2m, requiring each new vertex label to extend the
    used prefix (an edge may introduce label k only if 0..k-1 are in use, or
    it introduces k and k+1 together).  Every isomorphism class has such a
    labeling, vertices are covered by construction, and the edge ordering
    makes each labeled graph appear once.  Dedup is by canonical form.
    """
    from qspex.graphs import canonical_form

    pool = 2 * m
    buckets: dict[int, set[bytes]] = {}
    edges: list[tuple[int, int]] = []

    def emit() -> None:
        used = sorted({w for e in edges for w in e})
        g = induced_subgraph(Graph.from_edges(pool, edges), used)
        buckets.setdefault(oracle_matching_number(g), set()).add(canonical_form(g))

    def rec(last: tuple[int, int], max_used: int) -> None:
        if len(edges) == m:
            emit()
            return
        hi = min(max_used + 2, pool - 1)
        for u in range(0, hi):
            for v in range(u + 1, hi + 1):
                e = (u, v)
                if e <= last:
                    continue
                if u > max_used and not (u == max_used + 1 and v == max_used + 2):
                    continue  # two fresh labels must be consecutive
                if v > max_used and u <= max_used and v != max_used + 1:
                    continue  # one fresh label must extend the prefix
                edges.append(e)
                rec(e, max(max_used, v))
                edges.pop()

    rec((-1, -1), -1)
    return buckets


def random_graph(rng: random.Random, max_n: int = 10, p: float | None = None) -> Graph:
    n = rng.randint(1, max_n)
    density = p if p is not None else rng.choice([0.15, 0.3, 0.5, 0.8])
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density
    ]
    return Graph.from_edges(n, edges)


@st.composite
def graphs(draw, min_n: int = 0, max_n: int = 9) -> Graph:
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    bitmap = draw(st.integers(min_value=0, max_value=(1 << len(pairs)) - 1))
    return Graph.from_edges(n, [pairs[i] for i in range(len(pairs)) if bitmap >> i & 1])


@st.composite
def permutations_of(draw, n: int) -> list[int]:
    return draw(st.permutations(list(range(n))))
