"""Shared test fixtures: independent oracles and random-graph generators.

Each oracle takes a code path disjoint from the library's: graph6 encoding by
naive bit-list packing, matching number by exhaustive memoized edge-branching,
spectral radius by power iteration (and, as a second route, by a dense
eigenvalue-only solve), class maxima by solving every union as one matrix
and by a scan of each catalog level with every piece solved densely,
class enumeration by labeled edge-set recursion, canonical labeling by
individualization-refinement without twin pruning on a whole-graph color
refinement, the connected catalog by canonicalizing every augmentation, and
the extremal matching by a whole-graph scan.  Agreement between routes is
what the tests buy.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import combinations

import numpy as np
from hypothesis import strategies as st

from qspex import graphs as _graphs
from qspex.family import build_s
from qspex.graphs import Graph, components, induced_subgraph, to_graph6, union_all


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


def oracle_degree_bounds(g: Graph) -> tuple[int, float]:
    """From the edge list: the largest d_u + d_v over the edges uv of g, and
    the degree vector's Rayleigh quotient sum (d_u + d_v)^2 / sum d_v^2."""
    d = [g.degree(v) for v in range(g.n)]
    edges = g.edges()
    rayleigh = sum((d[u] + d[v]) ** 2 for u, v in edges) / sum(x * x for x in d)
    return max(d[u] + d[v] for u, v in edges), rayleigh


def oracle_brute_force_max(query) -> tuple[float, list[str]]:
    """Max of oracle_q_radius over every union that enumerate_graphs returns,
    each solved as one whole (possibly disconnected) matrix, with the graph6
    of every union within ARGMAX_BAND of it, in enumeration order."""
    from qspex.search import ARGMAX_BAND, enumerate_graphs

    graphs = enumerate_graphs(query)
    radii = [oracle_q_radius(g) for g in graphs]
    best = max(radii)
    return best, [to_graph6(g) for g, q in zip(graphs, radii) if q >= best - ARGMAX_BAND]


@lru_cache(maxsize=None)
def oracle_cell_bands(k: int) -> dict[int, tuple[float, list[tuple[Graph, float]]]]:
    """By matching number b, the maximum of oracle_q_radius over the graphs
    of cell (k, b) of the connected catalog, found by scanning the whole
    level, and the graphs within ARGMAX_BAND of it with their radii, in
    catalog order.  A regrown catalog has the same graphs (equal masks)."""
    from qspex.search import ARGMAX_BAND, connected_catalog

    level = [(g, b, oracle_q_radius(g)) for g, b in connected_catalog(k)]
    top: dict[int, float] = {}
    for _, b, q in level:
        top[b] = max(top.get(b, 0.0), q)
    return {b: (q, [(g, p) for g, nu, p in level if nu == b and p >= q - ARGMAX_BAND])
            for b, q in sorted(top.items())}


def oracle_level_scan_max(query) -> tuple[float, list[Graph]]:
    """brute_force_max without the band lists or the program's radii: each
    cell's maximum and argmax pieces come from oracle_cell_bands."""
    from qspex import search

    lo, hi = search._bounds(query, query.m)
    m, last = query.m, len(search._cells) - 1
    cells = [(q, k, b) for k in range(1, m + 1) for b, (q, _) in oracle_cell_bands(k).items()
             if search._count(m - k, lo - b, hi - b, last)]
    best = max(cells)[0]
    band = best - search.ARGMAX_BAND
    argmax = {
        _graphs.canonical_union((g,) + rest)
        for q, k, b in cells if q >= band
        for g, p in oracle_cell_bands(k)[b][1] if p >= band
        for rest in search._walk(m - k, lo - b, hi - b, last)
    }
    return best, sorted(argmax, key=to_graph6)


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
def sparse_graphs(draw, min_n: int = 2, max_n: int = 10) -> Graph:
    """About as many edges as vertices, as in the climber's start graphs;
    isolated vertices and several components are common."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return Graph.from_edges(n, draw(st.sets(st.sampled_from(pairs), max_size=n + 3)))


def climber_moves(g: Graph) -> tuple[list, list]:
    """Every rotation (one edge out, one non-edge in) and every Kelmans swap
    (independent edges ab, cd out; ac, bd or ad, bc in) of g, each as
    (removed, added)."""
    edges = g.edges()
    non_edges = [f for f in combinations(range(g.n), 2) if not g.has_edge(*f)]
    rotations = [((e,), (f,)) for e in edges for f in non_edges]
    swaps = [
        ((e1, e2), (tuple(sorted(f1)), tuple(sorted(f2))))
        for e1, e2 in combinations(edges, 2)
        if not set(e1) & set(e2)
        for f1, f2 in (((e1[0], e2[0]), (e1[1], e2[1])), ((e1[0], e2[1]), (e1[1], e2[0])))
        if not g.has_edge(*f1) and not g.has_edge(*f2)
    ]
    return rotations, swaps



# (m, n) strata of seeded climber starts: m edges drawn among the pairs of n
# vertices, the strata of qbench's climb workload
CLIMB_STRATA = ((8, 8), (9, 8), (10, 8), (11, 8), (12, 9), (13, 9), (14, 10))


def climb_starts(seed: int, per_stratum: int) -> list[Graph]:
    """per_stratum seeded random starts for each stratum of CLIMB_STRATA,
    stratum by stratum; isolated vertices and several components are common."""
    rng = random.Random(seed)
    starts = []
    for m, n in CLIMB_STRATA:
        pairs = list(combinations(range(n), 2))
        starts += [Graph.from_edges(n, rng.sample(pairs, m)) for _ in range(per_stratum)]
    return starts


def oracle_hill_climb(start: Graph, query, max_steps: int = 64):
    """The climber evaluating every move: each step admission-checks every
    candidate move, solves the radius of every admitted one in one batch, and
    applies the least (move, detail) among the gains within Q_MARGIN of the
    largest; every step solves the current graph by q_radius."""
    from qspex.family import predicted_maximizers
    from qspex.graphs import is_isomorphic, strip_isolated
    from qspex.matching import MatchedGraph
    from qspex.search import ClimbStep, ClimbTrace
    from qspex.spectral import Q_MARGIN, q_pairs, q_radius
    from qspex.transform import ROTATION_MARGIN, candidate_table, move_detail

    matched = MatchedGraph(start)
    current = start
    steps = []
    for _ in range(max_steps):
        spectrum = q_radius(current)
        table = candidate_table(current, spectrum.x)
        moves = [
            (move, removed, added, current.rewire(removed, added))
            for move, removed, added in map(table.move, range(len(table)))
            if query.admits(matched.rewired_matching_number(removed, added))
        ]
        gains = [
            (q_after, move)
            for (q_after, _, _), move in zip(q_pairs([h for *_, h in moves]), moves)
            if q_after > spectrum.q + ROTATION_MARGIN
        ]
        if not gains:
            break
        top = max(q_after for q_after, _ in gains)
        move, detail, q_after, current = min(
            (
                (move, move_detail(removed, added), q_after, h)
                for q_after, (move, removed, added, h) in gains
                if q_after >= top - Q_MARGIN
            ),
            key=lambda tied: tied[:2],
        )
        steps.append(ClimbStep(move, detail, spectrum.q, q_after, to_graph6(current)))
        matched = MatchedGraph(current)
    trimmed = strip_isolated(current)
    converged = any(
        is_isomorphic(trimmed, t) for t in predicted_maximizers(query.m, query.beta)
    )
    return ClimbTrace(start, current, tuple(steps), converged)


def trace_text(trace) -> str:
    """A climb as text: each step with repr floats, the end graph6 and
    whether it converged to the prediction."""
    lines = [f"{s.move} {s.detail} {s.q_before!r} {s.q_after!r} {s.graph6}" for s in trace.steps]
    lines.append(f"end {to_graph6(trace.end)} {trace.converged_to_prediction}")
    return "\n".join(lines) + "\n"


@st.composite
def rewirings(draw) -> tuple[Graph, tuple, tuple]:
    """(g, removed, added): a graph with at most 10 vertices and a rotation, a
    Kelmans swap, or up to two edges out and two non-edges of g - out in,
    re-adding a removed edge included.  A graph without the move drawn gets
    another kind, and an edgeless or complete one the last kind."""
    g = draw(st.one_of(graphs(min_n=2, max_n=10), sparse_graphs()))
    rotations, swaps = climber_moves(g)
    kind = draw(st.sampled_from(["rotate", "swap", "any"]))
    moves = {"rotate": rotations or swaps, "swap": swaps or rotations, "any": []}[kind]
    if moves:
        return (g, *draw(st.sampled_from(moves)))
    edges = g.edges()
    removed = draw(st.lists(st.sampled_from(edges), max_size=2, unique=True)) if edges else []
    free = [f for f in combinations(range(g.n), 2) if f in removed or not g.has_edge(*f)]
    added = draw(st.lists(st.sampled_from(free), max_size=2, unique=True)) if free else []
    return g, tuple(removed), tuple(added)


@st.composite
def permutations_of(draw, n: int) -> list[int]:
    return draw(st.permutations(list(range(n))))


def oracle_refine(adj: list[int], colors: tuple[int, ...]) -> tuple[int, ...]:
    """Color refinement over the whole graph: each round ranks every vertex
    by (color, sorted neighbor colors) among all such pairs, until the
    colors repeat."""
    n = len(colors)
    while True:
        sigs = []
        for v in range(n):
            neigh = sorted(colors[u] for u in _graphs._bits(adj[v]))
            sigs.append((colors[v], tuple(neigh)))
        rank = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = tuple(rank[s] for s in sigs)
        if new == colors:
            return colors
        colors = new


def oracle_individualize(colors: tuple[int, ...], v: int) -> tuple[int, ...]:
    """v alone in its own cell, just before the rest of its old cell."""
    cv = colors[v]
    return tuple(
        c + 1 if (c > cv or (c == cv and u != v)) else c for u, c in enumerate(colors)
    )


ORACLE_AUT_CAP = 3000  # automorphisms the oracle records at most (pruning only weakens)


def oracle_canonical_order(g: Graph) -> list[int]:
    """Canonical order of a connected graph by individualization-refinement,
    pruned only by automorphisms found at key-equal leaves (no twin pruning).
    Visits every branch the library's search may skip, so it is exponential
    in the number of twins; keep inputs small."""
    n = g.n
    adj = [g.neighbors_mask(v) for v in range(n)]
    if n <= 1:
        return list(range(n))
    best_key: int | None = None
    best_perm: list[int] | None = None
    auts: list[list[int]] = []

    def search(colors: tuple[int, ...], fixed: tuple[int, ...]) -> None:
        nonlocal best_key, best_perm
        counts = [0] * n
        for c in colors:
            counts[c] += 1
        target = next((c for c, k in enumerate(counts) if k > 1), -1)
        if target < 0:
            perm = [0] * n
            for v, c in enumerate(colors):
                perm[c] = v
            key = _graphs._g6_bits_key(adj, perm)
            if best_key is None or key < best_key:
                best_key, best_perm = key, perm
            elif key == best_key and len(auts) < ORACLE_AUT_CAP:
                sigma = [0] * n
                for i in range(n):
                    sigma[best_perm[i]] = perm[i]
                inv = [0] * n
                for i, s in enumerate(sigma):
                    inv[s] = i
                auts.extend((sigma, inv))
            return
        tried: set[int] = set()
        for v in (v for v in range(n) if colors[v] == target):
            if any(
                sigma[v] in tried and all(sigma[u] == u for u in fixed)
                for sigma in auts
            ):
                continue
            tried.add(v)
            search(oracle_refine(adj, oracle_individualize(colors, v)), fixed + (v,))

    search(oracle_refine(adj, (0,) * n), ())
    assert best_perm is not None
    return best_perm


def oracle_canonical_graph(g: Graph) -> Graph:
    """canonical_graph through oracle_canonical_order: components labeled
    apart and joined in (n, m, bits) order."""
    parts = [induced_subgraph(p, oracle_canonical_order(p)) for p, _ in components(g)]
    parts.sort(key=lambda p: (p.n, p.m, _graphs._g6_bits_key(p._adj, range(p.n))))
    return union_all(parts)


@lru_cache(maxsize=None)
def oracle_connected_catalog(k: int) -> tuple[tuple[Graph, int], ...]:
    """Connected graphs with k edges, grown by canonicalizing every edge and
    leaf augmentation of level k - 1 with oracle_canonical_graph, sorted by
    graph6, each with its oracle matching number."""
    if k == 1:
        level = [oracle_canonical_graph(Graph.from_edges(2, [(0, 1)]))]
    else:
        seen: dict[str, Graph] = {}
        for g, _ in oracle_connected_catalog(k - 1):
            grown = [g.add_edge((u, v)) for u in range(g.n) for v in range(u + 1, g.n)
                     if not g.has_edge(u, v)]
            leafed = g.add_vertices(1)
            grown += [leafed.add_edge((u, g.n)) for u in range(g.n)]
            for h in grown:
                h = oracle_canonical_graph(h)
                seen.setdefault(to_graph6(h), h)
        level = [seen[form] for form in sorted(seen)]
    return tuple((g, oracle_matching_number(g)) for g in level)


def oracle_extremal_matching(g: Graph, x: np.ndarray, tol: float = 1e-12) -> tuple:
    """Edge tuple of the least maximum matching of the whole graph whose
    weight sum (x_u + x_v)^2 lies within tol of the best, by subset scan."""
    candidates = sorted(oracle_all_matchings_of_size(g, oracle_matching_number(g)))
    weights = [sum((x[u] + x[v]) ** 2 for u, v in mm) for mm in candidates]
    best = max(weights)
    return min(mm for mm, w in zip(candidates, weights) if w >= best - tol)


@st.composite
def relabeled(draw, g: Graph) -> Graph:
    return induced_subgraph(g, draw(st.permutations(list(range(g.n)))))


@st.composite
def star_like_graphs(draw) -> Graph:
    """A star with pendant paths and a few chords between its leaves, plus
    now and then a complete bipartite block: twin-heavy inputs, relabeled."""
    leaves = draw(st.integers(1, 12))
    paths = draw(st.lists(st.integers(1, 3), max_size=3))
    n = 1 + leaves + sum(paths)
    edges = [(0, i) for i in range(1, leaves + 1)]
    pos = leaves + 1
    for length in paths:
        edges.append((0, pos))
        edges += [(pos + i, pos + i + 1) for i in range(length - 1)]
        pos += length
    pairs = [(u, v) for u in range(1, leaves + 1) for v in range(u + 1, leaves + 1)]
    if pairs:
        edges += draw(st.lists(st.sampled_from(pairs), max_size=3, unique=True))
    g = Graph.from_edges(n, edges)
    if draw(st.booleans()):
        a, b = draw(st.integers(1, 3)), draw(st.integers(1, 5))
        g = union_all(
            [g, Graph.from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])]
        )
    return draw(relabeled(g))


@st.composite
def family_graphs(draw) -> Graph:
    """S(a, b, c) + d*K2, relabeled."""
    a, b, c, d = (draw(st.integers(lo, hi)) for lo, hi in ((1, 9), (0, 1), (0, 4), (0, 3)))
    k2 = Graph.from_edges(2, [(0, 1)])
    return draw(relabeled(union_all([build_s(a, b, c)] + [k2] * d)))


@st.composite
def repeated_unions(draw, max_n: int = 5, max_parts: int = 5) -> Graph:
    """Small graphs side by side, drawn with repetition and not relabeled, so
    each repeated draw gives components with equal masks."""
    kinds = draw(st.lists(graphs(min_n=1, max_n=max_n), min_size=1, max_size=3))
    return union_all(draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=max_parts)))


@st.composite
def cubic_like_graphs(draw) -> Graph:
    """A cycle plus a random perfect matching of chords: mostly 3-regular
    and not vertex-transitive, so refinement alone splits no cell and the
    individualized vertex decides the labeling."""
    n = draw(st.sampled_from([8, 10, 12]))
    order = draw(st.permutations(list(range(n))))
    cycle = [(i, (i + 1) % n) for i in range(n)]
    chords = [(order[2 * i], order[2 * i + 1]) for i in range(n // 2)]
    return Graph.from_edges(n, cycle + chords)
