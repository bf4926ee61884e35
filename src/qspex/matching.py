"""Maximum matchings: size, rewiring decisions, exhaustive enumeration, and
eigenvector-weighted selection.

matching_number runs Edmonds' blossom algorithm (base-array contraction), so
it is exact on arbitrary graphs, odd cycles included.  MatchedGraph keeps one
maximum matching of a graph g and the Gallai-Edmonds barrier of g, and from
them decides the matching number of g with a few edges removed and added: a
warm-started matching from below, a Tutte-Berge bound from above, and blossom
searches only when the two differ.  all_maximum_matchings enumerates every
maximum matching by a decision search on the lowest live vertex, pruned by
exact feasibility checks: the matching number of the live vertices, found on
the adjacency lists cut down to them.  extremal_matching picks, among
maximum matchings, one maximizing sum (x_u + x_v)^2, component by component,
since both the matchings and the weight split over components; each
distinct component is enumerated once, and each copy weighs that list by its
own entries.  proper_ordering and edge_partition then fix the vertex
orientation and the E1/E2 edge split that the rewiring lemmas consume.
"""

from __future__ import annotations

import functools
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .graphs import Graph, _bits, components

# Matchings within this weight of the best are treated as tied, and vertex
# orientations with |x_u - x_v| inside it fall back to index order; keeps the
# selection stable under eigensolver noise and symmetric eigenvectors.
WEIGHT_TIE_TOL = 1e-12

ENUMERATION_GUARD = 20  # all_maximum_matchings refuses larger vertex counts


@dataclass(frozen=True)
class Matching:
    """A set of pairwise vertex-disjoint edges, stored sorted as (u, v), u < v."""

    edges: tuple[tuple[int, int], ...]

    @classmethod
    def of(cls, g: Graph, edges: Iterable[tuple[int, int]]) -> "Matching":
        norm = sorted((u, v) if u < v else (v, u) for u, v in edges)
        seen: set[int] = set()
        for u, v in norm:
            if not g.has_edge(u, v):
                raise ValueError(f"not an edge of the graph: {(u, v)!r}")
            if u in seen or v in seen:
                raise ValueError(f"matching edges share vertex in {(u, v)!r}")
            seen.update((u, v))
        return cls(tuple(norm))

    @property
    def size(self) -> int:
        return len(self.edges)

    def vertices(self) -> set[int]:
        return {w for e in self.edges for w in e}


@dataclass(frozen=True)
class OrderedMatching:
    """Matching edges oriented as (u_i, v_i) with x_{u_i} <= x_{v_i}, sorted by
    descending x_{v_i} (ties broken toward smaller vertex index).  v_1 is the
    anchor vertex pairs[0][1]."""

    pairs: tuple[tuple[int, int], ...]

    @property
    def v1(self) -> int:
        return self.pairs[0][1]


# ---------------------------------------------------------------------------
# Blossom maximum matching
# ---------------------------------------------------------------------------


def _find_augmenting(n: int, adj: list[list[int]], match: list[int], root: int) -> int:
    """Search for an augmenting path from the exposed vertex root.

    If one exists, flip it into match and return 0.  Otherwise return the
    bitmask of the search tree's outer vertices: those that an even
    alternating path reaches from root, root included.
    """
    if not adj[root]:  # an isolated root is its whole search tree
        return 1 << root
    parent = [-1] * n
    base = list(range(n))
    in_tree = [False] * n
    in_tree[root] = True
    queue = deque([root])

    def lca(a: int, b: int) -> int:
        on_path = [False] * n
        v = a
        while True:
            v = base[v]
            on_path[v] = True
            if match[v] == -1:
                break
            v = parent[match[v]]
        v = b
        while True:
            v = base[v]
            if on_path[v]:
                return v
            v = parent[match[v]]

    def mark_path(v: int, b: int, child: int, blossom: list[bool]) -> None:
        while base[v] != b:
            blossom[base[v]] = True
            blossom[base[match[v]]] = True
            parent[v] = child
            child = match[v]
            v = parent[match[v]]

    while queue:
        v = queue.popleft()
        for to in adj[v]:
            if base[v] == base[to] or match[v] == to:
                continue
            if to == root or (match[to] != -1 and parent[match[to]] != -1):
                # odd cycle: contract the blossom around the common base
                cur_base = lca(v, to)
                blossom = [False] * n
                mark_path(v, cur_base, to, blossom)
                mark_path(to, cur_base, v, blossom)
                for i in range(n):
                    if blossom[base[i]]:
                        base[i] = cur_base
                        if not in_tree[i]:
                            in_tree[i] = True
                            queue.append(i)
            elif parent[to] == -1:
                parent[to] = v
                if match[to] == -1:
                    # augment: flip matched edges along the alternating path
                    u = to
                    while u != -1:
                        pv = parent[u]
                        nxt = match[pv]
                        match[u] = pv
                        match[pv] = u
                        u = nxt
                    return 0
                if not in_tree[match[to]]:
                    in_tree[match[to]] = True
                    queue.append(match[to])
    outer = 0
    for v in range(n):
        if in_tree[v]:
            outer |= 1 << v
    return outer


def _maximize(n: int, adj: list[list[int]], match: list[int]) -> int:
    """Grow match greedily, then to a maximum matching by one search from each
    exposed vertex.  Return the union of the failed searches' outer vertices.

    A vertex whose search fails keeps no augmenting path and its search tree
    stays intact while other searches augment (Edmonds' lemma), so each vertex
    needs one search, and the union is the Gallai-Edmonds set D of the
    vertices that some maximum matching leaves exposed.
    """
    for v in range(n):
        if match[v] == -1:
            for to in adj[v]:
                if match[to] == -1:
                    match[v] = to
                    match[to] = v
                    break
    missed = 0
    for v in range(n):
        if match[v] == -1:
            missed |= _find_augmenting(n, adj, match, v)
    return missed


def maximum_matching(g: Graph) -> Matching:
    """One maximum matching (exact, via blossom contraction)."""
    n = g.n
    match = [-1] * n
    _maximize(n, [list(g.neighbors(v)) for v in range(n)], match)
    return Matching(tuple(sorted((v, match[v]) for v in range(n) if match[v] > v)))


def matching_number(g: Graph) -> int:
    return maximum_matching(g).size


class MatchedGraph:
    """A graph g with one maximum matching M and the Gallai-Edmonds barrier B
    of g, from which the matching number of a rewiring h = g - R + A is
    decided: R a set of edges of g, A a set of non-edges of g - R.

    Lower bound: M minus R is a matching of h, and an added edge whose ends
    are both free joins it.  When R is one matched edge uv and some maximum
    matching of g misses u or v, that matching avoids uv, so nu(h) >= nu(g).

    Upper bound: nu(h) <= (n + |B| - odd(h - B)) / 2 for any vertex set B
    (Tutte-Berge).  The bound is taken on g - B + A, of which h - B is a
    subgraph; splitting a component never lowers the number of odd ones.
    For the barrier of g it equals nu(g) plus the number of added edges that
    join two odd components.

    When the bounds meet, that is nu(h).  Otherwise the warm-started matching
    grows by one blossom search from each exposed vertex until it meets the
    upper bound or every search has failed, which is exact by Edmonds'
    lemma.  Most climber moves are decided with no search.
    """

    __slots__ = ("size", "_n", "_adj", "_mate", "_missed", "_label", "_odd", "_bound")

    def __init__(self, g: Graph):
        n = g.n
        self._n = n
        self._adj = [list(g.neighbors(v)) for v in range(n)]
        self._mate = [-1] * n
        self._missed = missed = _maximize(n, self._adj, self._mate)
        self.size = sum(1 for v in range(n) if self._mate[v] > v)
        barrier = 0
        for v in _bits(missed):
            barrier |= g.neighbors_mask(v)
        barrier &= ~missed
        # components of g - B: a label per vertex (-1 on B), odd flag per label
        self._label = [-1] * n
        self._odd: list[bool] = []
        rest = ((1 << n) - 1) & ~barrier
        while rest:
            part = frontier = rest & -rest
            while frontier:
                reach = 0
                for w in _bits(frontier):
                    reach |= g.neighbors_mask(w)
                frontier = reach & rest & ~part
                part |= frontier
            rest &= ~part
            for w in _bits(part):
                self._label[w] = len(self._odd)
            self._odd.append(bool(part.bit_count() & 1))
        self._bound = (n + barrier.bit_count() - sum(self._odd)) // 2

    def leaf_matching_number(self, u: int) -> int:
        """nu(g plus a new vertex joined to u): one more exactly when some
        maximum matching of g misses u, for the new edge then extends it."""
        return self.size + (self._missed >> u & 1)

    def rewired_matching_number(
        self, removed: Sequence[tuple[int, int]], added: Sequence[tuple[int, int]]
    ) -> int:
        """nu(g - removed + added), exact.  removed must be edges of g, and
        added pairs of distinct vertices that are not edges of g - removed;
        the climber passes only such moves, and they are not checked."""
        n = self._n
        match = self._mate.copy()
        size = self.size
        for u, v in removed:
            if match[u] == v:
                match[u] = match[v] = -1
                size -= 1
        floor = size
        if len(removed) == 1 and size < self.size:
            ((u, v),) = removed
            if (self._missed >> u | self._missed >> v) & 1:
                floor = self.size
        bound = self._bound
        label, odd = self._label, self._odd
        joined: dict[int, int] = {}  # union-find over the labels A joins
        joined_odd: dict[int, bool] = {}
        for u, v in added:
            if match[u] == -1 and match[v] == -1:
                match[u] = v
                match[v] = u
                size += 1
            a, b = label[u], label[v]
            if a < 0 or b < 0:
                continue
            while a in joined:
                a = joined[a]
            while b in joined:
                b = joined[b]
            if a != b:
                odd_a, odd_b = joined_odd.get(a, odd[a]), joined_odd.get(b, odd[b])
                joined[b] = a
                joined_odd[a] = odd_a != odd_b
                bound += odd_a and odd_b
        if max(size, floor) >= bound:
            return bound
        adj = self._adj.copy()
        for u, v in removed:
            adj[u] = [w for w in adj[u] if w != v]
            adj[v] = [w for w in adj[v] if w != u]
        for u, v in added:
            adj[u] = adj[u] + [v]
            adj[v] = adj[v] + [u]
        # An augmenting path joins two exposed vertices, so once every other
        # exposed vertex has failed its search the last one has no partner.
        roots = [v for v in range(n) if match[v] == -1 and adj[v]]
        for v in roots[:-1]:
            if match[v] == -1 and not _find_augmenting(n, adj, match, v):
                size += 1
                if size == bound:
                    break
        return size


# ---------------------------------------------------------------------------
# Exhaustive enumeration of maximum matchings
# ---------------------------------------------------------------------------


def all_maximum_matchings(g: Graph) -> list[Matching]:
    """Every maximum matching, sorted by edge tuples, of a graph with at most
    ENUMERATION_GUARD vertices.

    Decision search on the lowest still-live vertex: match it to each live
    neighbor, or leave it unmatched.  A branch survives only if the matching
    number of the residual graph keeps the maximum reachable, so the tree
    never walks dead ends; each maximum matching appears exactly once.  That
    matching number comes from a blossom run on g's adjacency lists cut down
    to the live vertices, cached by their mask.
    """
    if g.n > ENUMERATION_GUARD:
        raise ValueError(f"vertex count {g.n} exceeds enumeration guard {ENUMERATION_GUARD}")
    n = g.n
    neighbors = [g.neighbors(v) for v in range(n)]
    residual_cache: dict[int, int] = {}

    def residual_beta(mask: int) -> int:
        """nu of g restricted to mask, on the adjacency lists cut down to it."""
        cached = residual_cache.get(mask)
        if cached is None:
            adj = [[w for w in nbrs if mask >> w & 1] if mask >> v & 1 else []
                   for v, nbrs in enumerate(neighbors)]
            match = [-1] * n
            _maximize(n, adj, match)
            cached = residual_cache[mask] = sum(1 for v in range(n) if match[v] > v)
        return cached

    full = (1 << n) - 1
    beta = residual_beta(full)

    out: list[tuple[tuple[int, int], ...]] = []
    chosen: list[tuple[int, int]] = []

    def rec(mask: int) -> None:
        if len(chosen) + residual_beta(mask) < beta:
            return
        if len(chosen) == beta:
            out.append(tuple(chosen))
            return
        v = (mask & -mask).bit_length() - 1
        live_neighbors = g.neighbors_mask(v) & mask
        m = live_neighbors
        while m:
            low = m & -m
            u = low.bit_length() - 1
            m ^= low
            chosen.append((v, u))
            rec(mask & ~(1 << v) & ~(1 << u))
            chosen.pop()
        rec(mask & ~(1 << v))  # v stays unmatched

    if g.n:
        rec(full)
    else:
        out.append(())
    matchings = [Matching(tuple(sorted(edges))) for edges in out]
    matchings.sort(key=lambda mm: mm.edges)
    return matchings


# ---------------------------------------------------------------------------
# Eigenvector-weighted selection and ordering
# ---------------------------------------------------------------------------


def matching_weight(m: Matching, x: np.ndarray) -> float:
    return float(sum((x[u] + x[v]) ** 2 for u, v in m.edges))


def extremal_matching(g: Graph, x: np.ndarray) -> Matching:
    """A maximum matching maximizing sum (x_u + x_v)^2.

    Maximum matchings and the weight both split over components, so each
    component with edges gets its own matching and the results are joined.
    A component equal to an earlier one (same masks) reuses its list of
    maximum matchings, but makes its own choice by its own entries.
    Within a component, ties within WEIGHT_TIE_TOL of its best weight are
    broken by taking the lexicographically least edge tuple.  The join is
    then the least of all joins of tied matchings: on matchings of one size,
    the lexicographic order of sorted edge tuples does not change when the
    same disjoint edges are added to both.  The result is deterministic and
    stable under eigensolver noise, and only the largest component counts
    against the enumeration guard.
    """
    return _extremal_matching(g, x.tolist(), {})


def _extremal_matching(
    g: Graph, x: list[float], enumerated: dict[Graph, list[Matching]]
) -> Matching:
    """extremal_matching(g, np.array(x)), with the maximum matchings of each
    component taken from `enumerated`, keyed by the component's masks, and
    the lists of components not yet in it added there."""
    if g.m == 0:
        raise ValueError("graph has no edges; no matching to select")
    edges: list[tuple[int, int]] = []
    for part, verts in components(g):
        if part.m == 0:
            continue
        x_part = [x[v] for v in verts]
        candidates = enumerated.get(part)
        if candidates is None:
            candidates = enumerated[part] = all_maximum_matchings(part)
        weights = [matching_weight(mm, x_part) for mm in candidates]
        best = max(weights)
        tied = [mm for mm, w in zip(candidates, weights) if w >= best - WEIGHT_TIE_TOL]
        chosen = min(tied, key=lambda mm: mm.edges)
        edges.extend((verts[u], verts[v]) for u, v in chosen.edges)
    return Matching(tuple(sorted(edges)))


def proper_ordering(m: Matching, x: np.ndarray) -> OrderedMatching:
    """Orient each edge so x_u <= x_v, then sort by descending x_v, then
    descending x_u.  Comparisons within WEIGHT_TIE_TOL are ties and fall back
    to vertex-index order (smaller index takes the v slot on an orientation
    tie), keeping the ordering reproducible for symmetric eigenvectors.
    """
    if not m.edges:
        raise ValueError("empty matching has no ordering")
    oriented = []
    for a, b in m.edges:
        if x[a] > x[b] + WEIGHT_TIE_TOL:
            u, v = b, a
        elif x[b] > x[a] + WEIGHT_TIE_TOL:
            u, v = a, b
        else:
            v, u = (a, b) if a < b else (b, a)
        oriented.append((u, v))

    def cmp(p: tuple[int, int], q: tuple[int, int]) -> int:
        dv = x[p[1]] - x[q[1]]
        if abs(dv) > WEIGHT_TIE_TOL:
            return -1 if dv > 0 else 1
        du = x[p[0]] - x[q[0]]
        if abs(du) > WEIGHT_TIE_TOL:
            return -1 if du > 0 else 1
        return -1 if p < q else (0 if p == q else 1)

    oriented.sort(key=functools.cmp_to_key(cmp))
    return OrderedMatching(tuple(oriented))


def edge_partition(
    g: Graph, om: OrderedMatching
) -> tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]:
    """Split E(G) into E1 = matching edges plus all edges at the anchor v_1,
    and E2 = the rest.  Both halves come back sorted."""
    v1 = om.v1
    e1 = {(u, v) if u < v else (v, u) for u, v in om.pairs}
    e1.update((min(v1, w), max(v1, w)) for w in g.neighbors(v1))
    all_edges = g.edges()
    e2 = [e for e in all_edges if e not in e1]
    missing = e1.difference(all_edges)
    if missing:
        raise ValueError(f"ordered matching uses non-edges: {sorted(missing)!r}")
    return tuple(sorted(e1)), tuple(e2)
