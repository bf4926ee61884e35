"""Isomorph-free enumeration by edge count and matching number, exhaustive
q-maximization, and a rewiring hill climber.

Graphs are generated without isolated vertices as multisets of connected
pieces drawn from a catalog of connected graphs by edge count.  Edge count
and matching number add over pieces and the radius is their max, so pieces
are grouped into cells (k, b) by both: class sizes are the Euler transform of
the cell sizes, a class maximum is the best cell maximum Qc(k, b) whose
remainder class is non-empty, and only the argmax and one class are built.
Each catalog level is solved in one spectral.q_pairs batch of the pieces
that can reach the band of their cell maximum: from degrees alone, a piece's
radius lies between the Rayleigh quotient R of its degree vector and its
edge bound U = max over edges of d_u + d_v, so a piece whose U falls short of
the largest R of its cell by more than the band is not solved (_solve).  Up
to k = 10 that is 596 of the 3,390 pieces.  One table, _bands, holds each
cell's maximum with the pieces within ARGMAX_BAND of it, and the batch keeps
the certified pair of each such piece, so a class argmax reads its cells'
lists and a maximizer's spectrum is read from its pieces
(maximizer_spectrum), not solved again.

The catalog grows by edge/leaf augmentation: every connected graph h with
k+1 edges arises from a connected graph with k edges by adding an edge
between existing vertices or hanging a new leaf, since h always has a
deletable edge, one on a cycle or at a leaf.  Growth follows McKay's
canonical augmentation ("Isomorph-free exhaustive generation", 1998) as far
as cheap filters take it: h = p + e is canonicalized only if e maximizes,
among the deletable edges of h, the key (sorted endpoint degrees, then
sorted endpoint colors of the refinement of h from its degrees).  That key
is an isomorphism invariant, so each h still comes from the parent h - e*
for a maximizing e*.  The parent is augmented only at the least vertex of
each of its twin classes, and only by edges whose degrees can still reach
the best deletable edge it already has.  The augmentations of a level are
tested in chunks, each as one batch of padded adjacency arrays: the degree
test, the color refinement (graphs._refine_stack, the refinement of McKay
and Piperno's "Practical graph isomorphism II", 2014, as array rounds) and
the color test, with a bridge search only for rivals that are not leaf
edges.  A Graph is built only for the augmentations that pass, and their
labeling starts from the colors the filter computed.  Up to k = 10, 11,428
of the 30,401 augmentations reach the filter, 4,137 pass it, and 3,389
graphs are kept.  The few duplicates that pass are removed by canonical
adjacency, each new graph's matching number comes from its parent's maximum
matching (matching.MatchedGraph), and each level is sorted by graph6.

The hill climber applies the rotations and Kelmans swaps that
transform.candidate_table justifies and that keep the class.  One move
changes at most two edges, so it decides each move's matching number from
the current graph's maximum matching (matching.MatchedGraph) instead of a
blossom run on the rewired graph.  A move adds rank-one terms to Q, so the
current eigenpair and second eigenvalue bound every move's radius from
both sides (move_bounds); a step certifies the two moves with the best
lower bounds that keep the class, then only the moves that can reach the
band of the best so far: those whose upper bound reaches it and for which
an inertia count (can_reach), read off the one eigendecomposition of Q(g)
the step solves, leaves an eigenvalue above it.  On the seeded starts of
the climb benchmark (m = 8..14) a step certifies 3.6 matrices and makes 13.6
admission checks, against 32.6 and 53.9 when every move is certified, with
the same steps.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cache
from itertools import combinations_with_replacement, groupby, islice
from operator import itemgetter
from math import comb
from typing import Iterator, Sequence

import numpy as np

from .family import predicted_maximizers, predicted_order
from .graphs import (
    Graph,
    _bits,
    _refine_stack,
    adjacency_stack,
    canonical_graph,
    canonical_union,
    components,
    is_isomorphic,
    mask_stack,
    strip_isolated,
    to_graph6,
)
from .matching import MatchedGraph
from .spectral import Q_MARGIN, SpectralData, extremal_component, q_matrix, q_pairs, q_radius
from .transform import ROTATION_MARGIN, Move, MoveTable, candidate_table, move_detail

DEFAULT_GUARD = 10  # enumeration refuses edge counts beyond this unless raised
ARGMAX_BAND = 1e-8  # graphs within this of the max radius are co-extremal
# A climber move or a catalog piece is left unsolved only when its upper
# bound falls short of the band by more than this: twice RESIDUAL_TOL, the
# error of a move's bound from a certified pair, plus rounding, with room to
# spare.
PRUNE_SLACK = 1e-8
# Catalog growth tests this many augmentations per array batch, which bounds
# the filter's arrays to a few hundred kB.
_FILTER_CHUNK = 128
# can_reach drops a move only when the deciding eigenvalue of its bordered
# matrix M is below -_SCREEN_TOL |M|, some 1e5 times the rounding of M and
# its eigenvalues, and drops none when the level lies within _SCREEN_GAP of
# q, where M is ill-conditioned.  _MINUS_S_INV is M's constant part.  It
# gathers M for at most _SCREEN_BLOCK moves at a time, 512 bytes each.
_SCREEN_TOL = 1e-10
_SCREEN_GAP = 1e-6
_SCREEN_BLOCK = 1024
_MINUS_S_INV = np.diag([-1.0, -1.0, 1.0, 1.0])


@dataclass(frozen=True)
class EnumerationQuery:
    """Graph class selector:  edge count m with matching number == beta
    ("exact") or >= beta ("at_least")."""

    m: int
    beta: int
    mode: str = "exact"

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError(f"edge count must be >= 1, got {self.m}")
        if self.beta < 1:
            raise ValueError(f"matching number must be >= 1, got {self.beta}")
        if self.mode not in ("exact", "at_least"):
            raise ValueError(f"mode must be 'exact' or 'at_least', got {self.mode!r}")

    def admits(self, beta: int) -> bool:
        return beta == self.beta if self.mode == "exact" else beta >= self.beta


# ---------------------------------------------------------------------------
# Connected catalog
# ---------------------------------------------------------------------------

_catalog: dict[int, list[tuple[Graph, int]]] = {}


def connected_catalog(k: int) -> list[tuple[Graph, int]]:
    """All connected graphs with exactly k edges (canonical labels, no
    isolated vertices), each with its matching number; sorted by canonical
    form.  Cached and grown level by level.  The augmentations of a level are
    streamed in chunks of _FILTER_CHUNK and each chunk is tested by the
    canonical-deletion filter as one array batch (_canonical_deletions); only
    those that pass become graphs, are canonicalized from the colors the
    filter computed, and get a matching number from their parent."""
    if k < 1:
        raise ValueError(f"edge count must be >= 1, got {k}")
    if 1 not in _catalog:
        k2 = canonical_graph(Graph.from_edges(2, [(0, 1)]))
        _catalog[1] = [(k2, 1)]
    level = max(_catalog)
    while level < k:
        seen: dict[Graph, int] = {}  # each new graph and its matching number
        stream = ((p, e) for p, _ in _catalog[level] for e in _augmentations(p))
        parent, matched = None, None  # built for the first new child of a parent
        while chunk := list(islice(stream, _FILTER_CHUNK)):
            for i, adj, colors in _canonical_deletions(chunk):
                p, e = chunk[i]
                u, v = e
                h = canonical_graph(Graph(len(adj), adj), colors=colors)
                if h not in seen:
                    if parent is not p:
                        parent, matched = p, MatchedGraph(p)
                    seen[h] = (matched.leaf_matching_number(u) if v == p.n
                               else matched.rewired_matching_number((), (e,)))
        _catalog[level + 1] = sorted(seen.items(), key=lambda entry: to_graph6(entry[0]))
        level += 1
    return _catalog[k]


def _augmentations(g: Graph) -> Iterator[tuple[int, int]]:
    """The edges e of the augmentations g + e: e joins two non-adjacent
    vertices, or hangs a new leaf (u, g.n).  Taken only at the least vertex
    of each twin class of g, and for a non-edge inside a class at its two
    least.  Swapping twins is an automorphism of g, so each skipped g + e is
    isomorphic to one taken, by a map that carries e to its edge.

    Nor is e taken when its sorted endpoint degrees in g + e fall below those
    of a deletable edge of g: adding e lowers no degree and keeps that edge
    deletable, so e fails the canonical-deletion filter.  A new leaf at a
    leaf is the exception, since the old leaf edge becomes a bridge.
    """
    n = g.n
    masks = [g.neighbors_mask(v) for v in range(n)]
    degrees = [a.bit_count() for a in masks]
    floor = (0, 0)  # the largest sorted endpoint degrees of a deletable edge
    for u, v in g.edges():
        pair = (degrees[u], degrees[v]) if degrees[u] < degrees[v] else (degrees[v], degrees[u])
        if pair > floor and (pair[0] == 1 or not _is_bridge(masks, u, v)):
            floor = pair
    # a twin of v shares its open neighborhood or, if adjacent, its closed one;
    # v has twins of one of the two kinds only
    by_open: dict[int, int] = {}
    by_closed: dict[int, int] = {}
    for v, a in enumerate(masks):
        by_open.setdefault(a, v)
        by_closed.setdefault(a | 1 << v, v)
    least = [min(by_open[a], by_closed[a | 1 << v]) for v, a in enumerate(masks)]
    ends = [v for v in range(n) if least[v] == v]
    pairs = [(u, v) for i, u in enumerate(ends) for v in ends[i + 1:] if not masks[u] >> v & 1]
    second: dict[int, int] = {}
    for v in range(n):
        if least[v] != v:
            second.setdefault(least[v], v)
    pairs += [(u, v) for u, v in second.items() if not masks[u] >> v & 1]
    for u, v in pairs:
        du, dv = degrees[u] + 1, degrees[v] + 1
        if ((du, dv) if du < dv else (dv, du)) < floor:
            continue
        yield u, v
    for u in ends:
        if degrees[u] > 1 and (1, degrees[u] + 1) < floor:
            continue
        yield u, n


def _canonical_deletions(
    rows: list[tuple[Graph, tuple[int, int]]]
) -> Iterator[tuple[int, tuple[int, ...], tuple[int, ...]]]:
    """(i, masks, _refine(masks, degrees)) of h = p + e for each
    augmentation rows[i] = (p, e) whose edge e is a canonical deletion of h.

    e is canonical when it maximizes the key (sorted endpoint degrees, then
    sorted endpoint colors) over the deletable edges of h, those at a leaf
    or on a cycle.  e is deletable, since removing it leaves the connected
    parent.  The key is an isomorphism invariant, so h is still reached from
    the parent without e* for any maximizing e*.  The rows are tested
    together on padded arrays: first the edges whose sorted degrees beat e's,
    then, for the rows left, the colors of _refine_stack and the edges with
    e's degrees whose sorted colors beat e's.  The colors refine the degrees
    in order, so no other edge can beat e by its colors.  A row with a rival
    edge at a leaf fails at once; only the rows whose rivals are all inner
    edges are searched for one on a cycle, by _is_bridge.
    """
    # the masks of each parent once, padded; then each row's new edge
    n = np.array([p.n + (e[1] == p.n) for p, e in rows])
    width = int(n.max())
    parents: list[Graph] = []
    which = []
    for p, _ in rows:
        if not parents or p is not parents[-1]:
            parents.append(p)
        which.append(len(parents) - 1)
    masks = mask_stack(parents, width)[which]
    r = np.arange(len(rows))
    u, v = np.array([e for _, e in rows]).T
    masks[r, u] |= 1 << v
    masks[r, v] |= 1 << u
    adjacency = adjacency_stack(masks)
    lo, hi = _sorted_pairs(adjacency.sum(axis=2))
    edges = (adjacency > 0) & _upper(width)
    a, b = lo[r, u, v][:, None, None], hi[r, u, v][:, None, None]
    rival = edges & ((lo > a) | (lo == a) & (hi > b))
    keep = np.flatnonzero(~_deletable(masks, rival, lo))
    if not keep.size:
        return
    n = n[keep]
    colors = _refine_stack(adjacency[keep], n)
    c_lo, c_hi = _sorted_pairs(colors)
    j, u, v, lo = np.arange(keep.size), u[keep], v[keep], lo[keep]
    x, y = c_lo[j, u, v][:, None, None], c_hi[j, u, v][:, None, None]
    tie = edges[keep] & (lo == a[keep]) & (hi[keep] == b[keep])
    tie &= (c_lo > x) | (c_lo == x) & (c_hi > y)
    masks = masks[keep]
    for j in np.flatnonzero(~_deletable(masks, tie, lo)).tolist():
        yield int(keep[j]), tuple(masks[j, :n[j]].tolist()), tuple(colors[j, :n[j]].tolist())


def _sorted_pairs(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The lesser and the greater of values[r, u] and values[r, v], at [r, u, v]."""
    first, second = values[:, :, None], values[:, None, :]
    less = first < second
    return np.where(less, first, second), np.where(less, second, first)


@cache
def _upper(width: int) -> np.ndarray:
    """The pairs u < v of a width x width matrix, as a bool mask."""
    return np.array([[u < v for v in range(width)] for u in range(width)])


def _deletable(masks: np.ndarray, edges: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """Whether each row's graph, with adjacency masks masks[i], has a
    deletable edge among the upper-triangle `edges` of its row: one at a leaf
    (lower endpoint degree `lo` 1), or on a cycle, which _is_bridge decides
    only for the rows without the first."""
    found = (edges & (lo == 1)).any(axis=(1, 2))
    hit = found.tolist()
    adj, at = None, -1
    for i, s, t in zip(*(a.tolist() for a in np.nonzero(edges & ~found[:, None, None]))):
        if not hit[i]:
            if i != at:
                adj, at = masks[i].tolist(), i
            hit[i] = not _is_bridge(adj, s, t)
    return np.array(hit, dtype=bool)


def _is_bridge(adj: list[int], u: int, v: int) -> bool:
    """Whether removing the edge uv disconnects u from v, on adjacency masks."""
    reach = 1 << u
    frontier = adj[u] & ~(1 << v)
    while frontier:
        if frontier >> v & 1:
            return False
        reach |= frontier
        nxt = 0
        for w in _bits(frontier):
            nxt |= adj[w]
        frontier = nxt & ~reach
    return True


# _bands[k, b]: Qc(k, b) and the pieces of cell (k, b) within ARGMAX_BAND of
# it, in catalog order, the only pieces that can be or tie with a maximizer's
# extremal component; solved when a class first needs level k.  _kept: the
# certified pair (q, x, residual) of each band piece from that batch.
# _cells: pieces of levels 1..M (M the largest m asked for) in cells (k, b)
# ordered by k, then b.
_bands: dict[tuple[int, int], tuple[float, list[Graph]]] = {}
_kept: dict[Graph, tuple[float, np.ndarray, float]] = {}
_cells: list[tuple[int, int, list[Graph]]] = []


def _solve(k: int) -> None:
    """Fill _bands and _kept for the cells of level k, from one q_pairs batch
    of the pieces that can reach their cell maximum's band.

    Every piece has R <= q <= U (_degree_bounds), so a piece whose edge bound
    U falls short of the largest R of its cell by more than ARGMAX_BAND (and
    PRUNE_SLACK for rounding) is below the band of the cell maximum and is
    not solved.  The maximum and every piece in its band are solved, so
    _bands and _kept are those of solving every piece.
    """
    if (k, 1) in _bands:  # the star K1,k is in cell (k, 1) of every level
        return
    catalog = connected_catalog(k)
    upper, rayleigh = _degree_bounds([g for g, _ in catalog])
    # in ascending order, the last value kept for each b is the largest
    floor = dict(sorted(zip((b for _, b in catalog), rayleigh.tolist())))
    solve = [entry for entry, bound in zip(catalog, upper.tolist())
             if bound >= floor[entry[1]] - ARGMAX_BAND - PRUNE_SLACK]
    solved = [(entry, *pair) for entry, pair in zip(solve, q_pairs([g for g, _ in solve]))]
    # as for floor: the last q kept for each b is the cell maximum
    bands = {b: (q, []) for b, q in sorted((b, q) for (_, b), q, *_ in solved)}
    for (g, b), q, x, residual in solved:
        if q >= bands[b][0] - ARGMAX_BAND:
            _kept[g] = q, x.copy(), residual
            bands[b][1].append(g)
    _bands.update(((k, b), band) for b, band in bands.items())


def _degree_bounds(graphs: Sequence[Graph]) -> tuple[np.ndarray, np.ndarray]:
    """Upper and lower bounds on q(G) from degrees alone: U = max over edges
    uv of d_u + d_v (Cvetkovic, Rowlinson and Simic, "Signless Laplacians of
    finite graphs", 2007), an integer, and the Rayleigh quotient of the
    degree vector, R = sum over edges of (d_u + d_v)^2 / sum of d_v^2.
    Computed on adjacency arrays, _FILTER_CHUNK graphs at a time; each graph
    needs an edge."""
    upper, rayleigh = [], []
    for lo in range(0, len(graphs), _FILTER_CHUNK):
        chunk = graphs[lo:lo + _FILTER_CHUNK]
        width = max(g.n for g in chunk)
        adjacency = adjacency_stack(mask_stack(chunk, width))
        deg = adjacency.sum(axis=2)
        neighbor = adjacency * deg[:, None, :]
        upper.append((deg + neighbor.max(axis=2)).max(axis=1))
        # sum over edges of d_u^2 + d_v^2 + 2 d_u d_v, by vertices; the sums
        # are integers far below 2**53, so exact
        total = (deg * (deg * deg + neighbor.sum(axis=2))).sum(axis=1)
        rayleigh.append(total / (deg * deg).sum(axis=1))
    return np.concatenate(upper), np.concatenate(rayleigh)


def _bounds(query: EnumerationQuery, guard: int) -> tuple[int, int]:
    """The query's range of matching numbers, once _cells reach query.m."""
    if query.m > guard:
        raise ValueError(f"edge count {query.m} exceeds the enumeration guard {guard};"
                         " raise the guard explicitly to go bigger")
    for k in range(_cells[-1][0] + 1 if _cells else 1, query.m + 1):
        level = sorted(connected_catalog(k), key=itemgetter(1))  # stable
        _cells.extend((k, b, [g for g, _ in cell]) for b, cell in groupby(level, itemgetter(1)))
    return query.beta, query.beta if query.mode == "exact" else query.m


@cache
def _count(r: int, lo: int, hi: int, c: int) -> int:
    """Multisets of pieces from cells 0..c with r edges and matching number in
    lo..hi, the Euler transform of the cell sizes: j of n pieces in comb(n+j-1, j) ways.
    The cells with more than r edges take no piece, so the count starts at
    the last cell with at most r."""
    if c >= 0 and _cells[c][0] > r:
        c = bisect_right(_cells, r, hi=c, key=itemgetter(0)) - 1
    if c < 0 or hi < 0:
        return int(r == 0 and lo <= 0 <= hi)
    k, b, pieces = _cells[c]
    return sum(
        comb(len(pieces) + j - 1, j) * _count(r - j * k, lo - j * b, hi - j * b, c - 1)
        for j in range(r // k + 1)
    )


def _walk(r: int, lo: int, hi: int, c: int) -> Iterator[tuple[Graph, ...]]:
    """The multisets that _count counts, by last cell and its multiplicity, each
    taken only if the cells before can make up the rest: no branch comes up empty."""
    if not r:
        yield ()
        return
    for c in range(c, -1, -1):
        k, b, pieces = _cells[c]
        for j in range(1, r // k + 1):
            if _count(r - j * k, lo - j * b, hi - j * b, c - 1):
                for rest in _walk(r - j * k, lo - j * b, hi - j * b, c - 1):
                    for chosen in combinations_with_replacement(pieces, j):
                        yield chosen + rest


def class_size(query: EnumerationQuery, guard: int = DEFAULT_GUARD) -> int:
    """Size of the query class, read off the counts without building a member."""
    return _count(query.m, *_bounds(query, guard), len(_cells) - 1)


def enumerate_graphs(query: EnumerationQuery, guard: int = DEFAULT_GUARD) -> list[Graph]:
    """All graphs (no isolated vertices, canonical labels) with m edges in the
    query class, sorted by canonical form; no radius is solved."""
    members = _walk(query.m, *_bounds(query, guard), len(_cells) - 1)
    return sorted(map(canonical_union, members), key=to_graph6)


# ---------------------------------------------------------------------------
# Exhaustive maximization
# ---------------------------------------------------------------------------


def max_radius_over(graphs: list[Graph]) -> tuple[float, list[Graph]]:
    """Max q over a fixed graph list, keeping every graph within ARGMAX_BAND
    of the best.  Order-preserving and deterministic.  Kept for callers that
    use this name; brute_force_max reads cell maxima instead."""
    if not graphs:
        raise ValueError("empty graph list")
    radii = [q for q, _, _ in q_pairs(graphs)]
    best = max(radii)
    argmax = [g for g, q in zip(graphs, radii) if q >= best - ARGMAX_BAND]
    return best, argmax


def brute_force_max(
    query: EnumerationQuery, guard: int = DEFAULT_GUARD
) -> tuple[float, list[Graph]]:
    """Max spectral radius over the query class, the largest Qc(k, b) over the
    cells whose remainder class (m - k edges, the rest of the matching number)
    is non-empty, and the graphs within ARGMAX_BAND of it in canonical form
    order: each piece within the band in such a cell, read from the cell's
    band list (_bands), joined with each graph of its remainder class."""
    if query.m < query.beta:
        raise ValueError(
            f"empty class: no graph has {query.m} edges and matching number {query.beta}"
        )
    lo, hi = _bounds(query, guard)
    m, last = query.m, len(_cells) - 1
    for k in range(1, m + 1):
        _solve(k)
    cells = [(q, k, b) for (k, b), (q, _) in _bands.items()
             if k <= m and _count(m - k, lo - b, hi - b, last)]
    best = max(cells)[0]
    band = best - ARGMAX_BAND
    argmax = {
        canonical_union((g,) + rest)
        for q, k, b in cells if q >= band
        for g in _bands[k, b][1] if _kept[g][0] >= band
        for rest in _walk(m - k, lo - b, hi - b, last)
    }
    return best, sorted(argmax, key=to_graph6)


def maximizer_spectrum(g: Graph) -> SpectralData:
    """q_radius(g), bit for bit, for a member of a brute_force_max argmax,
    read from the pairs its catalog levels kept instead of solved again.

    A member joins a piece within ARGMAX_BAND of its cell maximum, whose pair
    is kept, with a remainder; the predicted maximizers' remainder d*K2 is
    kept too.  When every component with edges has a kept pair, those are
    the pairs q_radius would solve (see q_pairs) and extremal_component
    applies q_radius's rule to them; otherwise g is solved by q_radius.
    """
    try:
        return extremal_component(g, _kept.__getitem__)
    except KeyError:
        return q_radius(g)


# ---------------------------------------------------------------------------
# Hill climbing by rewirings
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClimbStep:
    move: str
    detail: str
    q_before: float
    q_after: float
    graph6: str


@dataclass(frozen=True)
class ClimbTrace:
    start: Graph
    end: Graph
    steps: tuple[ClimbStep, ...]
    converged_to_prediction: bool


def move_bounds(
    g: Graph, q: float, x: np.ndarray,
    eigen: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[MoveTable, np.ndarray, np.ndarray]:
    """candidate_table(g, x) with a lower and an upper bound on the radius
    of g after each move, for the certified pair (q, x) of g and the
    eigendecomposition eigen = np.linalg.eigh(q_matrix(g)); without it, the
    eigenvalues of Q(g) are solved here.

    With d = q - lam2, lam2 = eigen[0][-2] the second eigenvalue of the
    whole Q(g) counted with multiplicity, and w = e_a + e_b for an edge ab, a
    move changes Q(g) by the sum of w w^T over its added edges minus that
    over its removed ones.
    x^T Q x after the move bounds the radius from below (Courant-Fischer):
    q plus the squared endpoint sums of the added edges minus those of the
    removed ones.  Q(g) <= lam2 I + d x x^T (Loewner order), so the radius is
    at most lam2 plus the top eigenvalue of d x x^T + sum_added w w^T -
    sum_removed w w^T (Bunch, Nielsen and Sorensen, "Rank-one modification of
    the symmetric eigenproblem", 1978).  For a rotation that is the largest
    root of a cubic in the endpoint sums s_e, s_f and the number o of shared
    ends; a swap's bound drops the removed edges, which leaves a 2x2 problem.
    x is certified to RESIDUAL_TOL, which moves the upper bound by about
    twice that; PRUNE_SLACK covers it.  The bounds are cheap but loose when
    d is small; can_reach decides exactly, from the same eigen, which of the
    moves they keep can reach a given level.
    """
    table = candidate_table(g, x)
    if not len(table):
        return table, np.empty(0), np.empty(0)
    w = np.linalg.eigvalsh(q_matrix(g)) if eigen is None else eigen[0]
    lam2 = float(w[-2])
    d = max(q - lam2, 0.0)
    added = (table.added**2).sum(axis=1)
    lower = q + added - (table.removed**2).sum(axis=1)
    # without the removed edges: the top eigenvalue of d x x^T + sum_added
    # w w^T, the added edges disjoint, so d x x^T plus twice a projection
    bound = (d + 2) / 2 + np.sqrt((d - 2) ** 2 / 4 + d * added)
    # a rotation's cubic mu^3 - d mu^2 + c1 mu + c0 by the trigonometric form
    # of its largest root; o is 0 or 1, so o^2 = o, and p = c1 - d^2/3 <= -3
    # since s_f >= s_e up to the tie band
    r = table.rotations
    s_e, s_f, o = table.removed[:r, 0], table.added[:r, 0], table.shared[:r]
    c1 = d * (s_e * s_e - s_f * s_f) + (o - 4)
    c0 = d * (4 - o - 2 * (s_e * s_e + added[:r] - o * s_e * s_f))
    minus_p3 = (d * d / 3 - c1) / 3
    radius = np.sqrt(minus_p3)
    cos3 = (2 * d**3 / 27 - d * c1 / 3 - c0) / (2 * minus_p3 * radius)
    root = d / 3 + 2 * radius * np.cos(np.arccos(np.clip(cos3, -1.0, 1.0)) / 3)
    # near cos3 = -1 the two top roots meet and the form loses half its
    # digits; the bound without the removed edge is exact to rounding there
    bound[:r] = np.where(cos3 > -1 + 1e-6, root, bound[:r])
    return table, lower, lam2 + bound


def can_reach(
    table: MoveTable, rows: np.ndarray, eigen: tuple[np.ndarray, np.ndarray], mu0: float
) -> np.ndarray:
    """Whether Q after each move rows[i] of table can have an eigenvalue
    above mu0, exactly up to rounding, from eigen = (w, V), the
    eigendecomposition of Q = Q(g): False only when it cannot.

    A move makes Q' = Q + W S W^T, where W holds e_a + e_b for its added
    pairs and then its removed edges and S = diag(1, 1, -1, -1); a rotation
    is taken as a swap whose second pairs are empty, zero columns of W.  For
    mu0 above the top eigenvalue of Q, Haynsworth's inertia additivity on
    [[Q - mu0 I, W], [W^T, -S^-1]] ("Determination of the inertia of a
    partitioned Hermitian matrix", 1968) counts the eigenvalues of Q' above
    mu0 as the positive eigenvalues of M = -S^-1 + W^T (mu0 I - Q)^-1 W,
    less the two removed columns.  So Q' reaches above mu0 only if the
    second smallest eigenvalue of M is positive; a move is dropped only when
    that eigenvalue is below -_SCREEN_TOL times |M|, well beyond its
    rounding.  M is ill-conditioned as mu0 nears the top eigenvalue, so
    within _SCREEN_GAP of it no move is dropped.  The moves are screened
    _SCREEN_BLOCK at a time, which bounds the working arrays on the large
    tables of dense graphs.
    """
    w, v = eigen
    n = len(w)
    keep = np.ones(len(rows), dtype=bool)
    if not len(rows) or mu0 - w[-1] <= _SCREEN_GAP:
        return keep
    # (mu0 I - Q)^-1, padded with a zero row and column n for the empty pairs
    resolvent = np.zeros((n + 1, n + 1))
    resolvent[:n, :n] = (v / (mu0 - w)) @ v.T
    empty = [[n, n]]  # the pair of a -1 index
    non_edge_ends = np.concatenate((table.non_edge_ends, empty))
    edge_ends = np.concatenate((table.edge_ends, empty))
    for lo in range(0, len(rows), _SCREEN_BLOCK):
        block = rows[lo:lo + _SCREEN_BLOCK]
        ends = np.concatenate(
            (non_edge_ends[table.added_at[block]], edge_ends[table.removed_at[block]]), axis=1
        )
        # W^T (mu0 I - Q)^-1 W: each entry sums the resolvent over two pairs' ends
        border = resolvent[ends[:, :, None, :, None], ends[:, None, :, None, :]].sum(axis=(3, 4))
        # M >= -S^-1 >= -I, so its top eigenvalue, at least 1, is its norm
        eig = np.linalg.eigvalsh(border + _MINUS_S_INV)
        keep[lo:lo + _SCREEN_BLOCK] = eig[:, 1] >= -_SCREEN_TOL * eig[:, 3]
    return keep


def hill_climb(
    start: Graph, query: EnumerationQuery, max_steps: int = 64
) -> ClimbTrace:
    """Steepest-ascent climb inside the query class over the moves of
    transform.candidate_table: justified rotations and swap orientations.

    Among the moves that stay in the class and raise q by more than the
    solver margin, each step applies the least (move, detail) of those whose
    q_after lies within Q_MARGIN of the largest, so exact ties between
    symmetric moves are not decided by solver rounding.  Only the moves that
    can reach that band are certified: by the bounds of move_bounds, the
    step takes moves in decreasing lower bound until two stay in the class,
    certifies them in one q_pairs batch, and then certifies in a second
    batch the moves whose upper bound reaches within Q_MARGIN + PRUNE_SLACK
    of the best of the two and which can_reach, from the step's one
    eigendecomposition of Q, finds able to exceed that level less
    PRUNE_SLACK.  Every move left out is below the band, so the steps are
    those of evaluating every move.  Whether a move stays in the
    class is decided by MatchedGraph from one maximum matching and the
    Gallai-Edmonds barrier of the current graph, which settles most moves
    with no blossom search.  The step records the graph and radius from the
    batch; a connected graph without isolated vertices keeps that batch's
    pair for the next step, and another graph is solved by q_radius.  Stops
    at a local maximum or after max_steps (nonnegative); the trace records
    whether the endpoint is isomorphic to one of the predicted maximizers
    for the class.
    """
    if max_steps < 0:
        raise ValueError(f"max_steps must be nonnegative, got {max_steps}")
    if start.m != query.m:
        raise ValueError(
            f"start graph has {start.m} edges but the class requires {query.m}"
        )
    matched = MatchedGraph(start)
    if not query.admits(matched.size):
        raise ValueError("start graph is outside the query class")

    current = start
    pair = None  # the certified (q, x) of current, when a batch holds it
    steps: list[ClimbStep] = []
    for _ in range(max_steps):
        if pair is None:
            spectrum = q_radius(current)
            pair = spectrum.q, spectrum.x
        q, x = pair
        eigen = np.linalg.eigh(q_matrix(current))
        table, lower, upper = move_bounds(current, q, x, eigen)

        unchecked = np.ones(len(table), dtype=bool)

        def admitted(rows: list[int]) -> Iterator[Move]:
            for i in rows:
                unchecked[i] = False
                move = table.move(i)
                if query.admits(matched.rewired_matching_number(*move[1:])):
                    yield move

        by_lower = np.argsort(-lower, kind="stable").tolist()
        solved = _certify(current, list(islice(admitted(by_lower), 2)))
        if solved:
            # A move in the band is a gain within Q_MARGIN of the best gain, so
            # its q_after is at least the best of the two minus Q_MARGIN when
            # that one gains, and above it when it does not.
            reach = max(q_after for q_after, *_ in solved) - Q_MARGIN - PRUNE_SLACK
            # the upper bound is cheap and drops most moves of larger graphs;
            # can_reach decides the rest exactly
            rest = np.flatnonzero(unchecked & (upper >= reach))
            rest = rest[can_reach(table, rest, eigen, reach - PRUNE_SLACK)]
            solved += _certify(current, list(admitted(rest.tolist())))
        gains = [entry for entry in solved if entry[0] > q + ROTATION_MARGIN]
        if not gains:
            break
        top = max(q_after for q_after, *_ in gains)
        move, detail, q_after, current, x_after = min(
            (
                (kind, move_detail(removed, added), q_after, h, x_h)
                for q_after, (kind, removed, added), h, x_h in gains
                if q_after >= top - Q_MARGIN
            ),
            key=lambda tied: tied[:2],
        )
        steps.append(ClimbStep(move, detail, q, q_after, to_graph6(current)))
        matched = MatchedGraph(current)
        # q_radius solves a connected graph as one part: the batch's pair, bit for bit
        pair = (q_after, x_after) if len(components(current)) == 1 else None

    trimmed = strip_isolated(current)
    # no prediction is built that has more vertices than the end graph: it
    # could have more than a Graph can hold
    converged = predicted_order(query.m, query.beta) <= trimmed.n and any(
        is_isomorphic(trimmed, t) for t in predicted_maximizers(query.m, query.beta)
    )
    return ClimbTrace(
        start=start, end=current, steps=tuple(steps), converged_to_prediction=converged
    )


def _certify(
    g: Graph, moves: list[Move]
) -> list[tuple[float, Move, Graph, np.ndarray]]:
    """(q_after, move, graph, eigenvector) of the moves of g, from one
    q_pairs batch."""
    graphs = [g.rewire(removed, added) for _, removed, added in moves]
    return [(q, move, h, x) for move, h, (q, x, _) in zip(moves, graphs, q_pairs(graphs))]
