"""Labeled simple graphs on small vertex sets.

Vertices are integers ``0..n-1``.  Adjacency lives in per-vertex bitmasks,
which keeps edge tests, neighborhood scans and induced subgraphs cheap at the
sizes this package targets (n <= 62, the single-byte graph6 range); every
padded mask array and dense adjacency stack of the batched filters and
eigensolves is built here (`mask_stack`, `adjacency_stack`).  Graphs are
immutable; edits return new objects.  A disconnected graph is labeled
component by component, each distinct component (equal masks after the
order-preserving relabeling of `components`) once, and the labeled parts are
joined in one order (`canonical_union`).
"""

from __future__ import annotations

import functools
from typing import Iterable, Iterator, Sequence

import numpy as np

GRAPH6_MAX_N = 62
_G6_BITS = {63 + d: format(d, "06b") for d in range(64)}  # body byte -> its six bits
_G6_CHARS = {bits: chr(byte) for byte, bits in _G6_BITS.items()}


class Graph6Error(ValueError):
    """Malformed graph6 text (bad header, truncated body, trailing garbage)."""


class Graph:
    """Immutable simple graph: vertex count plus one adjacency bitmask per vertex."""

    __slots__ = ("n", "m", "_adj")

    def __init__(self, n: int, adj: tuple[int, ...]):
        # Trusted constructor -- use from_edges() unless the masks are known good.
        self.n = n
        self._adj = adj
        self.m = sum(a.bit_count() for a in adj) // 2

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]] = ()) -> "Graph":
        if not 0 <= n <= GRAPH6_MAX_N:
            raise ValueError(f"vertex count {n} outside supported range 0..{GRAPH6_MAX_N}")
        adj = [0] * n
        for e in edges:
            u, v = e
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"vertex out of range in edge {e!r}")
            if u == v:
                raise ValueError(f"loop edge {e!r}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return cls(n, tuple(adj))

    def degree(self, v: int) -> int:
        return self._adj[v].bit_count()

    def neighbors_mask(self, v: int) -> int:
        return self._adj[v]

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(_bits(self._adj[v]))

    def has_edge(self, u: int, v: int) -> bool:
        """False for a loop and for any vertex outside 0..n-1."""
        n = self.n
        return 0 <= u < n and 0 <= v < n and u != v and bool(self._adj[u] >> v & 1)

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, lexicographically sorted."""
        out = []
        for u in range(self.n):
            rest = self._adj[u] >> (u + 1) << (u + 1)
            out.extend((u, v) for v in _bits(rest))
        return out

    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(sorted((a.bit_count() for a in self._adj), reverse=True))

    def add_edge(self, e: tuple[int, int]) -> "Graph":
        return self.rewire((), (e,))

    def rewire(
        self, removed: Iterable[tuple[int, int]], added: Iterable[tuple[int, int]]
    ) -> "Graph":
        """The graph with the edges in `removed` deleted, then those in
        `added` inserted, in order; a removed edge may be added back."""
        n = self.n
        adj = list(self._adj)
        for e in removed:
            u, v = e
            if not (0 <= u < n and 0 <= v < n and u != v and adj[u] >> v & 1):
                raise ValueError(f"edge not in graph: {e!r}")
            adj[u] &= ~(1 << v)
            adj[v] &= ~(1 << u)
        for e in added:
            u, v = e
            if u == v:
                raise ValueError(f"loop edge {e!r}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"vertex out of range in edge {e!r}")
            if adj[u] >> v & 1:
                raise ValueError(f"edge already present: {e!r}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return Graph(n, tuple(adj))

    def add_vertices(self, k: int) -> "Graph":
        if k < 0:
            raise ValueError("cannot add a negative number of vertices")
        if self.n + k > GRAPH6_MAX_N:
            raise ValueError(f"vertex count {self.n + k} outside supported range")
        return Graph(self.n + k, self._adj + (0,) * k)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Graph) and self.n == other.n and self._adj == other._adj
        )

    def __hash__(self) -> int:
        return hash((self.n, self._adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edges()!r})"


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# ---------------------------------------------------------------------------
# graph6 codec (n <= 62 form: header byte n+63, upper-triangle bits in column
# order (0,1),(0,2),(1,2),(0,3),..., packed big-endian into 6-bit sextets).
# ---------------------------------------------------------------------------


def to_graph6(g: Graph) -> str:
    n = g.n
    if n > GRAPH6_MAX_N:
        raise ValueError(f"graph6 single-byte form requires n <= {GRAPH6_MAX_N}")
    # the decoder's number built back: column v, the pairs (u, v) with u < v,
    # in the next v bits from the low end, bit u for (u, v)
    adj = g._adj
    x = 0
    for v in range(n - 1, 0, -1):
        x = x << v | adj[v] & ((1 << v) - 1)
    nbits = n * (n - 1) // 2
    # low bit first, then zero padding to whole sextets
    bits = bin(x | 1 << nbits)[:2:-1] + "0" * (-nbits % 6)
    return chr(n + 63) + "".join(_G6_CHARS[bits[i:i + 6]] for i in range(0, len(bits), 6))


def from_graph6(text: str | bytes) -> Graph:
    if isinstance(text, (bytes, bytearray)):
        try:
            text = text.decode("ascii")
        except UnicodeDecodeError as exc:
            raise Graph6Error(f"malformed header: not ASCII ({exc})") from None
    text = text.rstrip("\n")
    if not text:
        raise Graph6Error("malformed header: empty input")
    head = ord(text[0])
    if head == 126:
        raise Graph6Error("malformed header: multi-byte vertex counts (n > 62) unsupported")
    if not 63 <= head <= 125:
        raise Graph6Error(f"malformed header: byte {head} outside printable graph6 range")
    n = head - 63
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    body = text[1:]
    if len(body) < nbytes:
        raise Graph6Error(f"truncated bit body: expected {nbytes} bytes, got {len(body)}")
    if len(body) > nbytes:
        raise Graph6Error(f"trailing garbage: {len(body) - nbytes} byte(s) past the bit body")
    bits = body.translate(_G6_BITS)
    if len(bits) != 6 * nbytes:  # a byte outside 63..126 is left as one char
        o = next(o for o in map(ord, body) if not 63 <= o <= 126)
        raise Graph6Error(f"invalid body byte {o}: outside graph6 range 63..126")
    # read backwards, the bits fill a number from its low bit up: column v, the
    # pairs (u, v) with u < v, in the next v bits, bit u for (u, v); then padding
    x = int(bits[::-1] or "0", 2)
    if x >> nbits:
        raise Graph6Error("trailing garbage: nonzero padding bits")
    adj = [0] * n
    for v in range(1, n):
        col = adj[v] = x & ((1 << v) - 1)
        x >>= v
        bit = 1 << v
        while col:
            low = col & -col
            adj[low.bit_length() - 1] |= bit
            col ^= low
    return Graph(n, tuple(adj))


# ---------------------------------------------------------------------------
# Components and vertex-set surgery
# ---------------------------------------------------------------------------


def components(g: Graph) -> tuple[tuple[Graph, tuple[int, ...]], ...]:
    """Connected components as (induced subgraph, original-vertex tuple) pairs.

    Parts appear in order of their smallest original vertex, and each part's
    vertex tuple is ascending, so the decomposition is deterministic.
    """
    seen = 0
    parts = []
    for v in range(g.n):
        if seen >> v & 1:
            continue
        comp = 1 << v
        frontier = comp
        while frontier:
            nxt = 0
            for u in _bits(frontier):
                nxt |= g._adj[u]
            frontier = nxt & ~comp
            comp |= frontier
        seen |= comp
        verts = tuple(_bits(comp))
        if len(verts) == g.n:
            part = g  # a connected g is its own part; Graph is immutable, so no copy
        elif comp >> v == (1 << len(verts)) - 1:
            # consecutive vertices, as in a union: a shift relabels them
            part = Graph(len(verts), tuple(g._adj[u] >> v for u in verts))
        else:
            part = induced_subgraph(g, verts)
        parts.append((part, verts))
    return tuple(parts)


def induced_subgraph(g: Graph, vertices: Sequence[int]) -> Graph:
    """Subgraph on `vertices`; result vertex i is `vertices[i]`.

    With `vertices` a permutation of range(n) this is a relabeling.
    """
    index = {v: i for i, v in enumerate(vertices)}
    if len(index) != len(vertices):
        raise ValueError("duplicate vertex in induced_subgraph")
    k = len(vertices)
    adj = [0] * k
    for i, v in enumerate(vertices):
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range")
        mask = g._adj[v]
        for w in _bits(mask):
            j = index.get(w)
            if j is not None:
                adj[i] |= 1 << j
    return Graph(k, tuple(adj))


def strip_isolated(g: Graph) -> Graph:
    """Drop degree-0 vertices, keeping the relative order of the rest."""
    keep = [v for v in range(g.n) if g._adj[v]]
    return induced_subgraph(g, keep)


def union_all(parts: Iterable[Graph]) -> Graph:
    """The parts side by side, each shifted past the vertices before it."""
    adj: list[int] = []
    for p in parts:
        shift = len(adj)
        adj.extend(mask << shift for mask in p._adj)
    if len(adj) > GRAPH6_MAX_N:
        raise ValueError("disjoint union exceeds supported vertex range")
    return Graph(len(adj), tuple(adj))


# ---------------------------------------------------------------------------
# Dense arrays: the one place masks become numpy stacks.
# ---------------------------------------------------------------------------


def mask_stack(graphs: Sequence[Graph], width: int) -> np.ndarray:
    """The adjacency masks of each graph as one row of a (len(graphs), width)
    int64 array, padded with isolated vertices past each graph's n."""
    return np.array([g._adj + (0,) * (width - g.n) for g in graphs], dtype=np.int64)


def adjacency_stack(masks: np.ndarray) -> np.ndarray:
    """The 0/1 float adjacency matrices of adjacency mask rows: shape
    (..., n) gives (..., n, n), bit j of row i being the (i, j) entry."""
    return ((masks[..., None] >> np.arange(masks.shape[-1])) & 1).astype(float)


# ---------------------------------------------------------------------------
# Canonical labeling.
#
# Connected graphs go through iterated neighborhood color refinement plus
# individualization-refinement search: among the labelings the search visits,
# keep the one whose graph6 bit sequence is least.  The visited set is itself
# relabeling-invariant (refinement and cell numbering depend only on structure),
# so the winner is a true canonical representative even though it need not be
# the global lexicographic minimum over all n! orderings.  Refinement keeps the
# color classes as cells in color order and splits each cell by its vertices'
# sorted neighbor colors, never computing a signature for a singleton cell
# (the cell splitting of McKay & Piperno, "Practical graph isomorphism II",
# 2014).  The root refinement starts from the degrees, the colors one round
# from all zeros gives.  Automorphisms prune the search as in McKay,
# "Practical graph isomorphism" (1981).  A leaf whose key equals that of the
# first leaf or of the least leaf gives an automorphism mapping that leaf to
# this one; it is recorded, and since it maps the other leaf's branch below
# their deepest common ancestor onto this leaf's branch, the search returns to
# that ancestor.  At a node, a child is skipped when it lies in the orbit of
# a tried child under the recorded automorphisms that fix the node's
# individualized vertices, or is a twin of a tried child: twins v, w are
# vertices whose neighborhoods agree apart from each other, and the
# transposition (v w) fixes every individualized vertex.  A child is also
# skipped when its pendant block swaps with a tried child's: a pendant block
# is a vertex pair, a triangle or path pair, joined to the rest only through
# one hub, and two blocks of one shape at one hub, neither holding an
# individualized vertex, swap by an automorphism that fixes every
# individualized vertex.  Each pruned branch
# is the image of a visited one, so the least key is unchanged.  Twinship is
# an equivalence, and a vertex outside a twin class sees all of it or none,
# so individualizing a twin splits no cell: a target cell made only of twins
# is labeled in one step, its vertices in index order, the one path the
# search would take through it a vertex and a refinement at a time.  A
# disconnected graph is canonicalized per distinct component, each copy
# taking its original's labeling, and reassembled with components sorted by
# (n, m, bits), which is label-invariant, so equal canonical forms still
# mean isomorphic.
# ---------------------------------------------------------------------------


def _refine(adj: Sequence[int], colors: Sequence[int]) -> tuple[int, ...]:
    """Equitable refinement of `colors`, numbered canonically: color c is the
    c-th cell in order.

    The cells are kept as vertex lists in color order.  Each round splits
    every cell by the sorted colors of its vertices' neighbors, orders the
    pieces of a cell by that signature, and numbers all cells again in order;
    it stops when no cell splits.  A singleton cell cannot split, so its
    signature is never computed.  The result is the fixed point of ranking
    (color, signature) over the whole graph, since the old color already
    orders any two vertices of different cells.
    """
    index = {c: i for i, c in enumerate(sorted(set(colors)))}
    cells: list[list[int]] = [[] for _ in index]
    for v, c in enumerate(colors):
        cells[index[c]].append(v)
    color = [index[c] for c in colors]
    while True:
        split: list[list[int]] = []
        for cell in cells:
            if len(cell) == 1:
                split.append(cell)
                continue
            pieces: dict[tuple[int, ...], list[int]] = {}
            for v in cell:
                # bits read inline: a _bits generator here made the whole
                # refinement about 1.6 times slower
                neigh = []
                mask = adj[v]
                while mask:
                    low = mask & -mask
                    neigh.append(color[low.bit_length() - 1])
                    mask ^= low
                neigh.sort()
                pieces.setdefault(tuple(neigh), []).append(v)
            if len(pieces) == 1:
                split.append(cell)
            else:
                split.extend(pieces[sig] for sig in sorted(pieces))
        if len(split) == len(cells):
            return tuple(color)
        cells = split
        for c, cell in enumerate(cells):
            for v in cell:
                color[v] = c


def _refine_stack(adjacency: np.ndarray, n: np.ndarray) -> np.ndarray:
    """_refine(masks, degrees) of every graph of a stack, as arrays.

    adjacency is a (B, N, N) 0/1 float array whose row r holds a graph on its
    first n[r] vertices; the vertices past n[r] are padding without edges.
    Each round ranks (color, counts of neighbor colors) within each row.  The
    vertices of a cell share a degree, so their sorted neighbor colors order
    as the counts do in descending lexicographic order.  One matrix product
    per word packs the counts into float64 words (_count_words); the words
    are ranked one at a time after the color, each with the rank so far as
    one exact float key.  Padding starts above every degree, so it is the top
    color of its row, no real vertex counts it, and it never splits: the
    real vertices get the colors of _refine.  Entries past n[r] mean nothing.
    """
    width = adjacency.shape[1]
    real = np.arange(width, dtype=float) < n[:, None]
    colors = _row_ranks(np.where(real, adjacency.sum(axis=2), width))
    top, powers = _count_words(width)
    while True:
        refined = colors
        for power in powers:
            counts = np.einsum("bij,bj->bi", adjacency, power[colors])
            refined = _row_ranks(refined * top + (top - 1 - counts))
        # a vertex's rank never falls below its old color, so equal sums mean
        # that no cell split
        if refined.sum() == colors.sum():
            return colors
        colors = refined


@functools.cache
def _count_words(width: int) -> tuple[float, np.ndarray]:
    """How _refine_stack packs counts of neighbor colors below width + 1:
    per word, `top` = (width + 1)**digits with digits as large as keeps
    color * top + word exact in float64, and powers[j, c], the weight of a
    neighbor of color c in word j, most significant color first."""
    base = width + 1
    digits = 1
    while base ** (digits + 2) <= 1 << 53:
        digits += 1
    powers = [[float(base ** (digits - 1 - c % digits)) if c // digits == j else 0.0
               for c in range(width)] for j in range(-(-width // digits))]
    return float(base ** digits), np.array(powers)


def _row_ranks(keys: np.ndarray) -> np.ndarray:
    """The dense rank of each entry of a 2-d array within its row."""
    order = np.argsort(keys, axis=1, kind="stable")
    order += np.arange(0, keys.size, keys.shape[1])[:, None]  # flat positions
    ranked = keys.ravel()[order]
    steps = np.zeros(keys.shape, dtype=np.int64)
    np.cumsum(ranked[:, 1:] != ranked[:, :-1], axis=1, out=steps[:, 1:])
    ranks = np.empty(keys.size, dtype=np.int64)
    ranks[order] = steps
    return ranks.reshape(keys.shape)


def _individualize(colors: tuple[int, ...], v: int) -> tuple[int, ...]:
    cv = colors[v]
    return tuple(
        c + 1 if (c > cv or (c == cv and u != v)) else c for u, c in enumerate(colors)
    )


def _g6_bits_key(adj: Sequence[int], perm: Sequence[int]) -> int:
    """Upper-triangle bits of the relabeled graph in graph6 column order."""
    acc = 0
    for j in range(1, len(perm)):
        col = adj[perm[j]]
        for i in range(j):
            acc = acc << 1 | (col >> perm[i] & 1)
    return acc


def _pendant_block(adj: Sequence[int], v: int, fixed: tuple[int, ...]) -> tuple[int, int] | None:
    """(hub, shape) of the pendant block of v, if its partner is not in
    `fixed`: v and a neighbor u such that the hub is the one vertex outside
    the pair adjacent to either; shape has bit 1 when the hub sees v and
    bit 0 when it sees u.

    Two vertices with equal (hub, shape) lie in disjoint blocks, or are the
    twins of one pendant triangle.  Swapping two disjoint blocks vertex for
    vertex is an automorphism that fixes every vertex outside them.
    """
    if adj[v].bit_count() > 2:
        return None
    for u in _bits(adj[v]):
        if u in fixed:
            continue
        outside = (adj[v] | adj[u]) & ~(1 << v | 1 << u)
        if outside and not outside & (outside - 1):
            hub = outside.bit_length() - 1
            return hub, (adj[hub] >> v & 1) << 1 | adj[hub] >> u & 1
    return None


def _connected_canonical_order(g: Graph, colors: tuple[int, ...] | None = None) -> list[int]:
    n = g.n
    adj = g._adj
    if n <= 1:
        return list(range(n))
    # a leaf is kept as (perm, fixed); keys are computed from the second leaf on
    first: tuple[list[int], tuple[int, ...]] | None = None
    best = first
    first_key: int | None = None
    best_key = 0
    auts: list[list[int]] = []

    def search(colors: tuple[int, ...], fixed: tuple[int, ...]) -> int:
        """Visit the node that individualized `fixed`; return the length of
        `fixed` at the ancestor whose next child the search goes on with."""
        nonlocal first, best, first_key, best_key
        counts = [0] * n
        for c in colors:
            counts[c] += 1
        target = -1
        for c, k in enumerate(counts):
            if k > 1:
                target = c
                break
        if target < 0:
            perm = [0] * n
            for v, c in enumerate(colors):
                perm[c] = v
            if first is None:
                first = best = (perm, fixed)
                return len(fixed) - 1
            if first_key is None:
                first_key = best_key = _g6_bits_key(adj, first[0])
            key = _g6_bits_key(adj, perm)
            if key == first_key:
                match_perm, match_fixed = first
            elif key == best_key:
                match_perm, match_fixed = best
            else:
                if key < best_key:
                    best_key, best = key, (perm, fixed)
                return len(fixed) - 1
            # this automorphism fixes the two leaves' deepest common ancestor
            # and maps the matched leaf's branch below it onto this one
            sigma = [0] * n
            for i in range(n):
                sigma[match_perm[i]] = perm[i]
            auts.append(sigma)
            fork = 0
            while fixed[fork] == match_fixed[fork]:
                fork += 1
            return fork
        cand = [v for v in range(n) if colors[v] == target]
        v0 = cand[0]
        if all(adj[w] & ~(1 << v0) == adj[v0] & ~(1 << w) for w in cand[1:]):
            # a cell of twins, the search's one path: the least vertex, the
            # rest pruned as its twins, and no cell split by a refinement
            shift = len(cand) - 1
            step = [c + shift if c > target else c for c in colors]
            for i, v in enumerate(cand):
                step[v] = target + i
            return search(tuple(step), fixed + tuple(cand))
        tried: list[int] = []
        blocks: set[tuple[int, int]] = set()  # the pendant blocks of tried
        orbit = {v: v for v in cand}  # union-find of the orbits on the cell
        absorbed = 0  # auts[:absorbed] are merged into orbit

        def root(v: int) -> int:
            while orbit[v] != v:
                orbit[v] = v = orbit[orbit[v]]
            return v

        for v in cand:
            block = _pendant_block(adj, v, fixed)
            if tried:
                # a tried twin w: (v w) maps w's subtree onto v's
                if any(adj[v] & ~(1 << w) == adj[w] & ~(1 << v) for w in tried):
                    continue
                if block in blocks:
                    continue
                for sigma in auts[absorbed:]:
                    if all(sigma[u] == u for u in fixed):
                        for u in cand:
                            orbit[root(u)] = root(sigma[u])
                absorbed = len(auts)
                r = root(v)
                if any(root(w) == r for w in tried):
                    continue
            tried.append(v)
            if block is not None:
                blocks.add(block)
            resume = search(_refine(adj, _individualize(colors, v)), fixed + (v,))
            if resume < len(fixed):
                return resume
        return len(fixed) - 1

    if colors is None:
        colors = _refine(adj, [a.bit_count() for a in adj])
    search(colors, ())
    # search reaches itself through its closure; unbinding it lets the call's
    # objects go by reference counting instead of waiting for the cycle
    # collector
    search = None
    assert best is not None
    return best[0]


def _connected_canonical(g: Graph, colors: tuple[int, ...] | None = None) -> Graph:
    order = _connected_canonical_order(g, colors)
    index = [0] * g.n
    for i, v in enumerate(order):
        index[v] = i
    adj = []
    for v in order:
        mask = g._adj[v]
        out = 0
        while mask:
            low = mask & -mask
            out |= 1 << index[low.bit_length() - 1]
            mask ^= low
        adj.append(out)
    return Graph(g.n, tuple(adj))


def canonical_graph(g: Graph, colors: tuple[int, ...] | None = None) -> Graph:
    """A canonically labeled copy: equal outputs exactly for isomorphic inputs.

    `colors` is for catalog growth, which has already refined g from its
    degrees: given, it must equal _refine(g's masks, g's degrees), and g must
    be connected, so no component split is made.
    """
    if colors is not None:
        return _connected_canonical(g, colors)
    decomp = components(g)
    if len(decomp) == 1:
        return _connected_canonical(decomp[0][0])
    labeled: dict[Graph, Graph] = {}  # each distinct part, labeled once
    for part, _ in decomp:
        if part not in labeled:
            labeled[part] = _connected_canonical(part)
    return canonical_union(labeled[part] for part, _ in decomp)


def part_sort_key(p: Graph) -> tuple[int, int, int]:
    """Order of canonically labeled components in a canonical graph."""
    return (p.n, p.m, _g6_bits_key(p._adj, range(p.n)))


def canonical_union(parts: Iterable[Graph]) -> Graph:
    """The canonically labeled connected parts joined in part_sort_key order,
    as canonical_graph joins them: a canonically labeled graph."""
    return union_all(sorted(parts, key=part_sort_key))


def canonical_form(g: Graph) -> bytes:
    """Relabeling-invariant fingerprint: graph6 of the canonical labeling."""
    return to_graph6(canonical_graph(g)).encode("ascii")


def is_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n or g.m != h.m or g.degree_sequence() != h.degree_sequence():
        return False
    return canonical_form(g) == canonical_form(h)
