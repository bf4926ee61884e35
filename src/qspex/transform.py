"""Spectral-radius-increasing rewirings.

Three moves, each returning the rewired graph together with the measured
radii.  `rotate` (remove one edge, add another sharing the larger eigenvector
sum) carries an unconditional strict-increase guarantee and enforces its
preconditions; `kelmans_swap` exchanges the partners of two independent edges
and carries a *conditional* lower bound 2(x_vj - x_ui)(x_vi - x_uj) on the
gain, recorded rather than asserted; `pendant_collapse` deletes a set of
edges and reattaches the same count as fresh pendants at a chosen vertex,
preserving the edge count.

`candidate_table` finds every rotation and swap orientation of a graph that
these preconditions justify, as (move, removed, added), with the eigenvector
sums over the ends of the edges each move removes and adds, from which the
hill climber bounds each move's radius.  The table, `rotate` and
`kelmans_swap` share one test per precondition and one detail format,
`move_detail`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .graphs import GRAPH6_MAX_N, Graph
from .spectral import q_matrix, q_radius

# A rotation must raise q; the solver certifies radii to ~1e-10, so the
# no-decrease assertion uses that margin.  Supplied eigenvectors are accepted
# when they reproduce the radius and the vertex equations to EIGEN_CHECK_TOL,
# loose enough for vectors recomputed elsewhere, tight enough to reject
# vectors belonging to a different graph.  Eigenvector sums within
# _SUM_TIE_TOL of each other count as equal in the rotation precondition.
ROTATION_MARGIN = 1e-10
EIGEN_CHECK_TOL = 1e-6
_SUM_TIE_TOL = 1e-12
# candidate_table scans the swaps of at most this many edge pairs at a time;
# every graph with up to 64 edges is one block.
_SWAP_BLOCK = 2048


@dataclass(frozen=True)
class RewireResult:
    graph: Graph
    q_before: float
    q_after: float
    move: str
    detail: str = ""
    predicted_gain: Optional[float] = None
    condition_held: Optional[bool] = None

    @property
    def delta(self) -> float:
        return self.q_after - self.q_before


def _norm_edge(e: tuple[int, int]) -> tuple[int, int]:
    u, v = e
    return (u, v) if u < v else (v, u)


def _check_principal(g: Graph, x: np.ndarray, q_ref: float) -> np.ndarray:
    """Reject x unless it is numerically a nonnegative unit eigenvector of g
    achieving the spectral radius."""
    x = np.asarray(x, dtype=float)
    if x.shape != (g.n,):
        raise ValueError(
            f"eigenvector mismatch: shape {x.shape} for a graph on {g.n} vertices"
        )
    if abs(float(np.linalg.norm(x)) - 1.0) > 1e-8:
        raise ValueError("eigenvector mismatch: not unit norm")
    if float(x.min()) < -1e-9:
        raise ValueError("eigenvector mismatch: negative entries")
    y = q_matrix(g) @ x
    q_est = float(x @ y)
    if float(np.max(np.abs(y - q_est * x))) > EIGEN_CHECK_TOL:
        raise ValueError("eigenvector mismatch: vertex eigenvalue equations fail")
    if abs(q_est - q_ref) > EIGEN_CHECK_TOL:
        raise ValueError(
            f"eigenvector mismatch: Rayleigh value {q_est!r} is not the radius {q_ref!r}"
        )
    return x


def _removable(removed_sum: float) -> bool:
    """x_u1 + x_u2 > 0, beyond the tie band: the rotated edge carries weight."""
    return removed_sum > _SUM_TIE_TOL


def _outweighs(added_sum: float, removed_sum: float) -> bool:
    """x_v1 + x_v2 >= x_u1 + x_u2, within the tie band."""
    return added_sum >= removed_sum - _SUM_TIE_TOL


def _swap_bound(
    x: Sequence[float], ei: tuple[int, int], ej: tuple[int, int]
) -> tuple[float, bool]:
    """The predicted gain 2 (x_vj - x_ui)(x_vi - x_uj) of swapping the
    oriented edges ei = u_i v_i, ej = u_j v_j, and whether both factors are
    positive, where the bound is proven."""
    factor_u = x[ej[1]] - x[ei[0]]
    factor_v = x[ei[1]] - x[ej[0]]
    return 2.0 * factor_u * factor_v, (factor_u > 0.0) & (factor_v > 0.0)


def move_detail(
    removed: Iterable[tuple[int, int]], added: Iterable[tuple[int, int]]
) -> str:
    """'-(u, v) ... +(u, v) ...': the edges a move removes, then those it adds."""
    return " ".join([f"-{e}" for e in removed] + [f"+{f}" for f in added])


Move = tuple[str, tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]


@dataclass(frozen=True)
class MoveTable:
    """The moves of candidate_table in its order, one row each: the indices
    of the edges a move removes in `edges` and of the non-edges it adds in
    `non_edges` (a rotation's second column is -1), the sums x_a + x_b of the
    eigenvector over the ends of those edges (a rotation's second column is
    0), and the number of ends a rotation's two edges share (0 for a swap).
    The first `rotations` rows are the rotations; move(i) builds row i as
    (move, removed, added)."""

    edges: list[tuple[int, int]]
    non_edges: list[tuple[int, int]]
    removed_at: np.ndarray
    added_at: np.ndarray
    removed: np.ndarray
    added: np.ndarray
    shared: np.ndarray
    rotations: int

    def __len__(self) -> int:
        return len(self.removed_at)

    def move(self, i: int) -> Move:
        (e1, e2), (f1, f2) = self.removed_at[i].tolist(), self.added_at[i].tolist()
        if i < self.rotations:
            return "rotate", (self.edges[e1],), (self.non_edges[f1],)
        return (
            "kelmans_swap",
            (self.edges[e1], self.edges[e2]),
            (self.non_edges[f1], self.non_edges[f2]),
        )


def candidate_table(g: Graph, x: Sequence[float]) -> MoveTable:
    """The rotations and swap orientations of g that their preconditions
    justify under the principal eigenvector x, with their endpoint sums;
    move(i) gives row i as (move, removed, added), where a swap's first
    added edge is u_i u_j, which fixes its orientation.

    Rotations come first, by removed edge, then by added non-edge, read in
    row-major order off one table of the sums of x over the ends of every
    edge (rows) and every non-edge (columns).  Swaps follow by pair of
    independent edges e1 < e2, read off a table of those pairs (rows) and
    their four orientations (columns): (e1, e2), both reversed, e1 reversed,
    e2 reversed.  Reversing both edges negates both gain factors, so at most
    one orientation per pairing passes.  The table is built in blocks of at
    most _SWAP_BLOCK pairs.
    """
    x = np.asarray(x, dtype=float)
    n = g.n
    # adjacent, or equal with an edge at it: the diagonal is read only at the
    # ends of edges
    closed = q_matrix(g) > 0
    pairs = _pairs(n)
    is_edge = closed[pairs[:, 0], pairs[:, 1]]
    edge_at, free_at = np.flatnonzero(is_edge), np.flatnonzero(~is_edge)
    ends, free = pairs[edge_at], pairs[free_at]
    removed_sum = x[ends[:, 0]] + x[ends[:, 1]]
    added_sum = x[free[:, 0]] + x[free[:, 1]]
    rows, cols = np.nonzero(
        _removable(removed_sum)[:, None] & _outweighs(added_sum[None, :], removed_sum[:, None])
    )

    # orientations (e1, e2), both reversed, e1 reversed, e2 reversed.  closed
    # also holds on equal ends, and an end u_i = v_j would make u_i u_j the
    # edge e2, so "neither u_i u_j nor v_i v_j in closed" says that e1, e2 are
    # independent and both added pairs are non-edges.  The pairs are taken
    # in blocks of consecutive rows, which bounds the working arrays.
    blocks = []
    for lo, hi in _pair_blocks(len(ends)):
        first, second = np.nonzero(np.arange(len(ends)) > np.arange(lo, hi)[:, None])
        first += lo
        e1, e2 = ends[first], ends[second]
        ui, vi = e1[:, [0, 1, 1, 0]], e1[:, [1, 0, 0, 1]]
        uj, vj = e2[:, [0, 1, 0, 1]], e2[:, [1, 0, 1, 0]]
        pair, side = np.nonzero(
            ~(closed[ui, uj] | closed[vi, vj]) & _swap_bound(x, (ui, vi), (uj, vj))[1]
        )
        blocks.append((first[pair], second[pair], ui[pair, side], vi[pair, side],
                       uj[pair, side], vj[pair, side]))
    first, second, ui, vi, uj, vj = map(np.concatenate, zip(*blocks))
    free_index = np.zeros((n, n), dtype=np.intp)  # of each non-edge, at both its ends
    free_index[free[:, 0], free[:, 1]] = free_index[free[:, 1], free[:, 0]] = np.arange(len(free))

    r, k = len(rows), len(rows) + len(first)
    removed_at = np.full((k, 2), -1)
    added_at = np.full((k, 2), -1)
    removed = np.zeros((k, 2))
    added = np.zeros((k, 2))
    shared = np.zeros(k)
    removed_at[:r, 0], added_at[:r, 0] = rows, cols
    removed[:r, 0], added[:r, 0] = removed_sum[rows], added_sum[cols]
    shared[:r] = (ends[rows][:, [0, 0, 1, 1]] == free[cols][:, [0, 1, 0, 1]]).sum(axis=1)
    removed_at[r:, 0], removed_at[r:, 1] = first, second
    added_at[r:, 0], added_at[r:, 1] = free_index[ui, uj], free_index[vi, vj]
    removed[r:, 0], removed[r:, 1] = removed_sum[first], removed_sum[second]
    added[r:, 0], added[r:, 1] = x[ui] + x[uj], x[vi] + x[vj]
    return MoveTable(
        list(map(tuple, ends.tolist())), list(map(tuple, free.tolist())),
        removed_at, added_at, removed, added, shared, r,
    )


def _pair_blocks(m: int) -> list[tuple[int, int]]:
    """Ranges lo..hi-1 of first edges e1 that split the pairs e1 < e2 of m
    edges, in row-major order, into blocks of at most _SWAP_BLOCK pairs (or
    one first edge); a single block when all C(m, 2) pairs fit."""
    bounds, size = [0], 0
    for i in range(m):
        if size and size + m - 1 - i > _SWAP_BLOCK:
            bounds.append(i)
            size = 0
        size += m - 1 - i
    bounds.append(m)
    return list(zip(bounds, bounds[1:]))


@functools.cache
def _pairs(n: int) -> np.ndarray:
    """The pairs i < j of range(n) in lexicographic order, one row each."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return np.array(pairs, dtype=np.intp).reshape(-1, 2)


def rotate(g: Graph, x: np.ndarray, e: tuple[int, int], f: tuple[int, int]) -> RewireResult:
    """Remove edge e = u1 u2, add non-edge f = v1 v2.

    Preconditions (checked): x is the principal eigenvector of g, and
    x_v1 + x_v2 >= x_u1 + x_u2 > 0 up to a 1e-12 band, the test
    candidate_table applies.  Under them the spectral radius strictly
    increases, and this is asserted against the measured radii within
    ROTATION_MARGIN.
    """
    if g.m == 0:
        raise ValueError("empty graph: nothing to rotate")
    e = _norm_edge(e)
    f = _norm_edge(f)
    g2 = g.rewire((e,), (f,))
    if f == e:
        raise ValueError(f"edge already present: {f!r}")

    before = q_radius(g)
    x = _check_principal(g, x, before.q).tolist()

    removed_sum = x[e[0]] + x[e[1]]
    added_sum = x[f[0]] + x[f[1]]
    if not _removable(removed_sum):
        raise ValueError(
            f"sum condition failed: removed-edge sum {removed_sum!r} is not positive"
        )
    if not _outweighs(added_sum, removed_sum):
        raise ValueError(
            f"sum condition failed: added sum {added_sum!r} < removed sum {removed_sum!r}"
        )

    after = q_radius(g2)
    if not after.q > before.q - ROTATION_MARGIN:
        raise ArithmeticError(
            f"rotation failed to increase the radius: {before.q!r} -> {after.q!r}"
        )
    return RewireResult(
        graph=g2,
        q_before=before.q,
        q_after=after.q,
        move="rotate",
        detail=move_detail((e,), (f,)),
    )


def kelmans_swap(
    g: Graph,
    ei: tuple[int, int],
    ej: tuple[int, int],
    x: Optional[np.ndarray] = None,
) -> RewireResult:
    """Replace edges u_i v_i and u_j v_j by u_i u_j and v_i v_j.

    The pairs are taken as given (orientation decides which endpoints pair
    up).  With x the principal eigenvector of g, the Rayleigh calculation
    predicts q_after - q_before >= 2 (x_vj - x_ui)(x_vi - x_uj); the bound is
    guaranteed when both factors are positive, which is recorded in
    condition_held rather than asserted.  candidate_table lists exactly the
    orientations for which it holds.
    """
    ui, vi = ei
    uj, vj = ej
    if len({ui, vi, uj, vj}) < 4:
        raise ValueError(f"edges share a vertex: {ei!r}, {ej!r}")
    g2 = g.rewire((ei, ej), ((ui, uj), (vi, vj)))

    before = q_radius(g)
    x = before.x if x is None else _check_principal(g, x, before.q)
    predicted, held = _swap_bound(x.tolist(), ei, ej)
    removed = (_norm_edge(ei), _norm_edge(ej))
    added = (_norm_edge((ui, uj)), _norm_edge((vi, vj)))
    after = q_radius(g2)
    return RewireResult(
        graph=g2,
        q_before=before.q,
        q_after=after.q,
        move="kelmans_swap",
        detail=move_detail(removed, added),
        predicted_gain=predicted,
        condition_held=held,
    )


def pendant_collapse(
    g: Graph, v1: int, e2: Iterable[tuple[int, int]]
) -> RewireResult:
    """Delete the edges in e2 and attach |e2| fresh pendant vertices at v1.

    Edge count is preserved by construction.  No monotonicity claim is made;
    callers compare the returned radii.  Refused before any solve when the
    result would have more than GRAPH6_MAX_N vertices.
    """
    if not 0 <= v1 < g.n:
        raise ValueError(f"vertex {v1} out of range")
    edges = sorted({_norm_edge(e) for e in e2})
    if g.n + len(edges) > GRAPH6_MAX_N:
        raise ValueError(f"collapsing {len(edges)} edge(s) of a graph on {g.n} vertices needs"
                         f" {g.n + len(edges)} vertices, more than the {GRAPH6_MAX_N} supported")
    pendants = [(v1, g.n + i) for i in range(len(edges))]
    g2 = g.add_vertices(len(edges)).rewire(edges, pendants)
    assert g2.m == g.m
    before, after = q_radius(g), q_radius(g2)
    return RewireResult(
        graph=g2,
        q_before=before.q,
        q_after=after.q,
        move="pendant_collapse",
        detail=f"-{edges} +{len(edges)} pendants at {v1}",
    )
