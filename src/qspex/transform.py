"""Spectral-radius-increasing rewirings.

Three moves, each returning the rewired graph together with the measured
radii.  `rotate` (remove one edge, add another sharing the larger eigenvector
sum) carries an unconditional strict-increase guarantee and enforces its
preconditions; `kelmans_swap` exchanges the partners of two independent edges
and carries a *conditional* lower bound 2(x_vj - x_ui)(x_vi - x_uj) on the
gain, recorded rather than asserted; `pendant_collapse` deletes a set of
edges and reattaches the same count as fresh pendants at a chosen vertex,
preserving the edge count.

`candidate_moves` yields every rotation and swap orientation of a graph that
these preconditions justify, as (move, removed, added); the hill climber
draws its moves from it.  The generator, `rotate` and `kelmans_swap` share
one test per precondition and one detail format, `move_detail`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .graphs import Graph
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
    return 2.0 * factor_u * factor_v, factor_u > 0.0 and factor_v > 0.0


def move_detail(
    removed: Iterable[tuple[int, int]], added: Iterable[tuple[int, int]]
) -> str:
    """'-(u, v) ... +(u, v) ...': the edges a move removes, then those it adds."""
    return " ".join([f"-{e}" for e in removed] + [f"+{f}" for f in added])


def candidate_moves(
    g: Graph, x: Sequence[float]
) -> Iterator[tuple[str, tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]]:
    """The rotations and swap orientations of g that their preconditions
    justify under the principal eigenvector x, as (move, removed, added);
    a swap's first added edge is u_i u_j, which fixes its orientation.

    Rotations come first, by removed edge, then by added non-edge.  Swaps
    follow by pair of independent edges e1 < e2, trying the orientations
    (e1, e2), both reversed, e1 reversed, e2 reversed; reversing both edges
    negates both gain factors, so at most one orientation per pairing passes.
    """
    x = np.asarray(x, dtype=float).tolist()
    adj = [g.neighbors_mask(v) for v in range(g.n)]
    edges = g.edges()
    non_edges = [
        (u, v) for u in range(g.n) for v in range(u + 1, g.n) if not adj[u] >> v & 1
    ]
    for e in edges:
        removed_sum = x[e[0]] + x[e[1]]
        if _removable(removed_sum):
            for f in non_edges:
                if _outweighs(x[f[0]] + x[f[1]], removed_sum):
                    yield "rotate", (e,), (f,)
    for a, e1 in enumerate(edges):
        for e2 in edges[a + 1 :]:
            if set(e1) & set(e2):
                continue
            r1, r2 = e1[::-1], e2[::-1]
            for (ui, vi), (uj, vj) in ((e1, e2), (r1, r2), (r1, e2), (e1, r2)):
                if adj[ui] >> uj & 1 or adj[vi] >> vj & 1:
                    continue
                if _swap_bound(x, (ui, vi), (uj, vj))[1]:
                    added = (_norm_edge((ui, uj)), _norm_edge((vi, vj)))
                    yield "kelmans_swap", (e1, e2), added


def rotate(g: Graph, x: np.ndarray, e: tuple[int, int], f: tuple[int, int]) -> RewireResult:
    """Remove edge e = u1 u2, add non-edge f = v1 v2.

    Preconditions (checked): x is the principal eigenvector of g, and
    x_v1 + x_v2 >= x_u1 + x_u2 > 0 up to a 1e-12 band, the test
    candidate_moves applies.  Under them the spectral radius strictly
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
    condition_held rather than asserted.  candidate_moves yields exactly the
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
    callers compare the returned radii.
    """
    if not 0 <= v1 < g.n:
        raise ValueError(f"vertex {v1} out of range")
    edges = sorted({_norm_edge(e) for e in e2})
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
