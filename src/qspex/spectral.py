"""Signless-Laplacian spectral radius q(G) and its principal eigenvector.

Q(G) = D(G) + A(G) is symmetric, so a dense symmetric eigensolve
(`np.linalg.eigh`) yields its top eigenpair at a cost that does not depend on
the spectral gap; vertex counts stay at most 62.  Every returned pair is then
checked apart from the solver: the vector is put in Perron sign (entrywise
absolute value, renormalized), q is its Rayleigh quotient, and ||Qx - qx||_2
must be within the residual tolerance.  On a connected graph a nonnegative
eigenvector belongs to the top eigenvalue, so there the check certifies q(G)
itself.  The radius of a disconnected graph is the max over components,
reported with an eigenvector supported on one extremal component and zero
elsewhere; `extremal_component` holds that rule and is fed pairs two ways:
`q_radius` solves each distinct component once (a repeated component, with
equal masks, has the same radius), and the verdicts read the pairs their
catalog levels kept (search.maximizer_spectrum).  `q_pairs` is the one
batched solve: it stacks many whole graphs per eigh call without a component
split and returns one pair per graph, in input order.  The catalog levels
and the hill climber get their pairs from it; on the climber's disconnected
graphs that the eigenvalue is the top one rests on eigh's ascending order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .graphs import Graph, adjacency_stack, components, mask_stack

# ---------------------------------------------------------------------------
# Pinned numeric policy.  RESIDUAL_TOL is the certified bound on ||Qx - qx||_2
# for every returned pair.  eigh's residuals sit at the float noise floor
# (about 1e-14..1e-13 for dense graphs on 40..62 vertices), so a pair that
# misses a tolerance set at that floor gets at most _POLISH_STEPS power steps
# from the eigh vector before the solve raises ArithmeticError; at 1e-14 on
# such graphs, four steps turn about half of eigh's misses into passes and
# more steps add little, so the CLI accepts no tolerance below 1e-13, which
# every dense graph sampled certifies.  Q_MARGIN is the band for comparing
# radii of different graphs downstream.  A batched solve stacks at most
# _CHUNK matrices, which caps its working memory.
# ---------------------------------------------------------------------------
RESIDUAL_TOL = 1e-10
Q_MARGIN = 1e-9
_POLISH_STEPS = 4
_CHUNK = 128
_COMPONENT_TIE_EPS = 1e-12


@dataclass(frozen=True)
class SpectralData:
    """One certified eigenpair: radius, unit eigenvector, residual, and the
    index (within the component decomposition) of the supporting component.
    A graph with no edges gets q = 0, the zero vector, and support -1."""

    q: float
    x: np.ndarray
    residual: float
    support_component: int


def _q_stack(masks: np.ndarray) -> np.ndarray:
    """Signless Laplacians of adjacency mask rows: shape (..., n) gives
    (..., n, n).  The diagonal of A is zero, so the row sums are the degrees."""
    q = adjacency_stack(masks)
    cols = np.arange(masks.shape[-1])
    q[..., cols, cols] = q.sum(axis=-1)
    return q


def q_matrix(g: Graph) -> np.ndarray:
    """Dense signless Laplacian D + A."""
    return _q_stack(mask_stack([g], g.n))[0]


def _polish(
    q_mat: np.ndarray, y: np.ndarray, residual: float, residual_tol: float
) -> tuple[float, np.ndarray, float]:
    """Power steps from an eigh vector x whose pair missed the tolerance,
    given y = Qx and that pair's residual; the first pair within the
    tolerance is returned."""
    best = residual
    for _ in range(_POLISH_STEPS):
        x = y / np.linalg.norm(y)
        y = q_mat @ x
        q = float(x @ y)
        residual = float(np.linalg.norm(y - q * x))
        if residual <= residual_tol:
            return q, x, residual
        best = min(best, residual)
    raise ArithmeticError(
        f"eigensolve residual {best:.3g} exceeds the tolerance {residual_tol:.3g}"
    )


def _top_pairs(
    qs: np.ndarray, residual_tol: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Certified top eigenpairs (q, x, residual) of a (b, n, n) stack."""
    _, vecs = np.linalg.eigh(qs)
    x = np.abs(vecs[..., -1])
    x /= np.linalg.norm(x, axis=-1, keepdims=True)
    y = np.einsum("bij,bj->bi", qs, x)
    q = np.einsum("bi,bi->b", x, y)
    residual = np.linalg.norm(y - q[:, None] * x, axis=-1)
    for k in np.flatnonzero(residual > residual_tol):
        q[k], x[k], residual[k] = _polish(qs[k], y[k], residual[k], residual_tol)
    return q, x, residual


def extremal_component(
    g: Graph, pair: Callable[[Graph], tuple[float, np.ndarray, float]]
) -> SpectralData:
    """The radius of g as the max over its components, where pair(part)
    gives the certified (q, x, residual) of a component with edges.

    A later component must beat the incumbent by more than 1e-12, so exact
    ties go to the smallest component index.  A component equal to an earlier
    one (same masks) is not asked for again: it could not win.  The
    eigenvector is padded with zeros outside the winning component (still an
    eigenvector of the whole graph, since the zero rows see only zero
    neighbors).  A graph with no edges gets q = 0, the zero vector and
    support -1.
    """
    if g.m == 0:
        return SpectralData(0.0, np.zeros(g.n), 0.0, -1)
    best: tuple[float, np.ndarray, float, int, tuple[int, ...]] | None = None
    seen: set[Graph] = set()
    for idx, (part, verts) in enumerate(components(g)):
        if part.m == 0 or part in seen:
            continue
        seen.add(part)
        q, x, residual = pair(part)
        if best is None or q > best[0] + _COMPONENT_TIE_EPS:
            best = (q, x, residual, idx, verts)
    assert best is not None
    q, x_part, residual, idx, verts = best
    x = np.zeros(g.n)
    x[list(verts)] = x_part
    return SpectralData(q, x, residual, idx)


def q_radius(g: Graph, residual_tol: float = RESIDUAL_TOL) -> SpectralData:
    """Largest eigenvalue of Q(G) with a unit nonnegative eigenvector, each
    distinct component solved on its own and the winner picked by
    extremal_component.  Raises ArithmeticError when no pair within
    residual_tol is found.
    """

    def solve(part: Graph) -> tuple[float, np.ndarray, float]:
        q, x, residual = _top_pairs(q_matrix(part)[None], residual_tol)
        return float(q[0]), x[0], float(residual[0])

    return extremal_component(g, solve)


def q_pairs(graphs: Sequence[Graph]) -> list[tuple[float, np.ndarray, float]]:
    """The certified top pair (q, x, residual) of each whole graph, within
    RESIDUAL_TOL and without a component split, in the order of `graphs`; a
    graph without edges gets 0, the zero vector and 0.

    Graphs with the same vertex count are stacked, at most _CHUNK to one eigh
    call.  On a connected graph the pair is bit for bit the one q_radius
    solves for it, since eigh and the check treat each matrix of a stack on
    its own.  The top eigenvalue of the whole Q(G) is already the max over
    components; on a disconnected graph, that it is the top one rests on
    eigh's ascending order.
    """
    pairs = [(0.0, np.zeros(g.n), 0.0) for g in graphs]
    by_n: dict[int, list[int]] = {}
    for i, g in enumerate(graphs):
        if g.m:
            by_n.setdefault(g.n, []).append(i)
    for n, idx in by_n.items():
        for lo in range(0, len(idx), _CHUNK):
            chunk = idx[lo : lo + _CHUNK]
            qs = _q_stack(mask_stack([graphs[i] for i in chunk], n))
            q, x, residual = _top_pairs(qs, RESIDUAL_TOL)
            for i, pair in zip(chunk, zip(q.tolist(), x, residual.tolist())):
                pairs[i] = pair
    return pairs


def rayleigh_sum(g: Graph, x: np.ndarray) -> float:
    """Sum of (x_u + x_v)^2 over the edges of g.

    For a unit vector this equals x^T Q x; in particular it reproduces q(G)
    when x is the principal eigenvector.  Requires a unit-norm vector of the
    right dimension.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (g.n,):
        raise ValueError(f"dimension mismatch: vector has shape {x.shape}, graph has n={g.n}")
    norm = float(np.linalg.norm(x))
    if abs(norm - 1.0) > 1e-8:
        raise ValueError(f"vector is not unit norm (|x| = {norm!r})")
    return float(sum((x[u] + x[v]) ** 2 for u, v in g.edges()))


def eigen_equation_check(g: Graph, s: SpectralData) -> float:
    """Max over vertices of |q*x_v - d(v)*x_v - sum of x over N(v)|.

    Zero (to numerical precision) exactly when (q, x) solves the vertex-local
    eigenvalue equations of Q(G).
    """
    if g.n == 0:
        return 0.0
    y = q_matrix(g) @ s.x
    return float(np.max(np.abs(s.q * s.x - y)))
