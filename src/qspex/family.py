"""Constructions of the candidate extremal graphs.

S(a, b, c) is the graph on 1 + a + 2b + 2c vertices built from a center v1
carrying a pendant edges, b pendant paths of length two, and c pendant
triangles; it has m = a + 2b + 3c edges and matching number b + c + 1 (for
a >= 1).  The conjectured maximizers of q among graphs with m edges and
matching number beta >= 2 are S(a, b, c) disjoint-union d extra independent
edges, with (a, b, c, d) determined by the size regime; predicted_extremal
builds exactly that graph.  For beta = 1 the maximizers are the star, and at
m = 3 also the triangle.  predicted_maximizers answers for every beta >= 1,
so callers need not treat beta = 1 apart, and predicted_order counts their
fewest vertices without building one.  Four small fixed graphs H1..H4
appear as intermediate rewiring targets and in tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, union_all


@dataclass(frozen=True)
class FamilyParams:
    """Parameters (a, b, c, d) of S(a, b, c) + d*K2 for a target (m, beta).

    Invariants (checked at construction): a >= 1, b, c, d >= 0,
    a + 2b + 3c + d = m and b + c + d + 1 = beta.
    """

    a: int
    b: int
    c: int
    d: int
    m: int
    beta: int

    def __post_init__(self) -> None:
        if self.a < 1 or min(self.b, self.c, self.d) < 0:
            raise ValueError(f"invalid family parameters {self!r}")
        if self.a + 2 * self.b + 3 * self.c + self.d != self.m:
            raise ValueError(f"edge count mismatch in {self!r}")
        if self.b + self.c + self.d + 1 != self.beta:
            raise ValueError(f"matching number mismatch in {self!r}")


def build_s(a: int, b: int, c: int) -> Graph:
    """S(a, b, c): center 0, then pendant-edge tips, path pairs, triangle pairs.

    Vertex layout: 0 is the center; 1..a are pendant tips; then b consecutive
    pairs (mid, tip) for the length-two paths; then c consecutive pairs for the
    triangles.  Requires a >= 1 so the center is never isolated from the star
    part (matching number b + c + 1 depends on it).
    """
    if a < 1 or b < 0 or c < 0:
        raise ValueError(f"require a >= 1, b >= 0, c >= 0; got {(a, b, c)}")
    n = 1 + a + 2 * b + 2 * c
    edges = [(0, i) for i in range(1, a + 1)]
    pos = a + 1
    for _ in range(b):
        mid, tip = pos, pos + 1
        edges += [(0, mid), (mid, tip)]
        pos += 2
    for _ in range(c):
        p, q = pos, pos + 1
        edges += [(0, p), (0, q), (p, q)]
        pos += 2
    return Graph.from_edges(n, edges)


def build_h(k: int) -> Graph:
    """The fixed graphs H1..H4 with the pinned vertex labels.

    H1: vertices u1, v1, u2, v2 = 0..3, all pairs adjacent except u1 u2.
    H2: three independent edges u_i v_i (0,1), (2,3), (4,5) plus the triangle
        on v1, v2, v3 = 1, 3, 5.
    H3: H1 plus a pendant vertex 4 attached at v1 = 1.
    H4: H2 plus the edge u2 v1 = (2, 1).
    """
    if k == 1:
        return Graph.from_edges(4, [(0, 1), (2, 3), (1, 2), (1, 3), (0, 3)])
    if k == 2:
        return Graph.from_edges(6, [(0, 1), (2, 3), (4, 5), (1, 3), (1, 5), (3, 5)])
    if k == 3:
        return build_h(1).add_vertices(1).add_edge((1, 4))
    if k == 4:
        return build_h(2).add_edge((1, 2))
    raise ValueError(f"no fixed graph H{k}; k must be 1..4")


def extremal_params(m: int, beta: int) -> FamilyParams:
    """The (a, b, c, d) the size regime dictates for given m and beta >= 2.

    m >= 3*beta - 1 (star-heavy regime): all matching capacity goes to
    pendant triangles, the rest to pendant edges, no extra components.
    m <= 3*beta - 2 (matching-heavy regime): a = 1 and the parity of m - beta
    decides between one pendant path (odd) or none (even), the remaining
    budget splitting into triangles and d extra independent edges.
    """
    if beta < 2:
        raise ValueError(f"beta must be >= 2, got {beta}")
    if m < beta:
        raise ValueError(f"no graph has {m} edges and matching number {beta}")
    if m >= 3 * beta - 1:
        params = FamilyParams(m - 3 * beta + 3, 0, beta - 1, 0, m=m, beta=beta)
    elif (m - beta) % 2 == 1:
        params = FamilyParams(1, 1, (m - beta - 1) // 2, (3 * beta - m - 3) // 2, m=m, beta=beta)
    else:
        params = FamilyParams(1, 0, (m - beta) // 2, (3 * beta - m - 2) // 2, m=m, beta=beta)
    return params


def predicted_extremal(m: int, beta: int) -> Graph:
    """S(a, b, c) + d*K2 for the regime-determined parameters."""
    p = extremal_params(m, beta)
    k2 = Graph.from_edges(2, [(0, 1)])
    return union_all([build_s(p.a, p.b, p.c)] + [k2] * p.d)


def predicted_maximizers(m: int, beta: int) -> list[Graph]:
    """Every graph the theorem predicts to maximize q among graphs with m
    edges and matching number beta >= 1.

    For beta >= 2 that is S(a, b, c) + d*K2 alone.  For beta = 1, where the
    parameter formulas do not apply, it is the star S(m, 0, 0), and at m = 3
    also the triangle, which has the same radius 4.
    """
    _check_class(m, beta)
    if beta >= 2:
        return [predicted_extremal(m, beta)]
    triangle = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
    return [build_s(m, 0, 0)] + ([triangle] if m == 3 else [])


def predicted_order(m: int, beta: int) -> int:
    """The fewest vertices of a graph in predicted_maximizers(m, beta),
    without building one (it may have more than a Graph can hold): the
    layout of build_s plus d*K2 for beta >= 2, else the star's m + 1, or the
    triangle's 3 at m = 3."""
    _check_class(m, beta)
    if beta < 2:
        return 3 if m == 3 else m + 1
    p = extremal_params(m, beta)
    return 1 + p.a + 2 * (p.b + p.c + p.d)


def _check_class(m: int, beta: int) -> None:
    if beta < 1:
        raise ValueError(f"matching number must be >= 1, got {beta}")
    if m < beta:
        raise ValueError(f"no graph has {m} edges and matching number {beta}")
