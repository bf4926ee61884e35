"""Correctness checks on the program's outputs, made apart from the program.

Graphs are decoded with networkx, radii come from numpy's dense `eigvalsh` of
Q = D + A, matching numbers from networkx's maximum-cardinality matching, and
the predicted maximizer S(a, b, c) + d*K2 is built here from the paper's
regime formulas.  Each check returns a list of error strings; empty means the
output is correct.  None of them compares against a stored copy of earlier
output.
"""

from __future__ import annotations

import json
from functools import lru_cache

import networkx as nx
import numpy as np

TOL = 1e-8

# OEIS A000664: graphs with m edges and no isolated vertices, m = 1..10.
A000664 = (1, 2, 5, 11, 26, 68, 177, 497, 1476, 4613)
# OEIS A002905: connected graphs with k edges, k = 1..10.
A002905 = (1, 1, 3, 5, 12, 30, 79, 227, 710, 2322)


@lru_cache(maxsize=None)
def decode(g6: str) -> nx.Graph:
    return nx.from_graph6_bytes(g6.encode("ascii"))


def q_matrix(g: nx.Graph) -> np.ndarray:
    a = nx.to_numpy_array(g, nodelist=sorted(g))
    return a + np.diag(a.sum(axis=1))


def radius(g: nx.Graph) -> float:
    if g.number_of_edges() == 0:
        return 0.0
    return float(np.linalg.eigvalsh(q_matrix(g))[-1])


@lru_cache(maxsize=None)
def matching_number(g6: str) -> int:
    return len(nx.max_weight_matching(decode(g6), maxcardinality=True))


def regime_params(m: int, beta: int) -> tuple[int, int, int, int]:
    """(a, b, c, d) of the predicted maximizer for beta >= 2."""
    if m >= 3 * beta - 1:
        return m - 3 * beta + 3, 0, beta - 1, 0
    if (m - beta) % 2:
        return 1, 1, (m - beta - 1) // 2, (3 * beta - m - 3) // 2
    return 1, 0, (m - beta) // 2, (3 * beta - m - 2) // 2


def family_graph(a: int, b: int, c: int, d: int) -> nx.Graph:
    """S(a, b, c) + d*K2: a center with a pendant edges, b pendant paths of
    length two and c pendant triangles, plus d disjoint edges."""
    g = nx.star_graph(a)
    nxt = a + 1
    for _ in range(b):
        g.add_edges_from([(0, nxt), (nxt, nxt + 1)])
        nxt += 2
    for _ in range(c):
        g.add_edges_from([(0, nxt), (0, nxt + 1), (nxt, nxt + 1)])
        nxt += 2
    for _ in range(d):
        g.add_edge(nxt, nxt + 1)
        nxt += 2
    return g


def predicted_graphs(m: int, beta: int) -> list[nx.Graph]:
    """Every maximizer the theorem allows for the class (m, beta)."""
    if beta == 1:
        return [nx.star_graph(m)] + ([nx.cycle_graph(3)] if m == 3 else [])
    return [family_graph(*regime_params(m, beta))]


def _without_isolated(g: nx.Graph) -> nx.Graph:
    return g.subgraph([v for v in g if g.degree(v)]).copy()


def _isomorphic_to_any(g: nx.Graph, targets: list[nx.Graph]) -> bool:
    h = _without_isolated(g)
    return any(nx.is_isomorphic(h, t) for t in targets)


def check_maximizer(m: int, beta: int, argmax: list[str], params, q: float) -> list[str]:
    """The checks shared by a sweep argmax and an extremal answer."""
    errors = []
    where = f"({m}, {beta})"
    if beta == 1:
        if params is not None:
            errors.append(f"{where}: beta = 1 reports family parameters {params}")
        if len(argmax) != len(predicted_graphs(m, 1)):
            errors.append(f"{where}: {len(argmax)} maximizers, expected the star"
                          + (" and the triangle" if m == 3 else ""))
    else:
        if params is None or len(argmax) != 1:
            return errors + [f"{where}: expected one maximizer with parameters, got {argmax} {params}"]
        a, b, c, d = params
        if a < 1 or min(b, c, d) < 0 or a + 2 * b + 3 * c + d != m or b + c + d + 1 != beta:
            errors.append(f"{where}: parameters {params} do not give m edges and matching number beta")
        if tuple(params) != regime_params(m, beta):
            errors.append(f"{where}: parameters {params}, the theorem gives {regime_params(m, beta)}")
    targets = [family_graph(*params)] if beta > 1 else predicted_graphs(m, 1)
    for g6 in argmax:
        g = decode(g6)
        if g.number_of_edges() != m:
            errors.append(f"{where}: maximizer {g6} has {g.number_of_edges()} edges")
        if matching_number(g6) != beta:
            errors.append(f"{where}: maximizer {g6} has matching number {matching_number(g6)}")
        if not _isomorphic_to_any(g, targets):
            errors.append(f"{where}: maximizer {g6} is not the predicted graph")
        if abs(radius(g) - q) > TOL:
            errors.append(f"{where}: maximizer {g6} has radius {radius(g)!r}, reported {q!r}")
    return errors


# -- sweep ------------------------------------------------------------------


def _batched_radii(g6s: list[str]) -> np.ndarray:
    by_n: dict[int, list[int]] = {}
    graphs = [decode(s) for s in g6s]
    for i, g in enumerate(graphs):
        by_n.setdefault(g.number_of_nodes(), []).append(i)
    out = np.zeros(len(graphs))
    for idx in by_n.values():
        stack = np.stack([q_matrix(graphs[i]) for i in idx])
        out[idx] = np.linalg.eigvalsh(stack)[:, -1]
    return out


def check_sweep(inputs, outputs, members, catalog_levels) -> list[str]:
    errors = []
    classes_by_m: dict[int, int] = {}
    for (m, beta), text in zip(inputs, outputs):
        if text is None:
            continue
        r = json.loads(text)
        where = f"({m}, {beta})"
        if (r["query"]["m"], r["query"]["beta"], r["query"]["mode"]) != (m, beta, "exact"):
            errors.append(f"{where}: report is for {r['query']}")
            continue
        if r["verdict"] != "pass":
            errors.append(f"{where}: verdict {r['verdict']}")
        classes_by_m[m] = classes_by_m.get(m, 0) + r["classes"]
        p = r["params"]
        params = None if p is None else (p["a"], p["b"], p["c"], p["d"])
        errors += check_maximizer(m, beta, r["argmax"], params, r["qmax"])
        errors += _check_members(m, beta, tuple(members[f"{m},{beta}"]), r["classes"], r["qmax"])
    if None in outputs:
        return errors  # the totals below need every query
    for m, expected in enumerate(A000664, start=1):
        if classes_by_m.get(m) != expected:
            errors.append(f"m = {m}: {classes_by_m.get(m)} graphs over all beta, A000664 gives {expected}")
    if list(catalog_levels) != list(A002905):
        errors.append(f"catalog levels {catalog_levels}, A002905 gives {list(A002905)}")
    return errors


@lru_cache(maxsize=None)
def _check_members_cached(m: int, beta: int, g6s: tuple[str, ...]) -> tuple:
    errors = []
    if len(set(g6s)) != len(g6s):
        errors.append(f"({m}, {beta}): repeated class members")
    for s in g6s:
        g = decode(s)
        if g.number_of_edges() != m or min(dict(g.degree).values()) == 0:
            errors.append(f"({m}, {beta}): member {s} is not an m-edge graph without isolated vertices")
        elif matching_number(s) != beta:
            errors.append(f"({m}, {beta}): member {s} has matching number {matching_number(s)}")
    return tuple(errors), float(_batched_radii(list(g6s)).max()) if g6s else 0.0


def _check_members(m, beta, g6s, classes, qmax) -> list[str]:
    errors, top = _check_members_cached(m, beta, g6s)
    errors = list(errors)
    if len(g6s) != classes:
        errors.append(f"({m}, {beta}): {len(g6s)} members, report counts {classes}")
    if top > qmax + TOL:
        errors.append(f"({m}, {beta}): a member has radius {top!r} above qmax {qmax!r}")
    return errors


# -- climb ------------------------------------------------------------------


@lru_cache(maxsize=None)
def _predicted_radius(m: int, beta: int) -> float:
    return max(radius(g) for g in predicted_graphs(m, beta))


@lru_cache(maxsize=None)
def _check_step(g6: str, m: int, beta: int, q_after: float) -> tuple[str, ...]:
    g = decode(g6)
    errors = []
    if g.number_of_edges() != m:
        errors.append(f"step graph {g6} has {g.number_of_edges()} edges, class needs {m}")
    if matching_number(g6) != beta:
        errors.append(f"step graph {g6} has matching number {matching_number(g6)}, class needs {beta}")
    if abs(radius(g) - q_after) > TOL:
        errors.append(f"step graph {g6} has radius {radius(g)!r}, reported {q_after!r}")
    return tuple(errors)


def check_climb(item, out) -> list[str]:
    start, m, beta = item
    errors = []
    q_prev = radius(decode(start))
    for move, q_before, q_after, g6 in out["steps"]:
        if abs(q_before - q_prev) > TOL:
            errors.append(f"{start}: step starts at q {q_before!r}, previous graph has {q_prev!r}")
        if not q_after > q_before:
            errors.append(f"{start}: {move} step does not raise q ({q_before!r} -> {q_after!r})")
        errors += _check_step(g6, m, beta, q_after)
        q_prev = q_after
    end = out["end"]
    expected_end = out["steps"][-1][3] if out["steps"] else start
    if end != expected_end:
        errors.append(f"{start}: endpoint {end} is not the last step graph {expected_end}")
    q_end = radius(decode(end))
    if q_end > _predicted_radius(m, beta) + TOL:
        errors.append(f"{start}: endpoint radius {q_end!r} beats the theorem's maximum "
                      f"{_predicted_radius(m, beta)!r} for ({m}, {beta})")
    if out["converged"] and not _isomorphic_to_any(decode(end), predicted_graphs(m, beta)):
        errors.append(f"{start}: endpoint {end} reported converged but is not the predicted graph")
    return errors


# -- probe ------------------------------------------------------------------


def check_probe(argv, text) -> list[str]:
    """Checks one successful request; a non-zero exit counts as failed instead."""
    lines = text.splitlines()
    if argv[0] == "q":
        g = decode(argv[1])
        try:
            q_text, x_text, _ = lines[0].split("\t")
            q = float(q_text)
            x = np.array([float(v) for v in x_text.split(",")])
        except ValueError:
            return [f"{argv}: unreadable output {text!r}"]
        errors = []
        if x.shape != (g.number_of_nodes(),) or len(lines) != 1:
            return [f"{argv}: output has the wrong shape: {text!r}"]
        if x.min() < 0.0:
            errors.append(f"{argv}: eigenvector has a negative entry {x.min()!r}")
        if abs(np.linalg.norm(x) - 1.0) > TOL:
            errors.append(f"{argv}: eigenvector norm {np.linalg.norm(x)!r}")
        res = float(np.linalg.norm(q_matrix(g) @ x - q * x))
        if res > TOL:
            errors.append(f"{argv}: residual {res!r} against networkx's Q")
        if abs(radius(g) - q) > TOL:
            errors.append(f"{argv}: q {q!r}, eigvalsh gives {radius(g)!r}")
        return errors
    if argv[0] == "beta":
        if lines != [str(matching_number(argv[1]))]:
            return [f"{argv}: printed {text!r}, networkx gives {matching_number(argv[1])}"]
        return []
    if argv[0] == "extremal":
        m, beta = int(argv[2]), int(argv[4])
        params, argmax, q = None, [], None
        for line in lines:
            key, _, value = line.partition(" ")
            if key == "params":
                params = tuple(int(f.split("=")[1]) for f in value.split())
            elif key == "graph6":
                argmax.append(value)
            elif key == "q":
                q = float(value)
        if q is None or not argmax:
            return [f"{argv}: unreadable output {text!r}"]
        return check_maximizer(m, beta, argmax, params, q)
    return [f"{argv}: unknown request"]
