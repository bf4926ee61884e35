"""End-to-end acceptance gate.

Each test implements one numbered criterion at its stated tolerance and
runtime budget, and registers a PASS/FAIL line that the terminal summary
prints as a scoreboard.  Tests compute their verdict first, record it, then
assert -- so a failing criterion still shows up in the scoreboard.
"""

import math
import random
import time

import pytest

from qspex.family import build_h, build_s, predicted_extremal
from qspex.graphs import (
    Graph,
    canonical_graph,
    is_isomorphic,
    strip_isolated,
    to_graph6,
)
from qspex.matching import matching_number
from qspex.search import EnumerationQuery, brute_force_max, enumerate_graphs, hill_climb
from qspex.spectral import q_radius, rayleigh_sum
from qspex.transform import kelmans_swap, rotate
from qspex.verify import verify_theorem1

from conftest import record_criterion
from helpers import oracle_matching_number, oracle_q_radius, random_graph

GOLDEN = 3 + math.sqrt(5)


def star(m):
    return Graph.from_edges(m + 1, [(0, i) for i in range(1, m + 1)])


def record_and_assert(num: int, label: str, failures: list, budget=None, elapsed=None):
    ok = not failures and (budget is None or elapsed < budget)
    note = label if budget is None else f"{label} [{elapsed:.2f}s / {budget:.0f}s]"
    record_criterion(num, ok, note)
    assert not failures, f"criterion {num}: {failures[:10]}"
    if budget is not None:
        assert elapsed < budget, f"criterion {num}: {elapsed:.2f}s over {budget}s budget"


@pytest.fixture(scope="module")
def theorem_grid():
    """The 15 desk-scale queries of criterion 5, run once and shared with
    criterion 10."""
    t0 = time.perf_counter()
    reports = {
        (m, beta): verify_theorem1(m, beta)
        for beta in (2, 3)
        for m in range(beta, 10)
    }
    return reports, time.perf_counter() - t0


def test_criterion_01_star_values():
    t0 = time.perf_counter()
    failures = [
        (m, q_radius(star(m)).q)
        for m in range(1, 31)
        if abs(q_radius(star(m)).q - (m + 1)) > 1e-9
    ]
    record_and_assert(1, "star radii equal m+1 for m=1..30", failures,
                      budget=1.0, elapsed=time.perf_counter() - t0)


def test_criterion_02_fixed_anchors():
    t0 = time.perf_counter()
    k4 = Graph.from_edges(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    checks = [
        ("H1", q_radius(build_h(1)).q, GOLDEN),
        ("H2", q_radius(build_h(2)).q, GOLDEN),
        ("K4", q_radius(k4).q, 6.0),
        ("K_{1,5}", q_radius(star(5)).q, 6.0),
        ("K_{1,6}", q_radius(star(6)).q, 7.0),
    ]
    failures = [(name, got, want) for name, got, want in checks if abs(got - want) > 1e-9]
    record_and_assert(2, "fixed anchor radii to 1e-9", failures,
                      budget=1.0, elapsed=time.perf_counter() - t0)


def test_criterion_03_four_decimal_anchors():
    t0 = time.perf_counter()
    checks = [
        ("S(2,0,1)", q_radius(build_s(2, 0, 1)).q, 5.3234),
        ("H4", q_radius(build_h(4)).q, 5.9452),
    ]
    failures = [(name, got, want) for name, got, want in checks if abs(got - want) > 5e-4]
    record_and_assert(3, "four-decimal anchors within 5e-4", failures,
                      budget=1.0, elapsed=time.perf_counter() - t0)


def test_criterion_04_strict_inequality_chain():
    t0 = time.perf_counter()
    q_s201 = q_radius(build_s(2, 0, 1)).q
    q_s301 = q_radius(build_s(3, 0, 1)).q
    q_h4 = q_radius(build_h(4)).q
    margins = [
        ("q(S(2,0,1)) - (3+sqrt5)", q_s201 - GOLDEN),
        ("q(S(3,0,1)) - 6", q_s301 - 6.0),
        ("6 - q(H4)", 6.0 - q_h4),
    ]
    failures = [(name, margin) for name, margin in margins if margin < 1e-3]
    record_and_assert(4, "strict inequality chain with 1e-3 margins", failures,
                      budget=1.0, elapsed=time.perf_counter() - t0)


def test_criterion_05_theorem_grid(theorem_grid):
    reports, elapsed = theorem_grid
    failures = []
    for (m, beta), r in sorted(reports.items()):
        if r.verdict != "pass":
            failures.append((m, beta, r.verdict))
        if len(r.argmax) != 1:
            failures.append((m, beta, f"argmax not unique: {r.argmax}"))
    record_and_assert(5, "verify_theorem1 passes for beta in {2,3}, m <= 9",
                      failures, budget=600.0, elapsed=elapsed)


def test_criterion_06_beta_one_remark():
    t0 = time.perf_counter()
    failures = []
    qmax, argmax = brute_force_max(EnumerationQuery(3, 1, "exact"))
    triangle = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
    want = {to_graph6(canonical_graph(g)) for g in (triangle, star(3))}
    got = {to_graph6(g) for g in argmax}
    if abs(qmax - 4.0) > 1e-9:
        failures.append(("m=3 qmax", qmax))
    if got != want:
        failures.append(("m=3 argmax", got))
    for m in (4, 5, 6):
        qmax, argmax = brute_force_max(EnumerationQuery(m, 1, "exact"))
        if abs(qmax - (m + 1)) > 1e-9:
            failures.append((f"m={m} qmax", qmax))
        if len(argmax) != 1 or not is_isomorphic(argmax[0], star(m)):
            failures.append((f"m={m} argmax", [to_graph6(g) for g in argmax]))
    record_and_assert(6, "beta=1 maximizers: {K3, K_{1,3}} at m=3, stars after",
                      failures, budget=60.0, elapsed=time.perf_counter() - t0)


def test_criterion_07_rotation_monotonicity():
    t0 = time.perf_counter()
    rng = random.Random(20260816)
    deltas = []
    while len(deltas) < 1000:
        g = random_graph(rng, max_n=10)
        if g.m < 2:
            continue
        s = q_radius(g)
        x = s.x
        non_edges = [
            (u, v)
            for u in range(g.n)
            for v in range(u + 1, g.n)
            if not g.has_edge(u, v)
        ]
        count_here = 0
        for e in g.edges():
            se = x[e[0]] + x[e[1]]
            if se <= 1e-12:
                continue
            for f in non_edges:
                if x[f[0]] + x[f[1]] >= se - 1e-12:
                    deltas.append(rotate(g, x, e, f).delta)
                    count_here += 1
                    if count_here >= 12 or len(deltas) >= 1000:
                        break
            if count_here >= 12 or len(deltas) >= 1000:
                break
    failures = []
    if min(deltas) <= -1e-10:
        failures.append(("min delta", min(deltas)))
    strict = sum(d > 1e-9 for d in deltas) / len(deltas)
    if strict < 0.99:
        failures.append(("strict increase share", strict))
    record_and_assert(7, f"{len(deltas)} rotations never decrease q "
                         f"({strict:.1%} strictly)", failures,
                      budget=60.0, elapsed=time.perf_counter() - t0)


def test_criterion_08_swap_bound():
    t0 = time.perf_counter()
    rng = random.Random(77)
    results = []
    while len(results) < 100:
        g = random_graph(rng, max_n=10)
        if g.m < 2:
            continue
        x = q_radius(g).x
        edges = g.edges()
        for i in range(len(edges)):
            for j in range(i + 1, len(edges)):
                if set(edges[i]) & set(edges[j]):
                    continue
                for ei in (edges[i], edges[i][::-1]):
                    for ej in (edges[j], edges[j][::-1]):
                        ui, vi = ei
                        uj, vj = ej
                        if g.has_edge(ui, uj) or g.has_edge(vi, vj):
                            continue
                        if x[vj] - x[ui] > 1e-9 and x[vi] - x[uj] > 1e-9:
                            results.append(kelmans_swap(g, ei, ej, x))
        if len(results) > 400:
            break
    failures = [
        (r.detail, r.delta, r.predicted_gain)
        for r in results
        if r.delta < r.predicted_gain - 1e-8
    ]
    record_and_assert(8, f"{len(results)} swaps beat the predicted gain", failures,
                      budget=60.0, elapsed=time.perf_counter() - t0)
    assert len(results) >= 100


def test_criterion_09_oracle_equivalence():
    t0 = time.perf_counter()
    rng = random.Random(5150)
    failures = []
    for _ in range(1000):
        g = random_graph(rng, max_n=10)
        if matching_number(g) != oracle_matching_number(g):
            failures.append(("beta", to_graph6(g)))
        if abs(q_radius(g).q - oracle_q_radius(g)) > 1e-9:
            failures.append(("q", to_graph6(g)))
    record_and_assert(9, "matching and radius agree with oracles on 1000 graphs",
                      failures, budget=120.0, elapsed=time.perf_counter() - t0)


def test_criterion_10_rayleigh_identity(theorem_grid):
    reports, _ = theorem_grid
    failures = []
    checked = 0
    for (m, beta) in reports:
        for g in enumerate_graphs(EnumerationQuery(m, beta, "exact")):
            s = q_radius(g)
            if abs(rayleigh_sum(g, s.x) - s.q) > 1e-8:
                failures.append((to_graph6(g), s.q))
            checked += 1
    record_and_assert(10, f"Rayleigh identity on all {checked} enumerated graphs",
                      failures)


def test_criterion_11_climber_convergence():
    t0 = time.perf_counter()
    failures = []
    c5 = Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
    trace = hill_climb(c5, EnumerationQuery(5, 2, "at_least"))
    if not is_isomorphic(strip_isolated(trace.end), build_s(2, 0, 1)):
        failures.append(("C5 endpoint", to_graph6(trace.end)))
    for beta in (2, 3):
        for m in range(beta, 10):
            g = predicted_extremal(m, beta)
            fixed = hill_climb(g, EnumerationQuery(m, beta, "exact"))
            if fixed.steps:
                failures.append(((m, beta), [s.detail for s in fixed.steps]))
    record_and_assert(11, "C5 climbs to S(2,0,1); predicted graphs are fixed points",
                      failures, budget=60.0, elapsed=time.perf_counter() - t0)


# OEIS A000664: graphs with m edges and no isolated vertices, m = 1..10
A000664 = (1, 2, 5, 11, 26, 68, 177, 497, 1476, 4613)


def test_criterion_12_every_beta():
    t0 = time.perf_counter()
    failures = []
    for m in range(1, 11):
        reports = [verify_theorem1(m, beta) for beta in range(1, m + 1)]
        failures += [(m, r.beta, r.verdict) for r in reports if r.verdict != "pass"]
        classes = sum(r.classes for r in reports)
        if classes != A000664[m - 1]:
            failures.append((m, "classes", classes, A000664[m - 1]))
    record_and_assert(12, "verify_theorem1 passes for every 1 <= beta <= m <= 10;"
                          " class sizes add up to A000664",
                      failures, budget=120.0, elapsed=time.perf_counter() - t0)
