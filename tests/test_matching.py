import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qspex import matching
from qspex.family import build_h, build_s, predicted_extremal
from qspex.graphs import Graph, components, induced_subgraph, union_all
from qspex.matching import (
    ENUMERATION_GUARD,
    MatchedGraph,
    Matching,
    OrderedMatching,
    all_maximum_matchings,
    edge_partition,
    extremal_matching,
    matching_number,
    matching_weight,
    maximum_matching,
    proper_ordering,
)
from qspex.spectral import q_radius

from helpers import (
    climber_moves,
    graphs,
    oracle_all_matchings_of_size,
    oracle_extremal_matching,
    oracle_matching_number,
    random_graph,
    repeated_unions,
    rewirings,
    sparse_graphs,
)

PETERSEN = Graph.from_edges(
    10,
    [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
     (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
     (5, 7), (7, 9), (9, 6), (6, 8), (8, 5)],
)


def cycle(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


class TestMaximumMatching:
    def test_empty_and_single_edge(self):
        assert matching_number(Graph.from_edges(3)) == 0
        assert matching_number(Graph.from_edges(2, [(0, 1)])) == 1

    @pytest.mark.parametrize(
        "n, beta", [(3, 1), (5, 2), (7, 3), (9, 4), (4, 2), (6, 3)]
    )
    def test_cycles(self, n, beta):
        assert matching_number(cycle(n)) == beta

    def test_petersen_has_perfect_matching(self):
        assert matching_number(PETERSEN) == 5

    def test_blossom_contraction_case(self):
        # two triangles joined by a path: greedy-augmenting needs real blossoms
        g = Graph.from_edges(
            8,
            [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4),
             (4, 5), (5, 6), (6, 7), (7, 5)],
        )
        assert matching_number(g) == oracle_matching_number(g) == 4

    def test_matching_edges_are_valid(self):
        m = maximum_matching(PETERSEN)
        assert m.size == 5
        assert len(m.vertices()) == 10
        for u, v in m.edges:
            assert PETERSEN.has_edge(u, v)

    @given(graphs(max_n=10))
    def test_agrees_with_exhaustive_oracle(self, g):
        assert matching_number(g) == oracle_matching_number(g)

    def test_family_matching_numbers(self):
        assert matching_number(build_s(2, 0, 1)) == 2
        assert matching_number(build_s(1, 2, 3)) == 6
        assert matching_number(build_h(1)) == 2
        assert matching_number(build_h(2)) == 3
        assert matching_number(build_h(3)) == 2
        assert matching_number(build_h(4)) == 3

    def test_additive_over_components(self):
        r = random.Random(5)
        for _ in range(40):
            g1 = random_graph(r, max_n=6)
            g2 = random_graph(r, max_n=6)
            assert matching_number(union_all([g1, g2])) == matching_number(
                g1
            ) + matching_number(g2)


class TestMatchedGraph:
    @settings(max_examples=300)
    @given(rewirings())
    def test_rewiring_equals_oracles(self, case):
        g, removed, added = case
        h = g.rewire(removed, added)
        got = MatchedGraph(g).rewired_matching_number(removed, added)
        assert got == oracle_matching_number(h) == matching_number(h)

    def test_every_climber_move_on_sparse_graphs(self):
        # every rotation and Kelmans swap of graphs like the climber's starts
        rng = random.Random(7)
        for _ in range(30):
            n = rng.randint(6, 10)
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            g = Graph.from_edges(n, rng.sample(pairs, rng.randint(n - 2, n + 4)))
            matched = MatchedGraph(g)
            assert matched.size == matching_number(g)
            rotations, swaps = climber_moves(g)
            for removed, added in rotations + swaps:
                h = g.rewire(removed, added)
                assert matched.rewired_matching_number(removed, added) == matching_number(h)

    @given(st.one_of(graphs(max_n=10), sparse_graphs()))
    def test_missed_vertices_are_gallai_edmonds_d(self, g):
        # v is missed by some maximum matching iff deleting it keeps nu(g)
        matched = MatchedGraph(g)
        for v in range(g.n):
            rest = [w for w in range(g.n) if w != v]
            keeps = oracle_matching_number(induced_subgraph(g, rest)) == matched.size
            assert bool(matched._missed >> v & 1) == keeps

    @given(st.one_of(graphs(min_n=1, max_n=10), sparse_graphs()))
    def test_leaf_equals_oracle(self, g):
        matched = MatchedGraph(g)
        grown = g.add_vertices(1)
        for u in range(g.n):
            h = grown.add_edge((u, g.n))
            assert matched.leaf_matching_number(u) == oracle_matching_number(h)

    @given(st.one_of(graphs(max_n=10), sparse_graphs()))
    def test_barrier_certifies_the_matching(self, g):
        # Gallai-Edmonds: (n + |B| - odd(g - B)) / 2 = nu(g) for the barrier B
        matched = MatchedGraph(g)
        assert matched._bound == matched.size == oracle_matching_number(g)


class TestAllMaximumMatchings:
    @given(graphs(max_n=7))
    def test_complete_and_exact(self, g):
        beta = matching_number(g)
        found = {m.edges for m in all_maximum_matchings(g)}
        assert found == oracle_all_matchings_of_size(g, beta)

    def test_equals_oracle_up_to_12_vertices(self):
        rng = random.Random(12)
        for _ in range(40):
            g = random_graph(rng, max_n=12, p=rng.choice([0.15, 0.25, 0.3]))
            found = [m.edges for m in all_maximum_matchings(g)]
            assert found == sorted(oracle_all_matchings_of_size(g, oracle_matching_number(g)))

    def test_sorted_and_distinct(self):
        ms = all_maximum_matchings(cycle(5))
        assert ms == sorted(ms, key=lambda m: m.edges)
        assert len({m.edges for m in ms}) == len(ms) == 5

    def test_guard_refuses_large_graphs(self):
        g = Graph.from_edges(ENUMERATION_GUARD + 1)
        with pytest.raises(ValueError, match="guard"):
            all_maximum_matchings(g)

    def test_empty_graph_has_empty_matching(self):
        assert all_maximum_matchings(Graph.from_edges(3)) == [Matching(())]


class TestMatchingOf:
    def test_of_normalizes(self):
        g = cycle(4)
        m = Matching.of(g, [(2, 1), (3, 0)])
        assert m.edges == ((0, 3), (1, 2))

    def test_of_rejects_non_edges(self):
        with pytest.raises(ValueError, match="not an edge"):
            Matching.of(cycle(4), [(0, 2)])

    def test_of_rejects_shared_vertices(self):
        with pytest.raises(ValueError, match="share vertex"):
            Matching.of(cycle(4), [(0, 1), (1, 2)])


class TestExtremalSelection:
    def test_worked_star_triangle(self):
        # S(2,0,1): matching edges {center-pendant, triangle edge}; the
        # eigenvector weighs the triangle edge plus the center edge highest
        g = build_s(2, 0, 1)
        s = q_radius(g)
        m = extremal_matching(g, s.x)
        assert m.edges == ((0, 1), (3, 4))
        om = proper_ordering(m, s.x)
        assert om.pairs == ((1, 0), (3, 4)) or om.pairs == ((1, 0), (4, 3))
        assert om.v1 == 0
        e1, e2 = edge_partition(g, om)
        assert set(e1) == set(g.edges())
        assert e2 == ()

    def test_worked_h1(self):
        g = build_h(1)
        s = q_radius(g)
        m = extremal_matching(g, s.x)
        om = proper_ordering(m, s.x)
        e1, e2 = edge_partition(g, om)
        assert m.edges == ((0, 1), (2, 3))
        assert e2 == ((0, 3),) or e2 == ((1, 2),)
        assert len(e1) == 4

    def test_path4_symmetric_tiebreak(self):
        # P4's eigenvector is symmetric: orientation ties resolve by index,
        # so the ordering is reproducible
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        s = q_radius(g)
        m = extremal_matching(g, s.x)
        assert m.edges == ((0, 1), (2, 3))
        om = proper_ordering(m, s.x)
        assert om.pairs == ((0, 1), (3, 2))
        assert om.v1 == 1

    def test_extremal_requires_edges(self):
        with pytest.raises(ValueError, match="no edges"):
            extremal_matching(Graph.from_edges(2), np.zeros(2))

    @given(graphs(min_n=2, max_n=8))
    def test_extremal_is_max_weight(self, g):
        if g.m == 0:
            return
        s = q_radius(g)
        best = extremal_matching(g, s.x)
        weights = [matching_weight(m, s.x) for m in all_maximum_matchings(g)]
        assert matching_weight(best, s.x) == pytest.approx(max(weights), abs=1e-9)
        assert best.size == matching_number(g)

    @given(graphs(min_n=1, max_n=5), graphs(min_n=1, max_n=5), st.data())
    def test_per_component_choice_equals_whole_graph_rule(self, g, h, data):
        # integer-valued weights give exact ties across components
        u = union_all([g, h])
        if u.m == 0:
            return
        x = np.array(data.draw(st.lists(st.integers(0, 3), min_size=u.n, max_size=u.n)), float)
        assert extremal_matching(u, x).edges == oracle_extremal_matching(u, x)
        x = q_radius(u).x
        assert extremal_matching(u, x).edges == oracle_extremal_matching(u, x)

    @given(repeated_unions(max_n=4, max_parts=3), st.data())
    def test_copies_choose_apart(self, g, data):
        # copies share their list of maximum matchings, not the choice: each
        # copy is weighed by its own entries
        if g.m == 0:
            return
        x = np.array(data.draw(st.lists(st.integers(0, 3), min_size=g.n, max_size=g.n)), float)
        assert extremal_matching(g, x).edges == oracle_extremal_matching(g, x)
        x = q_radius(g).x
        assert extremal_matching(g, x).edges == oracle_extremal_matching(g, x)

    def test_predicted_maximizers_with_copies(self):
        for m, beta in [(4, 4), (6, 4), (8, 5), (9, 6), (10, 6), (10, 9)]:
            g = predicted_extremal(m, beta)
            assert len({part for part, _ in components(g)}) < len(components(g))
            for x in (q_radius(g).x, np.arange(g.n, dtype=float) % 3):
                assert extremal_matching(g, x).edges == oracle_extremal_matching(g, x)

    def test_ten_copies_enumerate_once(self, monkeypatch):
        calls = []
        enumerate_all = matching.all_maximum_matchings

        def counted(g, *args):
            calls.append(g)
            return enumerate_all(g, *args)

        monkeypatch.setattr(matching, "all_maximum_matchings", counted)
        g = union_all([Graph.from_edges(2, [(0, 1)])] * 10)
        assert extremal_matching(g, np.arange(20, dtype=float)).size == 10
        assert len(calls) == 1

    def test_components_each_count_against_the_guard(self):
        # 11*K2 has 22 vertices, past the enumeration guard of 20, but each
        # component has 2
        g = union_all([Graph.from_edges(2, [(0, 1)])] * 11)
        m = extremal_matching(g, q_radius(g).x)
        assert m.edges == tuple((2 * i, 2 * i + 1) for i in range(11))
        two_petersens = union_all([PETERSEN, PETERSEN])
        m = extremal_matching(two_petersens, np.ones(20))
        assert m.size == 10
        with pytest.raises(ValueError, match="guard"):
            all_maximum_matchings(union_all([two_petersens, cycle(3)]))


class TestProperOrdering:
    @given(graphs(min_n=2, max_n=8))
    def test_ordering_invariants(self, g):
        if matching_number(g) == 0:
            return
        s = q_radius(g)
        m = extremal_matching(g, s.x)
        om = proper_ordering(m, s.x)
        assert isinstance(om, OrderedMatching)
        assert {tuple(sorted(p)) for p in om.pairs} == set(m.edges)
        xs = s.x
        for u, v in om.pairs:
            assert xs[u] <= xs[v] + 1e-12
        vs = [xs[v] for _, v in om.pairs]
        assert all(vs[i] >= vs[i + 1] - 1e-12 for i in range(len(vs) - 1))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="empty matching"):
            proper_ordering(Matching(()), np.zeros(1))


class TestEdgePartition:
    @given(graphs(min_n=2, max_n=8))
    def test_partition_is_exact(self, g):
        if matching_number(g) == 0:
            return
        s = q_radius(g)
        om = proper_ordering(extremal_matching(g, s.x), s.x)
        e1, e2 = edge_partition(g, om)
        assert set(e1) | set(e2) == set(g.edges())
        assert set(e1) & set(e2) == set()
        # matching edges and the anchor's star are all in the first half
        for u, v in om.pairs:
            assert tuple(sorted((u, v))) in e1
        for w in g.neighbors(om.v1):
            assert tuple(sorted((om.v1, w))) in e1
