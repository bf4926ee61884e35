import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from qspex import spectral
from qspex.family import build_h, build_s
from qspex.graphs import Graph, components, union_all
from qspex.spectral import (
    RESIDUAL_TOL,
    SpectralData,
    eigen_equation_check,
    extremal_component,
    q_matrix,
    q_pairs,
    q_radius,
    rayleigh_sum,
)

from helpers import (
    family_graphs,
    graphs,
    oracle_power_q,
    oracle_q_radius,
    q_gap,
    random_graph,
    repeated_unions,
)


def star(m):
    return Graph.from_edges(m + 1, [(0, i) for i in range(1, m + 1)])


def cycle(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def complete(n):
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


class TestClosedFormRadii:
    @pytest.mark.parametrize("m", [1, 2, 3, 5, 10, 30])
    def test_stars(self, m):
        assert q_radius(star(m)).q == pytest.approx(m + 1, abs=1e-9)

    @pytest.mark.parametrize("n", [3, 4, 5, 8, 13])
    def test_cycles_are_4(self, n):
        assert q_radius(cycle(n)).q == pytest.approx(4.0, abs=1e-9)

    @pytest.mark.parametrize("n", [2, 3, 4, 7, 11])
    def test_paths(self, n):
        assert q_radius(path(n)).q == pytest.approx(2 + 2 * math.cos(math.pi / n), abs=1e-9)

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_complete_graphs(self, n):
        assert q_radius(complete(n)).q == pytest.approx(2 * n - 2, abs=1e-9)

    def test_triangle_with_pendants(self):
        golden = (3 + math.sqrt(5))
        assert q_radius(build_h(1)).q == pytest.approx(golden, abs=1e-12)
        assert q_radius(build_h(2)).q == pytest.approx(golden, abs=1e-12)

    def test_family_anchors(self):
        s201 = build_s(2, 0, 1)
        s301 = build_s(3, 0, 1)
        assert q_radius(s201).q == pytest.approx(5.323404276086476, abs=1e-9)
        assert q_radius(s301).q == pytest.approx(6.20147, abs=5e-6)
        assert q_radius(build_h(3)).q == pytest.approx(5.778457, abs=5e-7)
        assert q_radius(build_h(4)).q == pytest.approx(5.945225155553082, abs=1e-9)


class TestAgainstDenseEigensolve:
    @given(graphs(max_n=10))
    def test_matches_oracle(self, g):
        assert q_radius(g).q == pytest.approx(oracle_q_radius(g), abs=1e-9)

    @given(graphs(min_n=2, max_n=9))
    def test_eigen_pair_residual(self, g):
        s = q_radius(g)
        assert s.residual <= RESIDUAL_TOL
        assert eigen_equation_check(g, s) <= 1e-8

    @given(graphs(min_n=1, max_n=9))
    def test_eigenvector_is_unit_and_nonnegative(self, g):
        s = q_radius(g)
        if g.m == 0:
            assert not s.x.any()
            return
        assert np.linalg.norm(s.x) == pytest.approx(1.0, abs=1e-12)
        assert (s.x >= -1e-12).all()


class TestAgainstPowerIteration:
    @given(graphs(max_n=10))
    def test_matches_power_oracle(self, g):
        assume(q_gap(g) >= 1e-3)
        assert q_radius(g).q == pytest.approx(oracle_power_q(g), abs=1e-9)

    @given(graphs(min_n=1, max_n=10))
    def test_component_eigenvectors_are_perron(self, g):
        # a strictly positive eigenvector of a connected graph belongs to its
        # top eigenvalue, which certifies q without any other solver
        for part, _ in components(g):
            if part.m == 0:
                continue
            s = q_radius(part)
            assert s.x.min() > 0.0
            assert s.residual <= RESIDUAL_TOL


def radii_of(gs):
    return [q for q, _, _ in q_pairs(gs)]


class TestBatchedRadii:
    @given(st.lists(graphs(max_n=9), max_size=24))
    def test_matches_q_radius_across_chunks(self, gs):
        # a chunk of 3 splits the same-n groups the way long lists are split
        with mock.patch.object(spectral, "_CHUNK", 3):
            radii = radii_of(gs)
        assert len(radii) == len(gs)
        for g, q in zip(gs, radii):
            assert q == pytest.approx(q_radius(g).q, abs=1e-12)

    def test_longer_than_one_chunk(self):
        rng = random.Random(11)
        gs = [random_graph(rng, max_n=12) for _ in range(300)]
        gs += [Graph.from_edges(8), union_all([star(3), cycle(4)])] * 140
        assert max(sum(g.n == n for g in gs) for n in range(13)) > 128
        radii = radii_of(gs)
        assert all(isinstance(q, float) for q in radii)
        for g, q in zip(gs, radii):
            assert q == pytest.approx(q_radius(g).q, abs=1e-12)

    def test_edgeless_and_empty(self):
        assert q_pairs([]) == []
        pairs = q_pairs([Graph.from_edges(0), Graph.from_edges(5)])
        assert [(q, x.tolist(), r) for q, x, r in pairs] == [
            (0.0, [], 0.0), (0.0, [0.0] * 5, 0.0)]

    def test_pairs_come_in_input_order(self):
        # mixed vertex counts and edgeless graphs, shuffled, in stacks of 3
        rng = random.Random(21)
        gs = [random_graph(rng, max_n=9) for _ in range(40)]
        gs += [Graph.from_edges(n) for n in (0, 1, 4, 9)]
        rng.shuffle(gs)
        assert len({g.n for g in gs if g.m}) >= 5
        stacks = []

        def counted_top_pairs(qs, tol):
            stacks.append(len(qs))
            return top_pairs(qs, tol)

        top_pairs = spectral._top_pairs
        with mock.patch.object(spectral, "_CHUNK", 3), \
                mock.patch.object(spectral, "_top_pairs", counted_top_pairs):
            pairs = q_pairs(gs)
        assert max(stacks) <= 3 and sum(stacks) == sum(g.m > 0 for g in gs)
        assert len(pairs) == len(gs)
        for g, (q, x, residual) in zip(gs, pairs):
            assert isinstance(q, float) and isinstance(residual, float)
            assert x.shape == (g.n,)
            if not g.m:
                assert (q, residual) == (0.0, 0.0) and not x.any()
                continue
            assert q == pytest.approx(q_radius(g).q, abs=1e-12)
            assert residual <= RESIDUAL_TOL
            assert np.linalg.norm(q_matrix(g) @ x - q * x) <= RESIDUAL_TOL

    @given(st.lists(graphs(max_n=9), max_size=24))
    def test_pairs_of_connected_graphs_are_q_radius_bit_for_bit(self, gs):
        # the level batches hand these pairs to the verdicts in place of q_radius
        gs = [g for g in gs if g.m and len(components(g)) == 1]
        with mock.patch.object(spectral, "_CHUNK", 3):
            pairs = q_pairs(gs)
        assert len(pairs) == len(gs)
        for g, (q, x, residual) in zip(gs, pairs):
            s = q_radius(g)
            assert (q, residual) == (s.q, s.residual)
            assert np.array_equal(x, s.x)


class TestResidualTolerance:
    def test_power_steps_rescue_a_near_miss(self):
        # K_{1,5}: q = 6, next eigenvalue 1, so each power step shrinks the
        # error of a perturbed Perron vector about sixfold
        q_mat = q_matrix(star(5))
        x = np.array([5.0, 1, 1, 1, 1, 1]) / 30 ** 0.5
        x[1] += 1e-8
        x /= np.linalg.norm(x)
        y = q_mat @ x
        missed = float(np.linalg.norm(y - (x @ y) * x))
        assert missed > RESIDUAL_TOL
        q, x, residual = spectral._polish(q_mat, y, missed, RESIDUAL_TOL)
        assert residual <= RESIDUAL_TOL
        assert q == pytest.approx(6.0, abs=1e-12)
        assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-12)

    def test_unreachable_tolerance_raises(self):
        with pytest.raises(ArithmeticError, match="residual"):
            q_radius(complete(40), residual_tol=1e-30)
        # the batched path q_pairs takes, on a stack of two graphs
        stack = np.stack([q_matrix(complete(40)), q_matrix(star(39))])
        with pytest.raises(ArithmeticError, match="residual"):
            spectral._top_pairs(stack, 1e-30)


class TestStructuralBounds:
    @given(graphs(min_n=2, max_n=9))
    def test_degree_bounds(self, g):
        if g.m == 0:
            return
        q = q_radius(g).q
        dmax = max(g.degree(v) for v in range(g.n))
        assert q >= dmax + 1 - 1e-9
        assert q <= 2 * dmax + 1e-9

    @given(graphs(min_n=2, max_n=8))
    def test_edge_monotone(self, g):
        non_edges = [
            (u, v)
            for u in range(g.n)
            for v in range(u + 1, g.n)
            if not g.has_edge(u, v)
        ]
        if not non_edges:
            return
        before = q_radius(g).q
        for e in non_edges[:3]:
            assert q_radius(g.add_edge(e)).q >= before - 1e-9


class TestDisconnected:
    def test_empty_graph(self):
        s = q_radius(Graph.from_edges(4))
        assert s.q == 0.0 and s.support_component == -1
        assert not s.x.any()

    def test_support_on_dominant_component(self):
        g = union_all([Graph.from_edges(2, [(0, 1)]), star(3)])
        s = q_radius(g)
        assert s.q == pytest.approx(4.0, abs=1e-9)
        assert s.support_component == 1
        assert not s.x[:2].any()
        assert np.linalg.norm(s.x) == pytest.approx(1.0, abs=1e-12)

    def test_exact_tie_prefers_first_component(self):
        # q(K3) = q(K_{1,3}) = 4: the tie goes to the lower component index
        k3 = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
        g = union_all([k3, star(3)])
        s = q_radius(g)
        assert s.q == pytest.approx(4.0, abs=1e-9)
        assert s.support_component == 0
        assert not s.x[3:].any()
        assert s.x[:3].all()

    def test_isolated_vertices_do_not_shift_support(self):
        g = Graph.from_edges(5, [(3, 4)])
        s = q_radius(g)
        assert s.q == pytest.approx(2.0, abs=1e-9)
        # components: {0}, {1}, {2}, {3,4} -- the edge lives in component 3
        assert s.support_component == 3


class TestExtremalComponent:
    """The component rule, fed made-up pairs by part."""

    K2 = Graph.from_edges(2, [(0, 1)])
    P3 = path(3)
    K3 = complete(3)

    def pick(self, parts, radii):
        g = union_all(parts)
        asked = []

        def pair(part):
            asked.append(part)
            return radii[part], np.full(part.n, part.n ** -0.5), 0.0

        return extremal_component(g, pair), asked

    def test_later_component_must_win_by_more_than_1e_12(self):
        s, _ = self.pick([self.K2, self.P3], {self.K2: 3.0, self.P3: 3.0 + 5e-13})
        assert s.support_component == 0 and s.q == 3.0
        s, _ = self.pick([self.K2, self.P3], {self.K2: 3.0, self.P3: 3.0 + 2e-12})
        assert s.support_component == 1 and s.q == 3.0 + 2e-12
        assert not s.x[:2].any() and s.x[2:].all()

    def test_copies_and_edgeless_parts_are_not_asked_for(self):
        parts = [Graph.from_edges(1), self.K2, self.K3, self.K2, self.K3]
        s, asked = self.pick(parts, {self.K2: 2.0, self.K3: 4.0})
        assert asked == [self.K2, self.K3]
        assert s.support_component == 2 and s.x[3:6].all()
        assert not s.x[:3].any() and not s.x[6:].any()

    def test_edgeless_graph(self):
        s, asked = self.pick([Graph.from_edges(3)], {})
        assert asked == [] and s.support_component == -1 and s.x.shape == (3,)


class TestRepeatedComponents:
    """A part repeated with equal masks is solved once, and a copy never
    takes the support from its original."""

    @given(st.one_of(family_graphs(), repeated_unions()))
    def test_matches_oracle(self, g):
        s = q_radius(g)
        assert s.q == pytest.approx(oracle_q_radius(g), abs=1e-9)
        if g.m:
            radii = [oracle_q_radius(part) for part, _ in components(g)]
            first = next(i for i, q in enumerate(radii) if q >= max(radii) - 1e-9)
            assert s.support_component == first
            assert eigen_equation_check(g, s) <= 1e-9

    def test_first_copy_keeps_the_support(self):
        p3 = path(3)
        s = q_radius(union_all([p3, Graph.from_edges(2, [(0, 1)]), p3]))
        assert s.support_component == 0
        assert s.x[:3].all() and not s.x[3:].any()
        s = q_radius(union_all([Graph.from_edges(2, [(0, 1)]), complete(3), complete(3)]))
        assert s.support_component == 1
        assert s.x[2:5].all() and not s.x[:2].any() and not s.x[5:].any()

    def test_ten_copies_solve_once(self, monkeypatch):
        calls = []
        top_pairs = spectral._top_pairs

        def counted(qs, residual_tol):
            calls.append(len(qs))
            return top_pairs(qs, residual_tol)

        monkeypatch.setattr(spectral, "_top_pairs", counted)
        s = q_radius(union_all([Graph.from_edges(2, [(0, 1)])] * 10))
        assert calls == [1]
        assert s.q == pytest.approx(2.0, abs=1e-12) and s.support_component == 0


class TestRayleigh:
    @given(graphs(min_n=2, max_n=9))
    def test_reproduces_radius_at_principal_vector(self, g):
        if g.m == 0:
            return
        s = q_radius(g)
        assert rayleigh_sum(g, s.x) == pytest.approx(s.q, abs=1e-10)

    def test_any_unit_vector_is_a_lower_bound(self):
        g = path(5)
        q = q_radius(g).q
        rng = np.random.default_rng(7)
        for _ in range(25):
            x = rng.normal(size=5)
            x /= np.linalg.norm(x)
            assert rayleigh_sum(g, x) <= q + 1e-10

    def test_rejects_bad_vectors(self):
        g = path(3)
        with pytest.raises(ValueError, match="shape"):
            rayleigh_sum(g, np.ones(2))
        with pytest.raises(ValueError, match="unit"):
            rayleigh_sum(g, np.ones(3))

    def test_q_matrix_is_degree_plus_adjacency(self):
        g = path(3)
        expected = np.array([[1.0, 1, 0], [1, 2, 1], [0, 1, 1]])
        assert np.array_equal(q_matrix(g), expected)


def test_spectral_data_is_frozen():
    s = q_radius(path(3))
    assert isinstance(s, SpectralData)
    with pytest.raises(AttributeError):
        s.q = 0.0
