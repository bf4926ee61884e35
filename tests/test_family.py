import math

import pytest
from hypothesis import given, strategies as st

from qspex.family import (
    FamilyParams,
    build_h,
    build_s,
    extremal_params,
    predicted_extremal,
    predicted_maximizers,
    predicted_order,
)
from qspex.graphs import GRAPH6_MAX_N, Graph, canonical_form, components, is_isomorphic
from qspex.matching import matching_number
from qspex.spectral import q_radius

from helpers import oracle_matching_number


class TestBuildS:
    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=0, max_value=4),
    )
    def test_shape_invariants(self, a, b, c):
        g = build_s(a, b, c)
        assert g.n == 1 + a + 2 * b + 2 * c
        assert g.m == a + 2 * b + 3 * c
        assert matching_number(g) == b + c + 1
        assert g.degree(0) == a + b + 2 * c  # the center sees every branch
        assert len(components(g)) == 1

    def test_star_special_case(self):
        assert is_isomorphic(
            build_s(4, 0, 0), Graph.from_edges(5, [(0, i) for i in range(1, 5)])
        )

    def test_rejects_zero_pendants(self):
        with pytest.raises(ValueError):
            build_s(0, 1, 1)

    def test_bowtie(self):
        g = build_s(1, 0, 2)
        assert g.degree_sequence() == (5, 2, 2, 2, 2, 1)

    def test_layout_is_documented_order(self):
        g = build_s(2, 1, 1)
        # center 0; pendant tips 1,2; path pair (3,4); triangle pair (5,6)
        assert g.edges() == [
            (0, 1), (0, 2), (0, 3), (0, 5), (0, 6), (3, 4), (5, 6),
        ]


class TestFixedGraphs:
    def test_shapes(self):
        h1, h2, h3, h4 = (build_h(k) for k in range(1, 5))
        assert (h1.n, h1.m) == (4, 5)
        assert (h2.n, h2.m) == (6, 6)
        assert (h3.n, h3.m) == (5, 6)
        assert (h4.n, h4.m) == (6, 7)

    def test_h1_is_k4_minus_one_edge(self):
        h1 = build_h(1)
        assert not h1.has_edge(0, 2)
        assert h1.m == 5

    def test_h3_extends_h1_and_h4_extends_h2(self):
        h1, h2 = build_h(1), build_h(2)
        h3, h4 = build_h(3), build_h(4)
        assert h3.edges() == sorted(h1.edges() + [(1, 4)])
        assert h4.edges() == sorted(h2.edges() + [(1, 2)])

    def test_pairwise_non_isomorphic(self):
        hs = [build_h(k) for k in range(1, 5)]
        for i in range(4):
            for j in range(i + 1, 4):
                assert not is_isomorphic(hs[i], hs[j])

    def test_radii(self):
        golden = 3 + math.sqrt(5)
        assert q_radius(build_h(1)).q == pytest.approx(golden, abs=1e-12)
        assert q_radius(build_h(2)).q == pytest.approx(golden, abs=1e-12)
        assert q_radius(build_h(3)).q == pytest.approx(5.778457, abs=5e-7)
        assert q_radius(build_h(4)).q == pytest.approx(5.945225, abs=5e-7)

    def test_rejects_unknown_index(self):
        with pytest.raises(ValueError):
            build_h(5)
        with pytest.raises(ValueError):
            build_h(0)


class TestFamilyParams:
    def test_validates_budget(self):
        with pytest.raises(ValueError):
            FamilyParams(1, 0, 0, 0, m=2, beta=1)  # edge budget off by one
        with pytest.raises(ValueError):
            FamilyParams(0, 1, 0, 0, m=2, beta=2)  # a must be positive
        with pytest.raises(ValueError):
            FamilyParams(1, -1, 1, 0, m=2, beta=1)

    def test_valid_instance(self):
        p = FamilyParams(2, 0, 1, 0, m=5, beta=2)
        assert (p.a, p.b, p.c, p.d) == (2, 0, 1, 0)


class TestExtremalParams:
    @pytest.mark.parametrize(
        "m, beta, expected",
        [
            (5, 2, (2, 0, 1, 0)),   # star-heavy
            (9, 3, (3, 0, 2, 0)),   # star-heavy boundary side
            (6, 3, (1, 1, 1, 0)),   # odd m - beta
            (5, 3, (1, 0, 1, 1)),   # even m - beta
            (4, 4, (1, 0, 0, 3)),   # m = beta, even
            (3, 3, (1, 0, 0, 2)),   # m = beta, even
            (2, 2, (1, 0, 0, 1)),
            (8, 3, (2, 0, 2, 0)),   # exactly on the star-heavy boundary
            (7, 3, (1, 0, 2, 0)),   # top of the matching-heavy regime
        ],
    )
    def test_regime_table(self, m, beta, expected):
        p = extremal_params(m, beta)
        assert (p.a, p.b, p.c, p.d) == expected

    @given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=18))
    def test_params_consistent_on_grid(self, beta, extra):
        m = beta + extra
        p = extremal_params(m, beta)
        assert p.a >= 1 and min(p.b, p.c, p.d) >= 0
        assert p.a + 2 * p.b + 3 * p.c + p.d == m
        assert p.b + p.c + p.d + 1 == beta
        if m >= 3 * beta - 1:
            assert p.d == 0 and p.b == 0

    def test_rejects_bad_queries(self):
        with pytest.raises(ValueError, match="beta"):
            extremal_params(5, 1)
        with pytest.raises(ValueError, match="no graph"):
            extremal_params(2, 3)


class TestPredictedExtremal:
    @given(st.integers(min_value=2, max_value=7), st.integers(min_value=0, max_value=12))
    def test_realizes_query(self, beta, extra):
        m = beta + extra
        g = predicted_extremal(m, beta)
        assert g.m == m
        assert matching_number(g) == beta
        assert oracle_matching_number(g) == beta

    def test_component_structure(self):
        g = predicted_extremal(5, 3)  # S(1,0,1) plus one K2
        parts = components(g)
        assert len(parts) == 2
        sizes = sorted(part.n for part, _ in parts)
        assert sizes == [2, 4]

    def test_connected_when_d_zero(self):
        assert len(components(predicted_extremal(9, 3))) == 1


class TestBeta1:
    def test_stars_generic(self):
        for m in (1, 2, 4, 5, 9):
            gs = predicted_maximizers(m, 1)
            assert len(gs) == 1
            assert is_isomorphic(gs[0], build_s(m, 0, 0))
            assert q_radius(gs[0]).q == pytest.approx(m + 1, abs=1e-9)
            assert matching_number(gs[0]) == 1

    def test_m3_includes_triangle(self):
        gs = predicted_maximizers(3, 1)
        forms = {canonical_form(g) for g in gs}
        star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        triangle = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
        assert forms == {canonical_form(star), canonical_form(triangle)}
        assert [q_radius(g).q for g in gs] == pytest.approx([4.0, 4.0], abs=1e-9)

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="no graph"):
            predicted_maximizers(0, 1)


class TestPredictedMaximizers:
    def test_beta_two_up_is_the_family_graph(self):
        for m in range(2, 12):
            for beta in range(2, m + 1):
                assert predicted_maximizers(m, beta) == [predicted_extremal(m, beta)]

    @pytest.mark.parametrize("beta", [0, -1])
    def test_rejects_beta_below_one(self, beta):
        with pytest.raises(ValueError, match="matching number must be >= 1"):
            predicted_maximizers(5, beta)

    def test_rejects_infeasible(self):
        with pytest.raises(ValueError, match="no graph"):
            predicted_maximizers(2, 3)


class TestPredictedOrder:
    def test_is_the_fewest_vertices_of_a_prediction(self):
        built = 0
        for m in range(1, 41):
            for beta in range(1, m + 1):
                order = predicted_order(m, beta)
                if order > GRAPH6_MAX_N:
                    # every prediction is larger than a Graph can hold
                    with pytest.raises(ValueError, match="vertex range"):
                        predicted_maximizers(m, beta)
                    continue
                assert order == min(t.n for t in predicted_maximizers(m, beta)), (m, beta)
                built += 1
        assert built > 700

    @pytest.mark.parametrize("m, beta, match", [
        (5, 0, "matching number must be >= 1"), (2, 3, "no graph"), (0, 1, "no graph")])
    def test_rejects_what_predicted_maximizers_rejects(self, m, beta, match):
        with pytest.raises(ValueError, match=match):
            predicted_order(m, beta)
