import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qspex.family import build_h, build_s
from qspex.graphs import Graph, canonical_form, union_all
from qspex import transform
from qspex.matching import matching_number
from qspex.search import move_bounds
from qspex.spectral import q_radius
from qspex.transform import (
    _SUM_TIE_TOL,
    ROTATION_MARGIN,
    RewireResult,
    candidate_table,
    kelmans_swap,
    move_detail,
    pendant_collapse,
    rotate,
)

from helpers import climber_moves, graphs, random_graph, sparse_graphs


def principal(g):
    return q_radius(g)


class TestRotate:
    def test_cycle_to_spur(self):
        # C5: remove (2,3), reattach 3 to the heavier sum at (0,3) -- wait,
        # x is uniform on a cycle, so any reattachment is a valid tie rotation
        g = Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
        s = principal(g)
        r = rotate(g, s.x, (2, 3), (0, 3))
        assert r.q_after > r.q_before - ROTATION_MARGIN
        assert r.move == "rotate"
        assert r.graph.m == g.m
        assert r.delta == pytest.approx(r.q_after - r.q_before)

    def test_star_grows(self):
        # move a pendant of a 2-path onto the center: strictly increasing
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        s = principal(g)
        r = rotate(g, s.x, (2, 3), (1, 3))
        assert r.q_after > r.q_before + 1e-6
        assert matching_number(r.graph) <= matching_number(g)

    def test_error_edge_not_in_graph(self):
        g = Graph.from_edges(3, [(0, 1)])
        s = principal(g)
        with pytest.raises(ValueError, match="edge not in graph"):
            rotate(g, s.x, (1, 2), (0, 2))

    def test_error_edge_already_present(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        s = principal(g)
        with pytest.raises(ValueError, match="already present"):
            rotate(g, s.x, (0, 1), (1, 2))
        with pytest.raises(ValueError, match="already present"):
            rotate(g, s.x, (0, 1), (1, 0))  # putting back the edge it removes

    def test_error_eigenvector_mismatch(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        x = np.full(4, 0.5)  # unit norm but not the principal vector
        with pytest.raises(ValueError, match="eigenvector mismatch"):
            rotate(g, x, (2, 3), (1, 3))

    def test_error_sum_condition(self):
        # moving an edge from the hub to a leaf pair violates the sum order
        g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        s = principal(g)
        with pytest.raises(ValueError, match="sum condition failed"):
            rotate(g, s.x, (0, 1), (2, 3))

    def test_error_empty_graph(self):
        with pytest.raises(ValueError, match="empty graph"):
            rotate(Graph.from_edges(2), np.zeros(2), (0, 1), (0, 1))

    def test_fuzz_rotations_never_decrease(self):
        rng = random.Random(2024)
        done = 0
        while done < 120:
            g = random_graph(rng, max_n=9)
            if g.m < 2:
                continue
            s = q_radius(g)
            x = s.x
            edges = g.edges()
            non_edges = [
                (u, v)
                for u in range(g.n)
                for v in range(u + 1, g.n)
                if not g.has_edge(u, v)
            ]
            rng.shuffle(edges)
            rng.shuffle(non_edges)
            hit = False
            for e in edges:
                if x[e[0]] + x[e[1]] <= 1e-12:
                    continue
                for f in non_edges:
                    if x[f[0]] + x[f[1]] >= x[e[0]] + x[e[1]] - 1e-12:
                        r = rotate(g, x, e, f)
                        assert r.delta >= -ROTATION_MARGIN
                        hit = True
                        break
                if hit:
                    break
            if hit:
                done += 1


class TestKelmansSwap:
    def test_worked_example(self):
        # S(1,2,0) with edges at the two path tips: swapping shifts both
        # paths' far edges toward the center and lands on S(1,0,1) + K2
        g = build_s(1, 2, 0)
        s = principal(g)
        # path pairs are (2,3) and (4,5); removing the far edges and joining
        # mid-mid and tip-tip closes a triangle at the center.  Orienting
        # tip-first puts both gain factors positive, so the bound is active.
        r = kelmans_swap(g, (3, 2), (5, 4), s.x)
        assert r.condition_held is True
        assert r.delta == pytest.approx(0.2588, abs=5e-4)
        assert r.predicted_gain is not None
        assert r.delta >= r.predicted_gain - 1e-8
        target = union_all([build_s(1, 0, 1), Graph.from_edges(2, [(0, 1)])])
        assert canonical_form(r.graph) == canonical_form(target)

    def test_uniform_vector_zero_prediction(self):
        # 2K2 is regular with a degenerate top eigenspace; the uniform unit
        # vector is a valid principal vector, the swap is radius-neutral, and
        # the positivity condition cannot hold
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        r = kelmans_swap(g, (0, 1), (2, 3), np.full(4, 0.5))
        assert r.predicted_gain == pytest.approx(0.0, abs=1e-12)
        assert r.condition_held is False
        assert r.delta == pytest.approx(0.0, abs=1e-9)

    def test_rejects_overlapping_edges(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        with pytest.raises(ValueError, match="share a vertex"):
            kelmans_swap(g, (0, 1), (1, 2))

    def test_rejects_missing_edges(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError, match="not in graph"):
            kelmans_swap(g, (0, 2), (1, 3))

    def test_rejects_present_targets(self):
        # orientation matters: (1,0),(2,3) would add edge (1,2) of P4
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        with pytest.raises(ValueError, match="already present"):
            kelmans_swap(g, (1, 0), (2, 3))

    def test_swap_preserves_edge_count(self):
        g = Graph.from_edges(6, [(0, 1), (2, 3), (4, 5), (0, 5)])
        r = kelmans_swap(g, (0, 1), (2, 3))
        assert r.graph.m == g.m

    def test_fuzz_bound_holds_when_condition_does(self):
        rng = random.Random(515)
        done = 0
        while done < 100:
            g = random_graph(rng, max_n=9)
            if g.m < 2:
                continue
            s = q_radius(g)
            x = s.x
            edges = g.edges()
            rng.shuffle(edges)
            found = None
            for i in range(len(edges)):
                for j in range(i + 1, len(edges)):
                    e1, e2 = edges[i], edges[j]
                    if set(e1) & set(e2):
                        continue
                    for ei in (e1, e1[::-1]):
                        for ej in (e2, e2[::-1]):
                            ui, vi = ei
                            uj, vj = ej
                            if g.has_edge(ui, uj) or g.has_edge(vi, vj):
                                continue
                            if (x[vj] - x[ui]) > 1e-9 and (x[vi] - x[uj]) > 1e-9:
                                found = (ei, ej)
                                break
                        if found:
                            break
                    if found:
                        break
                if found:
                    break
            if not found:
                continue
            r = kelmans_swap(g, found[0], found[1], x)
            assert r.condition_held is True
            assert r.delta >= r.predicted_gain - 1e-8
            assert r.delta >= -1e-10
            done += 1


class TestPendantCollapse:
    def test_worked_example(self):
        # H2: collapse its two non-anchor matching edges onto v1
        g = build_h(2)
        s = principal(g)
        from qspex.matching import edge_partition, extremal_matching, proper_ordering

        om = proper_ordering(extremal_matching(g, s.x), s.x)
        e1, e2 = edge_partition(g, om)
        if not e2:
            pytest.skip("partition left nothing to collapse")
        r = pendant_collapse(g, om.v1, e2)
        assert r.graph.m == g.m
        assert r.move == "pendant_collapse"

    def test_collapse_preserves_m_and_caps_beta(self):
        g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
        r = pendant_collapse(g, 1, [(3, 4), (4, 5)])
        assert r.graph.m == g.m
        assert matching_number(r.graph) <= matching_number(g)
        assert r.graph.n == g.n + 2

    def test_duplicate_edges_deduped(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        r = pendant_collapse(g, 0, [(2, 3), (3, 2)])
        assert r.graph.m == g.m
        assert r.graph.n == g.n + 1

    def test_rejects_unknown_edge(self):
        g = Graph.from_edges(3, [(0, 1)])
        with pytest.raises(ValueError, match="not in graph"):
            pendant_collapse(g, 0, [(1, 2)])

    def test_rejects_bad_vertex(self):
        g = Graph.from_edges(3, [(0, 1)])
        with pytest.raises(ValueError, match="out of range"):
            pendant_collapse(g, 7, [(0, 1)])

    def test_empty_e2_is_identity(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        r = pendant_collapse(g, 1, [])
        assert r.graph == g
        assert r.delta == pytest.approx(0.0, abs=1e-12)


class TestRewireResult:
    def test_fields_round_trip(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        s = principal(g)
        r = rotate(g, s.x, (2, 3), (1, 3))
        assert isinstance(r, RewireResult)
        assert r.move == "rotate"
        assert "(2, 3)" in r.detail and "(1, 3)" in r.detail
        assert r.predicted_gain is None  # rotation records no prediction


def swap_orientations(removed, added):
    """Both orientations (ei, ej) of the swap removed -> added: u_i u_j is
    one added edge and v_i v_j the other."""
    e1, e2 = removed
    out = []
    for fu, fv in (added, added[::-1]):
        ui, uj = (fu[0], fu[1]) if fu[0] in e1 else (fu[1], fu[0])
        vi, vj = (fv[0], fv[1]) if fv[0] in e1 else (fv[1], fv[0])
        out.append(((ui, vi), (uj, vj)))
    return out


class TestCandidateMoves:
    """candidate_table's moves against every rotation and swap of the graph filtered
    by the stated preconditions, and against what rotate and kelmans_swap
    accept for the same eigenvector."""

    @settings(max_examples=60, deadline=None)
    @given(g=st.one_of(graphs(max_n=8), sparse_graphs(max_n=9)))
    def test_yields_exactly_the_justified_moves(self, g):
        x = q_radius(g).x
        rotations, swaps = climber_moves(g)

        def rotation_ok(removed, added):
            (u1, u2), (v1, v2) = removed[0], added[0]
            out_sum = x[u1] + x[u2]
            return out_sum > _SUM_TIE_TOL and x[v1] + x[v2] >= out_sum - _SUM_TIE_TOL

        def orientation_ok(ei, ej):
            (ui, vi), (uj, vj) = ei, ej
            return x[vj] - x[ui] > 0 and x[vi] - x[uj] > 0

        expected = [("rotate", r, frozenset(a)) for r, a in rotations if rotation_ok(r, a)]
        expected += [
            ("kelmans_swap", r, frozenset(a))
            for r, a in swaps
            if any(orientation_ok(ei, ej) for ei, ej in swap_orientations(r, a))
        ]
        table = candidate_table(g, x)
        moves = [table.move(i) for i in range(len(table))]
        assert [(kind, r, frozenset(a)) for kind, r, a in moves] == expected

        yielded = {(r, a) for kind, r, a in moves if kind == "rotate"}
        for r, a in rotations:
            if (r, a) in yielded:
                result = rotate(g, x, r[0], a[0])
                assert result.detail == move_detail(r, a)
            else:
                with pytest.raises(ValueError, match="sum condition failed"):
                    rotate(g, x, r[0], a[0])

        # the first added edge of a yielded swap joins u_i and u_j
        oriented = {(r, a) for kind, r, a in moves if kind == "kelmans_swap"}
        for r, a in swaps:
            for ei, ej in swap_orientations(r, a):
                u_pair = tuple(sorted((ei[0], ej[0])))
                v_pair = tuple(sorted((ei[1], ej[1])))
                result = kelmans_swap(g, ei, ej, x)
                assert result.condition_held is ((r, (u_pair, v_pair)) in oriented)
                assert result.detail == move_detail(r, (u_pair, v_pair))

    @pytest.mark.parametrize("block", [1, 5, 40])
    def test_blocks_keep_the_row_order(self, block, monkeypatch):
        rng = random.Random(block)
        cases = [random_graph(rng, max_n=12) for _ in range(30)]
        want = [candidate_table(g, q_radius(g).x) for g in cases]
        monkeypatch.setattr(transform, "_SWAP_BLOCK", block)
        for g, table in zip(cases, want):
            got = candidate_table(g, q_radius(g).x)
            assert (got.edges, got.non_edges, got.rotations) == (
                table.edges, table.non_edges, table.rotations)
            for name in ("removed_at", "added_at", "removed", "added", "shared"):
                assert np.array_equal(getattr(got, name), getattr(table, name)), name

    def test_pair_blocks(self):
        for m in range(0, 200, 7):
            blocks = transform._pair_blocks(m)
            assert blocks[0][0] == 0 and blocks[-1][1] == m
            assert all(hi == lo for (_, hi), (lo, _) in zip(blocks, blocks[1:]))
            for lo, hi in blocks:
                pairs = sum(m - 1 - i for i in range(lo, hi))
                assert pairs <= transform._SWAP_BLOCK or hi == lo + 1
        # every climb start, and any graph of up to 64 edges, is one block
        assert all(len(transform._pair_blocks(m)) == 1 for m in range(65))

    def test_peak_memory_is_bounded_by_the_table(self):
        # a 62-vertex graph with 1,200 edges: built over all C(m, 2) edge
        # pairs at once, the swap table's temporaries peaked at 5.9 times
        # the arrays move_bounds returns (209 MB); in blocks, 1.9 (68 MB)
        rng = random.Random(60)
        pairs = [(u, v) for u in range(62) for v in range(u + 1, 62)]
        g = Graph.from_edges(62, rng.sample(pairs, 1200))
        s = q_radius(g)
        tracemalloc.start()
        try:
            table, lower, upper = move_bounds(g, s.q, s.x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        returned = sum(a.nbytes for a in (table.removed_at, table.added_at, table.removed,
                                          table.added, table.shared, lower, upper))
        assert peak < 2.5 * returned

    def test_detail_lists_removed_then_added_edges(self):
        assert move_detail([(0, 1)], [(1, 2)]) == "-(0, 1) +(1, 2)"
        assert move_detail([(0, 1), (2, 3)], [(0, 2), (1, 3)]) == (
            "-(0, 1) -(2, 3) +(0, 2) +(1, 3)"
        )
