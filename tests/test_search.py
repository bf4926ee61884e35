import hashlib
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qspex.family import build_s, predicted_extremal, predicted_maximizers
from qspex.graphs import (
    Graph,
    canonical_form,
    components,
    canonical_graph,
    is_isomorphic,
    part_sort_key,
    strip_isolated,
    to_graph6,
    union_all,
)
from qspex import search, spectral
from qspex.matching import matching_number
from qspex.search import (
    ARGMAX_BAND,
    ClimbTrace,
    EnumerationQuery,
    brute_force_max,
    class_size,
    connected_catalog,
    enumerate_graphs,
    hill_climb,
    max_radius_over,
    maximizer_spectrum,
)
from qspex.spectral import q_pairs, q_radius
from qspex.verify import verify_theorem1

from helpers import (
    climb_starts,
    oracle_brute_force_max,
    oracle_cell_bands,
    oracle_class_forms,
    oracle_connected_catalog,
    oracle_degree_bounds,
    oracle_hill_climb,
    oracle_level_scan_max,
    oracle_q_radius,
    random_graph,
    trace_text,
)

# connected graphs by edge count, no isolated vertices (k = 1..10)
CONNECTED_COUNTS = [1, 1, 3, 5, 12, 30, 79, 227, 710, 2322]


class TestQuery:
    def test_modes(self):
        q = EnumerationQuery(5, 2, "exact")
        assert q.admits(2) and not q.admits(3) and not q.admits(1)
        q = EnumerationQuery(5, 2, "at_least")
        assert q.admits(2) and q.admits(3) and not q.admits(1)

    def test_validation(self):
        with pytest.raises(ValueError, match="edge count"):
            EnumerationQuery(0, 1)
        with pytest.raises(ValueError, match="matching number"):
            EnumerationQuery(1, 0)
        with pytest.raises(ValueError, match="mode"):
            EnumerationQuery(1, 1, "atleast")


class TestConnectedCatalog:
    @pytest.mark.parametrize("k", range(1, 9))
    def test_counts(self, k):
        assert len(connected_catalog(k)) == CONNECTED_COUNTS[k - 1]

    def test_entries_are_canonical_connected_and_tagged(self):
        for g, beta in connected_catalog(5):
            assert canonical_graph(g) == g
            assert matching_number(g) == beta
            assert all(g.degree(v) > 0 for v in range(g.n))
            assert g.m == 5

    def test_k1(self):
        [(g, beta)] = connected_catalog(1)
        assert to_graph6(g) == "A_" and beta == 1

    @pytest.mark.parametrize("k", range(1, 10))
    def test_equals_canonicalize_every_augmentation(self, k):
        # same graphs, labels, matching numbers and order as the growth that
        # canonicalizes every augmentation with the unpruned labeling
        assert connected_catalog(k) == list(oracle_connected_catalog(k))

    def test_deletion_filter_cuts_canonicalizations(self, monkeypatch):
        monkeypatch.setattr(search, "_catalog", {})
        calls = []

        def counted(g, **kwargs):
            calls.append(g)
            return canonical_graph(g, **kwargs)

        monkeypatch.setattr(search, "canonical_graph", counted)
        levels = [len(connected_catalog(k)) for k in range(1, 9)]
        assert levels == CONNECTED_COUNTS[:8]
        augmentations = sum(
            g.n * (g.n - 1) // 2 - g.m + g.n
            for k in range(1, 8) for g, _ in connected_catalog(k)
        )
        # one call for the K2 seed, then at least one per kept graph and about
        # a fifth of the augmentations (476 of 2,363; a degree key alone: 627)
        assert len(calls) - 1 < 0.21 * augmentations
        assert len(calls) - 1 >= sum(levels[1:])

    def test_matching_numbers_from_the_parent(self):
        # each level's nu comes from its parent's maximum matching
        for k in range(1, 11):
            for g, beta in connected_catalog(k):
                assert beta == matching_number(g)


class TestEnumerateGraphs:
    @pytest.mark.parametrize("m", range(1, 8))
    def test_matches_labeled_recursion_oracle(self, m):
        by_beta = oracle_class_forms(m)
        for beta, forms in by_beta.items():
            got = enumerate_graphs(EnumerationQuery(m, beta, "exact"))
            assert {canonical_form(g) for g in got} == forms
            assert len(got) == len(forms)
        # at_least mode is the union of the exact tails
        for beta in sorted(by_beta):
            got = enumerate_graphs(EnumerationQuery(m, beta, "at_least"))
            want = set().union(
                *(forms for b, forms in by_beta.items() if b >= beta)
            )
            assert {canonical_form(g) for g in got} == want

    def test_results_sorted_canonical_no_isolated(self):
        gs = enumerate_graphs(EnumerationQuery(6, 2, "exact"))
        assert [to_graph6(g) for g in gs] == sorted(to_graph6(g) for g in gs)
        for g in gs:
            assert canonical_graph(g) == g
            assert all(g.degree(v) > 0 for v in range(g.n))
            assert g.m == 6 and matching_number(g) == 2

    def test_empty_class(self):
        assert enumerate_graphs(EnumerationQuery(2, 3, "exact")) == []

    def test_guard(self):
        with pytest.raises(ValueError, match="guard"):
            enumerate_graphs(EnumerationQuery(11, 2))
        with pytest.raises(ValueError, match="guard"):
            enumerate_graphs(EnumerationQuery(8, 2), guard=7)

    def test_membership_of_random_graphs(self):
        # every random graph appears in the class listing for its own (m, beta)
        rng = random.Random(321)
        for _ in range(60):
            g = strip_isolated(random_graph(rng, max_n=7))
            if not 1 <= g.m <= 7:
                continue
            beta = matching_number(g)
            gs = enumerate_graphs(EnumerationQuery(g.m, beta, "exact"))
            assert canonical_form(g) in {canonical_form(h) for h in gs}


class TestBruteForce:
    def test_beta1_m3_pair(self):
        qmax, argmax = brute_force_max(EnumerationQuery(3, 1, "exact"))
        assert qmax == pytest.approx(4.0, abs=1e-9)
        forms = {to_graph6(g) for g in argmax}
        assert forms == {"Bw", "CF"}  # triangle and the 3-star

    @pytest.mark.parametrize("m", [4, 5, 6])
    def test_beta1_stars(self, m):
        qmax, argmax = brute_force_max(EnumerationQuery(m, 1, "exact"))
        assert qmax == pytest.approx(m + 1, abs=1e-9)
        assert len(argmax) == 1
        star = Graph.from_edges(m + 1, [(0, i) for i in range(1, m + 1)])
        assert is_isomorphic(argmax[0], star)

    def test_matches_prediction_on_sample(self):
        for m, beta in [(5, 2), (6, 3), (7, 2)]:
            qmax, argmax = brute_force_max(EnumerationQuery(m, beta, "exact"))
            assert len(argmax) == 1
            assert is_isomorphic(argmax[0], predicted_extremal(m, beta))
            assert qmax == pytest.approx(
                q_radius(predicted_extremal(m, beta)).q, abs=1e-9
            )

    def test_infeasible_raises(self):
        with pytest.raises(ValueError, match="empty class"):
            brute_force_max(EnumerationQuery(2, 3, "exact"))

    def test_max_radius_over_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            max_radius_over([])


@pytest.fixture
def empty_search(monkeypatch):
    """search with no catalog, no solved levels or bands, no cells and no counts."""
    monkeypatch.setattr(search, "_catalog", {})
    monkeypatch.setattr(search, "_kept", {})
    monkeypatch.setattr(search, "_bands", {})
    monkeypatch.setattr(search, "_cells", [])
    search._count.cache_clear()
    yield
    search._count.cache_clear()


def assert_matches_union_oracle(query):
    qmax, argmax = brute_force_max(query)
    want_q, want_argmax = oracle_brute_force_max(query)
    assert qmax == pytest.approx(want_q, abs=1e-9)
    assert [to_graph6(g) for g in argmax] == want_argmax
    assert class_size(query) == len(enumerate_graphs(query))


class TestClassTable:
    @pytest.mark.parametrize("m", range(1, 10))
    def test_matches_brute_force_over_unions(self, m):
        for mode in ("exact", "at_least"):
            for beta in range(1, m + 1):
                assert_matches_union_oracle(EnumerationQuery(m, beta, mode))

    def test_larger_edge_count_first(self, empty_search, monkeypatch):
        # cells grown for m = 9 serve m = 4; grown again for m = 10 on a
        # catalog regrown from nothing, they serve m = 9 and m = 4 alike
        for m, beta in [(9, 3), (4, 2), (4, 1)]:
            assert_matches_union_oracle(EnumerationQuery(m, beta, "exact"))
        assert search._cells[-1][0] == 9 and {k for k, _ in search._bands} == set(range(1, 10))
        monkeypatch.setattr(search, "_catalog", {})
        for m, beta in [(10, 3), (9, 3), (4, 2)]:
            assert_matches_union_oracle(EnumerationQuery(m, beta, "exact"))
        assert search._cells[-1][0] == 10 and {k for k, _ in search._bands} == set(range(1, 11))

    def test_empty_and_guarded_classes(self):
        assert class_size(EnumerationQuery(2, 3)) == 0
        assert class_size(EnumerationQuery(3, 3, "at_least")) == 1  # 3K2
        with pytest.raises(ValueError, match="guard"):
            class_size(EnumerationQuery(8, 2), guard=7)

    def test_each_piece_is_solved_once(self, empty_search, monkeypatch):
        eigensolves = []

        def counted_top_pairs(qs, tol):
            eigensolves.append(len(qs))
            return top_pairs(qs, tol)

        top_pairs = spectral._top_pairs
        monkeypatch.setattr(spectral, "_top_pairs", counted_top_pairs)
        for m in range(1, 9):
            for beta in range(1, m + 1):
                enumerate_graphs(EnumerationQuery(m, beta, "exact"))
        assert eigensolves == []  # listing a class solves nothing

        solved = []

        def counted_q_pairs(graphs):
            solved.extend(to_graph6(g) for g in graphs)
            return pairs(graphs)

        pairs = search.q_pairs
        monkeypatch.setattr(search, "q_pairs", counted_q_pairs)
        for m in range(1, 9):
            for beta in range(1, m + 1):
                assert verify_theorem1(m, beta).verdict == "pass"
        assert len(set(solved)) == len(solved)  # each piece at most once
        assert_skipped_below_the_band(solved, range(1, 9))


def assert_skipped_below_the_band(solved: list[str], levels) -> None:
    """Each catalog piece of the levels left out of `solved` has an edge
    bound below its cell's largest degree Rayleigh quotient minus the band,
    so it is below its cell maximum's band; `solved` has no other graph."""
    catalog = set()
    for k in levels:
        pieces = [(to_graph6(g), b, *oracle_degree_bounds(g)) for g, b in connected_catalog(k)]
        floor: dict[int, float] = {}
        for _, b, _, rayleigh in pieces:
            floor[b] = max(floor.get(b, 0.0), rayleigh)
        for g6, b, upper, _ in pieces:
            catalog.add(g6)
            if g6 not in solved:
                assert upper < floor[b] - ARGMAX_BAND, (k, g6)
    assert set(solved) <= catalog


class TestCells:
    @pytest.mark.parametrize("k", range(1, 11))
    def test_cell_maxima_match_oracle(self, k):
        # every piece solved by the oracle
        want = oracle_cell_bands(k)
        search._solve(k)
        assert sorted(b for level, b in search._bands if level == k) == sorted(want)
        for b, (q, _) in want.items():
            assert search._bands[k, b][0] == pytest.approx(q, abs=1e-9)

    def test_degree_bounds_enclose_the_radius(self):
        rng = random.Random(18)
        gs = [g for k in range(1, 10) for g, _ in connected_catalog(k)]
        gs += [h for h in (random_graph(rng, max_n=30) for _ in range(200)) if h.m]
        upper, rayleigh = search._degree_bounds(gs)
        for g, u, r in zip(gs, upper.tolist(), rayleigh.tolist()):
            assert (u, r) == pytest.approx(oracle_degree_bounds(g), abs=1e-12)
            assert r - 1e-9 <= oracle_q_radius(g) <= u + 1e-9

    @pytest.mark.parametrize("k", range(1, 10))
    def test_one_connected_maximizer_per_cell(self, k):
        search._solve(k)
        for b in sorted(b for level, b in search._bands if level == k):
            tops = [to_graph6(g) for g in search._bands[k, b][1]]
            if (k, b) == (3, 1):
                assert tops == ["Bw", "CF"]  # K3 and K1,3, both at q = 4
            else:
                assert len(tops) == 1, (b, tops)

    @pytest.mark.parametrize("k", range(1, 11))
    def test_band_lists_match_a_level_scan(self, k):
        search._solve(k)
        for b, (_, want) in oracle_cell_bands(k).items():
            pieces = search._bands[k, b][1]
            assert pieces == [g for g, _ in want], b
            assert [search._kept[g][0] for g in pieces] == pytest.approx(
                [q for _, q in want], abs=1e-9)
        if k == 3:  # the exact tie of K3 and K1,3
            assert [(to_graph6(g), search._kept[g][0]) for g in search._bands[3, 1][1]] == [
                ("Bw", pytest.approx(4.0, abs=1e-12)), ("CF", pytest.approx(4.0, abs=1e-12))]

    @pytest.mark.parametrize("m", range(1, 11))
    def test_class_maxima_match_a_level_scan(self, m):
        for mode in ("exact", "at_least"):
            for beta in range(1, m + 1):
                query = EnumerationQuery(m, beta, mode)
                qmax, argmax = brute_force_max(query)
                want_q, want_argmax = oracle_level_scan_max(query)
                assert qmax == pytest.approx(want_q, abs=1e-9)
                assert argmax == want_argmax, (beta, mode)

    @pytest.mark.parametrize("mode", ["exact", "at_least"])
    def test_feasible_cells_follow_the_closed_form(self, mode):
        # a remainder of r edges can have any matching number in 1..r, and
        # none but 0 when r = 0
        for m in range(1, 11):
            for beta in range(1, m + 1):
                lo, hi = search._bounds(EnumerationQuery(m, beta, mode), m)
                for k, b, _ in search._cells:
                    if k > m:
                        break
                    r, s = m - k, beta - b
                    if mode == "exact":
                        want = (r, s) == (0, 0) or 1 <= s <= r
                    else:
                        want = b >= beta if r == 0 else b + r >= beta
                    got = search._count(r, lo - b, hi - b, len(search._cells) - 1)
                    assert bool(got) == want, (m, beta, k, b)

    def test_levels_are_solved_once_in_one_batch(self, empty_search, monkeypatch):
        batches = []

        def counted_q_pairs(graphs):
            batches.append([to_graph6(g) for g in graphs])
            return pairs(graphs)

        pairs = search.q_pairs
        monkeypatch.setattr(search, "q_pairs", counted_q_pairs)
        assert verify_theorem1(10, 1).verdict == "pass"
        assert len(batches) == 10
        for k, batch in enumerate(batches, 1):
            # pieces of level k in catalog order, each at most once
            chosen = set(batch)
            assert batch == [to_graph6(g) for g, _ in connected_catalog(k) if to_graph6(g) in chosen]
        assert_skipped_below_the_band([g6 for batch in batches for g6 in batch], range(1, 11))
        for beta in range(2, 11):
            assert verify_theorem1(10, beta).verdict == "pass"
        assert len(batches) == 10


class TestMaximizerSpectrum:
    def assert_is_q_radius(self, g):
        s, want = maximizer_spectrum(g), q_radius(g)
        assert (s.q, s.residual, s.support_component) == (
            want.q, want.residual, want.support_component)
        assert np.array_equal(s.x, want.x)

    def test_levels_keep_the_band_of_each_cell(self, empty_search):
        want = []
        for k in range(1, 9):
            search._solve(k)
            band = {g for _, pieces in oracle_cell_bands(k).values() for g, _ in pieces}
            want += [g for g, _ in connected_catalog(k) if g in band]
        assert list(search._kept) == want
        for g in want:
            q, x, residual = search._kept[g]
            s = q_radius(g)
            assert (q, residual) == (s.q, s.residual) and np.array_equal(x, s.x)

    def test_unions_of_catalog_pieces(self):
        # kept pieces are read, any other piece sends the union to q_radius
        rng = random.Random(5)
        pieces = [g for k in range(1, 7) for g, _ in connected_catalog(k)]
        for k in range(1, 7):
            search._solve(k)
        kept = [g for g in search._kept if g.m <= 6]
        for _ in range(80):
            chosen = rng.choices(kept, k=rng.randint(1, 3))
            chosen += rng.choices(pieces, k=rng.randint(0, 1))
            self.assert_is_q_radius(union_all(sorted(chosen, key=part_sort_key)))

    def test_graph_off_the_levels(self, empty_search):
        # nothing solved yet: the graph is solved by q_radius
        self.assert_is_q_radius(union_all([build_s(2, 1, 1)] * 2))


class TestHillClimb:
    def test_c5_reaches_extremal(self):
        c5 = Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
        trace = hill_climb(c5, EnumerationQuery(5, 2, "at_least"))
        assert isinstance(trace, ClimbTrace)
        assert trace.converged_to_prediction
        assert is_isomorphic(strip_isolated(trace.end), build_s(2, 0, 1))
        assert len(trace.steps) == 2
        qs = [s.q_before for s in trace.steps] + [trace.steps[-1].q_after]
        assert all(qs[i] < qs[i + 1] for i in range(len(qs) - 1))

    @pytest.mark.parametrize(
        "start, query, details",
        [
            (
                Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)]),
                EnumerationQuery(5, 2, "at_least"),
                ["-(0, 1) +(2, 4)", "-(0, 4) +(0, 2)"],
            ),
            (  # a star K_{1,3} with a path hung from one leaf
                Graph.from_edges(7, [(0, 1), (0, 2), (0, 3), (3, 4), (4, 5), (5, 6)]),
                EnumerationQuery(6, 3, "exact"),
                ["-(4, 5) +(0, 4)"],
            ),
        ],
    )
    def test_symmetric_ties_ignore_solver_rounding(self, start, query, details):
        # Symmetric moves tie exactly in q; the climber applies the least
        # (move, detail) among the candidates within Q_MARGIN of the best, so
        # noise far below that band in every solved radius changes no step.
        assert [s.detail for s in hill_climb(start, query).steps] == details
        exact = search.q_pairs
        for seed in range(4):
            rng = random.Random(seed)

            def noisy(gs):
                return [(q + rng.uniform(-1e-11, 1e-11), x, residual)
                        for q, x, residual in exact(gs)]

            with mock.patch.object(search, "q_pairs", noisy):
                assert [s.detail for s in hill_climb(start, query).steps] == details

    @pytest.mark.parametrize("m, beta", [(m, b) for b in (2, 3) for m in range(b, 8)])
    def test_predicted_extremal_is_a_fixed_point(self, m, beta):
        g = predicted_extremal(m, beta)
        trace = hill_climb(g, EnumerationQuery(m, beta, "exact"))
        assert trace.steps == ()
        assert trace.converged_to_prediction

    def test_beta1_star_is_fixed(self):
        (star,) = predicted_maximizers(4, 1)
        trace = hill_climb(star, EnumerationQuery(4, 1, "exact"))
        assert trace.steps == () and trace.converged_to_prediction

    def test_wrong_edge_count_rejected(self):
        c5 = Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
        with pytest.raises(ValueError, match="edges"):
            hill_climb(c5, EnumerationQuery(6, 2))

    def test_start_outside_class_rejected(self):
        c5 = Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
        with pytest.raises(ValueError, match="class"):
            hill_climb(c5, EnumerationQuery(5, 3, "exact"))

    def test_negative_max_steps_rejected(self):
        c5 = Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
        with pytest.raises(ValueError, match="max_steps must be nonnegative"):
            hill_climb(c5, EnumerationQuery(5, 2, "exact"), max_steps=-3)
        assert hill_climb(c5, EnumerationQuery(5, 2, "exact"), max_steps=0).steps == ()

    def test_steps_stay_inside_class(self):
        g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)])
        query = EnumerationQuery(6, 3, "at_least")
        trace = hill_climb(g, query)
        from qspex.graphs import from_graph6

        for step in trace.steps:
            assert query.admits(matching_number(from_graph6(step.graph6)))
            assert step.q_after > step.q_before


# sha256 of trace_text over the exact-class climbs from climb_starts(2, 54),
# taken with a climber that certified every move
PINNED_TRACES = "e3b9bf811daebee18cd11d775a86d85c2ee7943f29c0ced1d5331d9d50e5ea7e"


class TestClimberBounds:
    """The climber certifies only the moves whose upper bound reaches the
    band; its steps must be those of certifying every move."""

    @staticmethod
    def two_copies() -> list[Graph]:
        # equal components tie for the radius: the second eigenvalue is q, d = 0
        parts = [
            Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)]),
            Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)]),
            Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)]),
            Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
            Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)]),
            Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]),
        ]
        return [union_all([p, p]) for p in parts]

    @pytest.mark.parametrize("mode", ["exact", "at_least"])
    def test_steps_match_certifying_every_move(self, mode):
        starts = climb_starts(3, 50) + self.two_copies()
        starts += [g.add_vertices(2) for g in self.two_copies()]
        assert sum(strip_isolated(g).n < g.n for g in starts) >= 50
        for g in starts:
            query = EnumerationQuery(g.m, matching_number(g), mode)
            trace, oracle = hill_climb(g, query), oracle_hill_climb(g, query)
            assert trace.steps == oracle.steps, to_graph6(g)
            assert trace.end == oracle.end
            assert trace.converged_to_prediction == oracle.converged_to_prediction

    def test_traces_are_pinned(self):
        digest = hashlib.sha256()
        for g in climb_starts(2, 54):
            query = EnumerationQuery(g.m, matching_number(g), "exact")
            digest.update(trace_text(hill_climb(g, query)).encode())
        assert digest.hexdigest() == PINNED_TRACES

    def test_radius_after_each_move_lies_between_its_bounds(self):
        rng = random.Random(5)
        graphs = [random_graph(rng, max_n=12) for _ in range(400)]
        graphs = [g for g in graphs if g.n >= 4 and g.m][:200]
        graphs += self.two_copies()
        assert len(graphs) >= 200 and sum(len(components(g)) > 1 for g in graphs) >= 50
        checked = 0
        for g in graphs:
            spectrum = q_radius(g)
            table, lower, upper = search.move_bounds(g, spectrum.q, spectrum.x)
            radii = [q for q, _, _ in q_pairs([g.rewire(*table.move(i)[1:])
                                               for i in range(len(table))])]
            assert (lower <= upper).all()
            for q_after, lo, hi in zip(radii, lower, upper):
                assert lo - 1e-9 <= q_after <= hi + 1e-9, to_graph6(g)
            checked += len(radii)
        assert checked > 5000

    def test_slack_covers_the_certified_residual(self):
        assert search.PRUNE_SLACK >= 2 * spectral.RESIDUAL_TOL
