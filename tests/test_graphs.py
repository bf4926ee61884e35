import random
import re
import time
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qspex import graphs as _graphs, search
from qspex.family import build_s, predicted_extremal, predicted_maximizers
from qspex.graphs import (
    GRAPH6_MAX_N,
    Graph,
    Graph6Error,
    canonical_form,
    canonical_graph,
    components,
    from_graph6,
    induced_subgraph,
    is_isomorphic,
    strip_isolated,
    to_graph6,
    union_all,
)
from qspex.search import connected_catalog

from helpers import (
    cubic_like_graphs,
    family_graphs,
    graphs,
    oracle_canonical_graph,
    oracle_individualize,
    oracle_refine,
    random_graph,
    ref_graph6_encode,
    repeated_unions,
    rewirings,
    sparse_graphs,
    star_like_graphs,
)

K2 = Graph.from_edges(2, [(0, 1)])
K3 = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
P4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
C6 = Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])


class TestGraphBasics:
    def test_from_edges_rejects_loops(self):
        with pytest.raises(ValueError, match="loop"):
            Graph.from_edges(3, [(1, 1)])

    def test_from_edges_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph.from_edges(3, [(0, 3)])

    def test_vertex_count_cap(self):
        with pytest.raises(ValueError):
            Graph.from_edges(GRAPH6_MAX_N + 1)
        Graph.from_edges(GRAPH6_MAX_N)  # boundary is allowed

    def test_duplicate_edges_collapse(self):
        g = Graph.from_edges(2, [(0, 1), (1, 0), (0, 1)])
        assert g.m == 1

    def test_edges_sorted(self):
        g = Graph.from_edges(4, [(3, 2), (1, 0), (2, 0)])
        assert g.edges() == [(0, 1), (0, 2), (2, 3)]

    def test_add_remove_edge(self):
        g = K2.add_vertices(1).add_edge((1, 2))
        assert g.edges() == [(0, 1), (1, 2)]
        assert g.rewire([(0, 1)], []).edges() == [(1, 2)]
        with pytest.raises(ValueError, match="already present"):
            g.add_edge((0, 1))
        with pytest.raises(ValueError, match="not in graph"):
            g.rewire([(0, 2)], [])

    @given(rewirings())
    def test_rewire_matches_the_edge_set(self, move):
        g, removed, added = move
        expected = (set(g.edges()) - set(removed)) | set(added)
        assert g.rewire(removed, added) == Graph.from_edges(g.n, expected)

    def test_rewire_checks_every_edit(self):
        # removals come first, so a removed edge may be added back
        assert P4.rewire([(1, 2)], [(1, 2)]) == P4
        assert P4.rewire([(2, 3), (0, 1)], [(0, 3)]).edges() == [(0, 3), (1, 2)]
        for removed, added, message in [
            ([(0, 2)], [], "edge not in graph: (0, 2)"),
            ([(0, 1), (0, 1)], [], "edge not in graph: (0, 1)"),
            ([], [(1, 2)], "edge already present: (1, 2)"),
            ([], [(0, 2), (2, 0)], "edge already present: (2, 0)"),
            ([(0, 1)], [(2, 2)], "loop edge (2, 2)"),
            ([], [(0, 4)], "vertex out of range in edge (0, 4)"),
        ]:
            with pytest.raises(ValueError, match=re.escape(message)):
                P4.rewire(removed, added)

    @pytest.mark.parametrize("u, v", [(99, 0), (0, 99), (-1, 2), (2, -1), (-4, -3), (3, 3)])
    def test_has_edge_outside_the_vertex_range(self, u, v):
        # P4 has the edge (2, 3); a negative index must not wrap onto it
        assert not P4.has_edge(u, v)
        with pytest.raises(ValueError, match="not in graph"):
            P4.rewire([(u, v)], [])

    def test_degrees_and_neighbors(self):
        assert P4.degree(0) == 1 and P4.degree(1) == 2
        assert P4.neighbors(1) == (0, 2)
        assert P4.degree_sequence() == (2, 2, 1, 1)


class TestGraph6:
    def test_frozen_strings(self):
        assert to_graph6(K2) == "A_"
        assert to_graph6(K3) == "Bw"
        assert to_graph6(Graph.from_edges(4, [(0, 1), (2, 3)])) == "C`"
        assert to_graph6(Graph.from_edges(1)) == "@"
        assert to_graph6(Graph.from_edges(0)) == "?"
        assert to_graph6(P4) == "Ch"

    @given(st.one_of(graphs(max_n=GRAPH6_MAX_N), sparse_graphs(max_n=GRAPH6_MAX_N)))
    def test_round_trip(self, g):
        assert from_graph6(to_graph6(g)) == g
        assert from_graph6(ref_graph6_encode(g.n, set(g.edges()))) == g

    @given(st.one_of(graphs(max_n=GRAPH6_MAX_N), sparse_graphs(max_n=GRAPH6_MAX_N)))
    def test_encoder_matches_reference(self, g):
        assert to_graph6(g) == ref_graph6_encode(g.n, set(g.edges()))

    @pytest.mark.parametrize("n", [13, 31, 61, GRAPH6_MAX_N])
    def test_reference_codec_up_to_62_vertices(self, n):
        rng = random.Random(n)
        for p in (0.0, 0.05, 0.5, 1.0):
            g = Graph.from_edges(
                n, [e for e in combinations(range(n), 2) if rng.random() < p]
            )
            text = ref_graph6_encode(n, set(g.edges()))
            assert to_graph6(g) == text
            assert from_graph6(text) == g

    def test_accepts_bytes_and_trailing_newline(self):
        assert from_graph6(b"A_") == K2
        assert from_graph6("A_\n") == K2

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "malformed header"),
            ("~~~", "malformed header"),
            (chr(18) + "_", "malformed header"),
            ("B", "truncated bit body"),
            ("A_X", "trailing garbage"),
            ("A" + chr(200), "invalid body byte"),
            (b"A\xff", "malformed header: not ASCII"),
        ],
    )
    def test_error_taxonomy(self, text, message):
        with pytest.raises(Graph6Error, match=message):
            from_graph6(text)

    @pytest.mark.parametrize("n", [2, 3, 5, 6, 7, 8])
    def test_every_padding_bit_is_checked(self, n):
        # the empty graph with one padding bit set, the bits packed big-endian
        nbits = n * (n - 1) // 2
        nbytes = (nbits + 5) // 6
        for pad in range(nbits, 6 * nbytes):
            value = 1 << (6 * nbytes - 1 - pad)
            body = [value >> 6 * (nbytes - 1 - i) & 63 for i in range(nbytes)]
            with pytest.raises(Graph6Error, match="padding"):
                from_graph6(chr(63 + n) + "".join(chr(63 + d) for d in body))

    def test_nonzero_padding_rejected(self):
        # K2's body sextet is 100000; flipping a padding bit must be refused
        bad = "A" + chr(ord("_") + 1)
        with pytest.raises(Graph6Error, match="padding"):
            from_graph6(bad)


class TestComponents:
    def test_parts_and_vertex_tuples(self):
        g = Graph.from_edges(5, [(1, 2), (3, 4)])
        decomp = components(g)
        assert [verts for _, verts in decomp] == [(0,), (1, 2), (3, 4)]
        assert [part.m for part, _ in decomp] == [0, 1, 1]

    def test_induced_subgraph_relabels(self):
        h = induced_subgraph(P4, [3, 2, 1, 0])
        assert h.edges() == [(0, 1), (1, 2), (2, 3)]
        with pytest.raises(ValueError, match="duplicate"):
            induced_subgraph(P4, [0, 0])

    def test_strip_isolated(self):
        g = Graph.from_edges(5, [(1, 2), (3, 4)])
        assert strip_isolated(g).n == 4
        assert strip_isolated(g).edges() == [(0, 1), (2, 3)]

    def test_disjoint_union(self):
        g = union_all([K2, K3])
        assert g.n == 5 and g.edges() == [(0, 1), (2, 3), (2, 4), (3, 4)]
        assert union_all([]).n == 0
        # each part shifted past the vertices before it
        want = Graph.from_edges(7, [(0, 1), (2, 3), (2, 4), (3, 4), (5, 6)])
        assert union_all([K2, K3, K2]) == union_all([g, K2]) == want

    def test_union_past_62_vertices_raises(self):
        assert union_all([K2] * 31).n == GRAPH6_MAX_N
        with pytest.raises(ValueError, match="disjoint union exceeds supported vertex range"):
            union_all([K2] * 32)
        with pytest.raises(ValueError, match="disjoint union exceeds supported vertex range"):
            union_all([union_all([K3] * 20), K3])

    def test_connected_graph_is_its_own_part(self):
        decomp = components(P4)
        assert len(decomp) == 1 and decomp[0][0] is P4
        assert decomp[0][1] == (0, 1, 2, 3)

    @given(graphs(max_n=9))
    def test_component_sizes_partition_vertices(self, g):
        decomp = components(g)
        seen = sorted(v for _, verts in decomp for v in verts)
        assert seen == list(range(g.n))


@st.composite
def colored_graphs(draw) -> tuple[list[int], tuple[int, ...]]:
    """(adjacency masks, colors): one color for all, any colors from 0..n,
    gaps included, or one vertex of the refined coloring individualized."""
    g = draw(
        st.one_of(graphs(max_n=10), sparse_graphs(), star_like_graphs(), cubic_like_graphs())
    )
    adj = [g.neighbors_mask(v) for v in range(g.n)]
    kind = draw(st.sampled_from(["uniform", "any", "individualized"]))
    if kind == "any":
        colors = tuple(draw(st.lists(st.integers(0, g.n), min_size=g.n, max_size=g.n)))
    elif kind == "individualized" and g.n:
        v = draw(st.integers(0, g.n - 1))
        colors = oracle_individualize(oracle_refine(adj, (0,) * g.n), v)
    else:
        colors = (0,) * g.n
    return adj, colors


class TestRefine:
    @settings(max_examples=300)
    @given(colored_graphs())
    def test_equals_whole_graph_refinement(self, case):
        # splitting cells locally gives the colors of ranking (color,
        # neighbor colors) over the whole graph, numbering included
        adj, colors = case
        assert _graphs._refine(adj, colors) == oracle_refine(adj, colors)

    def test_degree_start_is_the_fixed_point_from_zeros(self):
        # refining from the degrees skips the first round from all zeros
        rng = random.Random(62)
        cases = [g for k in range(1, 10) for g, _ in connected_catalog(k)]
        cases += [random_graph(rng, max_n=GRAPH6_MAX_N, p=rng.choice([0.03, 0.1, 0.5]))
                  for _ in range(40)]
        for g in cases:
            adj = g._adj
            degrees = [a.bit_count() for a in adj]
            assert _graphs._refine(adj, degrees) == _graphs._refine(adj, (0,) * g.n)

    def test_pieces_of_a_cell_follow_their_signatures(self):
        # the path 2-0-1-3: its leaves have the lesser signature (0,), so
        # they take color 0 though a middle vertex comes first
        path = Graph.from_edges(4, [(0, 1), (0, 2), (1, 3)])
        assert _graphs._refine(path._adj, (0, 0, 0, 0)) == (1, 1, 0, 0)
        # colors with a gap are numbered densely first
        assert _graphs._refine(path._adj, (5, 5, 5, 2)) == (3, 1, 2, 0)


def adjacency_arrays(gs: list[Graph]) -> tuple[np.ndarray, np.ndarray]:
    """0/1 float adjacency matrices of gs, padded with isolated vertices to
    the largest, and their vertex counts."""
    width = max(g.n for g in gs)
    stack = np.zeros((len(gs), width, width))
    for r, g in enumerate(gs):
        for u, v in g.edges():
            stack[r, u, v] = stack[r, v, u] = 1
    return stack, np.array([g.n for g in gs])


def assert_stack_refines_each(gs: list[Graph], stack: np.ndarray) -> None:
    colors = _graphs._refine_stack(stack, np.array([g.n for g in gs]))
    for g, got in zip(gs, colors.tolist()):
        assert tuple(got[:g.n]) == _graphs._refine(g._adj, [a.bit_count() for a in g._adj])


class TestRefineStack:
    def test_equals_refine_on_every_augmentation(self):
        # every augmentation that growth tests on levels 1..9, those the
        # filter rejects included, stacked in growth's chunks
        for k in range(1, 10):
            children = [
                (g.add_vertices(1) if v == g.n else g).add_edge((u, v))
                for g, _ in connected_catalog(k) for u, v in search._augmentations(g)
            ]
            for lo in range(0, len(children), search._FILTER_CHUNK):
                chunk = children[lo:lo + search._FILTER_CHUNK]
                assert_stack_refines_each(chunk, adjacency_arrays(chunk)[0])

    @settings(max_examples=200)
    @given(st.lists(
        st.one_of(graphs(min_n=1, max_n=12), sparse_graphs(max_n=GRAPH6_MAX_N),
                  star_like_graphs(), cubic_like_graphs()),
        min_size=1, max_size=6))
    def test_equals_refine_on_mixed_stacks(self, gs):
        # isolated vertices of a graph stay below the padding
        stack, _ = adjacency_arrays(gs)
        width = stack.shape[1]
        assert np.array_equal(_graphs.adjacency_stack(_graphs.mask_stack(gs, width)), stack)
        assert_stack_refines_each(gs, stack)

    def test_equals_refine_up_to_62_vertices(self):
        # counts in base 63 need several float64 words per vertex
        rng = random.Random(18)
        gs = [random_graph(rng, max_n=GRAPH6_MAX_N, p=rng.choice([0.03, 0.1, 0.5, 0.9]))
              for _ in range(60)]
        gs += [Graph.from_edges(GRAPH6_MAX_N, [(0, v) for v in range(1, GRAPH6_MAX_N)])]
        for lo in range(0, len(gs), 6):
            chunk = gs[lo:lo + 6]
            assert_stack_refines_each(chunk, adjacency_arrays(chunk)[0])


class TestCanonical:
    @given(graphs(min_n=1, max_n=9), st.data())
    def test_invariant_under_relabeling(self, g, data):
        perm = data.draw(st.permutations(list(range(g.n))))
        h = induced_subgraph(g, perm)
        assert canonical_form(g) == canonical_form(h)
        assert is_isomorphic(g, h)

    @given(graphs(max_n=9))
    def test_canonical_graph_idempotent(self, g):
        cg = canonical_graph(g)
        assert canonical_graph(cg) == cg
        assert cg.degree_sequence() == g.degree_sequence()

    def test_separates_all_classes_up_to_n6(self):
        # counts of graphs up to isomorphism on n vertices: 1,2,4,11,34,156
        known = {0: 1, 1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156}
        for n, expected in known.items():
            pairs = list(combinations(range(n), 2))
            forms = set()
            for bitmap in range(1 << len(pairs)):
                edges = [pairs[i] for i in range(len(pairs)) if bitmap >> i & 1]
                forms.add(canonical_form(Graph.from_edges(n, edges)))
            assert len(forms) == expected, n

    def test_agrees_with_permutation_search(self):
        def brute_iso(g, h):
            return g.n == h.n and any(
                induced_subgraph(g, p) == h for p in permutations(range(g.n))
            )

        rng = random.Random(97)
        checked = 0
        while checked < 150:
            n = 7
            g = Graph.from_edges(
                n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
            )
            h = Graph.from_edges(
                n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
            )
            if g.degree_sequence() != h.degree_sequence():
                continue
            assert is_isomorphic(g, h) == brute_iso(g, h)
            checked += 1

    def test_known_hard_pairs(self):
        two_k3 = union_all([K3, K3])
        assert not is_isomorphic(C6, two_k3)  # same degree sequence
        star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        assert not is_isomorphic(P4, star)  # same n, m

    def test_symmetric_graphs_fast(self):
        # regular and star-like graphs exercise the refinement worst cases
        star = Graph.from_edges(11, [(0, i) for i in range(1, 11)])
        cycle = Graph.from_edges(11, [(i, (i + 1) % 11) for i in range(11)])
        spider = Graph.from_edges(
            11, [(0, 2 * i + 1) for i in range(5)] + [(2 * i + 1, 2 * i + 2) for i in range(5)]
        )
        for g in (star, cycle, spider):
            assert from_graph6(to_graph6(canonical_graph(g))) == canonical_graph(g)

    def test_disconnected_canonical_ordering(self):
        # component order in the canonical graph is label-invariant
        a = union_all([K3, K2])
        b = union_all([K2, K3])
        assert canonical_form(a) == canonical_form(b)
        assert canonical_graph(a) == canonical_graph(b)

    @given(
        st.one_of(
            graphs(max_n=9), sparse_graphs(), star_like_graphs(), family_graphs(),
            cubic_like_graphs(),
        )
    )
    def test_twin_pruning_keeps_the_canonical_graph(self, g):
        # the search without twin pruning visits a superset of leaves, and
        # the skipped ones repeat a visited key
        assert canonical_graph(g) == oracle_canonical_graph(g)

    @given(st.one_of(family_graphs(), repeated_unions()))
    def test_repeated_parts_equal_the_oracle(self, g):
        assert canonical_graph(g) == oracle_canonical_graph(g)

    def test_ten_copies_label_once(self, monkeypatch):
        calls = []
        label = _graphs._connected_canonical

        def counted(g, colors=None):
            calls.append(g)
            return label(g, colors)

        monkeypatch.setattr(_graphs, "_connected_canonical", counted)
        assert canonical_graph(union_all([K2] * 10)) == union_all([K2] * 10)
        assert calls == [K2]

    def test_predicted_maximizers_equal_the_oracle(self):
        # twin-heavy graphs: the search labels each twin cell in one step
        rng = random.Random(12)
        for m in range(1, 13):
            for beta in range(1, m + 1):
                for g in predicted_maximizers(m, beta):
                    perm = list(range(g.n))
                    rng.shuffle(perm)
                    h = induced_subgraph(g, perm)
                    assert canonical_graph(h) == oracle_canonical_graph(h)

    def test_invariant_up_to_62_vertices(self):
        rng = random.Random(31)
        cases = [predicted_extremal(m, beta) for m, beta in ((25, 5), (61, 2), (45, 30))]
        pairs = list(combinations(range(GRAPH6_MAX_N), 2))
        cases += [Graph.from_edges(GRAPH6_MAX_N, [e for e in pairs if rng.random() < p])
                  for p in (0.04, 0.1, 0.5)]
        for g in cases:
            want = canonical_graph(g)
            for _ in range(5):
                perm = list(range(g.n))
                rng.shuffle(perm)
                assert canonical_graph(induced_subgraph(g, perm)) == want

    def test_twin_cells_take_one_step(self, monkeypatch):
        # one refinement per search node: the root, then one per
        # individualized vertex outside a cell of twins
        calls = []
        refine = _graphs._refine

        def counted(adj, colors):
            calls.append(colors)
            return refine(adj, colors)

        monkeypatch.setattr(_graphs, "_refine", counted)
        star = Graph.from_edges(41, [(0, i) for i in range(1, 41)])
        canonical_graph(star)
        assert len(calls) <= 1  # the unstepped search made 40
        calls.clear()
        canonical_graph(build_s(13, 0, 4))  # extremal --m 25 --beta 5
        assert len(calls) <= 31  # the unstepped search made 61

    def test_star_k1_40_is_fast(self):
        # every leaf of a star is a twin of every other; without twin
        # pruning this took about 5 s
        star = Graph.from_edges(41, [(0, i) for i in range(1, 41)])
        t0 = time.perf_counter()
        cg = canonical_graph(star)
        assert time.perf_counter() - t0 < 5.0
        assert cg.degree(0) == 40 or cg.degree(40) == 40
        assert cg.degree_sequence() == star.degree_sequence()


def rook_graph(k: int) -> Graph:
    cells = [(i, j) for i in range(k) for j in range(k)]
    return Graph.from_edges(k * k, [
        (a, b) for a, b in combinations(range(k * k), 2)
        if cells[a][0] == cells[b][0] or cells[a][1] == cells[b][1]
    ])


def hypercube(d: int) -> Graph:
    return Graph.from_edges(1 << d, [(u, u | 1 << i) for u in range(1 << d)
                                     for i in range(d) if not u >> i & 1])


def paley_graph(q: int) -> Graph:
    squares = {x * x % q for x in range(1, q)}
    return Graph.from_edges(q, [(u, v) for u, v in combinations(range(q), 2)
                                if (v - u) % q in squares])


def line_graph_of_complete(k: int) -> Graph:
    pairs = list(combinations(range(k), 2))
    return Graph.from_edges(len(pairs), [(a, b) for a, b in combinations(range(len(pairs)), 2)
                                         if set(pairs[a]) & set(pairs[b])])


def generalized_petersen(n: int, k: int) -> Graph:
    return Graph.from_edges(2 * n, [(i, (i + 1) % n) for i in range(n)]
                            + [(i, n + i) for i in range(n)]
                            + [(n + i, n + (i + k) % n) for i in range(n)])


def two_hub_blocks() -> Graph:
    """Adjacent hubs 0 and 1, each with a pendant triangle and a pendant
    path, and a third pendant path at hub 0."""
    edges = [(0, 1)]
    pos = 2
    for hub, shapes in ((0, "tpp"), (1, "tp")):
        for shape in shapes:
            edges += [(hub, pos), (pos, pos + 1)] + ([(hub, pos + 1)] if shape == "t" else [])
            pos += 2
    return Graph.from_edges(pos, edges)


class TestSymmetricLabeling:
    """Vertex-transitive and pendant-triangle graphs, where the search
    prunes by the orbits of the automorphisms it finds and returns to the
    fork of two equivalent leaves."""

    @pytest.mark.parametrize(
        "g",
        [rook_graph(7), hypercube(5), paley_graph(61), line_graph_of_complete(8),
         build_s(2, 0, 29), build_s(2, 29, 0)],
        ids=["rook7", "Q5", "Paley61", "L(K8)", "S(2,0,29)", "S(2,29,0)"],
    )
    def test_relabelings_agree(self, g):
        rng = random.Random(g.n)
        forms = []
        for _ in range(2):
            perm = list(range(g.n))
            rng.shuffle(perm)
            forms.append(canonical_graph(induced_subgraph(g, perm)))
        assert forms[0] == forms[1] == canonical_graph(g)

    @pytest.mark.parametrize(
        "g",
        [generalized_petersen(5, 2), hypercube(4), rook_graph(4), build_s(2, 0, 5),
         # cubic but not vertex-transitive: automorphisms found below one
         # root child need not fix the vertex of the next
         generalized_petersen(7, 2),
         # pendant blocks: paths and triangles at one hub, and at two hubs
         build_s(1, 3, 2), two_hub_blocks()],
        ids=["Petersen", "Q4", "rook4", "S(2,0,5)", "GP(7,2)", "S(1,3,2)", "two hubs"],
    )
    def test_equals_the_oracle(self, g):
        perm = list(range(g.n))
        random.Random(g.n).shuffle(perm)
        h = induced_subgraph(g, perm)
        assert canonical_graph(h) == oracle_canonical_graph(h)

    @pytest.mark.parametrize(
        "g", [rook_graph(7), hypercube(5), paley_graph(61), line_graph_of_complete(8)],
        ids=["rook7", "Q5", "Paley61", "L(K8)"],
    )
    def test_orbits_bound_the_search(self, g, monkeypatch):
        # one refinement per search node: 78..88, 21..26, 6..7 and 28..33;
        # pruning by twins and the return to a fork alone made 785, 191,
        # 152 and 254
        calls = []
        refine = _graphs._refine

        def counted(adj, colors):
            calls.append(colors)
            return refine(adj, colors)

        monkeypatch.setattr(_graphs, "_refine", counted)
        perm = list(range(g.n))
        random.Random(5).shuffle(perm)
        canonical_graph(induced_subgraph(g, perm))
        assert len(calls) <= 2 * g.n

    @pytest.mark.parametrize("abc", [(2, 0, 29), (2, 29, 0)], ids=["S(2,0,29)", "S(2,29,0)"])
    def test_pendant_blocks_bound_the_search(self, abc, monkeypatch):
        # 29 refinements each; before blocks were swapped, 437 and 435
        calls = []
        refine = _graphs._refine

        def counted(adj, colors):
            calls.append(colors)
            return refine(adj, colors)

        monkeypatch.setattr(_graphs, "_refine", counted)
        g = build_s(*abc)
        perm = list(range(g.n))
        random.Random(7).shuffle(perm)
        canonical_graph(induced_subgraph(g, perm))
        assert len(calls) <= 2 * g.n

    def test_rook7_is_fast(self):
        # a relabeled 7x7 rook's graph took up to 18 s when automorphisms
        # pruned only one sibling at a time and no search returned to a fork
        perm = list(range(49))
        random.Random(3).shuffle(perm)
        t0 = time.perf_counter()
        canonical_graph(induced_subgraph(rook_graph(7), perm))
        assert time.perf_counter() - t0 < 5.0
