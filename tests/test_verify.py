import hashlib
import json
import random
from itertools import combinations

import numpy as np
import pytest

from qspex.family import build_h, build_s, predicted_extremal
from qspex.graphs import Graph, canonical_graph, from_graph6, induced_subgraph, to_graph6
from qspex.matching import Matching, OrderedMatching, extremal_matching, proper_ordering
from qspex.spectral import SpectralData, q_radius
from qspex import search, spectral, verify
from qspex.verify import (
    VerificationReport,
    check_lemma2,
    check_lemma3,
    emit_report,
    verify_beta1,
    verify_theorem1,
)


def unit(entries):
    x = np.asarray(entries, dtype=float)
    return x / np.linalg.norm(x)


class TestLemma2:
    def test_star_ties_are_fine(self):
        g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        s = q_radius(g)
        ok, violations = check_lemma2(g, s, extremal_matching(g, s.x))
        assert ok and violations == []

    def test_extremal_graphs_satisfy_it(self):
        for g in [build_s(2, 0, 1), build_s(1, 1, 1), build_h(3)]:
            s = q_radius(g)
            ok, _ = check_lemma2(g, s, extremal_matching(g, s.x))
            assert ok

    def test_detects_violation_for_bad_matching(self):
        # P4 with only a leaf edge matched: the unmatched middle vertex
        # carries a larger entry than the matched leaf
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        s = q_radius(g)
        ok, violations = check_lemma2(g, s, Matching.of(g, [(0, 1)]))
        assert not ok
        assert any(w == 2 for w, _, _ in violations)

    def test_rejects_empty_matching(self):
        g = Graph.from_edges(2, [(0, 1)])
        with pytest.raises(ValueError, match="empty matching"):
            check_lemma2(g, q_radius(g), Matching(()))


class TestLemma3:
    def test_quadruple_shape_equals_induced_subgraph(self):
        rng = random.Random(4)
        for n in range(4, 9):
            pairs = list(combinations(range(n), 2))
            for _ in range(10):
                g = Graph.from_edges(n, [e for e in pairs if rng.random() < 0.5])
                for quad in combinations(range(n), 4):
                    quad = tuple(rng.sample(quad, 4))
                    want = induced_subgraph(g, quad).m in (2, 6)
                    assert verify._induces_2k2_or_k4(g, quad) == want

    def test_h1_ordinary_pair(self):
        g = build_h(1)
        s = q_radius(g)
        om = proper_ordering(extremal_matching(g, s.x), s.x)
        ok, violations = check_lemma3(g, s, om)
        assert ok and violations == []

    def test_class_maximizers_satisfy_it(self):
        # S(2,0,1), S(1,1,1), S(3,0,2) are the predicted maximizers of their
        # (m, beta) classes; H2 and H4 are reference graphs that also comply
        for g in [build_s(2, 0, 1), build_s(1, 1, 1), build_s(3, 0, 2),
                  build_h(2), build_h(4)]:
            s = q_radius(g)
            om = proper_ordering(extremal_matching(g, s.x), s.x)
            ok, _ = check_lemma3(g, s, om)
            assert ok

    def test_non_maximizer_violates_the_2k2_direction(self):
        # S(1,2,0) is not extremal for (m=5, beta=3) -- a swap strictly
        # improves it -- and its far path edges form a 2K2 quadruple whose
        # entries run the wrong way.  The check must catch that.
        g = build_s(1, 2, 0)
        s = q_radius(g)
        om = proper_ordering(extremal_matching(g, s.x), s.x)
        ok, violations = check_lemma3(g, s, om)
        assert not ok
        assert any("x_u_i >= x_v_j" in v[2] for v in violations)

    def test_uniform_cycle_ties_are_indeterminate_not_failed(self):
        # C5's eigenvector is constant, so every comparison is a tie; the
        # check treats in-band ties as satisfying rather than refuting
        g = Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
        s = q_radius(g)
        om = proper_ordering(extremal_matching(g, s.x), s.x)
        ok, violations = check_lemma3(g, s, om)
        assert ok and violations == []

    def test_detects_violation_with_fabricated_vector(self):
        # two disjoint edges induce 2K2, so the check wants x_u1 >= x_v2;
        # hand it a vector where that clearly fails
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        x = unit([0.1, 0.9, 0.2, 0.8])
        s = SpectralData(q=2.0, x=x, residual=0.0, support_component=0)
        om = OrderedMatching(pairs=((0, 1), (2, 3)))
        ok, violations = check_lemma3(g, s, om)
        assert not ok
        assert violations[0][:2] == (0, 1)
        assert "x_u_i >= x_v_j" in violations[0][2]


class TestVerifyTheorem1:
    def test_worked_5_2(self):
        r = verify_theorem1(5, 2)
        assert r.verdict == "pass"
        assert r.qmax == pytest.approx(5.323404276086476, abs=1e-9)
        assert r.argmax == (to_graph6(canonical_graph(build_s(2, 0, 1))),)
        assert r.argmax == r.predicted
        assert (r.params.a, r.params.b, r.params.c, r.params.d) == (2, 0, 1, 0)
        assert r.lemma2_ok and r.lemma3_ok
        assert r.classes > 1
        assert r.timings["total_s"] > 0

    @pytest.mark.parametrize("m, beta", [(6, 3), (9, 3), (4, 2)])
    def test_more_passing_queries(self, m, beta):
        r = verify_theorem1(m, beta)
        assert r.verdict == "pass"
        assert len(r.argmax) == 1
        pred = predicted_extremal(m, beta)
        assert from_graph6(r.argmax[0]) == canonical_graph(pred)

    def test_infeasible_query(self):
        r = verify_theorem1(2, 3)
        assert r.verdict == "infeasible"
        assert r.classes == 0 and r.qmax is None
        assert r.argmax == () and r.predicted == ()
        assert r.params is None
        assert r.lemma2_ok is None and r.lemma3_ok is None

    def test_beta_zero_rejected(self):
        with pytest.raises(ValueError, match="matching number must be >= 1"):
            verify_theorem1(5, 0)

    def test_empty_class_at_beta_one_is_infeasible(self):
        r = verify_theorem1(0, 1)
        assert r.verdict == "infeasible" and r.classes == 0 and r.predicted == ()

    def test_each_maximizer_is_solved_once(self, monkeypatch):
        # once its catalog levels are solved, a verdict solves nothing again:
        # the lemma checks and the predicted radius read the levels' pairs
        queries = [(m, beta) for m in range(1, 11) for beta in range(1, m + 1)]
        for m, beta in queries:
            verify_theorem1(m, beta)
        eigensolves = []

        def counted_top_pairs(qs, tol):
            eigensolves.append(len(qs))
            return top_pairs(qs, tol)

        top_pairs = spectral._top_pairs
        monkeypatch.setattr(spectral, "_top_pairs", counted_top_pairs)
        for m, beta in queries:
            assert verify_theorem1(m, beta).verdict == "pass"
        assert eigensolves == []

    def test_maximizer_spectra_equal_q_radius(self, monkeypatch):
        # exactness oracle: each maximizer's verdict spectrum is q_radius's,
        # bit for bit, through the m*K2 ties and the two maximizers of (3, 1)
        seen = []

        def recorded(g, s, beta):
            seen.append((g, s))
            return lemma_status(g, s, beta)

        lemma_status = verify._lemma_status
        monkeypatch.setattr(verify, "_lemma_status", recorded)
        for m in range(1, 11):
            for beta in range(1, m + 1):
                start = len(seen)
                r = verify_theorem1(m, beta)
                assert [to_graph6(g) for g, _ in seen[start:]] == list(r.argmax)
        assert len(seen) == 56
        for g, s in seen:
            want = q_radius(g)
            assert (s.q, s.residual, s.support_component) == (
                want.q, want.residual, want.support_component)
            assert np.array_equal(s.x, want.x)

    def test_prediction_outside_the_argmax_is_solved_apart(self, monkeypatch):
        k13 = canonical_graph(Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)]))
        monkeypatch.setattr(verify, "brute_force_max", lambda query, guard: (4.0, [k13]))
        r = verify_theorem1(3, 1)
        assert r.verdict == "fail" and r.argmax == ("CF",)
        assert r.predicted == ("Bw", "CF") and r.lemma2_ok


class TestVerifyBeta1:
    def test_m3_two_maximizers(self):
        r = verify_theorem1(3, 1)
        assert r.verdict == "pass"
        assert len(r.argmax) == 2
        assert r.argmax == r.predicted == ("Bw", "CF")  # triangle, 3-star
        assert r.qmax == pytest.approx(4.0, abs=1e-9)
        assert r.params is None and r.lemma3_ok is None

    @pytest.mark.parametrize("m", [1, 2, 4, 5, 6])
    def test_stars_win(self, m):
        r = verify_theorem1(m, 1)
        assert r.verdict == "pass"
        assert len(r.argmax) == 1
        assert r.qmax == pytest.approx(m + 1, abs=1e-9)
        assert r.params is None

    @pytest.mark.parametrize("m", [1, 3, 5])
    def test_old_name_delegates(self, m):
        for fmt in ("json", "csv"):
            assert emit_report(verify_beta1(m), fmt) == emit_report(verify_theorem1(m, 1), fmt)


@pytest.fixture(scope="module")
def report():
    return verify_theorem1(5, 2)


class TestEmitReport:

    def test_json_round_trip(self, report):
        text = emit_report(report, format="json")
        data = json.loads(text)
        assert data["query"] == {"m": 5, "beta": 2, "mode": "exact"}
        assert data["verdict"] == "pass"
        assert data["argmax"] == list(report.argmax)
        assert data["params"] == {"a": 2, "b": 0, "c": 1, "d": 0}
        assert data["lemma2_ok"] is True and data["lemma3_ok"] is True
        assert "timings" not in data

    def test_json_key_order_is_fixed(self, report):
        keys = list(json.loads(emit_report(report)).keys())
        assert keys == [
            "query", "classes", "qmax", "argmax", "predicted",
            "params", "verdict", "lemma2_ok", "lemma3_ok",
        ]

    def test_qmax_digits(self, report):
        data = json.loads(emit_report(report))
        assert data["qmax"] == pytest.approx(report.qmax, abs=1e-11)
        assert len(f'{data["qmax"]}') >= 12  # 12 significant digits survive

    def test_timings_opt_in(self, report):
        text = emit_report(report, include_timings=True)
        data = json.loads(text)
        assert "timings" in data and data["timings"]["total_s"] > 0

    def test_csv_timings_opt_in(self, report):
        plain = emit_report(report, format="csv")
        text = emit_report(report, format="csv", include_timings=True)
        header, row = text.strip().split("\n")
        plain_header, plain_row = plain.strip().split("\n")
        assert header == plain_header + ",total_s"
        assert row.rsplit(",", 1)[0] == plain_row
        assert float(row.rsplit(",", 1)[1]) == pytest.approx(report.timings["total_s"], rel=1e-11)

    def test_every_format_carries_the_timings(self, report):
        data = json.loads(emit_report(report, include_timings=True))
        header, row = emit_report(report, format="csv", include_timings=True).strip().split("\n")
        csv_timings = dict(zip(header.split(",")[11:], map(float, row.split(",")[11:])))
        assert csv_timings == pytest.approx(data["timings"], rel=1e-11)

    def test_csv_shape(self, report):
        text = emit_report(report, format="csv")
        header, row = text.strip().split("\n")
        assert header == "query,m,beta,classes,qmax,verdict,predicted,params,argmax,lemma2_ok,lemma3_ok"
        cells = row.split(",")
        assert cells[0] == "exact" and cells[1] == "5" and cells[2] == "2"
        assert cells[5] == "pass"
        assert cells[7] == "a=2 b=0 c=1 d=0"
        assert cells[9] == "true" and cells[10] == "true"

    def test_csv_infeasible_blanks(self):
        text = emit_report(verify_theorem1(2, 3), format="csv")
        row = text.strip().split("\n")[1]
        cells = row.split(",")
        assert cells[4] == "" and cells[5] == "infeasible"
        assert cells[9] == "" and cells[10] == ""

    def test_unknown_format(self, report):
        with pytest.raises(ValueError, match="format"):
            emit_report(report, format="yaml")

    def test_reports_are_reproducible(self, report):
        again = verify_theorem1(5, 2)
        assert emit_report(report) == emit_report(again)
        assert emit_report(report, format="csv") == emit_report(again, format="csv")


def test_reports_for_every_class_up_to_m10_are_pinned():
    # JSON then CSV of each report, m and then beta ascending, no timings:
    # any change to a verdict, a maximizer or a printed digit moves the hash
    digest = hashlib.sha256()
    for m in range(1, 11):
        for beta in range(1, m + 1):
            r = verify_theorem1(m, beta)
            digest.update((emit_report(r, "json") + emit_report(r, "csv")).encode("ascii"))
    assert digest.hexdigest() == (
        "53008e773ee15bf0a14558f8b95a03d18e470e9acf0bf2a461714ba09ef09a1b"
    )


def test_reports_do_not_depend_on_order(monkeypatch):
    # the band lists, prediction labelings and maximizer matchings kept for
    # the process give the same bytes in sweep order, in reverse, and with
    # all of them emptied before each verdict; a key too coarse would not
    queries = [(m, beta) for beta in range(1, 11) for m in range(beta, 11)]

    def empty_caches():
        for module, name in [(search, "_kept"), (search, "_bands"), (verify, "_matchings")]:
            monkeypatch.setattr(module, name, {})
        verify._canonical_piece.cache_clear()

    def reports(order, before_each=lambda: None):
        texts = {}
        for m, beta in order:
            before_each()
            r = verify_theorem1(m, beta)
            texts[m, beta] = emit_report(r, "json") + emit_report(r, "csv")
        return "".join(texts[q] for q in queries)

    empty_caches()
    forward = reports(queries)
    empty_caches()
    assert reports(queries[::-1]) == forward
    assert reports(queries, empty_caches) == forward


def test_report_dataclass_shape():
    r = verify_theorem1(4, 2)
    assert isinstance(r, VerificationReport)
    assert isinstance(r.argmax, tuple) and isinstance(r.predicted, tuple)
