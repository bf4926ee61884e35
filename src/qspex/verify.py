"""Exhaustive verification of the extremal claim, plus the structural
eigenvector checks that the rewiring argument leans on.

verify_theorem1(m, beta) counts the whole class (exact matching number),
maximizes q over it by brute force (search.brute_force_max, from the radii
of the connected catalog graphs), and compares winners and value against
family.predicted_maximizers — two independent routes to the same graphs.
One route serves every beta >= 1; for beta = 1 the prediction is the star,
plus the triangle at m = 3, and the report carries no family parameters.
The two eigenvector lemmas are then checked on every maximizer, with the
Perron vector of its extremal component as the catalog level's batch solve
certified it (search.maximizer_spectrum), not solved again; only a
prediction outside the argmax is solved on its own.  A verdict pays only for
pieces new to the process: each prediction piece is labeled once, and the
maximum matchings of each maximizer piece are enumerated once.

  lemma 2:  entries of vertices missed by the extremal matching never exceed
            the smallest entry among matched vertices;
  lemma 3:  for matching positions i < j (proper ordering), x_{u_i} >= x_{v_j}
            holds exactly when {u_i, v_i, u_j, v_j} induces 2*K2 or K4.

Both checks carry a 1e-10 indeterminacy band: ties within the band satisfy a
'>=' claim, and refute a '<' claim only when they exceed it.
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import dataclass, field
from functools import cache
from typing import Optional

from .family import FamilyParams, extremal_params, predicted_maximizers
from .graphs import Graph, canonical_graph, canonical_union, components, to_graph6
from .matching import Matching, OrderedMatching, _extremal_matching, proper_ordering
from .search import (
    DEFAULT_GUARD,
    EnumerationQuery,
    brute_force_max,
    class_size,
    maximizer_spectrum,
)
from .spectral import SpectralData, q_radius

LEMMA_MARGIN = 1e-10
VALUE_TOL = 1e-8  # |qmax - q(predicted)| bound for a passing verdict

# Kept for the process, keyed by connected pieces (equal masks), so bounded by
# the catalog and the guard: the canonical labeling of each prediction piece,
# and the maximum matchings of each maximizer piece, a catalog piece.
_canonical_piece = cache(canonical_graph)
_matchings: dict[Graph, list[Matching]] = {}


@dataclass(frozen=True)
class VerificationReport:
    m: int
    beta: int
    mode: str
    classes: int
    qmax: Optional[float]
    argmax: tuple[str, ...]  # canonical graph6
    predicted: tuple[str, ...]  # canonical graph6, sorted (singleton for beta >= 2)
    params: Optional[FamilyParams]
    verdict: str  # "pass" | "fail" | "infeasible"
    lemma2_ok: Optional[bool]
    lemma3_ok: Optional[bool]
    timings: dict[str, float] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Lemma checks
# ---------------------------------------------------------------------------


def check_lemma2(
    g: Graph, s: SpectralData, mstar: Matching
) -> tuple[bool, list[tuple[int, float, float]]]:
    """Unmatched-vertex entries stay below every matched entry.

    Returns (ok, violations); a violation (w, x_w, min_matched) records an
    unmatched vertex whose entry exceeds the smallest matched entry by more
    than the margin.  Vacuously true when the matching covers all vertices.
    """
    matched = mstar.vertices()
    if not matched:
        raise ValueError("empty matching; nothing to check")
    x = s.x.tolist()
    min_matched = min(x[v] for v in matched)
    violations = []
    for w in range(g.n):
        if w not in matched and x[w] > min_matched + LEMMA_MARGIN:
            violations.append((w, x[w], min_matched))
    return (not violations, violations)


def _induces_2k2_or_k4(g: Graph, quad: tuple[int, int, int, int]) -> bool:
    mask = 0
    for v in quad:
        mask |= 1 << v
    edges = sum((g.neighbors_mask(v) & mask).bit_count() for v in quad) // 2
    return edges == 2 or edges == 6  # two matching edges only, or all six pairs


def check_lemma3(
    g: Graph, s: SpectralData, om: OrderedMatching
) -> tuple[bool, list[tuple[int, int, str, float, float]]]:
    """Biconditional between x_{u_i} >= x_{v_j} and the induced 4-vertex shape.

    For positions i < j of the proper ordering, the matched quadruple must
    induce 2*K2 or K4 exactly when x_{u_i} >= x_{v_j}.  Entry pairs within
    LEMMA_MARGIN count as equal: they satisfy '>=', and are reported as
    indeterminate (not failed) where the lemma demands strict '<'.  Violations
    are (i, j, expectation, x_ui, x_vj).
    """
    pairs = om.pairs
    x = s.x.tolist()
    violations = []
    for i in range(len(pairs)):
        for j in range(i + 1, len(pairs)):
            ui, vi = pairs[i]
            uj, vj = pairs[j]
            special = _induces_2k2_or_k4(g, (ui, vi, uj, vj))
            xu, xv = x[ui], x[vj]
            if special:
                # lemma: x_{u_i} >= x_{v_j}; refuted only by a clear deficit
                if xu < xv - LEMMA_MARGIN:
                    violations.append((i, j, "expected x_u_i >= x_v_j", xu, xv))
            else:
                # lemma: x_{u_i} < x_{v_j}; a tie inside the band is indeterminate
                if xu > xv + LEMMA_MARGIN:
                    violations.append((i, j, "expected x_u_i < x_v_j", xu, xv))
    return (not violations, violations)


# ---------------------------------------------------------------------------
# Theorem verification
# ---------------------------------------------------------------------------


def _lemma_status(g: Graph, s: SpectralData, beta: int) -> tuple[bool, bool]:
    """Lemma 2 and lemma 3 (vacuous for beta = 1) on one solved maximizer,
    on matchings enumerated once per piece (_matchings)."""
    x = s.x.tolist()
    mstar = _extremal_matching(g, x, _matchings)
    ok2, _ = check_lemma2(g, s, mstar)
    return ok2, beta < 2 or check_lemma3(g, s, proper_ordering(mstar, x))[0]


def verify_theorem1(
    m: int,
    beta: int,
    guard: int = DEFAULT_GUARD,
) -> VerificationReport:
    """Brute-force the class (exact matching number beta >= 1) and compare
    with the predicted maximizers; lemma checks run on each maximizer.

    The verdict passes when the argmax is exactly the predicted set (both
    canonical graph6, sorted) and its radius is within VALUE_TOL of the
    prediction's.  An infeasible query (m < beta) yields a report with
    verdict "infeasible" rather than an exception, so batch drivers can keep
    going.
    """
    if beta < 1:
        raise ValueError(f"matching number must be >= 1, got {beta}")
    if m < beta:
        return VerificationReport(
            m=m, beta=beta, mode="exact", classes=0, qmax=None, argmax=(),
            predicted=(), params=None, verdict="infeasible",
            lemma2_ok=None, lemma3_ok=None, timings={},
        )
    t0 = time.perf_counter()
    query = EnumerationQuery(m, beta, "exact")
    classes = class_size(query, guard)
    qmax, argmax = brute_force_max(query, guard)
    got = tuple(to_graph6(g) for g in argmax)  # canonical, in graph6 order
    # each piece labeled once per process, joined as canonical_graph joins them
    predicted = sorted(
        (canonical_union(_canonical_piece(p) for p, _ in components(t))
         for t in predicted_maximizers(m, beta)),
        key=to_graph6,
    )
    expected = tuple(to_graph6(g) for g in predicted)
    spectra = [maximizer_spectrum(g) for g in argmax]  # from the level batches
    q_predicted = (dict(zip(got, spectra)).get(expected[0]) or q_radius(predicted[0])).q
    verdict = "pass" if got == expected and abs(qmax - q_predicted) <= VALUE_TOL else "fail"
    status = [_lemma_status(g, s, beta) for g, s in zip(argmax, spectra)]
    lemma2_ok = all(ok2 for ok2, _ in status)
    lemma3_ok = all(ok3 for _, ok3 in status) if beta >= 2 else None
    total = time.perf_counter() - t0
    return VerificationReport(
        m=m, beta=beta, mode="exact", classes=classes, qmax=qmax,
        argmax=got, predicted=expected,
        params=extremal_params(m, beta) if beta >= 2 else None,
        verdict=verdict, lemma2_ok=lemma2_ok, lemma3_ok=lemma3_ok,
        timings={"total_s": total},
    )


def verify_beta1(m: int, guard: int = DEFAULT_GUARD) -> VerificationReport:
    """verify_theorem1(m, 1, guard), kept for callers that use this name."""
    return verify_theorem1(m, 1, guard)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _fmt(x: float) -> str:
    return format(x, ".12g")


def _json_opt_float(x: Optional[float]) -> str:
    return "null" if x is None else _fmt(x)


def _json_opt_bool(b: Optional[bool]) -> str:
    return "null" if b is None else ("true" if b else "false")


def emit_report(
    r: VerificationReport, format: str = "json", include_timings: bool = False
) -> str:
    """Serialize a report with a fixed field order and 12-significant-digit
    floats.  Timings are left out unless asked for, so reports from repeated
    runs are byte-identical; when asked for, they close the JSON object or
    follow the CSV columns, one column per timing in key order."""
    if format == "json":
        if r.params is None:
            params = "null"
        else:
            params = (
                f'{{"a": {r.params.a}, "b": {r.params.b},'
                f' "c": {r.params.c}, "d": {r.params.d}}}'
            )
        lines = [
            f'  "query": {{"m": {r.m}, "beta": {r.beta}, "mode": "{r.mode}"}},',
            f'  "classes": {r.classes},',
            f'  "qmax": {_json_opt_float(r.qmax)},',
            f'  "argmax": {json.dumps(list(r.argmax))},',
            f'  "predicted": {json.dumps(list(r.predicted))},',
            f'  "params": {params},',
            f'  "verdict": "{r.verdict}",',
            f'  "lemma2_ok": {_json_opt_bool(r.lemma2_ok)},',
            f'  "lemma3_ok": {_json_opt_bool(r.lemma3_ok)}',
        ]
        if include_timings:
            lines[-1] += ","
            timings = ", ".join(f'"{k}": {_fmt(v)}' for k, v in sorted(r.timings.items()))
            lines.append(f'  "timings": {{{timings}}}')
        return "{\n" + "\n".join(lines) + "\n}"
    if format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        timings = sorted(r.timings.items()) if include_timings else []
        writer.writerow(
            ["query", "m", "beta", "classes", "qmax", "verdict",
             "predicted", "params", "argmax", "lemma2_ok", "lemma3_ok"]
            + [k for k, _ in timings]
        )
        if r.params is None:
            params = ""
        else:
            params = f"a={r.params.a} b={r.params.b} c={r.params.c} d={r.params.d}"
        writer.writerow(
            [
                r.mode, r.m, r.beta, r.classes,
                "" if r.qmax is None else _fmt(r.qmax),
                r.verdict,
                ";".join(r.predicted),
                params,
                ";".join(r.argmax),
                "" if r.lemma2_ok is None else str(r.lemma2_ok).lower(),
                "" if r.lemma3_ok is None else str(r.lemma3_ok).lower(),
            ]
            + [_fmt(v) for _, v in timings]
        )
        return buf.getvalue()
    raise ValueError(f"unknown report format {format!r}")
