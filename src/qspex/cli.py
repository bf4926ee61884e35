"""Command-line surface: every library operation behind graph6 I/O.

Exit codes: 0 success, 1 domain error (bad graph6, infeasible or failing
query, violated rewiring precondition, unwritable --output), 2 usage error
(bad flags, bad QSPEX_GUARD, out-of-range tolerance).  All numeric output
carries 12 significant digits.  Graphs are given as graph6 strings; `-` reads
them one per line from stdin.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from typing import Optional

from .family import extremal_params, predicted_maximizers, predicted_order
from .graphs import GRAPH6_MAX_N, Graph6Error, canonical_graph, from_graph6, to_graph6
from .search import DEFAULT_GUARD, EnumerationQuery, enumerate_graphs, hill_climb
from .spectral import RESIDUAL_TOL, q_radius
from .matching import matching_number
from .transform import RewireResult, kelmans_swap, pendant_collapse, rotate
from .verify import _fmt, emit_report, verify_theorem1

MAX_GUARD = 12


class UsageError(Exception):
    """Bad invocation (flags/environment), as opposed to a domain failure."""


def _guard(args: argparse.Namespace) -> int:
    """The enumeration guard: --guard, else QSPEX_GUARD, else DEFAULT_GUARD."""
    guard = args.guard
    if guard is None:
        env = os.environ.get("QSPEX_GUARD", str(DEFAULT_GUARD))
        try:
            guard = int(env)
        except ValueError:
            raise UsageError(f"QSPEX_GUARD must be an integer, got {env!r}") from None
    if not 1 <= guard <= MAX_GUARD:
        raise UsageError(f"guard must be within 1..{MAX_GUARD}, got {guard}")
    return guard


def _input_graphs(items: list[str]) -> list[str]:
    out: list[str] = []
    for item in items:
        if item == "-":
            out.extend(line.strip() for line in sys.stdin if line.strip())
        else:
            out.append(item)
    if not out:
        raise UsageError("no graphs supplied")
    return out


def _parse_pair(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError(f"expected a vertex pair like 0,1; got {text!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise UsageError(f"vertex pair must be integers; got {text!r}") from None


def _parse_edge_list(text: str) -> list[tuple[int, int]]:
    return [_parse_pair(chunk) for chunk in text.split(";") if chunk]


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns (output lines, exit code)
# ---------------------------------------------------------------------------


def _cmd_q(args: argparse.Namespace) -> tuple[list[str], int]:
    if not 1e-13 <= args.tolerance <= 1e-6:
        raise UsageError(f"tolerance must lie in [1e-13, 1e-6], got {args.tolerance!r}")
    graphs = _input_graphs(args.graphs)
    batch = len(graphs) > 1
    lines = []
    for g6 in graphs:
        s = q_radius(from_graph6(g6), residual_tol=args.tolerance)
        fields = [
            _fmt(s.q),
            ",".join(_fmt(v) for v in s.x),
            _fmt(s.residual),
        ]
        if batch:
            fields.insert(0, g6)
        lines.append("\t".join(fields))
    return lines, 0


def _cmd_beta(args: argparse.Namespace) -> tuple[list[str], int]:
    graphs = _input_graphs(args.graphs)
    batch = len(graphs) > 1
    lines = []
    for g6 in graphs:
        value = matching_number(from_graph6(g6))
        lines.append(f"{g6}\t{value}" if batch else str(value))
    return lines, 0


def _cmd_extremal(args: argparse.Namespace) -> tuple[list[str], int]:
    order = predicted_order(args.m, args.beta)
    if order > GRAPH6_MAX_N:
        raise ValueError(f"the predicted maximizers for m = {args.m}, beta = {args.beta} have"
                         f" {order} vertices, more than the {GRAPH6_MAX_N} supported")
    graphs = [canonical_graph(g) for g in predicted_maximizers(args.m, args.beta)]
    lines = [f"graph6 {to_graph6(g)}" for g in graphs]
    lines.append(f"q {_fmt(q_radius(graphs[0]).q)}")
    if args.beta >= 2:
        p = extremal_params(args.m, args.beta)
        lines.insert(0, f"params a={p.a} b={p.b} c={p.c} d={p.d}")
    return lines, 0


def _cmd_enumerate(args: argparse.Namespace) -> tuple[list[str], int]:
    guard = _guard(args)  # a usage error comes before the query's own checks
    query = EnumerationQuery(args.m, args.beta, "at_least" if args.at_least else "exact")
    graphs = enumerate_graphs(query, guard=guard)
    return [to_graph6(g) for g in graphs], 0


def _cmd_verify(args: argparse.Namespace) -> tuple[list[str], int]:
    report = verify_theorem1(args.m, args.beta, guard=_guard(args))
    text = emit_report(report, args.format, include_timings=args.timings)
    code = 0 if report.verdict == "pass" else 1
    return text.splitlines(), code


def _cmd_climb(args: argparse.Namespace) -> tuple[list[str], int]:
    if args.max_steps < 0:
        raise UsageError(f"--max-steps must be nonnegative, got {args.max_steps}")
    start = from_graph6(args.start)
    query = EnumerationQuery(args.m, args.beta, "at_least" if args.at_least else "exact")
    trace = hill_climb(start, query, max_steps=args.max_steps)
    lines = []
    for i, st in enumerate(trace.steps, start=1):
        lines.append(
            f"step={i} move={st.move} detail=\"{st.detail}\""
            f" q_before={_fmt(st.q_before)} q_after={_fmt(st.q_after)} graph6={st.graph6}"
        )
    lines.append(f"end {to_graph6(trace.end)}")
    lines.append(f"steps {len(trace.steps)}")
    lines.append(f"converged {'true' if trace.converged_to_prediction else 'false'}")
    return lines, 0


def _rewire_output(r: RewireResult) -> tuple[list[str], int]:
    lines = [
        f"graph6 {to_graph6(r.graph)}",
        f"q_before {_fmt(r.q_before)}",
        f"q_after {_fmt(r.q_after)}",
        f"delta {_fmt(r.delta)}",
    ]
    if r.predicted_gain is not None:
        lines.append(f"predicted {_fmt(r.predicted_gain)}")
        lines.append(f"condition_held {'true' if r.condition_held else 'false'}")
    return lines, 0


def _cmd_rotate(args: argparse.Namespace) -> tuple[list[str], int]:
    g = from_graph6(args.graph)
    return _rewire_output(
        rotate(g, q_radius(g).x, _parse_pair(args.remove), _parse_pair(args.add))
    )


def _cmd_swap(args: argparse.Namespace) -> tuple[list[str], int]:
    g = from_graph6(args.graph)
    return _rewire_output(
        kelmans_swap(g, _parse_pair(args.first), _parse_pair(args.second))
    )


def _cmd_collapse(args: argparse.Namespace) -> tuple[list[str], int]:
    g = from_graph6(args.graph)
    return _rewire_output(pendant_collapse(g, args.center, _parse_edge_list(args.edges)))


_HANDLERS = {
    "q": _cmd_q,
    "beta": _cmd_beta,
    "extremal": _cmd_extremal,
    "enumerate": _cmd_enumerate,
    "verify": _cmd_verify,
    "climb": _cmd_climb,
    "rotate": _cmd_rotate,
    "swap": _cmd_swap,
    "collapse": _cmd_collapse,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The qspex argument parser, built once per process: parsing keeps no
    state between calls, so in-process callers of main share it."""
    parser = argparse.ArgumentParser(
        prog="qspex",
        description="Signless-Laplacian spectral extremality under edge and matching constraints",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", metavar="PATH", default=None,
                        help="write output to PATH instead of stdout")

    p = sub.add_parser("q", parents=[common],
                       help="spectral radius, principal eigenvector, residual")
    p.add_argument("graphs", nargs="+", metavar="GRAPH6",
                   help="graph6 strings, or - for one per stdin line")
    p.add_argument("--tolerance", type=float, default=RESIDUAL_TOL,
                   help=f"residual tolerance (default {RESIDUAL_TOL})")

    p = sub.add_parser("beta", parents=[common], help="matching number")
    p.add_argument("graphs", nargs="+", metavar="GRAPH6",
                   help="graph6 strings, or - for one per stdin line")

    p = sub.add_parser("extremal", parents=[common],
                       help="predicted extremal graph for a class")
    p.add_argument("--m", type=int, required=True, help="edge count")
    p.add_argument("--beta", type=int, required=True, help="matching number")

    p = sub.add_parser("enumerate", parents=[common],
                       help="stream the class members as graph6")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--beta", type=int, required=True)
    p.add_argument("--at-least", action="store_true", dest="at_least",
                   help="matching number >= beta instead of == beta")
    p.add_argument("--guard", type=int, default=None,
                   help=f"enumeration guard (default {DEFAULT_GUARD}, env QSPEX_GUARD)")

    p = sub.add_parser("verify", parents=[common],
                       help="brute-force the class and compare with the prediction")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--beta", type=int, required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--guard", type=int, default=None)
    p.add_argument("--timings", action="store_true",
                   help="include wall-clock timings in the report")

    p = sub.add_parser("climb", parents=[common],
                       help="steepest-ascent rewiring inside a class")
    p.add_argument("--start", required=True, metavar="GRAPH6")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--beta", type=int, required=True)
    p.add_argument("--at-least", action="store_true", dest="at_least")
    p.add_argument("--max-steps", type=int, default=64)

    p = sub.add_parser("rotate", parents=[common],
                       help="remove one edge, add a higher-sum edge")
    p.add_argument("graph", metavar="GRAPH6")
    p.add_argument("--remove", required=True, metavar="U,V")
    p.add_argument("--add", required=True, metavar="U,V")

    p = sub.add_parser("swap", parents=[common],
                       help="swap the partners of two independent edges")
    p.add_argument("graph", metavar="GRAPH6")
    p.add_argument("--first", required=True, metavar="U,V", help="oriented u_i,v_i")
    p.add_argument("--second", required=True, metavar="U,V", help="oriented u_j,v_j")

    p = sub.add_parser("collapse", parents=[common],
                       help="replace chosen edges by pendants at a vertex")
    p.add_argument("graph", metavar="GRAPH6")
    p.add_argument("--center", type=int, required=True, metavar="V")
    p.add_argument("--edges", required=True, metavar="U,V;U,V",
                   help="semicolon-separated edges to collapse")

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        lines, code = _HANDLERS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (Graph6Error, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    text = "\n".join(lines) + ("\n" if lines else "")
    if args.output:
        try:
            with open(args.output, "w", encoding="ascii") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
