#!/usr/bin/env python3
"""Sweep the extremality verification over an (m, beta) grid.

Runs the brute-force check for every feasible query in the requested ranges,
every matching number through the same verify_theorem1 route, and prints one
report per query (JSON blocks or CSV rows).  The CSV variant emits a single
header followed by one row per query, so the output loads straight into a
dataframe.

Examples:
    python scripts/run_verification.py --m-max 9
    python scripts/run_verification.py --beta 2 3 --m-max 10 --guard 10 \
        --format csv --timings
"""

import argparse
import sys
import time

from qspex.search import DEFAULT_GUARD
from qspex.verify import emit_report, verify_theorem1


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--beta", type=int, nargs="+", default=None,
                        help="matching numbers to sweep (default: 1 .. m-max)")
    parser.add_argument("--m-min", type=int, default=None,
                        help="smallest edge count (default: each beta)")
    parser.add_argument("--m-max", type=int, default=9,
                        help="largest edge count (default: 9)")
    parser.add_argument("--guard", type=int, default=DEFAULT_GUARD,
                        help=f"enumeration guard (default {DEFAULT_GUARD})")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--timings", action="store_true",
                        help="include wall-clock timings in each report")
    args = parser.parse_args(argv)
    if args.beta is not None and min(args.beta) < 1:
        parser.error("--beta values must be at least 1")
    if args.m_max > args.guard:
        parser.error(f"--m-max {args.m_max} exceeds the enumeration guard {args.guard};"
                     " raise --guard to go bigger")
    m_lo = 1 if args.m_min is None else args.m_min
    if not any(max(m_lo, beta) <= args.m_max for beta in args.beta or [1]):
        parser.error("no query in range: every --beta or --m-min exceeds --m-max")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    t0 = time.perf_counter()
    failures = 0
    first = True
    for beta in args.beta or range(1, args.m_max + 1):
        m_lo = beta if args.m_min is None else max(args.m_min, beta)
        for m in range(m_lo, args.m_max + 1):
            report = verify_theorem1(m, beta, guard=args.guard)
            text = emit_report(report, args.format, include_timings=args.timings)
            if args.format == "csv" and not first:
                text = text.split("\n", 1)[1]  # keep a single header
            sys.stdout.write(text if text.endswith("\n") else text + "\n")
            first = False
            if report.verdict != "pass":
                failures += 1
                print(f"note: ({m}, {beta}) -> {report.verdict}", file=sys.stderr)
    print(f"done in {time.perf_counter() - t0:.1f} s; {failures} non-pass verdicts",
          file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
