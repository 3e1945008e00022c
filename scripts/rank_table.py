#!/usr/bin/env python3
"""Tabulate graded Lie algebra ranks for a graph by both independent
routes and report any disagreement.

The series route solves the product forms of Phi_R by Moebius inversion.
The span route eliminates over closure rows alone: at each degree n it
builds [v, r] for every vertex v and every row r that degree n - 1 kept,
reduces each in integers against the pivots found so far, and keeps the
rows whose K-least trace has coefficient +-1 as pivots; for d_n it adds
the p^i-th powers of the rows kept at degree n / p^i.  Only nonzero
remainders go through the general elimination.  The Lyndon basis is not
built: it is the oracle the tests check the pivot leads against.

    PYTHONPATH=src python3 scripts/rank_table.py GRAPH.json --upto 8 --p 2

Exit codes: 0 when the routes agree, 1 when they disagree, and 3 when
the state cap (RAAG_MAX_STATES) stops a route, with a one-line message on
stderr, as the `raag` CLI does.
"""

import argparse
import sys

from raag.errors import ResourceLimitError
from raag.graph import Graph
from raag.lie import (bracket_span_rank, lambda_dims, restricted_span_rank,
                      series_rank_lcs, series_rank_restricted)
from raag.series import Q


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("graph", help="path to a graph JSON file")
    ap.add_argument("--upto", type=int, default=5)
    ap.add_argument("--p", type=int, default=3)
    args = ap.parse_args()

    with open(args.graph) as fh:
        g = Graph.from_json(fh.read())
    upto, p = args.upto, args.p

    try:
        lcs_series = series_rank_lcs(g, upto).values
        lcs_spans = tuple(bracket_span_rank(g, n, Q)
                          for n in range(1, upto + 1))
        res_series = series_rank_restricted(g, p, upto).values
        res_spans = tuple(restricted_span_rank(g, n, p)
                          for n in range(1, upto + 1))
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3

    print(f"{'n':>3} {'b_n (series)':>13} {'b_n (span)':>11} "
          f"{f'd_n p={p} (series)':>17} {f'd_n p={p} (span)':>15}")
    for n in range(1, upto + 1):
        print(f"{n:>3} {lcs_series[n-1]:>13} {lcs_spans[n-1]:>11} "
              f"{res_series[n-1]:>17} {res_spans[n-1]:>15}")
    if p >= 3:
        print(f"lambda dims (p={p}): {list(lambda_dims(g, p, upto).values)}")

    ok = lcs_series == lcs_spans and res_series == res_spans
    if not ok:
        print("MISMATCH between the two routes", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
