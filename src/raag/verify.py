"""Cross-checks between the independent routes, for one graph.

This is the engine behind the `verify-all` CLI subcommand: every analytic
quantity is computed by two routes of the library and the two are compared
exactly; the Lie ranks of each kind by `lie.series_ranks` against
`lie.span_ranks`, the clique counts by enumeration against deletion, the
trace and sphere counts against the coefficients of Phi_R and Phi_A.  The
brute-force oracles live in `tests/oracles.py`, not here.  Desk-scale
bounds keep the whole suite fast.
"""

from __future__ import annotations

from typing import NamedTuple

from raag.exterior import quadratic_dual_check
from raag.graph import Graph
from raag.growth import _poly_mul, phi_A, phi_R, phi_S
from raag.koszul import _resolution_reports
from raag.lie import _lyndon, series_ranks, span_ranks
from raag.linalg import rank_of_rows
from raag.magnus import _image, injectivity_witness
from raag.series import Fp, Q
from raag.words import (GroupWord, Trace, enumerate_traces, invert,
                        reduce_word, sphere_sizes)

# Desk-scale sizes of the checks.
SERIES_ORDER = 8
TRACE_DEGREE = 4
LIE_DEGREE = 4
BALL_RADIUS = 3
KOSZUL_ORDER = 5
COMMUTATOR_DEGREE = 3


class CheckResult(NamedTuple):
    name: str
    ok: bool
    detail: str = ""


def _commutator_parts(g: Graph, upto: int) -> tuple[bool, list[list[dict]]]:
    """Integer Magnus images of the basic commutators of degree
    n = 1..upto: whether every mu(c) - 1 starts in degree >= n, and the
    degree-n parts, degree by degree.

    There is one basic commutator c_t for each Lyndon trace t of degree n:
    the generator t for n = 1, and c_t = [c_u, c_v] = c_u c_v c_u^-1 c_v^-1
    for the standard factorisation (u, v) of t that `lie._lyndon` records
    (Duchamp & Krob, Semigroup Forum 45, 1992; Lalonde, TCS 117, 1993).
    The degree-n part of mu(c_t) is the standard bracketing P(t), so the
    check is square: b_n words, whose parts have rank b_n iff they are
    independent.  That they span the degree-n Lie component rests on the
    bracket-span check, which builds no P(t): its elimination over the
    closure rows finds the Lyndon traces as its pivot leads, and the P(t)
    are the oracle the tests check those leads against.  Each c_t is a
    reduced word, imaged by `_image` like any other at its own order
    n + 1, so no series is built, multiplied or inverted: the parts are
    integer rows, for every domain.
    """
    words: dict[Trace, GroupWord] = {}
    ok = True
    parts: list[list[dict]] = []
    for n in range(1, upto + 1):
        rows = []
        for t, factors in _lyndon(g, n).items():
            if factors is None:
                c = reduce_word([(t[0], 1)], g)
            else:
                cu, cv = (words[f] for f in factors)
                c = reduce_word(cu.syllables + cv.syllables
                                + invert(cu, g).syllables
                                + invert(cv, g).syllables, g)
            words[t] = c
            image = _image(c, g, n + 1)
            ok = ok and all(len(s) >= n for s in image if s)
            rows.append({s: a for s, a in image.items() if len(s) == n})
        parts.append(rows)
    return ok, parts


def _clique_counts_by_deletion(g: Graph) -> list[int]:
    """The clique counts again, independently of `enumerate_cliques`: the
    clique polynomial obeys c(G) = c(G - v) + t * c(G[N(v)]), run here on
    vertex bitmasks with one table entry per induced subgraph reached.  The
    masks still to count wait on an explicit stack, so the depth of the
    recurrence, up to |V|, is not bounded by Python's recursion limit."""
    n = len(g.vertices)
    nbrs = g._nbrs
    full = (1 << n) - 1
    memo = {0: [1] + [0] * n}  # coefficients of t^0..t^n
    stack = [full]
    while stack:
        mask = stack.pop()
        if mask in memo:
            continue
        v = mask.bit_length() - 1
        rest = mask & ~(1 << v)
        within = rest & nbrs[v]
        missing = [m for m in (rest, within) if m not in memo]
        if missing:
            stack += [mask] + missing
            continue
        # G[N(v)] has fewer than n vertices, so its t^n coefficient is 0
        memo[mask] = [a + b for a, b in
                      zip(memo[rest], [0] + memo[within][:-1])]
    return memo[full]


def verify_all(g: Graph, *, p: int = 3) -> list[CheckResult]:
    results: list[CheckResult] = []

    def check(name: str, ok: bool, detail: str = ""):
        results.append(CheckResult(name, bool(ok), detail))

    # the exponent-p dimensions are defined for odd primes only; the series
    # ranks come first, and reject a bad p before any other work
    lie_checks = (
        ("lcs", "lower-central ranks: series recursion = bracket span"),
        ("restricted", f"restricted ranks agree at p={p}"),
        ("lambda", "exponent-p dims are partial sums of lower-central ranks"),
    )[:3 if p >= 3 else 2]
    series = {kind: series_ranks(g, kind, p, LIE_DEGREE)
              for kind, _ in lie_checks}

    # clique polynomial vs a second count of the cliques
    counts = phi_S(g)
    recount = _clique_counts_by_deletion(g)
    check("clique polynomial matches clique counts",
          counts == recount, f"counts={counts}")

    # reciprocity, from parts that share no code: the traces enumerated
    # letter by letter, times Phi_S(-t) from the recount
    tc = [len(enumerate_traces(g, n)) for n in range(TRACE_DEGREE + 1)]
    s_neg = [(-1) ** k * c for k, c in enumerate(recount)]
    prod = _poly_mul(tc, s_neg)[:TRACE_DEGREE + 1]
    check("Phi_R(t) * Phi_S(-t) = 1", prod == [1] + [0] * TRACE_DEGREE,
          f"degree<={TRACE_DEGREE}")

    # trace counts vs Phi_R
    pr = phi_R(g, TRACE_DEGREE + 1)
    check("trace counts match Phi_R coefficients",
          pr == tc, f"counts={tc}")

    # growth oracle
    spheres = sphere_sizes(g, BALL_RADIUS)
    pa = phi_A(g, BALL_RADIUS + 1)
    check("sphere sizes match Phi_A coefficients",
          pa == spheres, f"spheres={spheres}")

    # quadratic duality
    check("quadratic relation spaces are dual", quadratic_dual_check(g))

    # Lie ranks of each kind, both routes
    for kind, name in lie_checks:
        check(name, series[kind] == span_ranks(g, kind, p, LIE_DEGREE),
              f"values={series[kind]}")

    # the b_n basic commutators of weight n: mu(c) - 1 starts in degree n,
    # and the degree-n parts are independent, rank b_n (a third route to
    # b_n)
    in_filtration, parts = _commutator_parts(g, COMMUTATOR_DEGREE)
    for dom, name in ((Q, "Q"), (Fp(2), "F2")):
        ranks = tuple(rank_of_rows(rows, dom) for rows in parts)
        check(f"commutator images over {name} have rank b_n in degree n",
              in_filtration and ranks == series["lcs"][:COMMUTATOR_DEGREE],
              f"ranks={ranks}")

    # injectivity at truncation
    wit = injectivity_witness(g, BALL_RADIUS, SERIES_ORDER - 1, Fp(2))
    check("truncated images pairwise distinct on the ball",
          wit is None, "" if wit is None else f"collision: {wit}")

    # Koszul certificate, over Q and F_2 in one pass
    reports = _resolution_reports(g, KOSZUL_ORDER, (Q, Fp(2)))
    for rep, name in zip(reports, ("Q", "F2")):
        check(f"Koszul contraction identity over {name}",
              rep.ok, f"checked={rep.checked}")

    return results
