"""Cross-checks between the independent routes, for one graph.

This is the engine behind the `verify-all` CLI subcommand: every analytic
quantity is recomputed by its brute-force counterpart and compared
exactly.  Desk-scale bounds keep the whole suite fast.
"""

from __future__ import annotations

from dataclasses import dataclass

from raag.exterior import quadratic_dual_check
from raag.graph import Graph
from raag.growth import _poly_mul, phi_A, phi_R, phi_S
from raag.koszul import verify_resolution
from raag.lie import (bracket_span_rank, lambda_dims, restricted_span_rank,
                      series_rank_lcs, series_rank_restricted)
from raag.linalg import rank_of_rows
from raag.magnus import _omega, injectivity_witness, magnus
from raag.series import Fp, Q, Z
from raag.words import (enumerate_traces, invert, multiply, reduce_word,
                        sphere_sizes)

# Desk-scale sizes of the checks.
SERIES_ORDER = 8
TRACE_DEGREE = 4
LIE_DEGREE = 4
BALL_RADIUS = 3
KOSZUL_ORDER = 5
COMMUTATOR_DEGREE = 3


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str = ""

    def to_json_obj(self) -> dict:
        out = {"name": self.name, "ok": self.ok}
        if self.detail:
            out["detail"] = self.detail
        return out


def _commutator_parts(g: Graph) -> tuple[bool, list[list[dict]]]:
    """Magnus images of the left-normed commutators [v1,[v2,...,vn]] of
    generators, n = 1..COMMUTATOR_DEGREE, over Z: whether every mu(c) - 1
    starts in degree >= n, and the degree-n parts, degree by degree.

    Each commutator [x, c] = x c x^-1 c^-1 is a reduced word, imaged by
    `magnus` like any other, so no series is multiplied or inverted.
    """
    order = COMMUTATOR_DEGREE + 1
    gens = [reduce_word([(v, 1)], g) for v in g.vertices]
    layer = gens  # the commutators of weight n
    ok = True
    parts: list[list[dict]] = []
    for n in range(1, COMMUTATOR_DEGREE + 1):
        if n > 1:
            layer = [multiply(multiply(x, c, g),
                              multiply(invert(x, g), invert(c, g), g), g)
                     for c in layer for x in gens]
        rows = []
        for c in layer:
            image = magnus(c, g, Z, order)
            ok = ok and _omega(image).value >= n
            part = {t: a for t, a in image.coeffs.items() if len(t) == n}
            if part:
                rows.append(part)
        parts.append(rows)
    return ok, parts


def _clique_counts_by_deletion(g: Graph) -> list[int]:
    """The clique counts again, independently of `enumerate_cliques`: the
    clique polynomial obeys c(G) = c(G - v) + t * c(G[N(v)]), run here on
    vertex bitmasks with one table entry per induced subgraph reached."""
    n = len(g.vertices)
    nbrs = g._nbrs
    memo = {0: [1] + [0] * n}  # coefficients of t^0..t^n

    def poly(mask: int) -> list[int]:
        if mask not in memo:
            v = mask.bit_length() - 1
            rest = mask & ~(1 << v)
            # G[N(v)] has fewer than n vertices, so its t^n coefficient is 0
            within = poly(rest & nbrs[v])
            memo[mask] = [a + b for a, b in zip(poly(rest), [0] + within[:-1])]
        return memo[mask]

    return poly((1 << n) - 1)


def verify_all(g: Graph, *, p: int = 3) -> list[CheckResult]:
    results: list[CheckResult] = []

    def check(name: str, ok: bool, detail: str = ""):
        results.append(CheckResult(name, bool(ok), detail))

    # the restricted ranks by the series route first: they reject a bad p
    # before any other work
    d_series = series_rank_restricted(g, p, LIE_DEGREE).values

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

    # Lie ranks, both routes
    b_series = series_rank_lcs(g, LIE_DEGREE).values
    b_span = tuple(bracket_span_rank(g, n, Q) for n in range(1, LIE_DEGREE + 1))
    check("lower-central ranks: series recursion = bracket span",
          b_series == b_span, f"values={b_series}")
    d_span = tuple(restricted_span_rank(g, n, p) for n in range(1, LIE_DEGREE + 1))
    check(f"restricted ranks agree at p={p}",
          d_series == d_span, f"values={d_series}")
    if p >= 3:  # exponent-p dimensions are defined for odd primes only
        lam = lambda_dims(g, p, LIE_DEGREE).values
        partial = tuple(sum(b_series[:n + 1]) for n in range(LIE_DEGREE))
        check("exponent-p dims are partial sums of lower-central ranks",
              lam == partial, f"values={lam}")

    # group commutators of weight n: mu(c) - 1 starts in degree n, and the
    # degree-n parts span a space of rank b_n (a third route to b_n)
    in_filtration, parts = _commutator_parts(g)
    for dom, name in ((Q, "Q"), (Fp(2), "F2")):
        ranks = tuple(rank_of_rows(rows, dom) for rows in parts)
        check(f"commutator images over {name} have rank b_n in degree n",
              in_filtration and ranks == b_series[:COMMUTATOR_DEGREE],
              f"ranks={ranks}")

    # injectivity at truncation
    wit = injectivity_witness(g, BALL_RADIUS, SERIES_ORDER - 1, Fp(2))
    check("truncated images pairwise distinct on the ball",
          wit is None, "" if wit is None else f"collision: {wit}")

    # Koszul certificate
    for dom, name in ((Q, "Q"), (Fp(2), "F2")):
        rep = verify_resolution(g, KOSZUL_ORDER, dom)
        check(f"Koszul contraction identity over {name}",
              rep.ok, f"checked={rep.checked}")

    return results
