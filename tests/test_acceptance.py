"""Acceptance suite: one test per acceptance criterion, all checks exact.

Each test prints a single `PASS <criterion>` line on success (visible with
`pytest -v -s` or in captured output); any failure is an assertion error.
"""

import random
from fractions import Fraction

from raag.graph import (complete_graph, cycle_graph, empty_graph, path_graph)
from raag.growth import (RatFunc, phi_A, phi_R, phi_S,
                         union_join_identities)
from raag.koszul import verify_resolution
from raag.lie import (bracket_span_rank, restricted_span_rank, series_rank_lcs,
                      series_rank_restricted, series_ranks)
from raag.magnus import leading_monomial_char_p, magnus, valuations
from raag.series import (Fp, PCSeries, Q, Z, coproduct, exp_series,
                         is_grouplike, is_primitive, log_series, tensor)
from raag.words import (IDENTITY, enumerate_traces, invert, multiply,
                        parse_word, reduce_word, sphere_sizes)

from conftest import SUITE
from oracles import (_truncated_mul, ball, leading_monomial_bruteforce,
                     m3_class_count)

ORDER = 10


def _done(line):
    print(f"PASS {line}")


def _padded(poly, order):
    return poly + [0] * (order - len(poly))


def test_criterion_01_extreme_case_series():
    one_plus = RatFunc([1, 1], [1])
    one_minus = RatFunc([1], [1, -1])
    for d in (1, 2, 3, 4):
        k = complete_graph(d)
        assert _padded(phi_S(k), ORDER) == (one_plus ** d).series(ORDER)
        assert phi_R(k, ORDER) == (one_minus ** d).series(ORDER)
        assert phi_A(k, ORDER) == (RatFunc([1, 1], [1, -1]) ** d).series(ORDER)
        e = empty_graph(d)
        assert _padded(phi_S(e), ORDER) == RatFunc([1, d], [1]).series(ORDER)
        assert phi_R(e, ORDER) == RatFunc([1], [1, -d]).series(ORDER)
        assert phi_A(e, ORDER) == RatFunc([1, 1], [1, -(2 * d - 1)]).series(ORDER)
    _done("1: closed-form series for complete and empty graphs, order 10")


def test_criterion_02_reciprocity():
    for name, g in SUITE.items():
        s_neg = [c if n % 2 == 0 else -c for n, c in enumerate(phi_S(g))]
        lhs = _truncated_mul(phi_R(g, ORDER), s_neg)
        assert lhs == [1] + [0] * (ORDER - 1), name
    _done("2: Phi_R(t) * Phi_S(-t) = 1 + O(t^10) on the 6-graph suite")


def test_criterion_03_growth_oracle():
    for name, g in SUITE.items():
        if len(g.vertices) > 4:
            continue
        assert sphere_sizes(g, 5) == phi_A(g, 6), name
    _done("3: streamed sphere counts equal Phi_A coefficients, radius 5")


def test_criterion_04_trace_count_consistency():
    for name, g in SUITE.items():
        counts = [len(enumerate_traces(g, n)) for n in range(6)]
        assert phi_R(g, 6) == counts, name
        assert [m3_class_count(g, n) for n in range(6)] == counts, name
    _done("4: Phi_R coefficients = trace counts = commuting-swap classes "
          "of words, n <= 5")


def test_criterion_05_lie_rank_routes():
    for name, g in SUITE.items():
        series = series_rank_lcs(g, 5)
        spans = tuple(bracket_span_rank(g, n, Q) for n in range(1, 6))
        assert spans == series, name
    assert series_rank_lcs(empty_graph(2), 5) == (2, 1, 2, 3, 6)
    _done("5: bracket spans = series recursion, n <= 5; F_2 ranks 2,1,2,3,6")


def test_criterion_06_restricted_consistency():
    for name, g in SUITE.items():
        b = series_rank_lcs(g, 5)
        for p in (2, 3, 5):
            d = series_rank_restricted(g, p, 5)
            spans = tuple(restricted_span_rank(g, n, p) for n in range(1, 6))
            assert spans == d, (name, p)
            for n in range(1, 6):
                expect, m = 0, n
                while True:
                    expect += b[m - 1]
                    if m % p:
                        break
                    m //= p
                assert d[n - 1] == expect, (name, p, n)
    _done("6: restricted ranks agree on both routes and d_n = sum b_m, "
          "p in {2,3,5}")


def test_criterion_07_lambda_series():
    for name, g in SUITE.items():
        b = series_rank_lcs(g, 5)
        for p in (3, 5):
            lam = series_ranks(g, "lambda", p, 5)
            assert lam == tuple(sum(b[:n]) for n in range(1, 6)), (name, p)
    for d in (2, 3, 4):
        assert (series_ranks(complete_graph(d), "lambda", 3, 5)
                == (d,) * 5)
    # spot-check: g in gamma_m raised to the p^i-th power has
    # varpi_p-valuation >= m + i
    samples = []
    for name, g in SUITE.items():
        pair = next((tuple(sorted(e)) for u in g.vertices for w in g.vertices
                     if u != w and not g.adjacent(u, w)
                     for e in [frozenset((u, w))]), None)
        gens = [(parse_word(v, g), 1) for v in g.vertices[:2]]
        samples.extend((g, w, m) for w, m in gens)
        if pair is not None:
            u, w = pair
            comm = parse_word(f"{u} {w} {u}^-1 {w}^-1", g)
            samples.append((g, comm, 2))
            deep = multiply(multiply(comm, parse_word(u, g), g),
                            multiply(invert(comm, g), parse_word(f"{u}^-1", g), g), g)
            samples.append((g, deep, 3))
    for p in (3, 5):
        for i in (0, 1):
            for g, w, m in samples:
                pw = IDENTITY
                for _ in range(p ** i):
                    pw = multiply(pw, w, g)
                need = m + i
                order = need + 2
                _, v = valuations(pw, g, order, Z, p)
                assert (not v.decided) or v.value >= need, (w, p, i, v)
    _done("7: lambda dims = partial sums of b_m; constant d for K_d; "
          "varpi_p power spot-checks")


def test_criterion_08_magnus_injectivity():
    for name, g in SUITE.items():
        words = ball(g, 3)
        for dom in (Z, Fp(2)):
            seen = {}
            for w in words:
                key = frozenset(magnus(w, g, dom, 7).coeffs.items())
                assert key not in seen, (name, dom, w, seen[key] if key in seen else None)
                seen[key] = w
    _done("8: Magnus images pairwise distinct on radius-3 balls at order 7, "
          "Z and F_2")


def test_criterion_09_leading_monomial():
    rng = random.Random(11)
    for name, g in SUITE.items():
        for p in (2, 3, 5):
            for w in ball(g, 2):
                if w == IDENTITY:
                    continue
                lm = leading_monomial_char_p(w, g, p)
                trace, coeff = leading_monomial_bruteforce(
                    w, g, p, len(lm.trace) + 2)
                assert (trace, coeff) == (lm.trace, lm.coefficient % p), (name, p, w)
    g = SUITE["R5"]
    for _ in range(100):
        sylls = [(rng.choice(g.vertices), rng.choice([-3, -2, -1, 1, 2, 3]))
                 for _ in range(rng.randrange(1, 4))]
        w = reduce_word(sylls, g)
        if w == IDENTITY:
            continue
        for p in (2, 3, 5):
            lm = leading_monomial_char_p(w, g, p)
            trace, coeff = leading_monomial_bruteforce(w, g, p, len(lm.trace) + 2)
            assert (trace, coeff) == (lm.trace, lm.coefficient % p), (p, w)
    _done("9: leading monomial formula matches brute-force extraction, "
          "p in {2,3,5}")


def test_criterion_10_koszul_certificate():
    for name, g in SUITE.items():
        for dom in (Q, Fp(2)):
            rep = verify_resolution(g, 6, dom)
            assert rep.ok, (name, dom, rep)
    _done("10: Koszul d^2 = 0 and sd + ds = 1 - eps, total degree < 6, "
          "Q and F_2")


def test_criterion_11_hopf_malcev():
    rng = random.Random(5)
    N = 6
    for name, g in SUITE.items():
        for v in g.vertices:
            x = exp_series(PCSeries.generator(v, g, Q, N))
            assert is_grouplike(x), (name, v)
            assert coproduct(x) == tensor(x, x), (name, v)
        # grouplike by construction: product of exponentials of primitives
        u = PCSeries.one(g, Q, N)
        for _ in range(3):
            prim = PCSeries.generator(rng.choice(g.vertices), g, Q, N).scale(
                Fraction(rng.randrange(-2, 3)))
            u = u * exp_series(prim)
        assert is_grouplike(u), name
        assert is_primitive(log_series(u)), name
    _done("11: exp(v) grouplike, log of grouplike primitive, order 6")


def test_criterion_12_union_join_identities():
    pairs = [
        (path_graph(3), complete_graph(2)),
        (empty_graph(2), cycle_graph(4)),
        (complete_graph(3), cycle_graph(5)),
    ]
    for g1, g2 in pairs:
        for rep in union_join_identities(g1, g2, ORDER):
            assert rep.holds, (g1, g2, rep)
    _done("12: union/join growth identities, order 10, three graph pairs")
