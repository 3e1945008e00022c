from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import raag.lie
import raag.linalg
import raag.words
from raag.errors import RaagError, ResourceLimitError
from raag.graph import (Graph, clique_counts, complete_graph, cycle_graph,
                        empty_graph, path_graph)
from raag.lie import (bracket_span_rank, restricted_span_rank, series_rank_lcs,
                      series_rank_restricted, series_ranks, span_ranks)
from raag.magnus import leading_monomial_char_p, valuations
from raag.series import DomainError, Fp, PCSeries, Q, is_primitive
from raag.verify import verify_all
from raag.words import enumerate_traces, parse_word

from conftest import SUITE, graphs_st, small_suite
from oracles import (bracket, left_normed_brackets, left_normed_span_rank,
                     lyndon_brackets, lyndon_traces_bruteforce,
                     multigraded_ranks, product_form_ranks, reverse_rank_key,
                     standard_factorisation_bruteforce, witt_rank)

UPTO = 4


def test_free_group_ranks_are_witt():
    for d in (2, 3):
        g = empty_graph(d)
        got = series_rank_lcs(g, 40).values
        assert got == tuple(witt_rank(d, n) for n in range(1, 41))


def test_abelian_ranks():
    for d in (2, 3, 4):
        g = complete_graph(d)
        assert series_rank_lcs(g, 40).values == (d,) + (0,) * 39


def test_series_ranks_match_product_form_oracle():
    for name, g in SUITE.items():
        counts = clique_counts(g)
        assert (list(series_rank_lcs(g, 12).values)
                == product_form_ranks(counts, 12)), name
        for p in (2, 3, 5):
            assert (list(series_rank_restricted(g, p, 12).values)
                    == product_form_ranks(counts, 12, p)), (name, p)


@settings(max_examples=40, deadline=None)
@given(graphs_st(), st.sampled_from([None, 2, 3, 7]))
def test_series_ranks_match_product_form_oracle_on_random_graphs(g, p):
    want = product_form_ranks(clique_counts(g), 10, p)
    if p is None:
        assert list(series_rank_lcs(g, 10).values) == want
    else:
        assert list(series_rank_restricted(g, p, 10).values) == want


@pytest.mark.parametrize("call", [
    lambda g: series_rank_restricted(g, 1, 4),
    lambda g: series_rank_restricted(g, 4, 4),
    lambda g: series_ranks(g, "lambda", 4, 4),
    lambda g: series_rank_lcs(g, 0),
    lambda g: series_rank_lcs(g, -3),
    lambda g: series_rank_restricted(g, 3, 0),
    lambda g: span_ranks(g, "lambda", 2, 4),
], ids=["restricted-p1", "restricted-p4", "lambda-p4", "upto0", "upto-3",
        "restricted-upto0", "span-lambda-p2"])
def test_series_ranks_reject_bad_input(call):
    with pytest.raises(DomainError):
        call(path_graph(3))


def test_routes_by_kind_reject_an_unknown_kind():
    for route in (series_ranks, span_ranks):
        with pytest.raises(ValueError, match="unknown kind 'lower'"):
            route(path_graph(3), "lower", 3, 4)


def test_series_ranks_resource_bound(monkeypatch):
    # the estimate is (1 + ... + upto) * bit_length(|V|) = 55 * 3 for C5
    monkeypatch.setenv("RAAG_MAX_STATES", "100")
    with pytest.raises(ResourceLimitError,
                       match=r"\(coefficient bits\): 165 states"):
        series_rank_restricted(cycle_graph(5), 2, 10)


def test_bracket_route_matches_series_route():
    for g in SUITE.values():
        series = series_rank_lcs(g, UPTO).values
        spans = tuple(bracket_span_rank(g, n, Q) for n in range(1, UPTO + 1))
        assert spans == series


def test_bracket_route_matches_series_route_c5_degree_6():
    g = cycle_graph(5)
    spans = tuple(bracket_span_rank(g, n, Q) for n in range(1, 7))
    assert spans == series_rank_lcs(g, 6).values == (5, 5, 15, 40, 124, 365)


def test_e2_reference_values():
    g = empty_graph(2)
    assert series_rank_lcs(g, 5).values == (2, 1, 2, 3, 6)


def test_restricted_routes_agree():
    for g in small_suite().values():
        for p in (2, 3):
            series = series_rank_restricted(g, p, UPTO).values
            spans = tuple(restricted_span_rank(g, n, p)
                          for n in range(1, UPTO + 1))
            assert spans == series


def test_restricted_is_sum_of_lcs_ranks():
    # d_n = sum of b_m over m * p^i = n
    upto = 60
    for g in SUITE.values():
        for p in (2, 3, 5):
            b = series_rank_lcs(g, upto).values
            d = series_rank_restricted(g, p, upto).values
            for n in range(1, upto + 1):
                expect, m = 0, n
                while True:
                    expect += b[m - 1]
                    if m % p:
                        break
                    m //= p
                assert d[n - 1] == expect


def test_lambda_dims_partial_sums():
    for g in SUITE.values():
        b = series_rank_lcs(g, UPTO).values
        lam = series_ranks(g, "lambda", 3, UPTO).values
        assert lam == tuple(sum(b[:n]) for n in range(1, UPTO + 1))


def test_lambda_dims_constant_for_abelian():
    for d in (2, 3):
        assert (series_ranks(complete_graph(d), "lambda", 5, 4).values
                == (d,) * 4)


def test_lambda_dims_rejects_p2():
    with pytest.raises(DomainError,
                       match=r"^exponent-p dimensions need p >= 3, got 2$"):
        series_ranks(path_graph(3), "lambda", 2, 3)


@pytest.mark.parametrize("call", [
    lambda g: valuations(parse_word("a", g), g, 4, Q, 4),
    lambda g: leading_monomial_char_p(parse_word("a", g), g, 4),
    lambda g: series_rank_restricted(g, 4, 3),
    lambda g: series_ranks(g, "lambda", 4, 3),
    lambda g: span_ranks(g, "lambda", 4, 3),
    lambda g: restricted_span_rank(g, 2, 4),
    lambda g: verify_all(g, p=4),
], ids=["valuations", "leading-monomial", "series-restricted",
        "series-lambda", "span-lambda", "restricted-span", "verify-all"])
def test_every_prime_goes_through_fp(call):
    # `Fp` is the one primality test, so a bad p reads the same everywhere
    with pytest.raises(DomainError,
                       match=r"^F_p needs a prime p < 2\^31, got 4$"):
        call(path_graph(3))


def test_brackets_antisymmetry_baked_in():
    # degree-2 brackets over empty_graph(2): [a,[b]] = ab - ba
    g = empty_graph(2)
    exps = left_normed_brackets(g, 2)
    target = {("a", "b"): 1, ("b", "a"): -1}
    assert any(dict(e) == target for e in exps)


def test_commuting_bracket_vanishes():
    g = complete_graph(2)
    assert all(not dict(e) for e in left_normed_brackets(g, 2))
    assert bracket_span_rank(g, 2, Q) == 0


def test_primitivity():
    # every degree-n Lyndon bracket is primitive for the coproduct, at
    # truncation order n + 1
    for g in small_suite().values():
        for n in (1, 2, 3):
            for e in lyndon_brackets(g, n).values():
                assert is_primitive(PCSeries(g, Q, n + 1, e.items()))


def test_lyndon_route_matches_left_normed_oracle_c5():
    g = cycle_graph(5)
    for n in range(1, 7):
        assert bracket_span_rank(g, n, Q) == left_normed_span_rank(g, n, Q)
        for p in (2, 3):
            assert (restricted_span_rank(g, n, p)
                    == left_normed_span_rank(g, n, Fp(p), p)), (n, p)


@settings(max_examples=25, deadline=None)
@given(graphs_st(max_vertices=6), st.integers(1, 5),
       st.sampled_from([None, 2, 3]))
def test_lyndon_route_matches_left_normed_oracle_on_random_graphs(g, n, p):
    if p is None:
        assert bracket_span_rank(g, n, Q) == left_normed_span_rank(g, n, Q)
    else:
        assert (restricted_span_rank(g, n, p)
                == left_normed_span_rank(g, n, Fp(p), p))


def test_lyndon_traces_match_bruteforce_definition():
    for name, g in SUITE.items():
        for n in range(1, 7):
            lyndon = raag.lie._lyndon(g, n)
            assert (sorted(lyndon)
                    == sorted(lyndon_traces_bruteforce(g, n))), (name, n)
            assert all(uv == standard_factorisation_bruteforce(t, g)
                       for t, uv in lyndon.items() if n > 1), (name, n)


@settings(max_examples=30, deadline=None)
@given(graphs_st(max_vertices=5), st.integers(1, 6))
def test_lyndon_traces_match_bruteforce_on_random_graphs(g, n):
    assert (sorted(raag.lie._lyndon(g, n))
            == sorted(lyndon_traces_bruteforce(g, n)))


def test_lyndon_candidates_are_charged_as_traces(monkeypatch):
    # the candidates are filtered from the one trace enumeration, whose
    # charge covers every trace of each layer
    monkeypatch.setenv("RAAG_MAX_STATES", "100")
    with pytest.raises(ResourceLimitError,
                       match=r"^enumerate_traces: \d+ states"):
        raag.lie._lyndon(cycle_graph(5), 5)


def test_lyndon_walks_the_traces_once(monkeypatch):
    calls = []
    real = raag.lie.enumerate_traces
    monkeypatch.setattr(raag.lie, "enumerate_traces",
                        lambda g, n: calls.append((g, n)) or real(g, n))
    g = cycle_graph(5)
    for n in range(1, 6):
        calls.clear()
        raag.lie._lyndon(g, n)
        assert calls == [(g, n)]


@settings(max_examples=60, deadline=None)
@given(graphs_st(max_vertices=5), st.data())
def test_closure_row_is_the_bracket_with_a_letter(g, data):
    # both products of [v, t], against products canonicalised from scratch
    n = data.draw(st.integers(1, 5))
    t = data.draw(st.sampled_from(enumerate_traces(g, n)))
    v = data.draw(st.sampled_from(g.vertices))
    assert (raag.lie._closure_row(v, {t: 1}, g, {})
            == bracket({(v,): 1}, {t: 1}, g))


def _check_pivot_leads(g, n):
    # the leads of a subspace are unique, and the Lyndon rows lead with
    # their traces, so elimination over the closure rows alone finds the
    # Lyndon traces as its pivot leads; each row lies in one letter-content
    # block, so the pivots of a block number its multigraded rank
    leads = raag.lie._span(g, n)[0]
    assert sorted(leads) == sorted(lyndon_traces_bruteforce(g, n))
    contents = Counter(tuple(t.count(v) for v in g.vertices) for t in leads)
    assert contents == {a: b for a, b in multigraded_ranks(g, n).items()
                        if sum(a) == n}


def test_pivot_leads_are_the_lyndon_traces():
    for g in SUITE.values():
        for n in range(1, 7):
            _check_pivot_leads(g, n)


@settings(max_examples=30, deadline=None)
@given(graphs_st(max_vertices=5), st.integers(1, 6))
def test_pivot_leads_are_the_lyndon_traces_on_random_graphs(g, n):
    _check_pivot_leads(g, n)


def test_lyndon_bracket_leads_with_its_trace():
    # the Lyndon basis theorem, on the oracle's rows: the K-least term of
    # P(t) is t with coefficient +1 or -1
    for g in (cycle_graph(5), SUITE["R5"], empty_graph(3)):
        key = reverse_rank_key(g)
        for n in range(1, 8):
            for t, e in lyndon_brackets(g, n).items():
                assert min(e, key=key) == t and e[t] in (1, -1), (g, t)


def test_closure_rows_add_no_rank():
    # the closure rows span one dimension per Lyndon trace
    for g in (cycle_graph(5), SUITE["R5"]):
        for n in range(1, 8):
            b = len(raag.lie._lyndon(g, n))
            assert bracket_span_rank(g, n, Q) == b
            assert bracket_span_rank(g, n, Fp(2)) == b


def test_span_route_follows_vertex_order():
    # graphs that differ only in vertex order are distinct graphs, with
    # distinct normal forms of their traces and distinct cache entries
    edges = [("a", "b"), ("b", "c")]
    for order in (["a", "b", "c", "d"], ["d", "c", "b", "a"],
                  ["b", "d", "a", "c"]):
        g = Graph(order, edges)
        key = reverse_rank_key(g)
        assert (tuple(bracket_span_rank(g, n, Q) for n in range(1, 7))
                == series_rank_lcs(g, 6).values)
        for n in range(1, 6):
            assert (sorted(lyndon_brackets(g, n))
                    == sorted(lyndon_traces_bruteforce(g, n)))
            for t, e in lyndon_brackets(g, n).items():
                assert min(e, key=key) == t


@pytest.mark.parametrize("call", [
    lambda g: bracket_span_rank(g, 0, Q),
    lambda g: restricted_span_rank(g, -1, 2),
    lambda g: raag.lie._lyndon(g, 0),
], ids=["bracket", "restricted", "lyndon"])
def test_span_rejects_degree_below_one(call):
    with pytest.raises(ValueError, match="degree must be >= 1"):
        call(path_graph(3))


@pytest.mark.parametrize("call, n", [
    (lambda g: bracket_span_rank(g, 0, Q), 0),
    (lambda g: restricted_span_rank(g, -1, 2), -1),
    (lambda g: raag.lie._lyndon(g, 0), 0),
], ids=["bracket", "restricted", "lyndon"])
def test_degree_below_one_is_a_raag_error(call, n):
    # a caller that catches the package's errors catches a bad degree too
    with pytest.raises(RaagError, match=rf"^degree must be >= 1, got {n}$"):
        call(path_graph(3))


def test_c5_span_route_reaches_degree_8():
    g = cycle_graph(5)
    assert bracket_span_rank(g, 8, Q) == series_rank_lcs(g, 8).values[7] == 3650


def test_span_route_work_count(monkeypatch):
    # on C5 every closure row reduces to zero against the Lyndon rows up to
    # degree 7, over Z, so the general elimination receives no row; the
    # left-normed route handed over 20,940 nonzero rows at n = 7
    counted = []
    real = raag.linalg.rank_of_rows

    def counting(rows, domain):
        rows = list(rows)
        counted.append(len(rows))
        return real(rows, domain)

    monkeypatch.setattr(raag.lie, "rank_of_rows", counting)
    g = cycle_graph(5)
    for domain in (Q, Fp(2)):
        assert (tuple(bracket_span_rank(g, n, domain) for n in range(1, 8))
                == (5, 5, 15, 40, 124, 365, 1160))
    assert counted == [0] * 14


@pytest.fixture
def fresh_span():
    # the span is cached per (graph, degree): rows built under a mutation
    # or a low cap must not outlive the test, nor come from an earlier one
    raag.lie._span.cache_clear()
    yield
    raag.lie._span.cache_clear()


def test_span_work_per_degree(monkeypatch, fresh_span):
    # on C5 each degree builds one closure row per vertex and row kept
    # below, keeps b_n rows, all of them pivots, and leaves no remainder
    b = (5, 5, 15, 40, 124, 365, 1160)
    built = []
    real = raag.lie._closure_row
    monkeypatch.setattr(raag.lie, "_closure_row",
                        lambda *args: built.append(1) or real(*args))
    g = cycle_graph(5)
    for n in range(1, 8):
        before = len(built)
        pivots, remainders = raag.lie._span(g, n)
        assert len(built) - before == (5 * b[n - 2] if n > 1 else 0)
        assert len(raag.lie._kept(g, n)) == len(pivots) == b[n - 1]
        assert remainders == ()


def test_span_route_slot_insertions(monkeypatch, fresh_span):
    # the closure rows are the only products: the route that also built
    # each Lyndon row [P(u), P(v)] made 56,420 insertions here, and 31,550
    # are made when every v.t is canonicalised
    count = [0]
    real = raag.words._slot

    def counting(*args):
        count[0] += 1
        return real(*args)

    monkeypatch.setattr(raag.words, "_slot", counting)
    monkeypatch.setattr(raag.lie, "_slot", counting)
    g = cycle_graph(5)
    assert (tuple(bracket_span_rank(g, n, Q) for n in range(1, 7))
            == (5, 5, 15, 40, 124, 365))
    assert count[0] == 17_046


@pytest.mark.parametrize("call, stage", [
    (lambda g: bracket_span_rank(g, 7, Q),
     r"^lie span \(closure rows\) at degree 5: 1100 states"),
    (lambda g: restricted_span_rank(g, 8, 2),
     r"^restricted span \(p\^i-th powers\) at degree 8: \d+ states"),
], ids=["closure-rows", "powers"])
def test_span_stages_are_charged(call, stage, monkeypatch, fresh_span):
    # degree 5 charges 5 x the 220 terms kept at degree 4; the squares of
    # the degree-4 rows are charged, pair by pair, before the degree-8
    # span is built
    monkeypatch.setenv("RAAG_MAX_STATES", "1000")
    with pytest.raises(ResourceLimitError, match=stage):
        call(cycle_graph(5))


def test_wrong_closure_product_is_caught(monkeypatch, fresh_span):
    # one term of the first closure row of degree 4 on C5 gets a wrong
    # trace, its letters reversed.  That row becomes a pivot, so degree 4
    # still counts 40, but degree 5 builds on it and the ranks disagree
    g = cycle_graph(5)
    real = raag.lie._closure_row
    spoilt = []

    def spoil(v, e, g, products):
        row = real(v, e, g, products)
        if row and len(next(iter(row))) == 4 and not spoilt:
            t = next(iter(row))
            wrong = raag.words.canonicalize_trace(reversed(t), g)
            spoilt.append((t, wrong))
            row = dict(row)
            c = row.pop(t)
            row[wrong] = row.get(wrong, 0) + c
        return {s: c for s, c in row.items() if c}

    monkeypatch.setattr(raag.lie, "_closure_row", spoil)
    assert bracket_span_rank(g, 5, Q) != left_normed_span_rank(g, 5, Q)
    assert spoilt[0][0] != spoilt[0][1]


def test_held_row_left_unreduced_is_caught(monkeypatch, fresh_span):
    # the two rows held back at degree 4 on C5 (each led with coefficient
    # 2 when it was built) are not reduced again against the pivots found
    # after them; they then keep entries at pivot traces and add rank
    g = cycle_graph(5)
    real = raag.lie._reduce
    returned = []

    def first_pass_only(row, pivots):
        if any(row is r for r in returned):  # a held row, back at the end
            return dict(row)
        returned.append(real(row, pivots))
        return returned[-1]

    monkeypatch.setattr(raag.lie, "_reduce", first_pass_only)
    assert bracket_span_rank(g, 4, Q) != left_normed_span_rank(g, 4, Q)
    assert (restricted_span_rank(g, 4, 3)
            != left_normed_span_rank(g, 4, Fp(3), 3))
