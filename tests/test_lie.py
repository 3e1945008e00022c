from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import raag.lie
import raag.linalg
from raag.errors import ResourceLimitError
from raag.graph import (Graph, clique_counts, complete_graph, cycle_graph,
                        empty_graph, path_graph)
from raag.lie import (bracket_span_rank, lambda_dims, lyndon_brackets,
                      restricted_span_rank, series_rank_lcs,
                      series_rank_restricted)
from raag.series import DomainError, Fp, PCSeries, Q, is_primitive

from conftest import SUITE, graphs_st, small_suite
from oracles import (left_normed_brackets, left_normed_span_rank,
                     lyndon_traces_bruteforce, multigraded_ranks,
                     product_form_ranks, reverse_rank_key, witt_rank)

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
    lambda g: lambda_dims(g, 4, 4),
    lambda g: series_rank_lcs(g, 0),
    lambda g: series_rank_lcs(g, -3),
    lambda g: series_rank_restricted(g, 3, 0),
], ids=["restricted-p1", "restricted-p4", "lambda-p4", "upto0", "upto-3",
        "restricted-upto0"])
def test_series_ranks_reject_bad_input(call):
    with pytest.raises(DomainError):
        call(path_graph(3))


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
        lam = lambda_dims(g, 3, UPTO).values
        assert lam == tuple(sum(b[:n]) for n in range(1, UPTO + 1))


def test_lambda_dims_constant_for_abelian():
    for d in (2, 3):
        assert lambda_dims(complete_graph(d), 5, 4).values == (d,) * 4


def test_lambda_dims_rejects_p2():
    with pytest.raises(DomainError):
        lambda_dims(path_graph(3), 2, 3)


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
            assert (sorted(lyndon_brackets(g, n))
                    == sorted(lyndon_traces_bruteforce(g, n))), (name, n)


@settings(max_examples=30, deadline=None)
@given(graphs_st(max_vertices=5), st.integers(1, 6))
def test_lyndon_traces_match_bruteforce_on_random_graphs(g, n):
    assert sorted(lyndon_brackets(g, n)) == sorted(lyndon_traces_bruteforce(g, n))


def test_lyndon_bracket_leads_with_its_trace():
    # the K-least term of P(t) is t with coefficient +1 or -1
    for g in (cycle_graph(5), SUITE["R5"], empty_graph(3)):
        key = reverse_rank_key(g)
        for n in range(1, 8):
            for t, e in lyndon_brackets(g, n).items():
                assert min(e, key=key) == t and e[t] in (1, -1), (g, t)


def test_closure_rows_add_no_rank():
    # the closure rows [v, P(l)] lie in the span of the Lyndon rows
    for g in (cycle_graph(5), SUITE["R5"]):
        for n in range(1, 8):
            b = len(lyndon_brackets(g, n))
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
    lambda g: lyndon_brackets(g, 0),
], ids=["bracket", "restricted", "lyndon"])
def test_span_rejects_degree_below_one(call):
    with pytest.raises(ValueError, match="degree must be >= 1"):
        call(path_graph(3))


def test_c5_span_route_reaches_degree_8():
    g = cycle_graph(5)
    assert bracket_span_rank(g, 8, Q) == series_rank_lcs(g, 8).values[7] == 3650


@settings(max_examples=40, deadline=None)
@given(graphs_st(max_vertices=4))
def test_lyndon_traces_per_content_match_multigraded_ranks(g):
    contents = Counter(tuple(t.count(v) for v in g.vertices)
                       for n in range(1, 6) for t in lyndon_brackets(g, n))
    assert contents == multigraded_ranks(g, 5)


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
    # the Lyndon rows and the span are cached per (graph, degree): rows
    # built under a mutation must not outlive the test
    def clear():
        raag.lie._lyndon.cache_clear()
        raag.lie._span.cache_clear()

    clear()
    yield clear
    clear()


@pytest.mark.parametrize("mutation", ["lead-doubled", "smaller-lead-added"])
def test_lead_check_catches_a_wrong_lyndon_row(mutation, monkeypatch,
                                               fresh_span):
    # one Lyndon row of degree 4 on C5 is spoilt: its lead coefficient
    # becomes +-2, or the row of the K-least Lyndon trace is added to it.
    # Either row fails the lead check, is left out of the pivots and is
    # reduced like a closure row, so the span ranks still match the
    # left-normed oracle
    g, n = cycle_graph(5), 4
    key = reverse_rank_key(g)
    rows = lyndon_brackets(g, n)
    least = min(rows, key=key)
    fresh_span()
    real = raag.lie._bracket
    spoilt = []

    def spoil(a, b, g):
        e = real(a, b, g)
        t = min(e, key=key)
        if len(t) == n and t != least and not spoilt:
            spoilt.append(t)
            if mutation == "lead-doubled":
                return {s: 2 * c for s, c in e.items()}
            out = dict(e)
            for s, c in rows[least].items():
                out[s] = out.get(s, 0) + c
            return {s: c for s, c in out.items() if c}
        return e

    monkeypatch.setattr(raag.lie, "_bracket", spoil)
    assert bracket_span_rank(g, n, Q) == left_normed_span_rank(g, n, Q)
    wrong = lyndon_brackets(g, n)[spoilt[0]]
    assert wrong[spoilt[0]] in (2, -2) or min(wrong, key=key) == least
    assert spoilt[0] not in raag.lie._span(g, n)[0]
    for p in (2, 3):
        assert (bracket_span_rank(g, n, Fp(p))
                == left_normed_span_rank(g, n, Fp(p)))
        assert (restricted_span_rank(g, n, p)
                == left_normed_span_rank(g, n, Fp(p), p))
