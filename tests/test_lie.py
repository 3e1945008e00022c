import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import raag.lie
import raag.linalg
import raag.words
from raag.errors import RaagError, ResourceLimitError
from raag.graph import (Graph, clique_counts, complete_graph, cycle_graph,
                        empty_graph, path_graph)
from raag.linalg import rank_of_rows
from raag.lie import (bracket_span_rank, restricted_span_rank, series_rank_lcs,
                      series_rank_restricted, series_ranks, span_ranks)
from raag.magnus import leading_monomial_char_p, valuations
from raag.series import DomainError, Fp, PCSeries, Q, Z, is_primitive
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
        got = series_rank_lcs(g, 40)
        assert got == tuple(witt_rank(d, n) for n in range(1, 41))


def test_abelian_ranks():
    for d in (2, 3, 4):
        g = complete_graph(d)
        assert series_rank_lcs(g, 40) == (d,) + (0,) * 39


def test_series_ranks_match_product_form_oracle():
    for name, g in SUITE.items():
        counts = clique_counts(g)
        assert (list(series_rank_lcs(g, 12))
                == product_form_ranks(counts, 12)), name
        for p in (2, 3, 5):
            assert (list(series_rank_restricted(g, p, 12))
                    == product_form_ranks(counts, 12, p)), (name, p)


@settings(max_examples=40, deadline=None)
@given(graphs_st(), st.sampled_from([None, 2, 3, 7]))
def test_series_ranks_match_product_form_oracle_on_random_graphs(g, p):
    want = product_form_ranks(clique_counts(g), 10, p)
    if p is None:
        assert list(series_rank_lcs(g, 10)) == want
    else:
        assert list(series_rank_restricted(g, p, 10)) == want


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
        series = series_rank_lcs(g, UPTO)
        spans = tuple(bracket_span_rank(g, n, Q) for n in range(1, UPTO + 1))
        assert spans == series


def test_bracket_route_matches_series_route_c5_degree_6():
    g = cycle_graph(5)
    spans = tuple(bracket_span_rank(g, n, Q) for n in range(1, 7))
    assert spans == series_rank_lcs(g, 6) == (5, 5, 15, 40, 124, 365)


def test_e2_reference_values():
    g = empty_graph(2)
    assert series_rank_lcs(g, 5) == (2, 1, 2, 3, 6)


def test_restricted_routes_agree():
    for g in small_suite().values():
        for p in (2, 3):
            series = series_rank_restricted(g, p, UPTO)
            spans = tuple(restricted_span_rank(g, n, p)
                          for n in range(1, UPTO + 1))
            assert spans == series


def test_restricted_is_sum_of_lcs_ranks():
    # d_n = sum of b_m over m * p^i = n
    upto = 60
    for g in SUITE.values():
        for p in (2, 3, 5):
            b = series_rank_lcs(g, upto)
            d = series_rank_restricted(g, p, upto)
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
        b = series_rank_lcs(g, UPTO)
        lam = series_ranks(g, "lambda", 3, UPTO)
        assert lam == tuple(sum(b[:n]) for n in range(1, UPTO + 1))


def test_lambda_dims_constant_for_abelian():
    for d in (2, 3):
        assert (series_ranks(complete_graph(d), "lambda", 5, 4)
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


def test_lyndon_forms_no_product(monkeypatch):
    # a standard factorisation splits the lex-normal t into a prefix and a
    # suffix, both lex-normal already: no letter is inserted
    count = [0]
    real = raag.words._slot

    def counting(*args):
        count[0] += 1
        return real(*args)

    monkeypatch.setattr(raag.words, "_slot", counting)
    monkeypatch.setattr(raag.lie, "_slot", counting)
    g = cycle_graph(5)
    assert [len(raag.lie._lyndon(g, n)) for n in range(1, 7)] == [
        5, 5, 15, 40, 124, 365]
    assert count[0] == 0


@settings(max_examples=60, deadline=None)
@given(graphs_st(max_vertices=5), st.data())
def test_closure_row_is_the_bracket_with_a_letter(g, data):
    # both products of [v, t], against products canonicalised from scratch
    n = data.draw(st.integers(1, 5))
    t = data.draw(st.sampled_from(enumerate_traces(g, n)))
    v = data.draw(st.sampled_from(g.vertices))
    assert (raag.lie._closure_row(v, {t: 1}, g, {})
            == bracket({(v,): 1}, {t: 1}, g))


def _lower(g, c, kept, skip=None):
    """The letters v of content c but skip, each with the rows kept for c
    less v: what `_eliminate` builds block c from."""
    return [(g.vertices[i], kept.get(c[:j] + c[j + 1:], []))
            for j, i in enumerate(c) if (not j or c[j - 1] != i) and i != skip]


def _direct_blocks(g, upto):
    """Every nonzero letter-content block of degrees 1..upto, each reduced
    by `_eliminate` from the rows that its neighbours one degree down kept,
    with every letter, no automorphism and no relabelling: content ->
    (pivots, remainders), and content -> the rows it keeps.  A content is
    the sorted tuple of the vertex indices of its letters."""
    key = raag.lie._k_key(g)
    blocks, kept = {}, {}
    for i, v in enumerate(g.vertices):
        blocks[i,] = {(v,): (key((v,)), 1, {(v,): 1})}, ()
        kept[i,] = [{(v,): 1}]
    layer = list(kept)
    for _ in range(2, upto + 1):
        contents = sorted({tuple(sorted(b + (i,)))
                           for b in layer for i in range(len(g.vertices))})
        layer = []
        for c in contents:
            pivots, remainders = raag.lie._eliminate(g, _lower(g, c, kept), key)
            if pivots or remainders:
                blocks[c] = pivots, remainders
                kept[c] = ([r for _, _, r in pivots.values()]
                           + list(remainders))
                layer.append(c)
    return blocks, kept


def _check_pivot_leads(g, n):
    # the leads of a subspace are unique, and the Lyndon rows lead with
    # their traces, so elimination over the closure rows alone finds Lyndon
    # traces of each content as the pivot leads of its block, and the
    # pivots and the rank of the remainders number them all: when the block
    # is built directly, and when a representative is built from relabelled
    # rows.  A held row that ends its reduction with a lead of +-1 keeps a
    # Lyndon lead out of the pivots, which one depending on the order of the
    # rows; where no row is held, the pivot leads are the Lyndon traces
    lyndon = {}
    for t in lyndon_traces_bruteforce(g, n):
        lyndon.setdefault(tuple(sorted(map(g.index, t))), set()).add(t)
    blocks, _ = _direct_blocks(g, n)
    direct = {c: b for c, b in blocks.items() if len(c) == n}
    assert direct.keys() == lyndon.keys()
    s = raag.lie._span(g)
    for c, (pivots, remainders) in [*direct.items(),
                                    *((c, s.blocks[c]) for c, _ in s.degree(n))]:
        assert set(pivots) <= lyndon[c], c
        assert len(pivots) + rank_of_rows(remainders, Q) == len(lyndon[c]), c
    counts = {tuple(i for i, x in enumerate(a) for _ in range(x)): b
              for a, b in multigraded_ranks(g, n).items() if sum(a) == n}
    assert {c: len(ts) for c, ts in lyndon.items()} == counts


def test_pivot_leads_are_the_lyndon_traces():
    for g in SUITE.values():
        for n in range(1, 7):
            _check_pivot_leads(g, n)


def test_pivot_leads_where_a_held_row_keeps_a_unit_lead(fresh_span):
    # content (0, 1, 2, 2, 3) of this graph, built without the rows of v1:
    # 5 pivots and 1 remainder, led at +1 by the sixth of its 6 Lyndon
    # traces; built directly, 6 pivots
    g = Graph([f"v{i}" for i in range(4)], [("v0", "v1"), ("v1", "v3")])
    _check_pivot_leads(g, 5)
    pivots, remainders = raag.lie._span(g).blocks[0, 1, 2, 2, 3]
    assert (len(pivots), len(remainders)) == (5, 1)
    assert min(remainders[0], key=raag.lie._k_key(g)) == ("v3", "v0", "v2",
                                                          "v2", "v1")
    assert len(_direct_blocks(g, 5)[0][0, 1, 2, 2, 3][0]) == 6


@settings(max_examples=30, deadline=None)
@given(graphs_st(max_vertices=5), st.integers(1, 6))
def test_pivot_leads_are_the_lyndon_traces_on_random_graphs(g, n):
    _check_pivot_leads(g, n)


def _check_orbit_step(g, upto):
    # an automorphism maps a block onto the block of the relabelled content
    # and keeps its rank: every block, built directly, has its orbit
    # representative's rank, and the relabelled rows span what the direct
    # rows span, over Q, F_2 and F_3, alone and stacked together
    blocks, kept = _direct_blocks(g, upto)
    s = raag.lie._span(g)
    for n in range(1, upto + 1):
        reps = s.degree(n)
        orbit = {c: next(iter(s.orbits[c])) for c in blocks if len(c) == n}
        assert set(orbit.values()) == {c for c, _ in reps}
        for c, rep in orbit.items():
            pivots, remainders = s.blocks[rep]
            assert (len(blocks[c][0]) + rank_of_rows(blocks[c][1], Q)
                    == len(pivots) + rank_of_rows(remainders, Q)), (c, rep)
            for domain in (Q, Fp(2), Fp(3)):
                r = rank_of_rows(kept[c], domain)
                assert rank_of_rows(s.kept(c), domain) == r, (c, domain)
                assert rank_of_rows(kept[c] + s.kept(c), domain) == r
        assert (sum(size for _, size in reps)
                == sum(1 for c in blocks if len(c) == n))


def test_orbit_step_keeps_every_block_rank():
    for g in SUITE.values():
        _check_orbit_step(g, 5)


@settings(max_examples=25, deadline=None)
@given(graphs_st(max_vertices=6))
def test_orbit_step_keeps_every_block_rank_on_random_graphs(g):
    _check_orbit_step(g, 5)


def _skip_rows(g, c, kept, a):
    pivots, remainders = raag.lie._eliminate(g, _lower(g, c, kept, a),
                                             raag.lie._k_key(g))
    return [r for _, _, r in pivots.values()] + list(remainders)


def _check_letter_skip(g, upto):
    # L_beta lies in the ideal that a letter a of beta generates, the span
    # of the [y_1, [y_2, ..., [y_k, a]]]; when a occurs once in beta, each
    # of these of content beta is [y_1, w] with y_1 != a.  So every block of
    # degree >= 2, built directly without the rows of a letter it holds
    # once, for each such letter, spans what it spans built with all of its
    # letters, over Q, F_2 and F_3, alone and stacked together
    blocks, kept = _direct_blocks(g, upto)
    for c in [c for c in blocks if len(c) > 1]:
        for a in {i for i in c if c.count(i) == 1}:
            rows = _skip_rows(g, c, kept, a)
            for domain in (Q, Fp(2), Fp(3)):
                r = rank_of_rows(kept[c], domain)
                assert rank_of_rows(rows, domain) == r, (c, a, domain)
                assert rank_of_rows(kept[c] + rows, domain) == r


def test_letter_skip_keeps_every_block_span():
    for g in SUITE.values():
        _check_letter_skip(g, 5)
    # a letter held twice may not be skipped: block a a b of the free group
    # of rank 2 has the one row [a, [a, b]]
    g = empty_graph(2)
    _, kept = _direct_blocks(g, 3)
    assert (len(kept[0, 0, 1]), _skip_rows(g, (0, 0, 1), kept, 0)) == (1, [])


@settings(max_examples=25, deadline=None)
@given(graphs_st(max_vertices=6))
def test_letter_skip_keeps_every_block_span_on_random_graphs(g):
    _check_letter_skip(g, 5)


@settings(max_examples=25, deadline=None)
@given(graphs_st(max_vertices=6), st.data())
def test_span_ranks_do_not_depend_on_vertex_order(g, data):
    # the letter each block skips, and what a degree is charged, follow the
    # vertex order; the ranks do not, on a renamed and reordered copy
    new = dict(zip(g.vertices, data.draw(st.permutations(
        [f"w{i}" for i in range(len(g.vertices))]))))
    h = Graph(data.draw(st.permutations(list(new.values()))),
              [tuple(new[v] for v in e) for e in g.edges])
    for kind, p in (("lcs", 2), ("restricted", 2), ("restricted", 3),
                    ("lambda", 3)):
        assert span_ranks(g, kind, p, 5) == span_ranks(h, kind, p, 5), kind


@pytest.mark.parametrize("kind", ["lcs", "restricted", "lambda"])
def test_relabelling_by_a_non_automorphism_is_caught(kind, monkeypatch,
                                                     fresh_span):
    # a and d of R5 have degrees 2 and 1: swapping them is no automorphism,
    # and the ranks that trust it as one disagree with the series route
    monkeypatch.setattr(raag.lie, "automorphisms", lambda g: [(3, 1, 2, 0, 4)])
    g = SUITE["R5"]
    assert span_ranks(g, kind, 3, 4) != series_ranks(g, kind, 3, 4)


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
                == series_rank_lcs(g, 6))
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


def test_bracket_span_rank_needs_a_field():
    with pytest.raises(DomainError, match="^span rank needs a field domain$"):
        bracket_span_rank(path_graph(3), 2, Z)


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
    assert bracket_span_rank(g, 8, Q) == series_rank_lcs(g, 8)[7] == 3650


def test_span_route_work_count(monkeypatch, fresh_span):
    # on C5 every closure row reduces to zero against the pivots of its
    # block up to degree 7, over Z, so the general elimination receives no
    # row: one empty call for each of the 59 representatives, over each
    # field; the left-normed route handed over 20,940 nonzero rows at n = 7
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
    assert counted == [0] * 118


@pytest.fixture
def fresh_span():
    # the span is cached per graph: rows built under a mutation or a low
    # cap must not outlive the test, nor come from an earlier one
    raag.lie._span.cache_clear()
    yield
    raag.lie._span.cache_clear()


def test_span_work_per_degree(monkeypatch, fresh_span):
    # on C5 each degree spans one block per orbit of the dihedral group of
    # order 10, without the rows of a letter the block holds once: 88
    # closure rows for n <= 6, where all of its letters made 119 and the
    # route that built each degree whole made 945.  Each representative
    # keeps its pivots and no remainder, and the orbits of the
    # representatives cover b_n
    b = (5, 5, 15, 40, 124, 365, 1160)
    reps = (1, 1, 2, 5, 9, 16, 25)
    rows = (0, 1, 2, 7, 19, 59, 173)
    built = []
    real = raag.lie._closure_row
    monkeypatch.setattr(raag.lie, "_closure_row",
                        lambda *args: built.append(1) or real(*args))
    g = cycle_graph(5)
    s = raag.lie._span(g)
    for n in range(1, 8):
        before = len(built)
        degree = s.degree(n)
        assert len(built) - before == rows[n - 1]
        assert len(degree) == reps[n - 1]
        assert sum(size * len(s.blocks[c][0]) for c, size in degree) == b[n - 1]
        assert all(s.blocks[c][1] == () for c, _ in degree)
    assert sum(rows[:6]) == 88


def test_span_route_slot_insertions(monkeypatch, fresh_span):
    # the closure rows of the representatives and the relabelled traces of
    # their neighbours are the only products: with the rows of every letter
    # the span made 3,210 insertions here, the route that built each degree
    # whole 17,046, and the route that also built each Lyndon row
    # [P(u), P(v)] 56,420
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
    assert count[0] == 2_429


@pytest.mark.parametrize("call, cap, stage", [
    (lambda g: bracket_span_rank(g, 9, Q), 10_000,
     r"^lie span \(closure rows\) at degree 8: 25729 states"),
    (lambda g: restricted_span_rank(complete_graph(1), 31, 31), 25,
     r"^restricted span \(p\^i-th powers\) at degree 31: 26 states"),
    (lambda g: bracket_span_rank(empty_graph(12), 4, Q), 20_000,
     r"^content orbits at degree 4: 20008 states"),
    (lambda g: bracket_span_rank(g, 1, Q), 5,
     r"^automorphisms \(search steps\): 6 states"),
], ids=["closure-rows", "powers", "orbits", "automorphisms"])
def test_span_stages_are_charged(call, cap, stage, monkeypatch, fresh_span):
    # each stage is charged for a whole degree: the closure rows of degree
    # 8 on C5 with the terms relabelled for them hold 25,729 states; the
    # 31st power of the one letter of K1 takes 30 products, charged one by
    # one before each is formed; degree 4 of the free group of rank 12 has
    # four orbits of contents, whose searches form images of 28,512
    # letters, the largest 13,200; and the automorphism search on C5 takes
    # 84 steps
    monkeypatch.setenv("RAAG_MAX_STATES", str(cap))
    with pytest.raises(ResourceLimitError, match=stage):
        call(cycle_graph(5))


def test_span_degree_is_charged_whole(monkeypatch, fresh_span):
    # every block of degree 8 on C5 fits under a cap of 10,000 states, the
    # largest with 2,620 closure products, but the degree does not: its 40
    # representatives form 20,016 closure products, and 5,713 terms are
    # relabelled for them.  The degree is charged before any block of it is
    # reduced
    work = []
    real = raag.lie._eliminate

    def counting(g, lower, key):
        work.append(sum(len(r) for _, rows in lower for r in rows))
        return real(g, lower, key)

    monkeypatch.setattr(raag.lie, "_eliminate", counting)
    g = cycle_graph(5)
    raag.lie._span(g).degree(7)
    work.clear()
    raag.lie._span(g).degree(8)
    assert (len(work), max(work), sum(work)) == (40, 2620, 20016)
    raag.lie._span.cache_clear()
    raag.lie._span(g).degree(7)
    work.clear()
    monkeypatch.setenv("RAAG_MAX_STATES", "10000")
    with pytest.raises(ResourceLimitError,
                       match=r"^lie span \(closure rows\) at degree 8: 25729 "):
        bracket_span_rank(g, 8, Q)
    assert work == []


def test_orbit_search_memory_is_bounded_by_the_cap(monkeypatch, fresh_span):
    # the orbit searches of the free group of rank 20 stop at degree 5,
    # after images of 300,000 letters, holding about 5 MB at their peak;
    # searches charged one orbit at a time, one state for each image, held
    # 17 MB and ran on to the end of degree 5
    g = empty_graph(20)
    monkeypatch.setenv("RAAG_MAX_STATES", "300000")
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError,
                           match=r"^content orbits at degree 5: "):
            for n in range(1, 6):
                bracket_span_rank(g, n, Q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10_000_000


def test_content_orbits_are_charged(monkeypatch, fresh_span):
    # the orbit of the letter a under the rotations and reflections of C5
    # holds five contents, and its search is charged the letters of each
    # image it forms, one for each generator it applies
    gens = raag.lie.automorphisms(cycle_graph(5))
    monkeypatch.setattr(raag.lie, "automorphisms", lambda g: gens)
    monkeypatch.setenv("RAAG_MAX_STATES", "4")
    with pytest.raises(ResourceLimitError,
                       match=r"^content orbits at degree 1: 5 states"):
        bracket_span_rank(cycle_graph(5), 1, Q)


def test_wrong_closure_product_is_caught(monkeypatch, fresh_span):
    # one term of the first closure row of degree 4 on C5 gets a wrong
    # trace, its letters reversed: a a c a becomes a c a a, of the same
    # content.  That row becomes a pivot of its block, so degrees 4 and 5
    # still count 40 and 124, but degree 6 builds on it, through the
    # representatives and the blocks relabelled from them, and the ranks
    # disagree
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
    assert bracket_span_rank(g, 6, Q) == 380 != series_rank_lcs(g, 6)[5]
    assert [bracket_span_rank(g, n, Q) for n in (4, 5)] == [40, 124]
    assert spoilt[0] == (("a", "a", "c", "a"), ("a", "c", "a", "a"))


def test_held_row_left_unreduced_is_caught(monkeypatch, fresh_span):
    # the rows held back on this graph, three at degree 6 and ten at degree
    # 7, are not reduced again against the pivots found after them; at
    # degree 7 they then keep entries at pivot traces and add rank
    g = Graph([f"v{i}" for i in range(5)],
              [("v0", "v2"), ("v1", "v2"), ("v2", "v4")])
    real = raag.lie._reduce
    returned = []

    def first_pass_only(row, pivots):
        if any(row is r for r in returned):  # a held row, back at the end
            return dict(row)
        returned.append(real(row, pivots))
        return returned[-1]

    monkeypatch.setattr(raag.lie, "_reduce", first_pass_only)
    for kind in ("lcs", "restricted"):
        raag.lie._span.cache_clear()
        returned.clear()
        assert (span_ranks(g, kind, 3, 7)[6] == 3901
                != series_ranks(g, kind, 3, 7)[6])
