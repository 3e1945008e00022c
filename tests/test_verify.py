import pytest

import raag.exterior
import raag.graph
import raag.koszul
import raag.lie
import raag.magnus
import raag.series
import raag.verify
import raag.words
from raag.graph import cycle_graph, path_graph
from raag.koszul import verify_resolution
from raag.linalg import rank_of_rows
from raag.series import DomainError, Fp, PCSeries, Q
from raag.verify import (COMMUTATOR_DEGREE, KOSZUL_ORDER, LIE_DEGREE,
                         _commutator_parts, verify_all)
from raag.words import GroupWord

from conftest import SUITE, random5_graph
from oracles import commutator_parts_by_products, left_normed_commutator_parts

COMMUTATOR_CHECKS = ("commutator images over Q have rank b_n in degree n",
                     "commutator images over F2 have rank b_n in degree n")


@pytest.mark.parametrize("name", list(SUITE))
def test_verify_all_passes_on_suite(name):
    results = verify_all(SUITE[name])
    assert len(results) == 13
    assert [r for r in results if not r.ok] == []
    assert {r.name for r in results} >= set(COMMUTATOR_CHECKS)


def test_commutator_check_catches_wrong_b3(monkeypatch):
    real = raag.lie.series_rank_lcs

    def wrong_b3(g, upto):
        values = list(real(g, upto))
        values[2] += 1
        return tuple(values)

    monkeypatch.setattr(raag.lie, "series_rank_lcs", wrong_b3)
    results = {r.name: r for r in verify_all(cycle_graph(5))}
    for name in COMMUTATOR_CHECKS:
        assert not results[name].ok
        assert results[name].detail == "ranks=(5, 5, 15)"


@pytest.mark.parametrize("name", list(SUITE))
def test_commutator_parts_match_series_products(name):
    # the basic commutators as reduced words, imaged by `magnus`, against
    # the images of their letters multiplied as series, on Lyndon traces
    # and factorisations found by brute force
    g = SUITE[name]
    assert (_commutator_parts(g, COMMUTATOR_DEGREE)
            == commutator_parts_by_products(g, COMMUTATOR_DEGREE))


@pytest.mark.parametrize("name", list(SUITE))
def test_left_normed_commutators_have_the_basic_rank(name):
    # the |V|^n left-normed commutators span the degree-n Lie component, so
    # their rank bounds the b_n independent basic ones from above: equal
    # ranks show that the basic commutators span it too
    g = SUITE[name]
    ok, basic = _commutator_parts(g, 4)
    ok_ln, left_normed = left_normed_commutator_parts(g, 4)
    assert ok and ok_ln
    for dom in (Q, Fp(2)):
        assert ([rank_of_rows(rows, dom) for rows in left_normed]
                == [rank_of_rows(rows, dom) for rows in basic]
                == [len(rows) for rows in basic])


def test_commutator_parts_form_no_series_product(monkeypatch):
    calls = []
    real = PCSeries.__mul__

    def counting(x, y):
        calls.append(1)
        return real(x, y)

    monkeypatch.setattr(PCSeries, "__mul__", counting)
    g = cycle_graph(5)
    ok, parts = _commutator_parts(g, COMMUTATOR_DEGREE)
    assert ok and [len(rows) for rows in parts] == [5, 5, 15]
    assert calls == []


def test_commutator_parts_build_no_series(lincomb_inits):
    # the images are integer dicts, stepped without a series object
    ok, parts = _commutator_parts(cycle_graph(5), COMMUTATOR_DEGREE)
    assert ok and [len(rows) for rows in parts] == [5, 5, 15]
    assert lincomb_inits == []


def test_verify_all_coerces_few_coefficients(monkeypatch):
    # every Magnus image and Koszul sum stays an integer until it is
    # reduced once; stepping series objects made 15,652 coercions here, and
    # cubing the five letters for the restricted span, not the one letter
    # that represents their orbit, made 16 more.  The duality check makes
    # 25 of the 94: its 5 generators, the 10 nonzero products of the 25,
    # and the 10 sums v_u v_w + v_w v_u on the edges.  The span is cached
    # per graph, so it is cleared first: the count does not depend on
    # which tests ran before
    calls = []
    real = raag.series.Domain.coerce
    monkeypatch.setattr(raag.series.Domain, "coerce",
                        lambda self, x: calls.append(1) or real(self, x))
    raag.lie._span.cache_clear()
    assert all(r.ok for r in verify_all(cycle_graph(5)))
    assert len(calls) == 94


@pytest.mark.parametrize("g, words", [(cycle_graph(5), 25),
                                      (random5_graph(), 26)],
                         ids=["C5", "R5"])
def test_verify_all_images_one_word_per_lyndon_trace(g, words, monkeypatch):
    # b_1 + b_2 + b_3 basic commutators, where the left-normed words were
    # 5 + 25 + 125 = 155 on five vertices; each is imaged at its own order
    orders = []
    real = raag.verify._image
    monkeypatch.setattr(raag.verify, "_image",
                        lambda w, g, order, p=None: orders.append(order)
                        or real(w, g, order, p))
    assert all(r.ok for r in verify_all(g))
    b = raag.lie.series_rank_lcs(g, COMMUTATOR_DEGREE)
    assert len(orders) == sum(b) == words
    assert orders == [n + 1 for n in range(1, 4) for _ in range(b[n - 1])]


def test_verify_all_runs_one_koszul_pass(monkeypatch):
    # Q and F_2 are judged on the same integer sums: the pass does the work
    # of one single-domain check, with as many contractions (s on each of
    # the 1,011 keys of C5 to order 5 and on each of the 765 terms of their
    # d) and as many products formed by the Koszul module
    calls = []
    real_s, real_concat = raag.koszul._Basis.s, raag.koszul._concat
    monkeypatch.setattr(raag.koszul._Basis, "s",
                        lambda *args: calls.append("s") or real_s(*args))
    monkeypatch.setattr(raag.koszul, "_concat",
                        lambda *args: calls.append("_concat")
                        or real_concat(*args))
    g = cycle_graph(5)
    assert verify_resolution(g, KOSZUL_ORDER, Q).ok
    single = sorted(calls)
    calls.clear()
    results = {r.name: r for r in verify_all(g)}
    assert sorted(calls) == single
    assert single.count("s") == 1011 + 765
    for name in ("Q", "F2"):
        assert results[f"Koszul contraction identity over {name}"].ok


def test_commutator_checks_catch_a_dropped_syllable(monkeypatch):
    # every word imaged without its last syllable: [x, c] loses c^-1
    real = raag.verify._image
    monkeypatch.setattr(
        raag.verify, "_image",
        lambda w, *args: real(GroupWord(w.syllables[:-1]), *args))
    results = {r.name: r for r in verify_all(cycle_graph(5))}
    for name in COMMUTATOR_CHECKS:
        assert not results[name].ok


def test_bad_p_is_rejected_before_any_check(monkeypatch):
    calls = []
    real = raag.verify.phi_S
    monkeypatch.setattr(raag.verify, "phi_S",
                        lambda g: calls.append(g) or real(g))
    with pytest.raises(DomainError, match="got 4"):
        verify_all(cycle_graph(5), p=4)
    assert calls == []


def test_clique_check_catches_wrong_count(monkeypatch):
    # an enumeration that misses the last edge of C5 makes Phi_S wrong; the
    # recount by vertex deletion does not enumerate, so the check fails
    real = raag.graph.enumerate_cliques
    monkeypatch.setattr(raag.graph, "enumerate_cliques",
                        lambda g: real(g)[:-1])
    results = {r.name: r for r in verify_all(cycle_graph(5))}
    check = results["clique polynomial matches clique counts"]
    assert not check.ok
    assert check.detail == "counts=[1, 5, 4, 0, 0, 0]"


def test_verify_all_enumerates_cliques_once(monkeypatch):
    # Phi_S, the series ranks and both Koszul checks read the cliques kept
    # on the graph
    calls = []
    real = raag.graph.enumerate_cliques

    def counting(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(raag.graph, "enumerate_cliques", counting)
    g = cycle_graph(5)
    assert all(r.ok for r in verify_all(g))
    assert calls == [g]


def _one_more_edge(real):
    return lambda g: [c + (k == 2) for k, c in enumerate(real(g))]


def test_reciprocity_check_catches_wrong_recount(monkeypatch):
    # Phi_S(-t) comes from the recount by vertex deletion, and Phi_R(t) from
    # the enumerated traces, so a wrong recount fails this check while the
    # trace check, which reads the recurrence, still passes
    monkeypatch.setattr(raag.verify, "_clique_counts_by_deletion",
                        _one_more_edge(raag.verify._clique_counts_by_deletion))
    results = {r.name: r for r in verify_all(cycle_graph(5))}
    assert not results["Phi_R(t) * Phi_S(-t) = 1"].ok
    assert results["trace counts match Phi_R coefficients"].ok


def test_lambda_check_sums_the_span_ranks(monkeypatch):
    # the series route to the exponent-p dimensions sums the series ranks,
    # so a wrong series b_3 moves them with it; only partial sums of the
    # span ranks disagree
    real = raag.lie._mobius_ranks

    def wrong_b3(g, upto, p):
        b = real(g, upto, p)
        return b if p is not None else b[:2] + (b[2] + 1,) + b[3:]

    monkeypatch.setattr(raag.lie, "_mobius_ranks", wrong_b3)
    results = {r.name: r for r in verify_all(cycle_graph(5))}
    assert not results[
        "exponent-p dims are partial sums of lower-central ranks"].ok
    assert results["restricted ranks agree at p=3"].ok


def test_verify_all_computes_each_route_once(monkeypatch):
    # one series recursion for b_n, one for d_n and one for the b_m that the
    # exponent-p dimensions sum; one span of the graph, with one search for
    # its automorphisms, shared by the three kinds, and each block that a
    # degree up to LIE_DEGREE needs reduced once
    calls = []
    real = raag.lie._mobius_ranks
    monkeypatch.setattr(raag.lie, "_mobius_ranks",
                        lambda g, upto, p: calls.append(p) or real(g, upto, p))
    searches = []
    real_search = raag.lie.automorphisms
    monkeypatch.setattr(raag.lie, "automorphisms",
                        lambda g: searches.append(g) or real_search(g))
    reduced = []
    real_eliminate = raag.lie._eliminate
    monkeypatch.setattr(raag.lie, "_eliminate",
                        lambda g, lower, key: reduced.append(1)
                        or real_eliminate(g, lower, key))
    raag.lie._span.cache_clear()
    g = cycle_graph(5)
    assert all(r.ok for r in verify_all(g))
    assert calls == [None, 3, None]
    assert searches == [g]
    assert raag.lie._span.cache_info().misses == 1
    blocks = raag.lie._span(g).blocks
    assert max(map(len, blocks)) == LIE_DEGREE
    assert len(reduced) == sum(1 for c in blocks if len(c) > 1) == 9


def _plus_one(real):
    return lambda *args: real(*args) + 1


def _unsigned(real):
    # every nonzero product of clique basis elements gets sign +1
    def product(c1, c2, g):
        res = real(c1, c2, g)
        return None if res is None else (res[0], 1)
    return product


def _wrong_last_value(real):
    def wrong(*args):
        values = real(*args)
        return values[:-1] + (values[-1] + 1,)
    return wrong


def _dropped_s_image(real):
    # the existing homotopy mutation: s forgets its image of b
    return lambda basis, c, t: (
        None if (basis.cliques[c], basis.traces[t]) == ((), ("b",))
        else real(basis, c, t))


def _dropped_follower(real):
    # the last vertex never follows a letter it is not adjacent to
    def follow(g):
        keep, reset = real(g)
        top = ~(1 << len(g.vertices) - 1)
        return keep, [m & top for m in reset]
    return follow


# For every check of verify_all at p = 3: (module or class, attribute,
# mutation of the real attribute) that makes that check fail on P3.
MUTATIONS = {
    "clique polynomial matches clique counts":
        (raag.graph, "enumerate_cliques", lambda real: lambda g: real(g)[:-1]),
    "Phi_R(t) * Phi_S(-t) = 1":
        (raag.verify, "_clique_counts_by_deletion", _one_more_edge),
    "trace counts match Phi_R coefficients":
        (raag.verify, "phi_R",
         lambda real: lambda g, n: real(g, n)[:-1] + [0]),
    "sphere sizes match Phi_A coefficients":
        (raag.words, "_follow", _dropped_follower),
    "quadratic relation spaces are dual":
        (raag.exterior, "_basis_product", _unsigned),
    "lower-central ranks: series recursion = bracket span":
        (raag.lie, "bracket_span_rank", _plus_one),
    "restricted ranks agree at p=3":
        (raag.lie, "restricted_span_rank", _plus_one),
    "exponent-p dims are partial sums of lower-central ranks":
        # the series route to the dimensions sums the series b_m
        (raag.lie, "series_rank_lcs", _wrong_last_value),
    COMMUTATOR_CHECKS[0]: (raag.verify, "rank_of_rows", _plus_one),
    COMMUTATOR_CHECKS[1]: (raag.verify, "rank_of_rows", _plus_one),
    "truncated images pairwise distinct on the ball":
        (raag.magnus, "_syllable_step",
         lambda real: lambda y, v, cs, order, g, appends, p=None: y),
    "Koszul contraction identity over Q":
        (raag.koszul._Basis, "s", _dropped_s_image),
    "Koszul contraction identity over F2":
        (raag.koszul._Basis, "s", _dropped_s_image),
}


def test_every_check_has_a_mutation():
    # a new check fails here until MUTATIONS shows that it can fail
    assert [r.name for r in verify_all(path_graph(3))] == list(MUTATIONS)


@pytest.mark.parametrize("name", list(MUTATIONS))
def test_mutation_fails_check(name, monkeypatch):
    module, attr, mutate = MUTATIONS[name]
    monkeypatch.setattr(module, attr, mutate(getattr(module, attr)))
    results = {r.name: r for r in verify_all(path_graph(3))}
    assert not results[name].ok
