import dataclasses

import pytest

import raag.exterior
import raag.graph
import raag.koszul
import raag.magnus
import raag.verify
import raag.words
from raag.graph import cycle_graph, path_graph
from raag.magnus import magnus_exp
from raag.series import DomainError, PCSeries
from raag.verify import _commutator_parts, verify_all
from raag.words import GroupWord, parse_word

from conftest import SUITE
from oracles import commutator_parts_by_products

COMMUTATOR_CHECKS = ("commutator images over Q have rank b_n in degree n",
                     "commutator images over F2 have rank b_n in degree n")


@pytest.mark.parametrize("name", list(SUITE))
def test_verify_all_passes_on_suite(name):
    results = verify_all(SUITE[name])
    assert len(results) == 13
    assert [r for r in results if not r.ok] == []
    assert {r.name for r in results} >= set(COMMUTATOR_CHECKS)


def test_commutator_check_catches_wrong_b3(monkeypatch):
    real = raag.verify.series_rank_lcs

    def wrong_b3(g, upto):
        table = real(g, upto)
        values = list(table.values)
        values[2] += 1
        return dataclasses.replace(table, values=tuple(values))

    monkeypatch.setattr(raag.verify, "series_rank_lcs", wrong_b3)
    results = {r.name: r for r in verify_all(cycle_graph(5))}
    for name in COMMUTATOR_CHECKS:
        assert not results[name].ok
        assert results[name].detail == "ranks=(5, 5, 15)"


@pytest.mark.parametrize("name", list(SUITE))
def test_commutator_parts_match_series_products(name):
    # the commutators as reduced words, imaged by `magnus`, against the
    # images of their letters multiplied as series
    g = SUITE[name]
    assert _commutator_parts(g) == commutator_parts_by_products(g)


def test_commutator_parts_and_magnus_exp_form_no_series_product(monkeypatch):
    calls = []
    real = PCSeries.__mul__

    def counting(x, y):
        calls.append(1)
        return real(x, y)

    monkeypatch.setattr(PCSeries, "__mul__", counting)
    g = cycle_graph(5)
    ok, parts = _commutator_parts(g)
    assert ok and [len(rows) for rows in parts] == [5, 10, 40]
    magnus_exp(parse_word("a^2 c^-1 b e^3", g), g, 6)
    assert calls == []


def test_commutator_checks_catch_a_dropped_syllable(monkeypatch):
    # every word imaged without its last syllable: [x, c] loses c^-1
    real = raag.verify.magnus
    monkeypatch.setattr(
        raag.verify, "magnus",
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


def _plus_one(real):
    return lambda *args: real(*args) + 1


def _wrong_last_value(real):
    def wrong(*args):
        table = real(*args)
        return dataclasses.replace(
            table, values=table.values[:-1] + (table.values[-1] + 1,))
    return wrong


def _dropped_s_image(real):
    # the existing homotopy mutation: s forgets its image of b
    return lambda key, g: None if key == ((), ("b",)) else real(key, g)


# For every check of verify_all at p = 3: (module, attribute, mutation of
# the real attribute) that makes that check fail on P3.
MUTATIONS = {
    "clique polynomial matches clique counts":
        (raag.graph, "enumerate_cliques", lambda real: lambda g: real(g)[:-1]),
    "Phi_R(t) * Phi_S(-t) = 1":
        (raag.verify, "_clique_counts_by_deletion", _one_more_edge),
    "trace counts match Phi_R coefficients":
        (raag.verify, "phi_R",
         lambda real: lambda g, n: real(g, n)[:-1] + [0]),
    "sphere sizes match Phi_A coefficients":
        (raag.words, "_extensions", lambda real: lambda *a: real(*a)[:-1]),
    "quadratic relation spaces are dual":
        (raag.exterior, "rank_of_rows", _plus_one),
    "lower-central ranks: series recursion = bracket span":
        (raag.verify, "bracket_span_rank", _plus_one),
    "restricted ranks agree at p=3":
        (raag.verify, "restricted_span_rank", _plus_one),
    "exponent-p dims are partial sums of lower-central ranks":
        (raag.verify, "lambda_dims", _wrong_last_value),
    COMMUTATOR_CHECKS[0]: (raag.verify, "rank_of_rows", _plus_one),
    COMMUTATOR_CHECKS[1]: (raag.verify, "rank_of_rows", _plus_one),
    "truncated images pairwise distinct on the ball":
        (raag.magnus, "_syllable_step", lambda real: lambda y, v, cs, appends: y),
    "Koszul contraction identity over Q":
        (raag.koszul, "_s_key", _dropped_s_image),
    "Koszul contraction identity over F2":
        (raag.koszul, "_s_key", _dropped_s_image),
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
