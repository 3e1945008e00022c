import dataclasses

import pytest

import raag.graph
import raag.verify
from raag.graph import cycle_graph
from raag.verify import verify_all

from conftest import SUITE

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
