from math import comb

import raag.koszul
from raag.graph import (clique_counts, complete_graph, cycle_graph, empty_graph,
                        path_graph)
from raag.koszul import (KoszulElement, ResolutionReport, bigraded_ranks,
                         contraction, differential, epsilon,
                         verify_resolution)
from raag.series import Fp, Q
from raag.words import enumerate_traces

from conftest import SUITE, small_suite

P3 = path_graph(3)
ORDER = 5


def test_differential_on_edge_clique():
    # d(e_{ab} ⊗ 1) = a·(e_b ⊗ 1 shifted) - b·(e_a ⊗ ...): signs alternate
    x = KoszulElement.basis(("a", "b"), (), P3, Q, ORDER)
    dx = differential(x)
    assert set(dx.coeffs) == {(("b",), ("a",)), (("a",), ("b",))}
    assert sum(dx.coeffs.values()) == 0  # opposite signs


def test_d_squared_zero_spot():
    g = complete_graph(3)
    x = KoszulElement.basis(("a", "b", "c"), (), g, Q, ORDER)
    assert differential(differential(x)).is_zero()


def test_contraction_inverts_differential_on_basis():
    x = KoszulElement.basis((), ("a",), P3, Q, ORDER)
    hx = contraction(x)
    assert set(hx.coeffs) == {(("a",), ())}
    assert differential(hx) + contraction(differential(x)) == x - epsilon(x)


def test_epsilon_projects_to_degree_zero():
    one = KoszulElement.basis((), (), P3, Q, ORDER)
    assert epsilon(one) == one
    x = KoszulElement.basis((), ("a",), P3, Q, ORDER)
    assert epsilon(x).is_zero()


def test_verify_resolution_suite():
    for g in SUITE.values():
        for dom in (Q, Fp(2)):
            rep = verify_resolution(g, 4, dom)
            assert rep.ok, (g, rep)
        assert verify_resolution(g, 4, Fp(3)).ok


def test_bigraded_ranks_factor():
    for g in small_suite().values():
        cc = clique_counts(g)
        ranks = bigraded_ranks(g, ORDER)
        for (k, n), r in ranks.items():
            assert r == cc[k] * len(enumerate_traces(g, n))


def test_euler_characteristic_vanishes():
    # sum_k (-1)^k c_k * trace_count(n-k) = 0 for 0 < n < order,
    # i.e. Phi_S(-t) * Phi_R(t) = 1 realized on the Koszul bigrading
    for g in SUITE.values():
        cc = clique_counts(g)
        ranks = bigraded_ranks(g, ORDER)
        for n in range(1, ORDER):
            chi = sum((-1) ** k * ranks.get((k, n - k), 0)
                      for k in range(min(n, len(cc) - 1) + 1))
            assert chi == 0


def test_verify_resolution_enumerates_each_degree_once(monkeypatch):
    calls = []

    def counting(g, n):
        calls.append(n)
        return enumerate_traces(g, n)

    monkeypatch.setattr(raag.koszul, "enumerate_traces", counting)
    assert verify_resolution(cycle_graph(5), 6, Q).ok
    assert sorted(calls) == list(range(6))
    calls.clear()
    bigraded_ranks(cycle_graph(5), 6)
    assert sorted(calls) == list(range(6))


def test_counterexample_json_lists_names():
    rep = ResolutionReport(False, 1, (("a", "b"), ("ab",)), "d^2 != 0")
    assert rep.to_json_obj()["counterexample"] == {"clique": ["a", "b"],
                                                   "trace": ["ab"]}
