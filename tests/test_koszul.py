import json
import sys

import pytest
from hypothesis import given, settings

import raag.cli
import raag.koszul
import raag.words
from raag.graph import (Graph, clique_counts, complete_graph, cycle_graph,
                        enumerate_cliques, path_graph)
from raag.koszul import (ResolutionReport, _Basis, _resolution_reports,
                         verify_resolution)
from raag.series import DomainError, Fp, LinComb, Q
from raag.words import canonicalize_trace, enumerate_traces

from conftest import SUITE, graphs_st, small_suite
from oracles import (KoszulElement, bigraded_ranks, contraction,
                     differential, epsilon, koszul_contraction)

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
    # degree 0 is the empty trace alone, which every `_Basis` numbers 0
    assert sorted(calls) == list(range(1, 6))


def test_counterexample_json_lists_names(tmp_path, capsys, monkeypatch):
    f = tmp_path / "p3.json"
    f.write_text(json.dumps(P3.to_dict()))
    rep = ResolutionReport(False, 1, (("a", "b"), ("ab",)), "d^2 != 0")
    monkeypatch.setattr(raag.cli, "verify_resolution", lambda *args: rep)
    assert raag.cli.main(["--graph", str(f), "koszul"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["counterexample"] == {"clique": ["a", "b"], "trace": ["ab"]}


def _check_contraction_against_oracle(g, order):
    basis = _Basis(g, order)
    for c in enumerate_cliques(g):
        for n in range(order - len(c)):
            for t in enumerate_traces(g, n):
                x = KoszulElement.basis(c, t, g, Q, order)
                image = basis.s(basis.key((c, t)))
                want = koszul_contraction(x)
                assert want.coeffs == (
                    {} if image is None else {basis.pair(image): 1})
                assert contraction(x) == want


def test_s_key_matches_bruteforce_contraction(suite_graph):
    _check_contraction_against_oracle(suite_graph, 6)


@settings(max_examples=30, deadline=None)
@given(graphs_st(max_vertices=6))
def test_s_key_matches_bruteforce_contraction_random(g):
    _check_contraction_against_oracle(g, 5)


def test_s_key_recanonicalises_the_rest():
    # b and c both come to the front of (b, c, a) on a - b - c - d; only c
    # is below d and adjacent to it, and (b, a) must become (a, b)
    g = path_graph(4)
    image = (("c", "d"), ("a", "b"))
    basis = _Basis(g, ORDER)
    assert basis.pair(basis.s(basis.key((("d",), ("b", "c", "a"))))) == image
    x = KoszulElement.basis(("d",), ("b", "c", "a"), g, Q, ORDER)
    assert koszul_contraction(x).coeffs == {image: 1}


@pytest.mark.parametrize("order", [0, -3])
def test_verify_resolution_rejects_order_below_one(order):
    with pytest.raises(DomainError):
        verify_resolution(P3, order, Q)


def _scaled_d(factor):
    # multiplies one coefficient of d((b, c), (a)) on K3 by `factor`.  s
    # reaches no key ((b, c), (a, ...)) of K3 from a smaller clique (it
    # would move a, not b), so the change leaves every earlier homotopy
    # check intact, and d.d = 0 is the check that must catch it.  A sign
    # flip (-1) and an even change (3) are invisible over F_2
    x = (("b", "c"), ("a",))
    return lambda real: lambda basis, key: [
        (y, factor * a if j == 1 and basis.pair(key) == x else a)
        for j, (y, a) in enumerate(real(basis, key))]


def _dropped_s(real):
    return lambda basis, key: (None if basis.pair(key) == ((), ("b",))
                               else real(basis, key))


def _faulty_front(real):
    # one wrong product c.(a, b) on K3, formed as (c.(a)).b = (a, c).b
    return lambda t1, letters, g: (
        ("c", "a", "b") if (t1, tuple(letters)) == (("a", "c"), ("b",))
        else real(t1, letters, g))


def test_sign_flip_in_d_fails_d_squared(monkeypatch):
    monkeypatch.setattr(_Basis, "d", _scaled_d(-1)(_Basis.d))
    rep = verify_resolution(complete_graph(3), ORDER, Q)
    assert (rep.ok, rep.reason, rep.counterexample) == (
        False, "d^2 != 0", (("b", "c"), ("a",)))


def test_dropped_s_image_fails_homotopy(monkeypatch):
    monkeypatch.setattr(_Basis, "s", _dropped_s(_Basis.s))
    rep = verify_resolution(P3, ORDER, Q)
    assert (rep.ok, rep.reason) == (False, "sd + ds != 1 - eps")
    assert rep.counterexample == ((), ("b",))
    assert rep.checked == 3  # (), a, b


def test_verify_resolution_builds_no_element(monkeypatch):
    # C5 to order 7 uses front products v.t 23,160 times (10,640 for d,
    # 3,760 for d.d and 8,760 for d.s), and each of the 6,880 distinct ones
    # is formed once per call: the 5 with t = () are (v,), and each of the
    # other 6,875 is one letter inserted into the product for t's prefix.
    # The other 303 calls of the kernel re-canonicalise, once per (letter,
    # trace), the rest of a trace whose s moves a letter other than the
    # first (711 letters), so the check inserts 7,586 letters in all; the
    # trace layers are enumerated before counting
    def no_element(*args):
        raise AssertionError("verify_resolution built a LinComb")

    calls, slots = [0], [0]
    real_concat, real_slot = raag.koszul._concat, raag.words._slot

    def counting_concat(*args):
        calls[0] += 1
        return real_concat(*args)

    def counting_slot(*args):
        slots[0] += 1
        return real_slot(*args)

    g = cycle_graph(5)
    layers = [enumerate_traces(g, n) for n in range(7)]
    monkeypatch.setattr(LinComb, "__init__", no_element)
    monkeypatch.setattr(raag.koszul, "enumerate_traces", lambda g, n: layers[n])
    monkeypatch.setattr(raag.koszul, "_concat", counting_concat)
    monkeypatch.setattr(raag.words, "_slot", counting_slot)
    rep = verify_resolution(g, 7, Q)
    assert (rep.ok, rep.checked) == (True, 13761)
    assert calls[0] == 6875 + 303
    assert slots[0] == 7586


@pytest.mark.parametrize("dom", [Q, Fp(2)], ids=["Q", "F2"])
def test_wrong_front_product_fails_where_it_did_before(dom, monkeypatch):
    # one wrong product c.(a, b) on K3 (`_faulty_front`) is stored once and
    # served to every key that needs it, and to the products built on it;
    # the check must fail at the same key and for the same reason as when
    # each use formed the product anew
    monkeypatch.setattr(raag.koszul, "_concat",
                        _faulty_front(raag.koszul._concat))
    rep = verify_resolution(complete_graph(3), ORDER, dom)
    assert (rep.ok, rep.reason, rep.counterexample, rep.checked) == (
        False, "sd + ds != 1 - eps", (("c",), ("a", "a", "b")), 87)


@settings(max_examples=30, deadline=None)
@given(graphs_st(max_vertices=5))
def test_front_from_prefix_is_canonical(g):
    # v.t built from the product for t's prefix, on traces numbered one by
    # one from the highest degree down, so that ids do not follow degrees
    basis = _Basis(g, 6)
    for n in reversed(range(5)):
        for t in enumerate_traces(g, n):
            basis.trace_id(t)
    end = len(basis.traces)
    basis.fill(end)
    for v, row in zip(g.vertices, basis.fronts):
        assert len(row) == end
        for t, vt in enumerate(row):
            assert basis.traces[vt] == canonicalize_trace(
                (v,) + basis.traces[t], g)


def _pass_basis(g, order):
    # the `_Basis` of one passing pass over Q (hypothesis runs many graphs
    # per test, so the class is swapped by hand, not by the function-scoped
    # monkeypatch fixture)
    bases = []
    real = raag.koszul._Basis
    raag.koszul._Basis = lambda *args: bases.append(real(*args)) or bases[0]
    try:
        assert verify_resolution(g, order, Q).ok
    finally:
        raag.koszul._Basis = real
    [basis] = bases
    return basis


@settings(max_examples=30, deadline=None)
@given(graphs_st(max_vertices=5))
def test_pass_front_table_is_canonical(g):
    # every product the pass formed, read back from its table
    basis = _pass_basis(g, 5)
    for v, row in zip(g.vertices, basis.fronts):
        assert row
        for t, vt in enumerate(row):
            assert basis.traces[vt] == canonicalize_trace(
                (v,) + basis.traces[t], g)


def test_pass_tables_hold_only_what_is_read():
    # 120 vertices, no edges, order 3: 14,641 traces of degree <= 2 and
    # 14,641 + 120 * 121 keys.  d multiplies each letter into each trace of
    # degree <= 1 and s moves the first letter out of each nonempty trace,
    # so each table holds 120 * 121 products, and not one per (letter,
    # trace) pair, which would be 120 * 14,641
    n = 120
    basis = _pass_basis(Graph([f"v{i}" for i in range(n)]), 3)
    assert len(basis.traces) == 1 + n + n * n
    assert all(len(row) == 1 + n for row in basis.fronts)
    assert sum(map(len, basis.rests)) == n * (n + 1)


def test_front_walk_is_iterative():
    # one vertex: the keys (), a, ..., a^299 and (a), a, ..., a^298; and d
    # on a new basis numbers the 300 prefixes of a^300 and fills the table
    # over all of them
    g = Graph(["a"])
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(100)
    try:
        rep = verify_resolution(g, 300, Q)
        basis = _Basis(g, 2)
        [(y, sign)] = basis.d(basis.key((("a",), ("a",) * 300)))
    finally:
        sys.setrecursionlimit(limit)
    assert (rep.ok, rep.checked) == (True, 599)
    assert (basis.pair(y), sign) == (((), ("a",) * 301), 1)


DOMAINS = (Q, Fp(2))


def _one_pass(g, order):
    # the reports of one pass over Q and F_2, which must equal the reports
    # of a pass for each domain alone
    reports = _resolution_reports(g, order, DOMAINS)
    assert reports == [verify_resolution(g, order, dom) for dom in DOMAINS]
    return reports


@pytest.mark.parametrize("name", list(SUITE))
def test_one_pass_reports_match_single_domain_reports(name):
    assert all(rep.ok for rep in _one_pass(SUITE[name], 6))


# fault: (graph, owner, kernel, mutation, (ok over Q, ok over F_2))
FAULTS = {
    "dropped s image": (P3, _Basis, "s", _dropped_s, (False, False)),
    "sign flip in d": (complete_graph(3), _Basis, "d", _scaled_d(-1),
                       (False, True)),
    "faulty front product": (complete_graph(3), raag.koszul, "_concat",
                             _faulty_front, (False, False)),
    "tripled coefficient of d": (complete_graph(3), _Basis, "d",
                                 _scaled_d(3), (False, True)),
}


@pytest.mark.parametrize("fault", list(FAULTS))
def test_one_pass_reports_match_single_domain_reports_under_faults(
        fault, monkeypatch):
    # each domain keeps its own verdict, key count, counterexample and
    # reason; a sign flip and an even change in d are invisible over F_2,
    # so that domain runs on to the end in the pass where Q fails
    g, owner, attr, mutate, verdicts = FAULTS[fault]
    monkeypatch.setattr(owner, attr, mutate(getattr(owner, attr)))
    reports = _one_pass(g, ORDER)
    assert tuple(rep.ok for rep in reports) == verdicts
    if verdicts[1]:
        assert reports[1].checked == sum(bigraded_ranks(g, ORDER).values())
