import pytest
from hypothesis import assume, given

import raag.exterior
from raag.exterior import ExtElement, quadratic_dual_check
from raag.graph import (Graph, clique_counts, complete_graph, cycle_graph,
                        empty_graph, path_graph)
from raag.growth import phi_S
from raag.series import DomainError, Z

from conftest import SUITE, graphs_st

P3 = path_graph(3)


def basis(g, clique):
    return ExtElement.basis(clique, g, Z)


def test_edge_product_and_anticommutation():
    # the basis clique {a,b} denotes the descending product b·a,
    # so a·b carries a sign and b·a does not
    a, b = basis(P3, ["a"]), basis(P3, ["b"])
    assert (b * a).coeffs == {("a", "b"): 1}
    assert (a * b).coeffs == {("a", "b"): -1}
    assert (a * b + b * a).is_zero()


def test_non_clique_product_vanishes():
    a, c = basis(P3, ["a"]), basis(P3, ["c"])
    assert (a * c).coeffs == {}


def test_square_zero():
    for g in SUITE.values():
        for v in g.vertices:
            x = basis(g, [v])
            assert (x * x).is_zero()


def test_unit():
    one = ExtElement.one(P3, Z)
    x = basis(P3, ["a"]) + basis(P3, ["b", "c"]).scale(3)
    assert one * x == x and x * one == x


def test_graded_commutativity():
    g = complete_graph(3)
    ab, c = basis(g, ["a", "b"]), basis(g, ["c"])
    # deg 2 times deg 1 commutes: sign (-1)^{2*1} = +1
    assert ab * c == c * ab
    assert (ab * c).coeffs == {("a", "b", "c"): 1}


def test_associativity_exhaustive_k3():
    g = complete_graph(3)
    singles = [basis(g, [v]) for v in g.vertices]
    for x in singles:
        for y in singles:
            for z in singles:
                assert (x * y) * z == x * (y * z)


def test_top_class_sign():
    g = complete_graph(3)
    a, b, c = (basis(g, [v]) for v in "abc")
    # c*b*a is already in decreasing order: coefficient +1
    assert (c * b * a).coeffs == {("a", "b", "c"): 1}
    assert (a * b * c).coeffs == {("a", "b", "c"): -1}
    assert (b * a * c).coeffs == {("a", "b", "c"): 1}


def test_poincare_poly_is_clique_counts():
    for g in SUITE.values():
        cc = clique_counts(g)
        assert phi_S(g) == cc


def test_invalid_basis_rejected():
    with pytest.raises(DomainError):
        ExtElement.basis(("a", "c"), P3, Z)  # not a clique


LARGE = {"C12": cycle_graph(12), "E12": empty_graph(12),
         "K16": complete_graph(16)}


def test_quadratic_duality():
    for g in [*SUITE.values(), *LARGE.values()]:
        assert quadratic_dual_check(g)


@given(graphs_st())
def test_quadratic_duality_on_random_graphs(g):
    assert quadratic_dual_check(g)


def _unsigned_check(g):
    # the check with every nonzero product of basis elements signed +1
    real = raag.exterior._basis_product

    def product(c1, c2, g):
        res = real(c1, c2, g)
        return None if res is None else (res[0], 1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(raag.exterior, "_basis_product", product)
        return quadratic_dual_check(g)


def _dropped_edge_check(g):
    # the check with the least edge refused as a clique; the edge stays in
    # the graph, as `adjacent` defines it
    edge = set(min(map(sorted, g.edges)))
    real = Graph.is_clique
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Graph, "is_clique",
                   lambda self, members: set(members) != edge
                   and real(self, members))
        return quadratic_dual_check(g)


FAULTS = [_unsigned_check, _dropped_edge_check]


@pytest.mark.parametrize("fault", FAULTS)
def test_algebra_faults_fail_duality(fault):
    for g in [*SUITE.values(), *LARGE.values()]:
        if g.edges:
            assert not fault(g), g


@given(graphs_st())
def test_algebra_faults_fail_duality_on_random_graphs(g):
    assume(g.edges)
    for fault in FAULTS:
        assert not fault(g)
