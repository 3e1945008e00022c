import pytest

from raag.exterior import ExtElement, quadratic_dual_check
from raag.graph import clique_counts, complete_graph, path_graph
from raag.growth import phi_S
from raag.series import DomainError, Z

from conftest import SUITE

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


def test_quadratic_duality():
    for g in SUITE.values():
        assert quadratic_dual_check(g)
