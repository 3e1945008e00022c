from fractions import Fraction

from raag.graph import (complete_graph, cycle_graph, disjoint_union,
                        empty_graph, join, path_graph)
from raag.growth import (phi_A, phi_A_ratfunc, phi_R, phi_R_ratfunc, phi_S,
                         union_join_identities)
from raag.useries import USeries
from raag.words import enumerate_traces, sphere_sizes

from conftest import SUITE, small_suite

ORDER = 10


def test_phi_R_counts_traces():
    for g in small_suite().values():
        series = phi_R(g, 5)
        for n in range(5):
            assert series.coeffs[n] == len(enumerate_traces(g, n))


def test_phi_R_closed_forms():
    # free monoid on d letters: 1/(1 - d t)
    for d in (1, 2, 3):
        got = phi_R(empty_graph(d), 6).coeffs
        assert list(got) == [Fraction(d) ** n for n in range(6)]
    # free abelian: 1/(1-t)^d -> binomial(n+d-1, d-1)
    from math import comb
    for d in (2, 3):
        got = phi_R(complete_graph(d), 6).coeffs
        assert list(got) == [Fraction(comb(n + d - 1, d - 1)) for n in range(6)]


def test_reciprocity():
    # Phi_S(t) * Phi_R(-t) = 1
    for g in SUITE.values():
        s = phi_S(g).truncate(ORDER)
        r = phi_R(g, ORDER)
        assert s * r.substitute_neg() == USeries([1], ORDER)


def test_phi_A_matches_bfs():
    for name, g in SUITE.items():
        if len(g.vertices) > 4:
            continue
        spheres = sphere_sizes(g, 4)
        assert phi_A(g, 5).as_ints()[:5] == spheres


def test_ratfunc_forms_expand_to_series():
    for g in SUITE.values():
        assert phi_R_ratfunc(g).series(ORDER) == phi_R(g, ORDER)
        assert phi_A_ratfunc(g).series(ORDER) == phi_A(g, ORDER)


def test_z2_growth_closed_form():
    # Z^2 spheres: 1, 4, 8, 12, ... = coefficients of ((1+t)/(1-t))^2
    assert phi_A(complete_graph(2), 6).as_ints() == [1, 4, 8, 12, 16, 20]


def test_free_group_growth():
    # F_2 spheres: 1, 4, 4*3, 4*3^2, ...
    got = phi_A(empty_graph(2), 5).as_ints()
    assert got == [1, 4, 12, 36, 108]


def test_union_join_identities():
    pairs = [
        (path_graph(3), complete_graph(2)),
        (empty_graph(2), cycle_graph(4)),
        (complete_graph(3), path_graph(2)),
    ]
    for g1, g2 in pairs:
        for rep in union_join_identities(g1, g2, ORDER):
            assert rep.holds, rep
