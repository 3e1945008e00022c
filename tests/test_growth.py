import pytest
from hypothesis import given, settings

from raag.errors import DomainError
from raag.graph import complete_graph, cycle_graph, empty_graph, path_graph
from raag.growth import (RatFunc, phi_A, phi_A_ratfunc, phi_R,
                         phi_R_ratfunc, phi_S, union_join_identities)
from raag.words import enumerate_traces, sphere_sizes

from conftest import SUITE, graphs_st, small_suite
from oracles import _truncated_mul, compose_growth

ORDER = 10


def test_phi_R_counts_traces():
    for g in small_suite().values():
        series = phi_R(g, 5)
        for n in range(5):
            assert series[n] == len(enumerate_traces(g, n))


def test_phi_R_closed_forms():
    # free monoid on d letters: 1/(1 - d t)
    for d in (1, 2, 3):
        got = phi_R(empty_graph(d), 6)
        assert got == [d ** n for n in range(6)]
    # free abelian: 1/(1-t)^d -> binomial(n+d-1, d-1)
    from math import comb
    for d in (2, 3):
        got = phi_R(complete_graph(d), 6)
        assert got == [comb(n + d - 1, d - 1) for n in range(6)]


def test_reciprocity():
    # Phi_S(t) * Phi_R(-t) = 1
    for g in SUITE.values():
        r_neg = [c if n % 2 == 0 else -c for n, c in enumerate(phi_R(g, ORDER))]
        assert _truncated_mul(r_neg, phi_S(g)) == [1] + [0] * (ORDER - 1)


def test_phi_A_matches_bfs():
    for name, g in SUITE.items():
        if len(g.vertices) > 4:
            continue
        spheres = sphere_sizes(g, 4)
        assert phi_A(g, 5)[:5] == spheres


def test_ratfunc_forms_expand_to_series():
    for g in SUITE.values():
        assert phi_R_ratfunc(g).series(ORDER) == phi_R(g, ORDER)
        assert phi_A_ratfunc(g).series(ORDER) == phi_A(g, ORDER)
        assert phi_A(g, ORDER) == compose_growth(phi_R(g, ORDER))


def test_ratfunc_rejects_negative_powers():
    with pytest.raises(DomainError, match="^negative powers are not supported$"):
        RatFunc([1], [1, -1]) ** -1


@pytest.mark.parametrize("den", [[2, 1], [0, 1], [-1]])
def test_ratfunc_needs_unit_constant_denominator(den):
    # the recurrence divides by nothing, so den[0] must be exactly 1
    with pytest.raises(DomainError):
        RatFunc([1], den)


def test_z2_growth_closed_form():
    # Z^2 spheres: 1, 4, 8, 12, ... = coefficients of ((1+t)/(1-t))^2
    assert phi_A(complete_graph(2), 6) == [1, 4, 8, 12, 16, 20]


def test_free_group_growth():
    # F_2 spheres: 1, 4, 4*3, 4*3^2, ...
    got = phi_A(empty_graph(2), 5)
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


@settings(max_examples=40, deadline=None)
@given(graphs_st(max_vertices=6))
def test_series_routes_agree_on_random_graphs(g):
    # the recurrence against the composition Phi_R(2t/(1+t)), and Phi_R
    # against the clique polynomial: Phi_R(t) * Phi_S(-t) = 1
    order = 30
    r = phi_R(g, order)
    assert phi_A(g, order) == compose_growth(r)
    s_neg = [c if n % 2 == 0 else -c for n, c in enumerate(phi_S(g))]
    assert _truncated_mul(r, s_neg) == [1] + [0] * (order - 1)
