from itertools import permutations

import pytest
from hypothesis import given, settings

from raag.errors import ResourceLimitError
from raag.graph import (Graph, GraphError, automorphisms, clique_counts,
                        complete_graph, cycle_graph, disjoint_union,
                        empty_graph, enumerate_cliques, join, path_graph)

from conftest import SUITE, graphs_st
from oracles import _truncated_mul, subset_cliques


def test_complete_graph_counts_are_binomial():
    assert clique_counts(complete_graph(3)) == [1, 3, 3, 1]


def test_empty_graph_counts():
    assert clique_counts(empty_graph(2)) == [1, 2, 0]


def test_path_counts():
    # derived by checking all 2^3 vertex subsets
    assert clique_counts(path_graph(3)) == [1, 3, 2, 0]


def test_counts_match_subset_enumeration():
    for g in SUITE.values():
        cliques = enumerate_cliques(g)
        assert sorted(cliques) == sorted(subset_cliques(g))
        assert clique_counts(g)[0] == 1
        assert clique_counts(g)[1] == len(g.vertices)
        assert clique_counts(g)[2] == len(g.edges)


def test_disjoint_union_basic():
    g = disjoint_union(complete_graph(1), complete_graph(1))
    assert len(g.vertices) == 2 and not g.edges
    g = disjoint_union(complete_graph(2), complete_graph(1))
    assert len(g.vertices) == 3 and len(g.edges) == 1
    # names that do not collide are kept
    g = disjoint_union(path_graph(2), Graph(["x", "y"], [("x", "y")]))
    assert g.to_dict() == {"vertices": ["a", "b", "x", "y"],
                           "edges": [["a", "b"], ["x", "y"]]}


def test_union_counts_add():
    g1, g2 = path_graph(3), cycle_graph(4)
    cu = clique_counts(disjoint_union(g1, g2))
    c1, c2 = clique_counts(g1), clique_counts(g2)
    for n in range(1, min(len(c1), len(c2))):
        assert cu[n] == c1[n] + c2[n]


def test_join_is_complete_for_points():
    g = join(complete_graph(1), complete_graph(1))
    assert len(g.vertices) == 2 and len(g.edges) == 1


def test_join_of_empty2_and_point_is_path():
    g = join(empty_graph(2), complete_graph(1))
    assert len(g.edges) == 2 and clique_counts(g) == [1, 3, 2, 0]


def test_join_clique_polys_multiply():
    g1, g2 = path_graph(3), complete_graph(2)
    p1, p2, pj = (clique_counts(g) + [0] * (8 - len(clique_counts(g)))
                  for g in (g1, g2, join(g1, g2)))
    assert pj == _truncated_mul(p1, p2)


def test_graph_validation():
    with pytest.raises(GraphError):
        Graph(["a"], [("a", "a")])
    with pytest.raises(GraphError):
        Graph(["a", "b"], [("a", "b"), ("b", "a")])
    with pytest.raises(GraphError):
        Graph(["a", "a"])
    with pytest.raises(GraphError):
        Graph(["a", "b"], [("a", "c")])


def test_string_vertices_rejected():
    # a string would otherwise be read as one vertex per character
    with pytest.raises(GraphError):
        Graph.from_dict({"vertices": "abc"})
    with pytest.raises(GraphError):
        Graph("abc")


def test_string_edges_rejected():
    with pytest.raises(GraphError):
        Graph.from_dict({"vertices": ["a", "b"], "edges": "ab"})
    with pytest.raises(GraphError):
        Graph.from_dict({"vertices": ["a", "b"], "edges": ["ab"]})


def test_mapping_rejected():
    # a mapping would otherwise be read as the list of its keys
    for data in ({"vertices": {"a": 1}},
                 {"vertices": ["a", "b"], "edges": {"a": "b"}},
                 {"vertices": ["a", "b"], "edges": [{"a": 1, "b": 2}]}):
        with pytest.raises(GraphError, match="must be a list"):
            Graph.from_dict(data)


def test_unknown_key_rejected():
    # every key is read: a misspelt one is an error, not an absent one
    for data, key in (({"vertices": ["a", "b"], "edge": [["a", "b"]]}, "edge"),
                      ({"vertices": ["a"], "edges": [], "name": "x"}, "name")):
        with pytest.raises(GraphError, match=f"^unknown graph key '{key}'"):
            Graph.from_dict(data)


def test_deeply_nested_json_rejected():
    with pytest.raises(GraphError):
        Graph.from_json("[" * 200_000)


def test_vertex_named_one_rejected():
    # parse_word reads the token "1" as the identity
    with pytest.raises(GraphError):
        Graph.from_dict({"vertices": ["1", "a"]})


def test_vertex_name_with_whitespace_rejected():
    for name in ("a b", "a\tb", " a"):
        with pytest.raises(GraphError):
            Graph([name, "c"])


def test_vertex_name_with_caret_rejected():
    for name in ("a^2", "^", "a^"):
        with pytest.raises(GraphError):
            Graph([name, "c"])


def test_graph_json_roundtrip():
    g = path_graph(3)
    assert Graph.from_dict(g.to_dict()) == g
    for g in SUITE.values():
        assert Graph.from_dict(g.to_dict()) == g


def test_vertex_order_is_part_of_identity():
    # every canonical form is lex-normal under the vertex order, so graphs
    # that differ only in vertex order are different graphs
    g1 = Graph(["a", "b"], [("a", "b")])
    g2 = Graph(["b", "a"], [("a", "b")])
    assert g1 != g2
    assert Graph(["a", "b"], [("b", "a")]) == g1
    assert len({g1, g2, Graph(["a", "b"], [("a", "b")])}) == 2


def test_clique_enumeration_respects_state_cap(monkeypatch):
    # K10 has 1,024 cliques
    monkeypatch.setenv("RAAG_MAX_STATES", "100")
    with pytest.raises(ResourceLimitError, match="cliques"):
        enumerate_cliques(complete_graph(10))
    with pytest.raises(ResourceLimitError, match="cliques"):
        clique_counts(complete_graph(10))
    monkeypatch.setenv("RAAG_MAX_STATES", "1024")
    assert clique_counts(complete_graph(10))[5] == 252


def _is_automorphism(g, s):
    return all(g.adjacent(g.vertices[s[g.index(u)]], g.vertices[s[g.index(w)]])
               for u, w in map(tuple, g.edges))


def _group(gens, n):
    """The group the permutations generate, by closure."""
    group, todo = {tuple(range(n))}, [tuple(range(n))]
    for x in todo:
        for s in gens:
            y = tuple(s[i] for i in x)
            if y not in group:
                group.add(y)
                todo.append(y)
    return group


def _check_automorphisms(g):
    # each generator is an automorphism, and they generate all of Aut(g),
    # counted by brute force over every permutation
    n = len(g.vertices)
    gens = automorphisms(g)
    assert all(_is_automorphism(g, s) for s in gens)
    assert _group(gens, n) == {s for s in permutations(range(n))
                               if _is_automorphism(g, s)}


def test_automorphisms_generate_the_group():
    # the first leaf below an individualised vertex of C3 + C4 splits into
    # cells of other sizes than the first path's, so the search moves on
    c3c4 = disjoint_union(cycle_graph(3), cycle_graph(4))
    for g in [*SUITE.values(), c3c4]:
        _check_automorphisms(g)
    assert len(_group(automorphisms(c3c4), 7)) == 48
    assert len(_group(automorphisms(cycle_graph(8)), 8)) == 16


def test_rigid_graph_has_no_automorphism():
    # the Frucht graph is cubic with a trivial group, so every leaf the
    # search reaches must fail on its edges
    lcf = [-5, -2, -4, 2, 5, -2, 2, 5, -2, -5, 4, 2]
    edges = {frozenset((i, (i + 1) % 12)) for i in range(12)}
    edges |= {frozenset((i, (i + d) % 12)) for i, d in enumerate(lcf)}
    g = Graph([f"v{i}" for i in range(12)],
              [tuple(f"v{i}" for i in e) for e in edges])
    assert all(sum(map(g.adjacent, [v] * 12, g.vertices)) == 3
               for v in g.vertices)
    assert automorphisms(g) == []


def test_automorphism_search_backtracks_to_a_match():
    # the Shrikhande graph, the Cayley graph of Z4 x Z4 on +-(1, 0),
    # +-(0, 1) and +-(1, 1), has 192 automorphisms, found after leaves that
    # fail on their cells or their edges
    steps = [(1, 0), (0, 1), (1, 1)]
    g = Graph([f"v{i}" for i in range(16)],
              [(f"v{4 * a + b}", f"v{4 * ((a + x) % 4) + (b + y) % 4}")
               for a in range(4) for b in range(4) for x, y in steps])
    gens = automorphisms(g)
    assert all(_is_automorphism(g, s) for s in gens)
    assert len(_group(gens, 16)) == 192


@settings(max_examples=60, deadline=None)
@given(graphs_st(max_vertices=6))
def test_automorphisms_generate_the_group_on_random_graphs(g):
    _check_automorphisms(g)


def test_automorphism_search_is_charged(monkeypatch):
    # the 15 generators of K16 swap twins, adjacent vertices with one
    # closed neighbourhood, and need no search; the 1,099 twin swaps of an
    # edgeless graph on 1,100 vertices are charged 1,100 steps each
    assert len(automorphisms(complete_graph(16))) == 15
    monkeypatch.setenv("RAAG_MAX_STATES", "100000")
    with pytest.raises(ResourceLimitError,
                       match=r"^automorphisms \(search steps\): "):
        automorphisms(empty_graph(1100))
