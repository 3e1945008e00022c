import pytest

from raag.errors import ResourceLimitError
from raag.graph import (Graph, GraphError, GraphMorphism, check_full_injective,
                        clique_counts, complete_graph, cycle_graph,
                        disjoint_union, empty_graph, enumerate_cliques,
                        identity_morphism, join, path_graph)

from conftest import SUITE
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


def test_identity_morphism_full_injective():
    g = cycle_graph(4)
    assert check_full_injective(identity_morphism(g))


def test_non_induced_inclusion_not_full():
    # the two path endpoints map to adjacent vertices of the triangle
    src = path_graph(3)
    tgt = complete_graph(3)
    m = GraphMorphism(src, tgt, {"a": "a", "b": "b", "c": "c"})
    assert not check_full_injective(m)


def test_induced_path_in_cycle_is_full():
    c5 = cycle_graph(5)
    src = path_graph(3)
    m = GraphMorphism(src, c5, {"a": "a", "b": "b", "c": "c"})
    assert check_full_injective(m)


def test_edge_collapse_rejected():
    with pytest.raises(GraphError):
        GraphMorphism(complete_graph(2), complete_graph(2), {"a": "a", "b": "a"})
