import sys
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))

from raag.graph import (Graph, complete_graph, cycle_graph, empty_graph,
                        path_graph)
from raag.series import LinComb


def random5_graph() -> Graph:
    # the fixed "random" five-vertex suite graph: a triangle with two pendants
    return Graph(["a", "b", "c", "d", "e"],
                 [("a", "b"), ("a", "c"), ("b", "c"), ("b", "d"), ("c", "e")])


SUITE = {
    "K3": complete_graph(3),
    "E3": empty_graph(3),
    "P3": path_graph(3),
    "C4": cycle_graph(4),
    "C5": cycle_graph(5),
    "R5": random5_graph(),
}


@pytest.fixture()
def lincomb_inits(monkeypatch):
    """The class of every `LinComb` built while the test runs."""
    calls = []
    real = LinComb.__init__
    monkeypatch.setattr(LinComb, "__init__",
                        lambda self, *args: calls.append(type(self))
                        or real(self, *args))
    return calls


@pytest.fixture(params=list(SUITE), ids=list(SUITE))
def suite_graph(request):
    return SUITE[request.param]


def small_suite():
    """The suite members cheap enough for exhaustive BFS work."""
    return {k: g for k, g in SUITE.items() if len(g.vertices) <= 4}


@st.composite
def graphs_st(draw, max_vertices: int = 7):
    """Random graphs on v0, v1, ... with at most `max_vertices` vertices."""
    vertices = [f"v{i}" for i in range(draw(st.integers(1, max_vertices)))]
    pairs = list(combinations(vertices, 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs),
                         max_size=len(pairs)))
    return Graph(vertices, [e for e, k in zip(pairs, keep) if k])
