"""Finite simple graphs with a fixed vertex order, and their cliques.

The vertex order (declaration order) is the single global tie-breaker used
by every canonical form in the package, so it is part of a graph's
identity: graphs that differ only in vertex order are unequal.
"""

from __future__ import annotations

import json
from typing import Iterable, Mapping

from raag.errors import (RaagError, UnknownGeneratorError, check_states,
                          max_states)


class GraphError(RaagError, ValueError):
    pass


class Graph:
    """Finite simple graph; vertices keep their declaration order."""

    __slots__ = ("vertices", "edges", "_index", "_adj", "_nbrs", "_cliques")

    def __init__(self, vertices: Iterable[str], edges: Iterable[tuple[str, str]] = ()):
        verts = _sequence(vertices, "vertices")
        for v in verts:
            if not v or not isinstance(v, str) or not v.isascii():
                raise GraphError(f"vertex name must be a nonempty ASCII string: {v!r}")
            if v == "1" or "^" in v or v.split() != [v]:
                # parse_word reads "1" as the identity, splits on whitespace
                # and takes "^" as the exponent mark
                raise GraphError(f"vertex name {v!r} cannot be read as a word token")
        if len(set(verts)) != len(verts):
            raise GraphError("duplicate vertex names")
        index = {v: i for i, v in enumerate(verts)}
        edge_set: set[frozenset[str]] = set()
        for e in _sequence(edges, "edges"):
            pair = _sequence(e, "an edge")
            if len(pair) != 2:
                raise GraphError(f"edge {e!r} is not a pair of vertex names")
            u, w = pair
            if u not in verts or w not in verts:
                raise GraphError(f"edge {e!r} has endpoint outside the vertex set")
            if u == w:
                raise GraphError(f"self-loop at {u!r}")
            fe = frozenset((u, w))
            if fe in edge_set:
                raise GraphError(f"duplicate edge {e!r}")
            edge_set.add(fe)
        adj: dict[str, set[str]] = {v: set() for v in verts}
        for fe in edge_set:
            u, w = tuple(fe)
            adj[u].add(w)
            adj[w].add(u)
        self.vertices = verts
        self.edges = frozenset(edge_set)
        self._index = index
        self._adj = adj
        # neighbour bitmasks: bit j of _nbrs[i] is set iff vertex i is
        # adjacent to vertex j
        self._nbrs = tuple(sum(1 << index[u] for u in adj[v]) for v in verts)

    # -- basic queries -------------------------------------------------

    def index(self, v: str) -> int:
        try:
            return self._index[v]
        except KeyError:
            raise UnknownGeneratorError(f"unknown generator {v!r}") from None

    def __contains__(self, v: str) -> bool:
        return v in self._index

    def adjacent(self, u: str, v: str) -> bool:
        return v in self._adj[u]

    def is_clique(self, members: Iterable[str]) -> bool:
        ms = list(members)
        for i, u in enumerate(ms):
            if u not in self._index:
                return False
            for w in ms[i + 1 :]:
                if not self.adjacent(u, w):
                    return False
        return True

    def sort_vertices(self, vs: Iterable[str]) -> tuple[str, ...]:
        return tuple(sorted(vs, key=self.index))

    def cliques(self) -> tuple[tuple[str, ...], ...]:
        """The cliques as `enumerate_cliques` lists them, enumerated on the
        first call and kept on this instance."""
        try:
            return self._cliques
        except AttributeError:
            self._cliques = tuple(enumerate_cliques(self))
            return self._cliques

    def __eq__(self, other) -> bool:
        return (isinstance(other, Graph) and self.vertices == other.vertices
                and self.edges == other.edges)

    def __hash__(self) -> int:
        return hash((self.vertices, self.edges))

    def __repr__(self) -> str:
        return f"Graph({list(self.vertices)!r}, {sorted(map(sorted, self.edges))!r})"

    # -- (de)serialization ---------------------------------------------

    @classmethod
    def from_dict(cls, data: Mapping) -> "Graph":
        try:
            vertices = data["vertices"]
            edges = data.get("edges", [])
            unknown = [k for k in data if k not in ("vertices", "edges")]
        except (TypeError, KeyError) as exc:
            raise GraphError(f"bad graph object: {exc}") from exc
        if unknown:
            # a misspelt "edges" must not read as a graph without edges
            raise GraphError(f"unknown graph key {unknown[0]!r}: a graph has "
                             f"only 'vertices' and 'edges'")
        return cls(vertices, edges)

    @classmethod
    def from_json(cls, text: str) -> "Graph":
        try:
            data = json.loads(text)
        except RecursionError:
            raise GraphError("graph JSON is nested too deeply") from None
        return cls.from_dict(data)

    def to_dict(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "edges": sorted(sorted(e) for e in self.edges),
        }


def _sequence(items, what: str) -> tuple:
    """The items of a JSON-style list; a string is not a list of names, and
    a mapping is not a list of its keys."""
    if isinstance(items, (str, bytes)):
        raise GraphError(f"{what} must be a list, not a string: {items!r}")
    if isinstance(items, Mapping):
        raise GraphError(f"{what} must be a list: {items!r}")
    try:
        return tuple(items)
    except TypeError:
        raise GraphError(f"{what} must be a list: {items!r}") from None


# -- constructors ------------------------------------------------------


def _names(n: int) -> list[str]:
    if n <= 26:
        return [chr(ord("a") + i) for i in range(n)]
    return [f"v{i}" for i in range(n)]


def complete_graph(n: int) -> Graph:
    names = _names(n)
    return Graph(names, [(names[i], names[j]) for i in range(n) for j in range(i + 1, n)])


def empty_graph(n: int) -> Graph:
    return Graph(_names(n))


def path_graph(n: int) -> Graph:
    names = _names(n)
    return Graph(names, [(names[i], names[i + 1]) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise GraphError("cycle needs at least 3 vertices")
    names = _names(n)
    edges = [(names[i], names[(i + 1) % n]) for i in range(n)]
    return Graph(names, edges)


def disjoint_union(g1: Graph, g2: Graph) -> Graph:
    """Disjoint union; colliding vertex names get positional tags."""
    collide = set(g1.vertices) & set(g2.vertices)
    if collide:
        r1 = {v: f"{v}.1" for v in g1.vertices}
        r2 = {v: f"{v}.2" for v in g2.vertices}
    else:
        r1 = {v: v for v in g1.vertices}
        r2 = {v: v for v in g2.vertices}
    vertices = [r1[v] for v in g1.vertices] + [r2[v] for v in g2.vertices]
    edges = [tuple(sorted((r1[u], r1[w]))) for u, w in map(tuple, g1.edges)]
    edges += [tuple(sorted((r2[u], r2[w]))) for u, w in map(tuple, g2.edges)]
    return Graph(vertices, edges)


def join(g1: Graph, g2: Graph) -> Graph:
    """Disjoint union plus all edges between the two parts."""
    g = disjoint_union(g1, g2)
    n1 = len(g1.vertices)
    extra = [
        (u, w) for u in g.vertices[:n1] for w in g.vertices[n1:]
    ]
    return Graph(g.vertices, [tuple(sorted(e)) for e in map(tuple, g.edges)] + extra)


# -- cliques -----------------------------------------------------------


def enumerate_cliques(g: Graph) -> list[tuple[str, ...]]:
    """All cliques of g (including the empty one), as vertex-order-sorted
    tuples, listed by (size, position).  Recursive extension over the fixed
    vertex order, with the running count charged to the enumeration cap."""
    cap = max_states()
    cliques: list[tuple[str, ...]] = [()]
    layer: list[tuple[str, ...]] = [()]
    while layer:
        nxt: list[tuple[str, ...]] = []
        for c in layer:
            start = g.index(c[-1]) + 1 if c else 0
            for v in g.vertices[start:]:
                if all(g.adjacent(u, v) for u in c):
                    nxt.append(c + (v,))
            check_states(len(cliques) + len(nxt), "cliques", cap)
        cliques.extend(nxt)
        layer = nxt
    return cliques


# -- automorphisms -----------------------------------------------------


def automorphisms(g: Graph) -> list[tuple[int, ...]]:
    """Generators of Aut(g), each a permutation s of the vertex indices
    (s[i] the image of i): the swaps of twins, then individualisation and
    refinement (McKay, Congr. Numer. 30, 1981).  A cell splits by its
    vertices' neighbour counts in a splitter cell, each new cell a splitter
    in turn.  Deepest level of the first path first, each vertex of that
    level's cell not yet in the orbit of one tried is individualised in its
    place; a leaf below it that maps the first leaf onto it by a bijection
    keeping every edge is a generator.  Every step is charged."""
    n, nbrs, cap, work = len(g.vertices), g._nbrs, max_states(), [0]
    edges = [(g._index[u], g._index[w]) for u, w in map(tuple, g.edges)]
    gens: list[tuple[int, ...]] = []
    orbit = list(range(n))  # an orbit's id on each of its vertices

    def charge(count):
        work[0] += count
        check_states(work[0], "automorphisms (search steps)", cap)

    def add(s):
        gens.append(s)
        charge(n)
        for v in range(n):
            a, b = sorted((orbit[v], orbit[s[v]]))
            if a != b:
                orbit[:] = [a if x == b else x for x in orbit]

    def refine(cells, splitters):
        while splitters and len(cells) < n:
            m = splitters.pop()
            charge(len(cells))
            out = []
            for c in cells:
                if len(c) == 1:
                    out.append(c)
                    continue
                charge(len(c))
                count = {v: (nbrs[v] & m).bit_count() for v in c}
                pieces = [tuple(v for v in c if count[v] == x)
                          for x in sorted(set(count.values()))]
                if len(pieces) > 1:
                    splitters += [sum(1 << v for v in p) for p in pieces]
                out += pieces
            cells = out
        return cells

    def split(cells, w):  # w individualised in the first non-singleton cell
        i = next(i for i, c in enumerate(cells) if len(c) > 1)
        return refine(cells[:i] + [(w,), tuple(v for v in cells[i] if v != w)]
                      + cells[i + 1:], [1 << w])

    def leaf(cells, depth):  # depth first, the first leaf that matches
        todo = [iter([cells])]  # todo[i] yields the nodes at depth + i
        while todo:
            cells = next(todo[-1], None)
            if cells is None:
                todo.pop()
            elif ([len(c) for c in cells]
                  != [len(c) for c in path[depth + len(todo) - 1]]):
                continue
            elif len(cells) < n:
                cell = next(c for c in cells if len(c) > 1)
                todo.append(map(split, [cells] * len(cell), cell))
            else:
                s = [0] * n
                for (a,), (b,) in zip(path[-1], cells):
                    s[a] = b
                charge(len(edges))
                if all(nbrs[s[a]] >> s[b] & 1 for a, b in edges):
                    return tuple(s)
        return None

    # twins, vertices with one open or one closed neighbourhood, swap
    for closed in (0, 1):
        twins: dict[int, list[int]] = {}
        for v in range(n):
            twins.setdefault(nbrs[v] | closed << v, []).append(v)
        for c in twins.values():
            for a, b in zip(c, c[1:]):
                add(tuple(b if v == a else a if v == b else v
                          for v in range(n)))
    path = [refine([tuple(range(n))], [(1 << n) - 1])]
    while len(path[-1]) < n:
        path.append(split(path[-1],
                          next(c[0] for c in path[-1] if len(c) > 1)))
    for depth in reversed(range(len(path) - 1)):
        cell = next(c for c in path[depth] if len(c) > 1)
        tried = {cell[0]}
        for w in cell[1:]:
            if orbit[w] not in {orbit[v] for v in tried}:
                tried.add(w)
                s = leaf(split(path[depth], w), depth + 1)
                if s:
                    add(s)
    return gens


def clique_counts(g: Graph) -> list[int]:
    """c_0, ..., c_{|V|}: number of cliques of each size."""
    counts = [0] * (len(g.vertices) + 1)
    for c in g.cliques():
        counts[len(c)] += 1
    return counts
