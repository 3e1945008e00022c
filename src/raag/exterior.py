"""The signed clique algebra: quadratic dual of the partially commuting
polynomial ring, and cohomology ring of the group.

Basis elements are cliques; a clique C = {v_0 < ... < v_{k-1}} stands for
the product of its vertices written in decreasing order, so multiplying
two basis elements picks up the parity of the merge that restores
decreasing order.
"""

from __future__ import annotations

from itertools import product as iproduct

from raag.graph import Graph
from raag.linalg import rank_of_rows
from raag.series import Domain, DomainError, LinComb, Q

CliqueKey = tuple[str, ...]  # sorted ascending in vertex order


class ExtElement(LinComb):
    """Element of the signed clique algebra; the keys are cliques, sorted in
    vertex order.  The algebra is finite-dimensional, so `order` is None."""

    __slots__ = ()

    @classmethod
    def basis(cls, clique, graph: Graph, domain: Domain) -> "ExtElement":
        key = graph.sort_vertices(clique)
        if not graph.is_clique(key):
            raise DomainError(f"{clique!r} is not a clique")
        return cls(graph, domain, None, [(key, 1)])

    @classmethod
    def one(cls, graph: Graph, domain: Domain) -> "ExtElement":
        return cls.basis((), graph, domain)

    def __mul__(self, other: "ExtElement") -> "ExtElement":
        self._check(other)
        g = self.graph
        return self._like(
            (res[0], res[1] * x1 * x2)
            for c1, x1 in self.coeffs.items()
            for c2, x2 in other.coeffs.items()
            if (res := _basis_product(c1, c2, g)) is not None)

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        return " + ".join(
            f"{c}*{''.join(k) or '1'}" for k, c in sorted(self.coeffs.items())
        )


def _basis_product(c1: CliqueKey, c2: CliqueKey, g: Graph):
    """v_C1 * v_C2 in the clique basis: None for zero, else (union, sign)."""
    if set(c1) & set(c2):
        return None
    union = g.sort_vertices(c1 + c2)
    if not g.is_clique(union):
        return None
    desc = [g.index(v) for v in reversed(c1)] + [g.index(v) for v in reversed(c2)]
    inv = 0
    for i in range(len(desc)):
        for j in range(i + 1, len(desc)):
            if desc[i] < desc[j]:  # out of order for the descending target
                inv += 1
    return union, (-1) ** inv


def quadratic_dual_check(g: Graph) -> bool:
    """The two quadratic relation spaces annihilate each other under the
    standard pairing on degree-2 tensors, with ranks summing to |V|^2."""
    V = g.vertices
    pairs = list(iproduct(V, V))
    col = {p: i for i, p in enumerate(pairs)}

    rel_r: list[dict] = []
    for e in g.edges:
        u, w = tuple(e)
        rel_r.append({col[(u, w)]: 1, col[(w, u)]: -1})
    rel_s: list[dict] = []
    for u, w in pairs:
        if u == w or not g.adjacent(u, w):
            rel_s.append({col[(u, w)]: 1})
    for e in g.edges:
        u, w = tuple(e)
        rel_s.append({col[(u, w)]: 1, col[(w, u)]: 1})

    for r in rel_r:
        for s in rel_s:
            dot = sum(r[c] * s[c] for c in set(r) & set(s))
            if dot != 0:
                return False
    total = rank_of_rows(rel_r, Q) + rank_of_rows(rel_s, Q)
    return total == len(V) ** 2
