"""The signed clique algebra: quadratic dual of the partially commuting
polynomial ring, and cohomology ring of the group.

Basis elements are cliques; a clique C = {v_0 < ... < v_{k-1}} stands for
the product of its vertices written in decreasing order, so multiplying
two basis elements picks up the parity of the merge that restores
decreasing order.  `quadratic_dual_check` reads the duality with the ring
off the products of the generators.
"""

from __future__ import annotations

from raag.graph import Graph
from raag.series import Domain, DomainError, LinComb, Z

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
    """Whether the algebra's quadratic relations are R^perp, the annihilator
    under the standard pairing on V (x) V of the ring's relations R, the
    commutators uw - wu of the edges, read off the products of the
    generators v_u alone.

    The product u (x) w -> v_u v_w maps V (x) V to A_2, whose basis is the
    edge cliques.  If v_u v_w is zero exactly when u = w or u and w are not
    adjacent, and for each edge it is +-1 times the edge's clique and
    equals -v_w v_u, then the map has rank |E|.  Its kernel, the algebra's
    quadratic relations, is then spanned by the |V|^2 - |E| independent
    tensors uu, uw for each non-edge and uw + wu for each edge.  Each is
    orthogonal to every uw - wu, and the dimensions of R and of the kernel
    sum to |V|^2, so the kernel is R^perp."""
    V = g.vertices
    gen = {u: ExtElement.basis((u,), g, Z) for u in V}
    prod = {(u, w): gen[u] * gen[w] for u in V for w in V}
    return all(
        x.is_zero() if u == w or not g.adjacent(u, w)
        else x.coeffs in ({e: 1}, {e: -1}) and (x + prod[w, u]).is_zero()
        for (u, w), x in prod.items() for e in [g.sort_vertices((u, w))])
