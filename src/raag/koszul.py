"""The small free resolution on the clique basis, with its differential
and contracting homotopy, checked degree by degree.

Basis elements are pairs (clique, trace).  The differential peels
vertices off the clique (with alternating signs, the clique being read in
decreasing order) and multiplies them into the trace; the contraction
moves the least eligible front letter of the trace into the clique.
"""

from __future__ import annotations

from dataclasses import dataclass

from raag.errors import check_states
from raag.graph import Graph, clique_counts, enumerate_cliques
from raag.growth import phi_R_ratfunc
from raag.series import Domain, DomainError, LinComb, _pair_degree
from raag.words import Trace, _concat, canonicalize_trace, enumerate_traces

BasisKey = tuple[tuple[str, ...], Trace]  # (ascending clique, canonical trace)


class KoszulElement(LinComb):
    """Element of the resolution; the keys are (clique, trace) pairs and the
    degree of a key is the total degree."""

    __slots__ = ()
    _degree = staticmethod(_pair_degree)

    @classmethod
    def basis(cls, clique, trace, graph: Graph, domain: Domain,
              order: int) -> "KoszulElement":
        c = graph.sort_vertices(clique)
        if not graph.is_clique(c):
            raise DomainError(f"{clique!r} is not a clique")
        t = canonicalize_trace(trace, graph)
        return cls(graph, domain, order, [((c, t), 1)])

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        return " + ".join(
            f"{x}*[{''.join(c) or 'e'}|{''.join(t) or '1'}]"
            for (c, t), x in sorted(self.coeffs.items())
        )


def differential(x: KoszulElement) -> KoszulElement:
    g = x.graph
    # c is ascending; the basis product is written in decreasing order,
    # so removing the j-th smallest vertex carries sign (-1)^j.
    return KoszulElement(g, x.domain, x.order, (
        ((c[:j] + c[j + 1:], _concat((v,), t, g)), -coeff if j % 2 else coeff)
        for (c, t), coeff in x.coeffs.items()
        for j, v in enumerate(c)))


def _front_movable(t: Trace, g: Graph) -> list[tuple[str, int]]:
    """Letters that commuting swaps can bring to the front of the trace,
    with the position of the occurrence that moves."""
    out = []
    for i, v in enumerate(t):
        if all(g.adjacent(u, v) for u in t[:i]):
            out.append((v, i))
    return out


def contraction(x: KoszulElement) -> KoszulElement:
    g = x.graph
    terms = []
    for (c, t), coeff in x.coeffs.items():
        bound = min((g.index(u) for u in c), default=len(g.vertices))
        best = None
        for v, i in _front_movable(t, g):
            if g.index(v) < bound and g.is_clique(c + (v,)):
                if best is None or g.index(v) < g.index(best[0]):
                    best = (v, i)
        if best is None:
            continue
        v, i = best
        key = (g.sort_vertices(c + (v,)),
               canonicalize_trace(t[:i] + t[i + 1:], g))
        terms.append((key, coeff))
    return KoszulElement(g, x.domain, x.order, terms)


def epsilon(x: KoszulElement) -> KoszulElement:
    """Projection onto the bidegree-(0, 0) summand."""
    key = ((), ())
    return KoszulElement(x.graph, x.domain, x.order,
                         [(key, x.coeffs[key])] if key in x.coeffs else [])


@dataclass(frozen=True)
class ResolutionReport:
    ok: bool
    checked: int
    counterexample: BasisKey | None = None
    reason: str | None = None

    def to_json_obj(self) -> dict:
        out: dict = {"ok": self.ok, "checked": self.checked}
        if not self.ok:
            out["counterexample"] = {
                "clique": list(self.counterexample[0]),
                "trace": list(self.counterexample[1]),
            }
            out["reason"] = self.reason
        return out


def verify_resolution(g: Graph, order: int, domain: Domain) -> ResolutionReport:
    """Check d.d = 0 and s.d + d.s = 1 - eps on every basis element of total
    degree < order; reports the first counterexample."""
    # count the basis before enumerating it: the degree-n traces number r_n,
    # the coefficient of t^n in Phi_R, and pair with the cliques of size
    # < order - n; the count only grows with n, so stop at the first n past
    # the cap
    counts, total = clique_counts(g), 0
    for n, r in zip(range(order), phi_R_ratfunc(g).coefficients()):
        total += r * sum(counts[:order - n])
        check_states(total, f"koszul basis up to trace degree {n}")
    cliques = [c for c in enumerate_cliques(g) if len(c) < order]
    traces = [enumerate_traces(g, n) for n in range(order)]
    checked = 0
    for c in cliques:
        for n in range(order - len(c)):
            for t in traces[n]:
                x = KoszulElement.basis(c, t, g, domain, order)
                checked += 1
                if not differential(differential(x)).is_zero():
                    return ResolutionReport(False, checked, (c, t), "d^2 != 0")
                lhs = contraction(differential(x)) + differential(contraction(x))
                if lhs != x - epsilon(x):
                    return ResolutionReport(False, checked, (c, t),
                                            "sd + ds != 1 - eps")
    return ResolutionReport(True, checked)


def bigraded_ranks(g: Graph, order: int) -> dict[tuple[int, int], int]:
    """Rank of each (clique-degree, trace-degree) component with total
    degree < order."""
    counts = [len(enumerate_traces(g, n)) for n in range(order)]
    out: dict[tuple[int, int], int] = {}
    for c in enumerate_cliques(g):
        if len(c) >= order:
            continue
        for n in range(order - len(c)):
            out[(len(c), n)] = out.get((len(c), n), 0) + counts[n]
    return out
