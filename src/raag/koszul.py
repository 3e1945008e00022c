"""The small free resolution on the clique basis, checked degree by
degree.

Basis elements are pairs (clique, trace).  The differential peels
vertices off the clique (with alternating signs, the clique being read in
decreasing order) and multiplies them into the trace; the contraction
moves the least eligible front letter of the trace into the clique.

The differential sends a basis key to |clique| keys and the contraction
to at most one, all with coefficients +-1, so each map is written once as
a per-key kernel, `_d_key` and `_s_key`.  `verify_resolution` builds no
element: it applies the kernels to each basis key, sums each identity in
a dict of Python ints and reduces the sums into the domain once, where
they are compared with zero.  Z -> D is a ring map, so this is the check
done in D throughout.

The front products v.t recur: d(x), d of each face of x and d(s(x)) of
many keys multiply the same letter into the same trace.  Each call of
`verify_resolution` keeps a memo of them (`Fronts`), so each is formed
once per call by one `_concat`; the memo lives no longer than the call,
so no product outlives its graph.
"""

from __future__ import annotations

from dataclasses import dataclass

from raag.errors import check_states
from raag.graph import Graph, clique_counts
from raag.growth import phi_R_ratfunc
from raag.series import Domain, DomainError
from raag.words import Trace, _concat, enumerate_traces

BasisKey = tuple[tuple[str, ...], Trace]  # (ascending clique, canonical trace)
Fronts = dict[Trace, dict[str, Trace]]  # t -> v -> v.t, for one call


def _d_key(key: BasisKey, g: Graph,
           fronts: Fronts) -> list[tuple[BasisKey, int]]:
    """d of one basis key.  c is ascending and the basis product is written
    in decreasing order, so removing the j-th smallest vertex v carries
    sign (-1)^j; v is multiplied into the trace at the front.  The product
    v.t is read from `fronts`, or formed and stored there."""
    c, t = key
    if not c:
        return []
    row = fronts.get(t)
    if row is None:
        row = fronts[t] = {}
    out = []
    for j, v in enumerate(c):
        vt = row.get(v)
        if vt is None:
            vt = row[v] = _concat((v,), t, g)
        out.append(((c[:j] + c[j + 1:], vt), -1 if j % 2 else 1))
    return out


def _s_key(key: BasisKey, g: Graph) -> BasisKey | None:
    """s of one basis key: the least letter v of t that commuting swaps can
    bring to the front, is adjacent to all of c and precedes min(c) moves
    into the clique; None if no letter qualifies.

    One scan of t on neighbour bitmasks: t[i] can come to the front iff it
    is adjacent to every letter before it.  `cand` holds the letters that
    could still qualify at the current position.  Removing v can break
    lex-normality (on path_graph(4), s sends ((d,), (b, c, a)) to
    ((c, d), (a, b)): c moves and (b, a) is not lex-normal), so the rest is
    re-canonicalised.
    """
    c, t = key
    index, nbrs = g._index, g._nbrs
    cand = (1 << index[c[0]]) - 1 if c else -1
    for u in c:
        cand &= nbrs[index[u]]
    pos = None
    for i, v in enumerate(t):
        if not cand:
            break
        k = index[v]
        if cand >> k & 1:
            pos = i
            cand &= (1 << k) - 1  # only a lesser letter can replace v
        cand &= nbrs[k]
    if pos is None:
        return None
    # a suffix of a lex-normal word is lex-normal
    rest = t[1:] if pos == 0 else _concat(t[:pos], t[pos + 1:], g)
    return (t[pos],) + c, rest


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


def _vanishes(acc: dict[BasisKey, int], domain: Domain) -> bool:
    coerce = domain.coerce
    return not any(coerce(a) for a in acc.values() if a)


def verify_resolution(g: Graph, order: int, domain: Domain) -> ResolutionReport:
    """Check d.d = 0 and s.d + d.s = 1 - eps on every basis element of total
    degree < order; reports the first counterexample.

    The keys are taken clique by clique, and each identity is summed for
    each key in turn.  One `Fronts` memo serves the whole call, so a front
    product v.t needed by d(x), by d of a face of x or by d(s(x)) is formed
    once however many keys need it.  A sum whose integer coefficients are
    all zero, or that has no terms (d.d on a clique of size <= 1), is zero
    in every domain and is not reduced into it."""
    if order < 1:
        raise DomainError("order must be >= 1")
    # count the basis before enumerating it: the degree-n traces number r_n,
    # the coefficient of t^n in Phi_R, and pair with the cliques of size
    # < order - n; the count only grows with n, so stop at the first n past
    # the cap.  A trace's prefixes are traces, so once r_n = 0 (only on the
    # graph with no vertex, at n = 1) no higher degree has a trace either.
    counts, total, degrees = clique_counts(g), 0, 0
    for n, r in zip(range(order), phi_R_ratfunc(g).coefficients()):
        if not r:
            break
        total += r * sum(counts[:order - n])
        check_states(total, f"koszul basis up to trace degree {n}")
        degrees = n + 1
    cliques = [c for c in g.cliques() if len(c) < order]
    traces = [enumerate_traces(g, n) for n in range(degrees)]
    fronts: Fronts = {}
    checked = 0
    for c in cliques:
        for layer in traces[:order - len(c)]:
            for t in layer:
                x = (c, t)
                checked += 1
                dx = _d_key(x, g, fronts)
                acc: dict[BasisKey, int] = {}
                for y, a in dx:
                    for z, b in _d_key(y, g, fronts):
                        acc[z] = acc.get(z, 0) + a * b
                if any(acc.values()) and not _vanishes(acc, domain):
                    return ResolutionReport(False, checked, x, "d^2 != 0")
                # sd + ds - (1 - eps); eps is 1 on ((), ()) alone
                acc = {x: -1} if c or t else {}
                for y, a in dx:
                    z = _s_key(y, g)
                    if z is not None:
                        acc[z] = acc.get(z, 0) + a
                sx = _s_key(x, g)
                if sx is not None:
                    for z, b in _d_key(sx, g, fronts):
                        acc[z] = acc.get(z, 0) + b
                if any(acc.values()) and not _vanishes(acc, domain):
                    return ResolutionReport(False, checked, x,
                                            "sd + ds != 1 - eps")
    return ResolutionReport(True, checked)
