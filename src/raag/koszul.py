"""The small free resolution on the clique basis, checked degree by
degree.

Basis elements are pairs (clique, trace).  The differential peels
vertices off the clique (with alternating signs, the clique being read in
decreasing order) and multiplies them into the trace; the contraction
moves the least eligible front letter of the trace into the clique.

The differential sends a basis key to |clique| keys and the contraction
to at most one, all with coefficients +-1, so each map is written once as
a per-key kernel, `_d_key` and `_s_key`.  The check builds no element:
it applies the kernels to each basis key, sums each identity in a dict
of Python ints and reduces the sums into the domain once, where they are
compared with zero.  Z -> D is a ring map, so this is the check done in
D throughout.  The integer sums are the same for every domain, so one
pass (`_resolution_reports`) judges them in several domains at once:
`verify-all` checks Q and F_2 together, `verify_resolution` one domain.

The front products v.t recur: d(x), d of each face of x and d(s(x)) of
many keys multiply the same letter into the same trace.  Each pass
keeps a memo of them (`Fronts`), so each is formed once per pass, and
formed by the prefix route: v.t = (v.t[:-1]).t[-1] is one `_slot`
insertion into the product for the prefix of t, which the memo nearly
always holds, since the keys come in ascending trace degree (`_front`).
The faces of each clique with their signs (`Faces`) and the letters
the contraction may move into it (`Candidates`) are kept per pass as
well.  The memos live no longer than the pass, so nothing
outlives its graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from raag.errors import check_states
from raag.graph import Graph, clique_counts
from raag.growth import phi_R_ratfunc
from raag.series import Domain, DomainError
from raag.words import Trace, _concat, enumerate_traces

Clique = tuple[str, ...]  # ascending
BasisKey = tuple[Clique, Trace]  # (clique, canonical trace)
Fronts = dict[Trace, dict[str, Trace]]  # t -> v -> v.t, for one call
Faces = dict[Clique, list[tuple[str, Clique, int]]]  # c -> [(v, c - v, sign)]
Candidates = dict[Clique, int]  # c -> the letters s may move into c


def _front(v: str, t: Trace, g: Graph, fronts: Fronts) -> Trace:
    """v.t, read from `fronts` or formed there as (v.t[:-1]).t[-1], one
    insertion into the product for the prefix.  The walk back to the
    longest prefix whose product is known is a loop, not a recursion, and
    stores every product it forms."""
    k = len(t)
    rows = []
    while k:
        row = fronts.get(t[:k])
        if row is None:
            row = fronts[t[:k]] = {}
        vt = row.get(v)
        if vt is not None:
            break
        rows.append(row)
        k -= 1
    else:
        vt = (v,)
    for row in reversed(rows):
        vt = row[v] = _concat(vt, (t[k],), g)
        k += 1
    return vt


def _d_key(key: BasisKey, g: Graph, fronts: Fronts,
           faces: Faces) -> list[tuple[BasisKey, int]]:
    """d of one basis key.  c is ascending and the basis product is written
    in decreasing order, so removing the j-th smallest vertex v carries
    sign (-1)^j; v is multiplied into the trace at the front.  The faces
    of c with their signs are read from `faces`, or listed there once; the
    product v.t is read from `fronts`, or formed by `_front`."""
    c, t = key
    if not c:
        return []
    cf = faces.get(c)
    if cf is None:
        cf = faces[c] = [(v, c[:j] + c[j + 1:], -1 if j % 2 else 1)
                         for j, v in enumerate(c)]
    row = fronts.get(t)
    if row is None:
        row = fronts[t] = {}
    out = []
    for v, face, sign in cf:
        vt = row.get(v)
        if vt is None:
            vt = _front(v, t, g, fronts)
        out.append(((face, vt), sign))
    return out


def _s_key(key: BasisKey, g: Graph, cands: Candidates) -> BasisKey | None:
    """s of one basis key: the least letter v of t that commuting swaps can
    bring to the front, is adjacent to all of c and precedes min(c) moves
    into the clique; None if no letter qualifies.

    One scan of t on neighbour bitmasks: t[i] can come to the front iff it
    is adjacent to every letter before it.  `cand` holds the letters that
    could still qualify at the current position; it starts from the
    letters below min(c) adjacent to all of c, read from `cands` or
    computed there once.  Removing v can break lex-normality (on
    path_graph(4), s sends ((d,), (b, c, a)) to ((c, d), (a, b)): c moves
    and (b, a) is not lex-normal), so the rest is re-canonicalised.
    """
    c, t = key
    index, nbrs = g._index, g._nbrs
    cand = cands.get(c)
    if cand is None:
        cand = (1 << index[c[0]]) - 1 if c else -1
        for u in c:
            cand &= nbrs[index[u]]
        cands[c] = cand
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
    degree < order in `domain`; reports the first counterexample.  This is
    `_resolution_reports` for the one domain."""
    return _resolution_reports(g, order, (domain,))[0]


def _resolution_reports(g: Graph, order: int,
                        domains: Sequence[Domain]) -> list[ResolutionReport]:
    """`verify_resolution` in each of `domains` at once: one report per
    domain, each equal to the report of a call for that domain alone.

    The keys are taken clique by clique, and each identity is summed for
    each key in turn, in integers, once for all the domains.  Each domain
    still in the pass then judges the sum with `_vanishes`; a domain it
    fails gets its report there and leaves the pass, which ends when none
    is left.  One `Fronts` memo serves the whole call, so a front product
    v.t needed by d(x), by d of a face of x or by d(s(x)) is formed once
    however many keys need it, from the product for t's prefix; the clique
    tables `Faces` and `Candidates` are filled once per clique.  A sum
    whose integer coefficients are all zero, or that has no terms (d.d on
    a clique of size <= 1), is zero in every domain and is not reduced
    into any."""
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
    faces: Faces = {}
    cands: Candidates = {}
    reports: list[ResolutionReport | None] = [None] * len(domains)
    checked = 0

    def failed_everywhere(acc: dict[BasisKey, int], x: BasisKey,
                          reason: str) -> bool:
        # a sum with a nonzero integer, judged by each domain still passing
        for i, dom in enumerate(domains):
            if reports[i] is None and not _vanishes(acc, dom):
                reports[i] = ResolutionReport(False, checked, x, reason)
        return all(reports)

    for c in cliques:
        for layer in traces[:order - len(c)]:
            for t in layer:
                x = (c, t)
                checked += 1
                dx = _d_key(x, g, fronts, faces)
                acc: dict[BasisKey, int] = {}
                for y, a in dx:
                    for z, b in _d_key(y, g, fronts, faces):
                        acc[z] = acc.get(z, 0) + a * b
                if any(acc.values()) and failed_everywhere(acc, x, "d^2 != 0"):
                    return reports
                # sd + ds - (1 - eps); eps is 1 on ((), ()) alone
                acc = {x: -1} if c or t else {}
                for y, a in dx:
                    z = _s_key(y, g, cands)
                    if z is not None:
                        acc[z] = acc.get(z, 0) + a
                sx = _s_key(x, g, cands)
                if sx is not None:
                    for z, b in _d_key(sx, g, fronts, faces):
                        acc[z] = acc.get(z, 0) + b
                if any(acc.values()) and failed_everywhere(
                        acc, x, "sd + ds != 1 - eps"):
                    return reports
    return [rep or ResolutionReport(True, checked) for rep in reports]
