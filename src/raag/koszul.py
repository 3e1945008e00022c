"""The small free resolution on the clique basis, checked degree by
degree.

Basis elements are pairs (clique, trace).  The differential peels
vertices off the clique (with alternating signs, the clique being read in
decreasing order) and multiplies them into the trace; the contraction
moves the least eligible front letter of the trace into the clique.

A pass numbers its basis (`_Basis`).  Each trace gets an id, with the
id of its prefix (the trace less its last letter) beside it, and each
clique gets an id; the key (c, t) is the one int
id(t) * (number of cliques) + id(c).
The differential sends a key to |c| keys and the contraction to at most
one, all with coefficients +-1, so each map is written once, on keys:
`_Basis.d` and `_Basis.s`.  The check builds no element: it applies the
two maps to each key, sums each identity in a dict of Python ints keyed
by ints, and reduces the sums into the domain once, where they are
compared with zero.  Z -> D is a ring map, so this is the check done in
D throughout.  The integer sums are the same for every domain, so one
pass (`_resolution_reports`) judges them in several domains at once:
`verify-all` checks Q and F_2 together, `verify_resolution` one domain.
A counterexample is mapped back to its (clique, trace).

The maps read tables that live as long as the pass:

- Front products.  d(x), d of each face of x and d(s(x)) of many keys
  multiply the same letter into the same trace, so v.t is kept per
  letter in a list indexed by trace id.  d multiplies into the traces
  below the top degree only, and the pass forms v.t for each of those
  once, before any key is checked (`_Basis.fill`), in id order, by the
  prefix route v.t = (v.t[:-1]).t[-1]: one `_slot` insertion into the
  product for the prefix, whose id is smaller.  d reads the table; only
  a trace numbered past it has the table filled up to it first.
- Per clique: its faces with their signs, the letters the contraction
  may move into it (below its least vertex and adjacent to all of it),
  as a bitmask, and the clique each of them makes.
- Per trace: the letters that commuting swaps can bring to its front, a
  bitmask one step from its prefix's.  The contraction moves the lowest
  bit of that mask ANDed with the clique's candidates, and the rest of
  the trace, re-canonicalised, is kept per (letter, trace) in a dict: s
  moves about one letter per trace.

The pass numbers the enumerated layers in order, so the keys of each
clique are a range of ints.  Any other trace is numbered when it is met,
with its prefixes (in the pass only a faulty product makes one).  Nothing
outlives the pass, so no table carries one graph's products into
another's.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from raag.errors import check_states
from raag.graph import Graph, clique_counts
from raag.growth import phi_R_ratfunc
from raag.series import Domain, DomainError
from raag.words import Trace, _concat, enumerate_traces

Clique = tuple[str, ...]  # ascending
BasisKey = tuple[Clique, Trace]  # (clique, canonical trace)


class _Basis:
    """The basis keys of total degree < `order` on `g`, numbered, with the
    tables that d and s read.  The cliques of size < order that the graph
    lists have the first `listed` ids, and the empty trace has id 0; `add`
    numbers traces whose prefixes have ids, and `trace_id` any trace."""

    __slots__ = ("g", "cliques", "listed", "clique_ids", "nc", "faces",
                 "cands", "ups", "traces", "ids", "prefix", "movable",
                 "fronts", "rests")

    def __init__(self, g: Graph, order: int):
        index, nbrs = g._index, g._nbrs
        self.g = g
        self.cliques = [c for c in g.cliques() if len(c) < order]
        self.listed = len(self.cliques)
        ids = self.clique_ids = {c: i for i, c in enumerate(self.cliques)}

        def clique_id(c: Clique) -> int:
            # a face or an image of s that the enumeration missed (only a
            # faulty one does) is numbered here, after the listed cliques
            i = ids.get(c)
            if i is None:
                i = ids[c] = len(self.cliques)
                self.cliques.append(c)
            return i

        # per clique: [(id of c - v, v, sign)], the letters the contraction
        # may move into c, and per such letter the id of the clique it
        # makes (none at size order - 1, whose keys have empty traces)
        self.faces: list[list[tuple[int, int, int]]] = []
        self.cands: list[int] = []
        self.ups: list[dict[int, int]] = []
        for c in self.cliques:  # grows while a clique_id call numbers one
            self.faces.append([(clique_id(c[:j] + c[j + 1:]), index[v],
                                -1 if j % 2 else 1)
                               for j, v in enumerate(c)])
            cand = 0
            if len(c) + 1 < order:
                cand = (1 << index[c[0]]) - 1 if c else -1
                for u in c:
                    cand &= nbrs[index[u]]
            self.cands.append(cand)
            self.ups.append({i: clique_id((v,) + c)
                             for i, v in enumerate(g.vertices)
                             if cand >> i & 1})
        self.nc = len(self.cliques)
        # per trace id: the trace (whose last letter is the one appended to
        # its prefix), its prefix's id and its front letters
        self.traces: list[Trace] = [()]
        self.ids: dict[Trace, int] = {(): 0}
        self.prefix = [0]
        self.movable = [0]
        # per letter v, by trace id t < the end last given to `fill`: id(v.t)
        self.fronts: list[list[int]] = [[] for _ in g.vertices]
        # per letter v, once formed: {t: id of the rest of t once s has
        # moved v out of it}, a dict, as s moves about one letter per trace
        self.rests: list[dict[int, int]] = [{} for _ in g.vertices]

    def add(self, ts: Sequence[Trace]) -> None:
        """Number the traces `ts` in turn; the prefix of each has an id by
        then.  The last letter v of a trace comes to its front iff v is
        adjacent to every letter before it (so it is the first v)."""
        ids, adj, index = self.ids, self.g._adj, self.g._index
        traces, movable = self.traces, self.movable
        for t in ts:
            p = ids[t[:-1]]
            v = t[-1]
            ids[t] = len(traces)
            traces.append(t)
            self.prefix.append(p)
            m = movable[p]  # shared, not copied, when v does not move
            if adj[v].issuperset(traces[p]):
                m |= 1 << index[v]
            movable.append(m)

    def fill(self, end: int) -> None:
        """Form v.t for each letter v and each trace id t < end that the
        table lacks, in id order, as (v.t[:-1]).t[-1] (v.() = (v,)): the
        prefix has a smaller id, so its product is there.  A pass fills the
        traces below the top degree, one slot per key with a one-vertex
        clique, which the basis count has charged; the size is charged
        again here for a trace numbered outside a pass."""
        check_states(len(self.fronts) * end, "koszul front products")
        g, traces, prefix = self.g, self.traces, self.prefix
        for v, row in enumerate(self.fronts):
            for t in range(len(row), end):
                row.append(self.trace_id(
                    _concat(traces[row[prefix[t]]], traces[t][-1:], g) if t
                    else (g.vertices[v],)))

    def trace_id(self, t: Trace) -> int:
        """The id of t, numbering t and each prefix of t that has none; a
        loop, so a long trace needs no deep recursion."""
        i = self.ids.get(t)
        if i is None:
            k = len(t) - 1
            while t[:k] not in self.ids:
                k -= 1
            self.add([t[:j] for j in range(k + 1, len(t) + 1)])
            i = self.ids[t]
        return i

    def key(self, x: BasisKey) -> int:
        c, t = x
        return self.trace_id(t) * self.nc + self.clique_ids[c]

    def pair(self, key: int) -> BasisKey:
        t, c = divmod(key, self.nc)
        return self.cliques[c], self.traces[t]

    def d(self, key: int) -> list[tuple[int, int]]:
        """d of one key (c, t).  c is ascending and the basis product is
        written in decreasing order, so removing the j-th smallest vertex v
        carries sign (-1)^j; v is multiplied into the trace at the front."""
        t, c = divmod(key, self.nc)
        nc, fronts = self.nc, self.fronts
        out = []
        for face, v, sign in self.faces[c]:
            row = fronts[v]
            if t >= len(row):
                self.fill(t + 1)
            out.append((row[t] * nc + face, sign))
        return out

    def s(self, key: int) -> int | None:
        """s of one key (c, t): the least letter v of t that commuting swaps
        can bring to the front, is adjacent to all of c and precedes min(c)
        moves into the clique; None if no letter qualifies.

        Removing v can break lex-normality (on path_graph(4), s sends
        ((d,), (b, c, a)) to ((c, d), (a, b)): c moves and (b, a) is not
        lex-normal), so the rest is re-canonicalised, once per (v, t)."""
        t, c = divmod(key, self.nc)
        m = self.movable[t] & self.cands[c]
        if not m:
            return None
        v = (m & -m).bit_length() - 1
        rests = self.rests[v]
        rest = rests.get(t)
        if rest is None:
            word = self.traces[t]
            pos = word.index(self.g.vertices[v])
            # a suffix of a lex-normal word is lex-normal
            rest = rests[t] = self.trace_id(
                word[1:] if pos == 0
                else _concat(word[:pos], word[pos + 1:], self.g))
        return rest * self.nc + self.ups[c][v]


class ResolutionReport(NamedTuple):
    ok: bool
    checked: int
    counterexample: BasisKey | None = None
    reason: str | None = None


def _vanishes(acc: dict[int, int], domain: Domain) -> bool:
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

    The keys are taken clique by clique, in ascending trace degree, and
    each identity is summed for each key in turn, in integers, once for
    all the domains.  Each domain still in the pass then judges the sum
    with `_vanishes`; a domain it fails gets its report there and leaves
    the pass, which ends when none is left.  One `_Basis` serves the whole
    call, so a front product v.t needed by d(x), by d of a face of x or by
    d(s(x)) is formed once however many keys need it.  d.d has no terms on
    a clique of size <= 1 and is not summed there; a sum whose integer
    coefficients are all zero is zero in every domain and is not reduced
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
    basis = _Basis(g, order)
    # ids follow the layers, so the traces of degree <= n are the ids below
    # ends[n]; degree 0 is the empty trace alone, id 0
    ends = [1]
    for n in range(1, degrees):
        basis.add(enumerate_traces(g, n))
        ends.append(len(basis.traces))
    # d multiplies into the traces below the top degree
    basis.fill(ends[-2] if degrees > 1 else 0)
    d, s, nc = basis.d, basis.s, basis.nc
    reports: list[ResolutionReport | None] = [None] * len(domains)
    checked = 0

    def failed_everywhere(acc: dict[int, int], x: int, reason: str) -> bool:
        # a sum with a nonzero integer, judged by each domain still passing
        for i, dom in enumerate(domains):
            if reports[i] is None and not _vanishes(acc, dom):
                reports[i] = ResolutionReport(False, checked, basis.pair(x),
                                              reason)
        return all(reports)

    for c, clique in enumerate(basis.cliques[:basis.listed]):
        pairs = len(clique) > 1
        for t in range(ends[min(order - len(clique), degrees) - 1]):
            x = t * nc + c
            checked += 1
            dx = d(x)
            if pairs:
                acc: dict[int, int] = {}
                for y, a in dx:
                    for z, b in d(y):
                        acc[z] = acc.get(z, 0) + a * b
                if any(acc.values()) and failed_everywhere(acc, x, "d^2 != 0"):
                    return reports
            # sd + ds - (1 - eps); eps is 1 on ((), ()) alone
            acc = {x: -1} if clique or t else {}
            for y, a in dx:
                z = s(y)
                if z is not None:
                    acc[z] = acc.get(z, 0) + a
            sx = s(x)
            if sx is not None:
                for z, b in d(sx):
                    acc[z] = acc.get(z, 0) + b
            if any(acc.values()) and failed_everywhere(
                    acc, x, "sd + ds != 1 - eps"):
                return reports
    return [rep or ResolutionReport(True, checked) for rep in reports]
