"""Graded ranks of the Lie algebras attached to the graph, by two
independent routes: spans of bracket expansions inside the partially
commuting polynomial ring, and Moebius inversion of the logarithmic
derivative of the Poincare series.

A bracket of letters is homogeneous in letter content, the multiset of
its letters, so the degree-n span splits into blocks that never mix
(Duchamp & Krob, Semigroup Forum 45, 1992).  Block beta is found by
elimination over its closure rows [v, r], for each letter v of beta but
one it holds once (below) and each row r that block beta - v kept;
degree 1 keeps the letters.  Each closure row is reduced, as soon as it
is built, against the block's pivots so far, in plain integers:
r -= c * lead * P at its K-least remaining pivot trace t, for the pivot
row P that leads with t, with no gcd, no fraction and no reduction mod p.
A reduced row whose K-least trace has coefficient +1 or -1 becomes a
pivot.  Any other nonzero row is held to the end of the block and reduced
again against the final pivots, and only what is left goes through
`linalg.rank_of_rows`, the one general elimination.

The pivots lead with distinct traces at unit coefficients, so they stay
independent mod every prime, and a nonzero combination of them is
nonzero at a pivot trace, where every remainder is zero: the rank over Q
or any F_p is the number of pivots plus the rank of the remainders.  Each
reduction step is invertible over Z, so the pivot rows and remainders
span the content-beta part of L_n = [V, L_{n-1}] over Z once the blocks
of degree n - 1 span L_{n-1}; no rank rests on the Lyndon basis theorem.

The rows [a, r] of a letter a held once in beta, |beta| >= 2, are not
needed.  The ad-words [y_1, [y_2, ..., [y_k, a]]] span an ideal S, as
ad(x) maps S into S; every bracket of content beta holds a, so L_beta
lies in S_beta.  As a occurs once in beta, y_1 != a in each ad-word of
content beta, which is [y_1, w] with w in L_{beta - y_1} (the ideal half
of Lazard elimination; Bourbaki, Lie Groups and Lie Algebras II.2.9).  Of
those letters, the one whose block beta - a keeps the most terms is left
out, the lowest index on a tie.

An automorphism s of the graph is one of the ring and of L, so it maps
block beta onto block s(beta) with the same rank over every field.  Only
one block per orbit of `graph.automorphisms` on the contents is reduced:
a degree's rank is the sum of orbit size times the representative's
rank, and the rows another block keeps are the representative's with s
applied to every trace, each canonicalised once, with no elimination.

These theorems are checked by the tests instead.  The leads of a subspace
are unique, and the standard bracketing P(t) of a Lyndon trace t (kept
in `tests/oracles.py`) leads with t, so every pivot lead of a block is a
Lyndon trace (`_lyndon`) of its content, the pivots and the rank of the
remainders number them, and with no remainder the leads are all of them.  To
degree 5, on the suite graphs and random ones, every block built directly
has its representative's rank, and the relabelled rows span what the
direct rows span over Q, F_2 and F_3, alone and stacked, as does each
block built directly without the rows of each letter it holds once; a
relabelling that is no automorphism fails `ranks --check span`, and so
does leaving out a letter held twice, as block a a b of the free group
of rank 2 has the one row [a, [a, b]].

`series_ranks` and `span_ranks` are the two routes for each kind of rank,
tuples from degree 1, which `ranks --check span` and `verify-all` compare.
"""

from __future__ import annotations

from functools import lru_cache
from heapq import heapify, heappop, heappush
from itertools import accumulate
from typing import Callable

from raag.errors import check_states, max_states
from raag.graph import Graph, automorphisms
from raag.growth import RatFunc, phi_R_ratfunc
from raag.linalg import rank_of_rows
from raag.series import Domain, DomainError, Fp, PCSeries, Q
from raag.words import Trace, _concat, _slot, enumerate_traces


# -- bracket expansions ------------------------------------------------
#
# Traces are compared by K(t), their lex-normal forms with the letters
# ranked in reverse vertex order.  A right factor of a trace t is a trace v
# with t = uv; the principal ones are the up-closures of single positions
# of t in its heap (the position and every later letter linked to it by a
# chain of non-commuting letters).  t is Lyndon iff its letters are
# connected in the non-commutation graph and K(t) < K(v) for every
# principal proper right factor v; its standard factorisation is (u, v)
# with v the K-least principal proper right factor (Lalonde, *Bases de
# Lyndon des algebres de Lie libres partiellement commutatives*, TCS 117,
# 1993; Duchamp & Krob, Semigroup Forum 45, 1992).  The span route does not
# use them; `verify._commutator_parts` builds its basic commutators on
# them, and the tests check the pivot leads of `_span` against them.
#
# In a lex-normal t whose first letter has the highest index, the up-closure
# of a position i starts with t[i], its only minimal letter, so it is
# K-greater than t and than the up-closures of the positions j >= 1 that
# hold the highest index of t[1:], unless i is one of them.  Such a factor
# is the suffix t[j:]: were a later t[i] to commute with all of t[j..i-1],
# it would not be t[j]'s vertex, which does not commute with itself, so it
# would have a lower index, and t[j..i] would be a factor b.u.a with a < b
# and a commuting with b.u, which a lex-normal word has not.  So u = t[:j],
# both lex-normal already.


def _closure_row(v: str, e: dict[Trace, int], g: Graph,
                 products: dict[Trace, tuple[Trace, Trace]]) -> dict[Trace, int]:
    """[v, e] = v e - e v for a vertex v.  products caches (v.t, t.v) by t
    for this v, so each distinct product is formed once: t.v by one
    insertion, and v.t by one canonicalisation unless v has an index no
    higher than t[0]'s.  Then v.t is v followed by t: in the lex-normal t,
    a letter that commutes with every letter before it is t[0] or has a
    higher index, so none of them moves in front of v."""
    rank = g._index
    row: dict[Trace, int] = {}
    for t, c in e.items():
        both = products.get(t)
        if both is None:
            i = _slot(t, v, g)
            vt = ((v,) + t if rank[v] <= rank[t[0]]
                  else _concat((v,), t, g))
            both = products[t] = (vt, t[:i] + (v,) + t[i:])
        vt, tv = both
        row[vt] = row.get(vt, 0) + c
        row[tv] = row.get(tv, 0) - c
    return {t: c for t, c in row.items() if c}


def _k_key(g: Graph) -> Callable[[Trace], tuple[int, ...]]:
    """K as a key function: a trace's letters as minus their vertex
    indices, so that tuple order is the lex order with the letters ranked
    in reverse vertex order."""
    neg = {v: -i for v, i in g._index.items()}.__getitem__
    return lambda t: tuple(map(neg, t))


def _lyndon(g: Graph, n: int) -> dict[Trace, tuple[Trace, Trace] | None]:
    """The Lyndon traces t of degree n in the order of `enumerate_traces`,
    each with its standard factorisation (u, v), or None for the letters.

    The candidates are the traces whose first letter has the highest index:
    a later letter of higher index would be the only minimal letter of its
    up-closure, a proper principal right factor K-less than t.  A candidate
    is kept iff K(t) < K(t[j:]) for the K-least suffix t[j:] with t[j] of
    the highest index in t[1:], and split as (t[:j], t[j:]) (see above)."""
    if n < 1:
        raise DomainError(f"degree must be >= 1, got {n}")
    rank = g._index
    candidates = [t for t in enumerate_traces(g, n)
                  if rank[t[0]] == max([rank[x] for x in t])]
    if n == 1:
        return dict.fromkeys(candidates)
    key = _k_key(g)
    lyndon: dict[Trace, tuple[Trace, Trace] | None] = {}
    for t in candidates:
        k = key(t)
        top = min(k[1:])  # K ranks the highest index least
        kv, j = min((k[j:], j) for j in range(1, n) if k[j] == top)
        if k < kv:
            lyndon[t] = t[:j], t[j:]
    return lyndon


_Pivots = dict[Trace, tuple[tuple[int, ...], int, dict[Trace, int]]]


def _reduce(row: dict[Trace, int], pivots: _Pivots) -> dict[Trace, int]:
    """The row minus the integer multiples of pivot rows that clear its
    entries at every pivot trace.  pivots[t] = (K(t), lead, P), for a pivot
    row P with lead = P[t] = +-1 and every other trace of P K-greater than
    t, so clearing the K-least pivot trace first never brings back one
    already cleared."""
    r = dict(row)
    heap = [(pivots[t][0], t) for t in r if t in pivots]
    heapify(heap)
    while heap:
        t = heappop(heap)[1]
        c = r.get(t)
        if c is None:  # cancelled since it was pushed
            continue
        _, lead, prow = pivots[t]
        c *= lead
        for s, x in prow.items():
            y = r.get(s)
            if y is None:
                r[s] = -c * x
                if s in pivots:
                    heappush(heap, (pivots[s][0], s))
            elif y == c * x:
                del r[s]
            else:
                r[s] = y - c * x
    return r


def _eliminate(g: Graph, lower, key: Callable[[Trace], tuple[int, ...]]
               ) -> tuple[_Pivots, tuple[dict[Trace, int], ...]]:
    """One block reduced: its pivots, keyed by their leads, and the
    nonzero remainders of the rows that did not become pivots.  lower
    holds (v, rows): a letter v of the block's content and the rows that
    the content less v kept.  key is `_k_key(g)`."""
    rank = g._index
    pivots: _Pivots = {}
    held: list[dict[Trace, int]] = []
    for v, rows in lower:
        products: dict[Trace, tuple[Trace, Trace]] = {}
        for e in rows:
            r = _reduce(_closure_row(v, e, g, products), pivots)
            if r:
                # the K-least trace starts with the highest-index first
                # letter, so only those traces need their keys
                top = max([rank[s[0]] for s in r])
                t = min([s for s in r if rank[s[0]] == top], key=key)
                if r[t] in (1, -1):
                    pivots[t] = (key(t), r[t], r)
                else:
                    held.append(r)
    return pivots, tuple(filter(None, [_reduce(e, pivots) for e in held]))


class _Span:
    """The span of one graph, reduced one block per orbit, degree by
    degree.  A content is the sorted tuple of the vertex indices of its
    letters; the orbit of a content is searched breadth-first over the
    generators that move one of its letters, and its first content is the
    representative.  Each stage is charged the states of a whole degree:
    the letters of every image its orbit searches form, as they form them,
    and the closure products of its representatives with the terms
    relabelled for them, before any block is reduced."""

    __slots__ = ("g", "key", "gens", "moving", "orbits", "reps", "blocks",
                 "spent", "cap")

    def __init__(self, g: Graph):
        self.g = g
        self.key = _k_key(g)
        self.gens = automorphisms(g)
        # moving[v]: the indices of the generators that move vertex v
        self.moving = [[i for i, s in enumerate(self.gens) if s[v] != v]
                       for v in range(len(g.vertices))]
        # content -> its orbit, shared by all of its contents: a dict from
        # each content to the image of the representative, the first key,
        # with its letters in place
        self.orbits: dict[tuple[int, ...], dict[tuple[int, ...], tuple]] = {}
        # reps[n]: (representative, orbit size) of the nonzero blocks
        self.reps: list[list[tuple[tuple[int, ...], int]]] = [[]]
        # representative -> (pivots, remainders)
        self.blocks: dict[tuple[int, ...], tuple[_Pivots, tuple]] = {}
        # stage -> the states of the orbit searches since the last degree
        # built began; the cap, read again by each call of `degree`
        self.spent: dict[str, int] = {}
        self.cap = max_states()

    def orbit(self, c: tuple[int, ...]) -> dict[tuple[int, ...], tuple]:
        """c's entry in `orbits`, each image formed charged by its letters:
        an orbit stores no more contents than it forms images."""
        found = self.orbits.get(c)
        if found is None:
            stage = f"content orbits at degree {len(c)}"
            steps = self.spent.get(stage, 0)
            found = {c: c}
            queue = [c]
            for x in queue:
                image = found[x]
                for i in {i for v in set(x) for i in self.moving[v]}:
                    y = tuple(map(self.gens[i].__getitem__, image))
                    z = tuple(sorted(y))
                    if z not in found:
                        found[z] = y
                        queue.append(z)
                    steps += len(c)
                if steps > self.cap:
                    check_states(steps, stage, self.cap)
            self.spent[stage] = steps
            for x in found:
                self.orbits[x] = found
        return found

    def kept(self, c: tuple[int, ...]) -> list[dict[Trace, int]]:
        """The rows block c keeps, pivot rows then remainders, built from
        its representative's block and relabelled when c is not the
        representative; none for a content off every orbit.  Nothing is
        stored."""
        orbit = self.orbits.get(c, {c: c})
        rep = next(iter(orbit))
        pivots, remainders = self.blocks.get(rep, ({}, ()))
        rows = [row for _, _, row in pivots.values()] + list(remainders)
        if rep != c and rows:
            g = self.g
            names = g.vertices
            to = {names[i]: names[j] for i, j in zip(rep, orbit[c])}
            new = {t: _concat((), map(to.__getitem__, t), g)
                   for t in {t for row in rows for t in row}}
            rows = [{new[t]: x for t, x in row.items()} for row in rows]
        return rows

    def degree(self, n: int) -> list[tuple[tuple[int, ...], int]]:
        """reps[n], with every degree up to n reduced first.  A content of
        degree m is a letter or a nonzero block of degree m - 1 plus a
        letter."""
        if n < 1:
            raise DomainError(f"degree must be >= 1, got {n}")
        g = self.g
        k = len(g.vertices)
        self.cap = max_states()
        while len(self.reps) <= n:
            m = len(self.reps)
            self.spent = {}
            reps: dict[tuple[int, ...], int] = {}
            # a letter outside b that commutes with every letter of b adds
            # a zero block: each of its closure rows vanishes, or builds on
            # a zero block of the same kind
            for c in ([(i,) for i in range(k)] if m == 1 else
                      [tuple(sorted(b + (i,))) for b, _ in self.reps[m - 1]
                       for mask in [sum(1 << i for i in set(b))]
                       for i in range(k) if mask & ~g._nbrs[i]]):
                orbit = self.orbit(c)
                reps.setdefault(next(iter(orbit)), len(orbit))
            # the letters i of each new block with the content less i, as
            # [v, r] = 0 when v commutes with every letter of r
            lower = {c: [(i, c[:j] + c[j + 1:]) for j, i in enumerate(c)
                         if (not j or c[j - 1] != i)
                         and mask & ~g._nbrs[i] & ~(1 << i)]
                     for c in reps for mask in [sum(1 << i for i in set(c))]}
            rep = {b: next(iter(self.orbits.get(b, (b,))))
                   for b in {b for v in lower.values() for _, b in v}}
            terms = {b: sum(map(len, self.kept(r))) for b, r in rep.items()}
            # a block spans without the rows of one letter it holds once:
            # of those, the letter whose lower block keeps the most terms
            for c, letters in lower.items():
                once = [(-terms[b], i, b) for i, b in letters if c.count(i) == 1]
                if once:
                    letters.remove(min(once)[1:])
            # the closure products, and the terms relabelled for them, are
            # charged before any block is reduced
            used = {b for v in lower.values() for _, b in v}
            check_states(sum(terms[b] for v in lower.values() for _, b in v)
                         + sum(terms[b] for b in used if b != rep[b]),
                         f"lie span (closure rows) at degree {m}", self.cap)
            kept = {b: self.kept(b) for b in used}
            for c, letters in lower.items():
                if m == 1:
                    t = (g.vertices[c[0]],)
                    self.blocks[c] = {t: (self.key(t), 1, {t: 1})}, ()
                else:
                    self.blocks[c] = _eliminate(
                        g, [(g.vertices[i], kept[b]) for i, b in letters
                            if kept[b]], self.key)
            self.reps.append([(c, size) for c, size in reps.items()
                              if any(self.blocks[c])])
        return self.reps[n]


_span = lru_cache(maxsize=32)(_Span)  # one span per graph


def bracket_span_rank(g: Graph, n: int, domain: Domain) -> int:
    """Rank of the span of all degree-n brackets of generators inside the
    degree-n component of the polynomial ring; equals the degree-n rank of
    the associated graded Lie algebra.  It is the sum, over the orbits of
    blocks, of the orbit size times the representative's rank: its pivots
    and the rank of its remainders."""
    if domain.kind not in ("Q", "Fp"):
        raise DomainError("span rank needs a field domain")
    s = _span(g)
    total = 0
    for c, size in s.degree(n):
        pivots, remainders = s.blocks[c]
        total += size * (len(pivots) + rank_of_rows(remainders, domain))
    return total


def restricted_span_rank(g: Graph, n: int, p: int) -> int:
    """Rank over F_p of brackets of degree n together with the p^i-th
    powers of the rows degree m kept, for m * p^i = n.

    Those rows span L_m.  Over F_p, (cx)^(p^i) = c^(p^i) x^(p^i), and
    (x + y)^(p^i) - x^(p^i) - y^(p^i) lies in the span of the degree-n
    brackets and of the p^j-th powers from degree n / p^j, j < i
    (Jacobson), so the powers of the rows serve for all of L_m.  The
    powers of block beta lie in block p^i beta, which powers alone may
    reach, and an automorphism maps them onto the powers of the image
    block, so orbits count as for the brackets.  The powers of a block are
    built after the brackets of degree n, each product charged, with those
    of every block before it, before it is formed, and reduced against the
    block's pivots."""
    domain = Fp(p)
    s = _span(g)
    reps = dict(s.degree(n))
    m, q = n, 1
    while m % p == 0:
        m //= p
        q *= p
        for b, _ in s.degree(m):
            orbit = s.orbit(tuple(sorted(b * q)))
            reps.setdefault(next(iter(orbit)), len(orbit))
    total = pairs = 0
    for c, size in reps.items():
        pivots, remainders = s.blocks.get(c, ({}, ()))
        rows = list(remainders)
        b, q = c, 1
        while n % (q * p) == 0 and all(b.count(i) % p == 0 for i in set(b)):
            b = b[::p]  # each letter p times fewer
            q *= p
            for e in s.kept(b):
                x = y = PCSeries(g, domain, n + 1, e.items())
                for _ in range(q - 1):
                    pairs += len(x.coeffs) * len(y.coeffs)
                    check_states(pairs, "restricted span (p^i-th powers) at "
                                 f"degree {n}", s.cap)
                    y = y * x
                rows += filter(None, [_reduce(y.coeffs, pivots)])
        total += size * (len(pivots) + rank_of_rows(rows, domain))
    return total


# -- series recursions -------------------------------------------------


def _mobius_ranks(g: Graph, upto: int, p: int | None) -> tuple[int, ...]:
    """Exponents x_1..x_upto of prod_n F_n^{x_n} = Phi_R, where
    F_n = (1 - t^n)^{-1} when p is None, else (1 - t^{pn})/(1 - t^n).

    Phi_R = 1/Q with Q(t) = Phi_S(-t), so the power sums c_m, the
    coefficients of t d/dt log Phi_R = -t Q'/Q, are the series of an integer
    rational function with denominator Q: the growth recurrence
    `RatFunc.coefficients` produces them.  Taking t d/dt log of the product
    and writing e_n = n x_n gives c_m = sum_{n|m} e_n - p sum_{n|(m/p)} e_n,
    the last sum present only when p divides m; it is solved for e_m degree
    by degree, with a forward sieve accumulating the sums over proper
    divisors.
    """
    if upto < 1:
        raise DomainError(f"degree bound must be >= 1, got {upto}")
    # |c_m| <= (clique number) * |V|^m, so coefficient sizes grow linearly
    # with the degree; their total bit length bounds time and memory.
    check_states(upto * (upto + 1) // 2 * max(1, len(g.vertices).bit_length()),
                 "series ranks (coefficient bits)")
    q = phi_R_ratfunc(g).den
    power_sums = RatFunc([-k * x for k, x in enumerate(q)], q).coefficients()
    next(power_sums)  # c_0 = 0
    e = [0] * (upto + 1)
    proper = [0] * (upto + 1)  # proper[m] = sum of e_n over n | m, n < m
    for m, c in zip(range(1, upto + 1), power_sums):
        e[m] = c - proper[m]
        if p is not None and m % p == 0:
            e[m] += p * (proper[m // p] + e[m // p])
        if e[m] % m:
            raise DomainError(
                f"non-integer exponent at degree {m}: {e[m]}/{m}")
        for j in range(2 * m, upto + 1, m):
            proper[j] += e[m]
    return tuple(e[m] // m for m in range(1, upto + 1))


def series_rank_lcs(g: Graph, upto: int) -> tuple[int, ...]:
    """Ranks b_n solving prod (1 - t^n)^{-b_n} = Phi_R(t), by Moebius
    inversion of c_m = sum_{n|m} n b_n (see _mobius_ranks)."""
    return _mobius_ranks(g, upto, None)


def series_rank_restricted(g: Graph, p: int, upto: int) -> tuple[int, ...]:
    """Ranks d_n solving prod ((1 - t^{pn})/(1 - t^n))^{d_n} = Phi_R(t) for a
    prime p, by Moebius inversion (see _mobius_ranks)."""
    Fp(p)
    return _mobius_ranks(g, upto, p)


def _check_kind(kind: str, p: int) -> None:
    # the exponent-p dimensions are defined for odd primes only (`Fp` checks
    # that p is prime): the p-power map fails to be linear at p = 2
    if kind not in ("lcs", "restricted", "lambda"):
        raise ValueError(f"unknown kind {kind!r}")
    if kind == "lambda" and Fp(p).p < 3:
        raise DomainError(f"exponent-p dimensions need p >= 3, got {p}")


def series_ranks(g: Graph, kind: str, p: int, upto: int) -> tuple[int, ...]:
    """The ranks of degrees 1..upto by the series recursion: b_n for "lcs",
    d_n at the prime p for "restricted", and for "lambda" the exponent-p
    series quotients, the lower-central Lie algebra tensored with a
    polynomial ring on one degree-1 variable: partial sums of the b_m."""
    _check_kind(kind, p)
    if kind == "restricted":
        return series_rank_restricted(g, p, upto)
    b = series_rank_lcs(g, upto)
    return b if kind == "lcs" else tuple(accumulate(b))


def span_ranks(g: Graph, kind: str, p: int, upto: int) -> tuple[int, ...]:
    """The same ranks by the bracket span: `bracket_span_rank` over Q for
    "lcs", `restricted_span_rank` for "restricted", and the partial sums
    of the span b_m for "lambda"."""
    _check_kind(kind, p)
    degrees = range(1, upto + 1)
    if kind == "restricted":
        return tuple(restricted_span_rank(g, n, p) for n in degrees)
    b = tuple(bracket_span_rank(g, n, Q) for n in degrees)
    return b if kind == "lcs" else tuple(accumulate(b))
