"""Graded ranks of the Lie algebras attached to the graph, by two
independent routes: spans of bracket expansions inside the partially
commuting polynomial ring, and Moebius inversion of the logarithmic
derivative of the Poincare series.

The span of degree n is found by elimination over its closure rows
[v, r], for every vertex v and every row r that degree n - 1 kept; degree
1 keeps the letters.  Each closure row is reduced, as soon as it is
built, against the pivots found so far, in plain integers: r -= c * lead
* P at its K-least remaining pivot trace t, for the pivot row P that
leads with t, with no gcd, no fraction and no reduction mod p.  A reduced
row whose K-least trace has coefficient +1 or -1 becomes a pivot.  Any
other nonzero row is held to the end of the degree and reduced again
against the final pivots, and only what is left goes through
`linalg.rank_of_rows`, the one general elimination.

The pivots lead with distinct traces at unit coefficients, so they stay
independent mod every prime, and a nonzero combination of them is
nonzero at a pivot trace, where every remainder is zero.  The rank over Q
or any F_p is therefore the number of pivots plus the rank of the
remainders, and a remainder that is zero over Z is zero over every F_p.
Each reduction step is invertible over Z, so the pivot rows and the
remainders span the same Z-module as the closure rows: L_n = [V, L_{n-1}]
once the rows of degree n - 1 span L_{n-1}.  They are what degree n keeps,
and degree n + 1 and the p^i-th power rows of the restricted ranks build
on them, so no rank rests on the Lyndon basis theorem.

The theorem is checked instead.  The set of leads of a subspace is
unique, and the standard bracketing P(t) of a Lyndon trace t leads with
t, so when no remainder survives the pivot leads are exactly the Lyndon
traces (`_lyndon`).  The tests hold them to that, with the P(t) kept in
`tests/oracles.py` as the Lyndon-basis oracle.

`series_ranks` and `span_ranks` are the two routes for each kind of rank,
which `ranks --check span` and `verify-all` compare.
"""

from __future__ import annotations

from functools import lru_cache
from heapq import heapify, heappop, heappush
from itertools import accumulate
from typing import Callable, NamedTuple

from raag.errors import check_states, max_states
from raag.graph import Graph
from raag.growth import RatFunc, phi_R_ratfunc
from raag.linalg import rank_of_rows
from raag.series import Domain, DomainError, Fp, PCSeries, Q
from raag.words import Trace, _concat, _slot, enumerate_traces


class RankTable(NamedTuple):
    kind: str  # "lower_central" | "restricted" | "exponent_p"
    values: tuple[int, ...]  # indexed by degree, starting at 1
    method: str  # "series_recursion" | "partial_sums"
    p: int | None = None

    def to_json_obj(self) -> dict:
        return {
            "kind": self.kind,
            "method": self.method,
            "p": self.p,
            "values": {str(n + 1): v for n, v in enumerate(self.values)},
        }


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


def _principal_factors(t: Trace, g: Graph):
    """(v, rest) with v the up-closure of position j in lex-normal form and
    rest the other letters of t in order, so that t = uv with u the
    lex-normal form of rest, for the positions j >= 1 whose letter has the
    highest index among t[1:].  t[j] is the only minimal letter of its
    up-closure, so K of that factor starts with -index(t[j]): the factors
    left out are K-greater than both t and the factors yielded."""
    rank = g._index
    nbrs = g._nbrs
    idx = [rank[x] for x in t]
    top = max(idx[1:])
    n = len(t)
    for j in range(1, n):
        if idx[j] != top:
            continue
        up = 1 << top  # bitmask of the letters in the up-closure so far
        rest, upper = list(t[:j]), [t[j]]
        for i in range(j + 1, n):
            if up & ~nbrs[idx[i]]:  # t[i] fails to commute with one of them
                up |= 1 << idx[i]
                upper.append(t[i])
            else:
                rest.append(t[i])
        yield _concat((), upper, g), rest


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

    The candidates are the traces whose first letter has the highest index
    among their letters.  These are the traces with a single minimal
    letter, that letter being the highest-index one: a later letter with no
    letter below it in the heap would commute with everything before it
    and precede the first letter in vertex order, so it would not stay
    behind in the lex-normal form.  Every Lyndon trace is one: a later
    letter of higher index than t[0] would be the only minimal letter of
    its up-closure, a proper principal right factor with K less than
    K(t)."""
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
        kv, v, rest = min((key(v), v, rest)
                          for v, rest in _principal_factors(t, g))
        if key(t) < kv:
            lyndon[t] = _concat((), rest, g), v
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


@lru_cache(maxsize=256)
def _span(g: Graph, n: int) -> tuple[_Pivots, tuple[dict[Trace, int], ...]]:
    """Degree n of the span, reduced: the pivots, keyed by their leads,
    and the nonzero remainders of the rows that did not become pivots.

    Each closure row [v, r], for a vertex v and a row r that degree n - 1
    kept, is reduced against the pivots found so far as soon as it is
    built, and becomes a pivot if its K-least trace has coefficient +-1.
    Any other nonzero row is held to the end of the degree and reduced
    again against the final pivots."""
    if n < 1:
        raise DomainError(f"degree must be >= 1, got {n}")
    key = _k_key(g)
    if n == 1:
        return {(v,): (key((v,)), 1, {(v,): 1}) for v in g.vertices}, ()
    lower = _kept(g, n - 1)
    check_states(len(g.vertices) * sum(map(len, lower)),
                 f"lie span (closure rows) at degree {n}")
    rank = g._index
    pivots: _Pivots = {}
    held: list[dict[Trace, int]] = []
    for v in g.vertices:
        products: dict[Trace, tuple[Trace, Trace]] = {}
        for e in lower:
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
    remainders = tuple(r for r in (_reduce(e, pivots) for e in held) if r)
    return pivots, remainders


def _kept(g: Graph, n: int) -> list[dict[Trace, int]]:
    """The rows degree n kept, its pivot rows and then its remainders;
    they span L_n over Z."""
    pivots, remainders = _span(g, n)
    return [row for _, _, row in pivots.values()] + list(remainders)


def bracket_span_rank(g: Graph, n: int, domain: Domain) -> int:
    """Rank of the span of all degree-n brackets of generators inside the
    degree-n component of the polynomial ring; equals the degree-n rank of
    the associated graded Lie algebra.

    The pivots are independent by their leading traces over Q and every
    F_p, and every remainder is zero at every pivot trace, so only the
    remainders go through `rank_of_rows`.  The rows of each degree span
    L_n over Z, since every closure row is a Z-combination of them and
    L_n = [V, L_{n-1}], so the rank rests on no basis theorem.
    """
    if domain.kind not in ("Q", "Fp"):
        raise DomainError("span rank needs a field domain")
    pivots, remainders = _span(g, n)
    return len(pivots) + rank_of_rows(remainders, domain)


def restricted_span_rank(g: Graph, n: int, p: int) -> int:
    """Rank over F_p of brackets of degree n together with the p^i-th
    powers of the rows degree m kept, for m * p^i = n.

    Those rows span L_m.  Over F_p, (cx)^(p^i) = c^(p^i) x^(p^i), and
    (x + y)^(p^i) - x^(p^i) - y^(p^i) lies in the span of the degree-n
    brackets and of the p^j-th powers from degree n / p^j, j < i
    (Jacobson), so the powers of the rows serve for all of L_m.  They come
    from lower degrees only: they are built ahead of the degree-n span,
    each product charged before it is formed, and then reduced against
    its pivots."""
    domain = Fp(p)
    if n < 1:
        raise DomainError(f"degree must be >= 1, got {n}")
    cap = max_states()
    pairs = 0
    powers: list[dict[Trace, int]] = []
    m, q = n, 1
    while m % p == 0:
        m //= p
        q *= p
        for e in _kept(g, m):
            x = y = PCSeries(g, domain, n + 1, e.items())
            for _ in range(q - 1):
                pairs += len(x.coeffs) * len(y.coeffs)
                check_states(pairs, "restricted span (p^i-th powers) at "
                             f"degree {n}", cap)
                y = y * x
            powers.append(y.coeffs)
    pivots, remainders = _span(g, n)
    rows = list(remainders)
    rows += filter(None, (_reduce(r, pivots) for r in powers))
    return len(pivots) + rank_of_rows(rows, domain)


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


def series_rank_lcs(g: Graph, upto: int) -> RankTable:
    """Ranks b_n solving prod (1 - t^n)^{-b_n} = Phi_R(t), by Moebius
    inversion of c_m = sum_{n|m} n b_n (see _mobius_ranks)."""
    return RankTable("lower_central", _mobius_ranks(g, upto, None),
                     "series_recursion")


def series_rank_restricted(g: Graph, p: int, upto: int) -> RankTable:
    """Ranks d_n solving prod ((1 - t^{pn})/(1 - t^n))^{d_n} = Phi_R(t) for a
    prime p, by Moebius inversion (see _mobius_ranks)."""
    Fp(p)
    return RankTable("restricted", _mobius_ranks(g, upto, p),
                     "series_recursion", p=p)


def _check_kind(kind: str, p: int) -> None:
    # the exponent-p dimensions are defined for odd primes only (`Fp` checks
    # that p is prime): the p-power map fails to be linear at p = 2
    if kind not in ("lcs", "restricted", "lambda"):
        raise ValueError(f"unknown kind {kind!r}")
    if kind == "lambda" and Fp(p).p < 3:
        raise DomainError(f"exponent-p dimensions need p >= 3, got {p}")


def series_ranks(g: Graph, kind: str, p: int, upto: int) -> RankTable:
    """The ranks of degrees 1..upto by the series recursion: b_n for "lcs",
    d_n at the prime p for "restricted", and for "lambda" the exponent-p
    series quotients, the lower-central Lie algebra tensored with a
    polynomial ring on one degree-1 variable: partial sums of the b_m."""
    _check_kind(kind, p)
    if kind == "restricted":
        return series_rank_restricted(g, p, upto)
    b = series_rank_lcs(g, upto)
    if kind == "lcs":
        return b
    return RankTable("exponent_p", tuple(accumulate(b.values)),
                     "partial_sums", p=p)


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
