"""Graded ranks of the Lie algebras attached to the graph, by two
independent routes: spans of bracket expansions inside the partially
commuting polynomial ring, and Moebius inversion of the logarithmic
derivative of the Poincare series.

The span of degree n is built once and reduced once.  Its rows are the
standard bracketings P(t) of the Lyndon traces t of degree n (the Lyndon
rows, built and cached by `_lyndon`) and the closure rows [v, P(l)], for
every vertex v and Lyndon trace l of degree n - 1, which span the
degree-n brackets.  A Lyndon trace whose standard factorisation has
u = (x,) takes the closure row (x, v) as its P(t), so that row is built
once and serves as both.  `_span` builds the other closure rows and
reduces them; asking for the Lyndon rows alone reduces nothing.

Each Lyndon row leads with its own trace: in the order K below, the
least trace of P(t) is t, with coefficient +1 or -1.  The Lyndon rows are
therefore unit-triangular pivots.  Every other row is reduced against
them in plain integers, r -= c * lead * P(t) at its K-least remaining
Lyndon trace t, until no Lyndon trace is left in it; there is no gcd, no
fraction and no reduction mod p.  A nonzero combination of Lyndon rows
has a nonzero entry at the K-least of their traces, so the remainders
span a space that meets the span of the Lyndon rows only in 0, and the
rank is the number of Lyndon rows plus the rank of the remainders.  Only
the nonzero remainders go through `linalg.rank_of_rows`, the one general
elimination.  The leads are units, so the Lyndon rows stay independent
mod every prime and a remainder that is zero over Z is zero over every
F_p: one reduction serves the ranks over Q and every F_p, and the
restricted ranks add only their p^i-th power rows.

Each Lyndon row's lead is checked before the row becomes a pivot.  A row
that fails is reduced like a closure row, so the answer is the rank of
all degree-n brackets whether or not the Lyndon basis theorem holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from heapq import heapify, heappop, heappush
from typing import Callable

from raag.errors import check_states, max_states
from raag.graph import Graph
from raag.growth import RatFunc, phi_R_ratfunc
from raag.linalg import rank_of_rows
from raag.series import Domain, DomainError, Fp, PCSeries, _is_small_prime
from raag.words import Trace, _concat, _follow, _slot


@dataclass(frozen=True)
class RankTable:
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
# The span route works on a basis: the standard bracketings of the Lyndon
# traces (Lalonde, *Bases de Lyndon des algebres de Lie libres partiellement
# commutatives*, TCS 117, 1993; Duchamp & Krob, Semigroup Forum 45, 1992).
# Traces are compared by K(t), their lex-normal forms with the letters
# ranked in reverse vertex order.  A right factor of a trace t is a trace v
# with t = uv; the principal ones are the up-closures of single positions
# of t in its heap (the position and every later letter linked to it by a
# chain of non-commuting letters).  t is Lyndon iff its letters are
# connected in the non-commutation graph and K(t) < K(v) for every
# principal proper right factor v.  Its standard bracketing is
# P(t) = [P(u), P(v)] with v the K-least principal proper right factor;
# the K-least term of P(t) is t, with coefficient +1 or -1, so the P(t)
# are independent by their leading traces.

def _bracket(a: dict[Trace, int], b: dict[Trace, int], g: Graph) -> dict[Trace, int]:
    """[a, b] = ab - ba on homogeneous integer combinations of traces."""
    out: dict[Trace, int] = {}
    for t1, c1 in a.items():
        for t2, c2 in b.items():
            k = _concat(t1, t2, g)
            out[k] = out.get(k, 0) + c1 * c2
            k = _concat(t2, t1, g)
            out[k] = out.get(k, 0) - c1 * c2
    return {t: c for t, c in out.items() if c != 0}


@lru_cache(maxsize=256)
def _pyramids(g: Graph, n: int) -> tuple[tuple[Trace, ...], tuple[int, ...]]:
    """Lex-normal traces of length n whose first letter has the highest
    index among their letters, and the follow set (`words._follow`) of
    each.

    These are the traces with a single minimal letter, that letter being
    the highest-index one: a later letter with no letter below it in the
    heap would commute with everything before it and precede the first
    letter in vertex order, so it would not stay behind in the lex-normal
    form.  Prefixes keep the property, so each candidate of length n is one
    of length n - 1 extended by a letter of its follow set, of index at
    most its first letter's.
    """
    keep, reset = _follow(g)
    if n == 1:
        return (tuple((v,) for v in g.vertices),
                tuple(k | r for k, r in zip(keep, reset)))
    rank = g._index
    cap = max_states()
    out: list[Trace] = []
    follows: list[int] = []
    for t, follow in zip(*_pyramids(g, n - 1)):
        for i, v in enumerate(g.vertices[:rank[t[0]] + 1]):
            if follow >> i & 1:
                out.append(t + (v,))
                follows.append(follow & keep[i] | reset[i])
        check_states(len(out), "lyndon candidates", cap)
    return tuple(out), tuple(follows)


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
    for this v, so each distinct product is formed once: v.t by one
    canonicalisation, t.v by one insertion."""
    row: dict[Trace, int] = {}
    for t, c in e.items():
        both = products.get(t)
        if both is None:
            i = _slot(t, v, g)
            both = products[t] = (_concat((v,), t, g), t[:i] + (v,) + t[i:])
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


@lru_cache(maxsize=256)
def _lyndon(g: Graph, n: int) -> tuple[dict[Trace, dict[Trace, int]],
                                       dict[Trace, tuple[Trace, Trace]],
                                       frozenset[tuple[str, Trace]]]:
    """The standard bracketings P(t) of the Lyndon traces t of degree n,
    keyed by t in candidate order; the standard factorisation (u, v) of
    each t, for n > 1; and the keys (x, v) of the closure rows they took
    over: a Lyndon trace with standard factorisation ((x,), v) takes the
    closure row [x, P(v)] as its P(t)."""
    if n < 1:
        raise ValueError("degree must be >= 1")
    if n == 1:
        return {t: {t: 1} for t in _pyramids(g, 1)[0]}, {}, frozenset()
    key = _k_key(g)
    lyndon: dict[Trace, dict[Trace, int]] = {}
    factors: dict[Trace, tuple[Trace, Trace]] = {}
    taken: set[tuple[str, Trace]] = set()
    products: dict[str, dict[Trace, tuple[Trace, Trace]]] = {}
    lower = lyndon_brackets(g, n - 1)
    for t in _pyramids(g, n)[0]:
        kv, v, rest = min((key(v), v, rest)
                          for v, rest in _principal_factors(t, g))
        if kv < key(t):
            continue
        # t is Lyndon, with standard factorisation (u, v)
        if len(rest) == 1:  # u = (x,)
            x = rest[0]
            u = (x,)
            taken.add((x, v))
            lyndon[t] = _closure_row(x, lower[v], g, products.setdefault(x, {}))
        else:
            u = _concat((), rest, g)
            lyndon[t] = _bracket(lyndon_brackets(g, len(u))[u],
                                 lyndon_brackets(g, len(v))[v], g)
        factors[t] = u, v
    return lyndon, factors, frozenset(taken)


def lyndon_brackets(g: Graph, n: int) -> dict[Trace, dict[Trace, int]]:
    """Standard bracketings P(t) of the Lyndon traces t of degree n, keyed
    by t in candidate order; built from the lower degrees and cached, so
    the caller must not modify the result."""
    return _lyndon(g, n)[0]


_Pivots = dict[Trace, tuple[tuple[int, ...], int, dict[Trace, int]]]


def _reduce(row: dict[Trace, int], pivots: _Pivots) -> dict[Trace, int]:
    """The row minus the integer multiples of pivot rows that clear its
    entries at every pivot trace.  pivots[t] = (K(t), lead, P(t)), with
    lead = P(t)[t] = +-1 and every other trace of P(t) K-greater than t, so
    clearing the K-least pivot trace first never brings back one already
    cleared."""
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
    """Degree n of the span, reduced: the pivots (the P(t) whose K-least
    trace is t with coefficient +-1) and the nonzero remainders of every
    other row (the closure rows no Lyndon row took over, and the P(t) that
    failed the check) after `_reduce`."""
    lyndon, _, taken = _lyndon(g, n)
    key = _k_key(g)
    others: list[dict[Trace, int]] = []
    if n > 1:
        lower = lyndon_brackets(g, n - 1)
        for v in g.vertices:
            products: dict[Trace, tuple[Trace, Trace]] = {}
            others.extend(_closure_row(v, e, g, products)
                          for l, e in lower.items() if (v, l) not in taken)
    rank = g._index
    pivots: _Pivots = {}
    for t, e in lyndon.items():
        # t must be the K-least trace of P(t), with coefficient +-1; a trace
        # whose first letter has a lower index than t[0] is K-greater, and
        # passes without building its key
        kt, lead, top = key(t), e.get(t), rank[t[0]]
        if lead in (1, -1) and all(rank[s[0]] < top or s == t or key(s) > kt
                                   for s in e):
            pivots[t] = (kt, lead, e)
        else:
            others.append(e)
    remainders = tuple(r for r in (_reduce(e, pivots) for e in others) if r)
    return pivots, remainders


def bracket_span_rank(g: Graph, n: int, domain: Domain) -> int:
    """Rank of the span of all degree-n brackets of generators inside the
    degree-n component of the polynomial ring; equals the degree-n rank of
    the associated graded Lie algebra.

    The pivots, the Lyndon rows whose lead passed the check, are
    independent by their leading traces over Q and every F_p.  Every other
    row is reduced against them over Z, with no gcd and no division, and
    only the nonzero remainders go through `rank_of_rows`: a remainder
    that is zero over Z is zero over every F_p, since the leads are units.
    The closure rows span L_n = [V, L_{n-1}] as long as the Lyndon
    brackets of degree n - 1 span L_{n-1}, that is, as long as degree
    n - 1 and below left no remainder.  So the rank does not rest on the
    Lyndon basis theorem: taken over the degrees 1..n, each degree checks
    the basis the next one builds on.
    """
    if domain.kind not in ("Q", "Fp"):
        raise DomainError("span rank needs a field domain")
    pivots, remainders = _span(g, n)
    return len(pivots) + rank_of_rows(remainders, domain)


def restricted_span_rank(g: Graph, n: int, p: int) -> int:
    """Rank over F_p of brackets of degree n together with p^i-th powers of
    the Lyndon brackets of degree m with m * p^i = n; the powers are
    reduced against the same pivots as the brackets."""
    domain = Fp(p)
    pivots, remainders = _span(g, n)
    rows = list(remainders)
    m = n
    i = 0
    while m % p == 0:
        m //= p
        i += 1
        for e in lyndon_brackets(g, m).values():
            r = _reduce((PCSeries(g, domain, n + 1, e.items()) ** p**i).coeffs,
                        pivots)
            if r:
                rows.append(r)
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
    if not _is_small_prime(p):
        raise DomainError(f"restricted ranks need a prime p < 2^31, got {p}")
    return RankTable("restricted", _mobius_ranks(g, upto, p),
                     "series_recursion", p=p)


def lambda_dims(g: Graph, p: int, upto: int) -> RankTable:
    """Dimensions of the exponent-p series quotients: the degree-n part of
    the lower-central Lie algebra tensored with a polynomial ring on one
    degree-1 variable, i.e. partial sums of the b_m.  Only valid for
    p >= 3 (the p-power map fails to be linear at p = 2)."""
    if p < 3 or not _is_small_prime(p):
        raise DomainError(
            f"exponent-p dimensions need a prime 3 <= p < 2^31, got {p}")
    b = series_rank_lcs(g, upto).values
    partial = []
    acc = 0
    for n in range(upto):
        acc += b[n]
        partial.append(acc)
    return RankTable("exponent_p", tuple(partial), "partial_sums", p=p)
