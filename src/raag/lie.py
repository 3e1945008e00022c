"""Graded ranks of the Lie algebras attached to the graph, by two
independent routes: spans of bracket expansions (on the Lyndon-trace
basis, closed under bracketing with the generators) inside the partially
commuting polynomial ring, and Moebius inversion of the logarithmic
derivative of the Poincare series.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from raag.errors import check_states, max_states
from raag.graph import Graph
from raag.growth import RatFunc, phi_R_ratfunc
from raag.linalg import rank_of_rows
from raag.series import Domain, DomainError, Fp, PCSeries, Q, _is_prime
from raag.words import Trace, _concat, _slot


@dataclass(frozen=True)
class RankTable:
    graph: Graph
    kind: str  # "lower_central" | "restricted" | "exponent_p"
    values: tuple[int, ...]  # indexed by degree, starting at 1
    method: str  # "bracket_span" | "series_recursion" | "partial_sums"
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


def _lyndon_key(g: Graph):
    """K: a trace's lex-normal form with letters ranked in reverse order."""
    rank = g._index
    return lambda t: tuple(-rank[v] for v in t)


@lru_cache(maxsize=256)
def _pyramids(g: Graph, n: int) -> tuple[Trace, ...]:
    """Lex-normal traces of length n whose first letter has the highest
    index among their letters.

    These are the traces with a single minimal letter, that letter being
    the highest-index one: a later letter with no letter below it in the
    heap would commute with everything before it and precede the first
    letter in vertex order, so it would not stay behind in the lex-normal
    form.  Prefixes keep the property, so each candidate of length n is one
    of length n - 1 extended by a letter, of index at most its first
    letter's, whose insertion lands at the end.
    """
    if n == 1:
        return tuple((v,) for v in g.vertices)
    rank = g._index
    cap = max_states()
    out: list[Trace] = []
    for t in _pyramids(g, n - 1):
        for v in g.vertices[:rank[t[0]] + 1]:
            if _slot(t, v, g) == n - 1:
                out.append(t + (v,))
        check_states(len(out), "lyndon candidates", cap)
    return tuple(out)


def _principal_factors(t: Trace, g: Graph):
    """(u, v) with t = uv and v the up-closure of position j, both in
    lex-normal form, for the positions j >= 1 whose letter has the highest
    index among t[1:].  t[j] is the only minimal letter of its up-closure,
    so K of that factor starts with -index(t[j]): the factors left out
    are K-greater than both t and the factors yielded."""
    rank = g._index
    top = max(rank[x] for x in t[1:])
    adj = g._adj
    n = len(t)
    for j in range(1, n):
        if rank[t[j]] != top:
            continue
        up = [j]
        for i in range(j + 1, n):
            x = t[i]
            if any(x not in adj[t[k]] for k in up):
                up.append(i)
        down = [t[i] for i in range(n) if i not in up]
        yield (_concat((), down, g), _concat((), (t[i] for i in up), g))


@lru_cache(maxsize=256)
def lyndon_brackets(g: Graph, n: int) -> dict[Trace, dict[Trace, int]]:
    """Standard bracketings P(t) of the Lyndon traces t of degree n, keyed
    by t in candidate order; built from the lower degrees and cached, so
    the caller must not modify the result."""
    if n < 1:
        raise ValueError("degree must be >= 1")
    if n == 1:
        return {(v,): {(v,): 1} for v in g.vertices}
    key = _lyndon_key(g)
    out: dict[Trace, dict[Trace, int]] = {}
    for t in _pyramids(g, n):
        kv, u, v = min((key(v), u, v) for u, v in _principal_factors(t, g))
        if kv > key(t):  # t is Lyndon, with standard factorisation (u, v)
            out[t] = _bracket(lyndon_brackets(g, len(u))[u],
                              lyndon_brackets(g, len(v))[v], g)
    return out


def _span_rows(g: Graph, n: int) -> list[dict[Trace, int]]:
    """The Lyndon rows P(t) of degree n, then the closure rows [v, P(l)]
    for every vertex v and Lyndon trace l of degree n - 1."""
    rows = list(lyndon_brackets(g, n).values())
    if n > 1:
        rows += [_bracket({(v,): 1}, e, g)
                 for e in lyndon_brackets(g, n - 1).values()
                 for v in g.vertices]
    return rows


def bracket_span_rank(g: Graph, n: int, domain: Domain) -> int:
    """Rank of the span of all degree-n brackets of generators inside the
    degree-n component of the polynomial ring; equals the degree-n rank of
    the associated graded Lie algebra.

    The Lyndon rows are independent by their leading traces, so each
    becomes a pivot unreduced.  The closure rows span L_n = [V, L_{n-1}]
    as long as the Lyndon brackets of degree n - 1 span L_{n-1}, that is,
    as long as the closure rows added no rank at degree n - 1 and below.
    So the rank does not rest on the Lyndon basis theorem: taken over the
    degrees 1..n, each degree checks the basis the next one builds on.
    """
    if domain.kind not in ("Q", "Fp"):
        raise DomainError("span rank needs a field domain")
    return rank_of_rows(_span_rows(g, n), domain, col_key=_lyndon_key(g))


def restricted_span_rank(g: Graph, n: int, p: int) -> int:
    """Rank over F_p of brackets of degree n together with p^i-th powers of
    the Lyndon brackets of degree m with m * p^i = n."""
    domain = Fp(p)
    rows = _span_rows(g, n)
    m = n
    i = 0
    while m % p == 0:
        m //= p
        i += 1
        for e in lyndon_brackets(g, m).values():
            pw = (PCSeries(g, domain, n + 1, e.items()) ** p**i).coeffs
            if pw:
                rows.append(pw)
    return rank_of_rows(rows, domain, col_key=_lyndon_key(g))


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
    return RankTable(g, "lower_central", _mobius_ranks(g, upto, None),
                     "series_recursion")


def series_rank_restricted(g: Graph, p: int, upto: int) -> RankTable:
    """Ranks d_n solving prod ((1 - t^{pn})/(1 - t^n))^{d_n} = Phi_R(t) for a
    prime p, by Moebius inversion (see _mobius_ranks)."""
    if not _is_prime(p):
        raise DomainError(f"restricted ranks need a prime p, got {p}")
    return RankTable(g, "restricted", _mobius_ranks(g, upto, p),
                     "series_recursion", p=p)


def lambda_dims(g: Graph, p: int, upto: int) -> RankTable:
    """Dimensions of the exponent-p series quotients: the degree-n part of
    the lower-central Lie algebra tensored with a polynomial ring on one
    degree-1 variable, i.e. partial sums of the b_m.  Only valid for
    p >= 3 (the p-power map fails to be linear at p = 2)."""
    if p < 3 or not _is_prime(p):
        raise DomainError(
            f"exponent-p dimensions need a prime p >= 3, got {p}")
    b = series_rank_lcs(g, upto).values
    partial = []
    acc = 0
    for n in range(upto):
        acc += b[n]
        partial.append(acc)
    return RankTable(g, "exponent_p", tuple(partial), "partial_sums", p=p)


def primitivity_check(g: Graph, n: int, order: int):
    """Every degree-n spanning bracket is primitive for the coproduct; returns
    None on success, else a witness PCSeries."""
    from raag.series import is_primitive

    if order <= n:
        raise DomainError("truncation order must exceed the degree")
    for e in lyndon_brackets(g, n).values():
        x = PCSeries(g, Q, order, e.items())
        if not is_primitive(x):
            return x
    return None
