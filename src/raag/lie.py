"""Graded ranks of the Lie algebras attached to the graph, by two
independent routes: spans of left-normed bracket expansions inside the
partially commuting polynomial ring, and Moebius inversion of the
logarithmic derivative of the Poincare series.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from raag.errors import check_states
from raag.graph import Graph, clique_counts
from raag.linalg import rank_of_rows
from raag.series import Domain, DomainError, Fp, PCSeries, Q, _is_prime
from raag.words import Trace, _concat


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
def left_normed_brackets(g: Graph, n: int) -> tuple[dict[Trace, int], ...]:
    """Expansions of [v1,[v2,[...,vn]]] over all generator tuples, with
    suffix sharing; degree-1 "brackets" are the generators themselves."""
    if n < 1:
        raise ValueError("degree must be >= 1")
    layer: dict[tuple[str, ...], dict[Trace, int]] = {
        (v,): {(v,): 1} for v in g.vertices
    }
    for _ in range(n - 1):
        nxt: dict[tuple[str, ...], dict[Trace, int]] = {}
        for tail, expansion in layer.items():
            for v in g.vertices:
                nxt[(v,) + tail] = _bracket({(v,): 1}, expansion, g)
        check_states(len(nxt), "left_normed_brackets")
        layer = nxt
    return tuple(e for e in layer.values() if e)


def bracket_span_rank(g: Graph, n: int, domain: Domain) -> int:
    """Rank of the span of degree-n left-normed brackets inside the degree-n
    component of the polynomial ring; equals the degree-n rank of the
    associated graded Lie algebra."""
    if domain.kind not in ("Q", "Fp"):
        raise DomainError("span rank needs a field domain")
    rows = [dict(e) for e in left_normed_brackets(g, n)]
    return rank_of_rows(rows, domain,
                        col_key=lambda t: tuple(g.index(v) for v in t))


def restricted_span_rank(g: Graph, n: int, p: int) -> int:
    """Rank over F_p of brackets of degree n together with p^i-th powers of
    lower-degree brackets with m * p^i = n."""
    domain = Fp(p)
    rows = [dict(e) for e in left_normed_brackets(g, n)]
    m = n
    i = 0
    while m % p == 0:
        m //= p
        i += 1
        for e in left_normed_brackets(g, m):
            pw = (PCSeries(g, domain, n + 1, e.items()) ** p**i).coeffs
            if pw:
                rows.append(pw)
    return rank_of_rows(rows, domain,
                        col_key=lambda t: tuple(g.index(v) for v in t))


# -- series recursions -------------------------------------------------


def _mobius_ranks(g: Graph, upto: int, p: int | None) -> tuple[int, ...]:
    """Exponents x_1..x_upto of prod_n F_n^{x_n} = Phi_R, where
    F_n = (1 - t^n)^{-1} when p is None, else (1 - t^{pn})/(1 - t^n).

    Phi_R = 1/Q with q_k = (-1)^k (number of k-cliques), so the coefficients
    c_m of t d/dt log Phi_R = -t Q'/Q obey Newton's identities
    c_m = -m q_m - sum_{k=1}^{m-1} q_k c_{m-k}.  Taking t d/dt log of the
    product and writing e_n = n x_n gives c_m = sum_{n|m} e_n
    - p sum_{n|(m/p)} e_n, the last sum present only when p divides m; it is
    solved for e_m degree by degree, with a forward sieve accumulating the
    sums over proper divisors.
    """
    if upto < 1:
        raise DomainError(f"degree bound must be >= 1, got {upto}")
    # |c_m| <= (clique number) * |V|^m, so coefficient sizes grow linearly
    # with the degree; their total bit length bounds time and memory.
    check_states(upto * (upto + 1) // 2 * max(1, len(g.vertices).bit_length()),
                 "series ranks (coefficient bits)")
    q = [n if k % 2 == 0 else -n for k, n in enumerate(clique_counts(g))]
    c = [0] * (upto + 1)
    e = [0] * (upto + 1)
    proper = [0] * (upto + 1)  # proper[m] = sum of e_n over n | m, n < m
    for m in range(1, upto + 1):
        c[m] = -sum(q[k] * c[m - k] for k in range(1, min(m, len(q))))
        if m < len(q):
            c[m] -= m * q[m]
        e[m] = c[m] - proper[m]
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
    for e in left_normed_brackets(g, n):
        x = PCSeries(g, Q, order, e.items())
        if not is_primitive(x):
            return x
    return None
