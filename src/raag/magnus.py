"""The embedding of the group into units of the truncated series ring,
and the central-series data it computes.

Each generator v maps to 1+v; a syllable v^e maps to the binomial
expansion of (1+v)^e, which has integer coefficients for negative e as
well.  Valuations of the image decide membership in the lower central /
p-central series; the weighted valuation giving p degree 1 decides the
exponent-p series (for p >= 3).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from raag.errors import check_states
from raag.graph import Graph
from raag.linalg import rank_of_rows
from raag.series import Domain, DomainError, PCSeries, Z, _is_prime
from raag.words import (GroupWord, Trace, canonicalize_trace, geodesic_words,
                        reduce_word)


def _syllable_image(v: str, e: int, g: Graph, domain: Domain, order: int) -> PCSeries:
    # (1+v)^e truncated; for e < 0 the generalized binomial coefficients
    # comb(e, k) = (-1)^k * comb(-e+k-1, k) are still integers.
    terms = []
    for k in range(order):
        if e >= 0 and k > e:
            break
        c = comb(e, k) if e >= 0 else (-1) ** k * comb(-e + k - 1, k)
        terms.append(((v,) * k, c))
    return PCSeries(g, domain, order, terms)


def magnus(w: GroupWord, g: Graph, domain: Domain, order: int) -> PCSeries:
    out = PCSeries.one(g, domain, order)
    for s in w.syllables:
        out = out * _syllable_image(s.generator, s.exponent, g, domain, order)
    return out


def magnus_exp(w: GroupWord, g: Graph, order: int) -> PCSeries:
    """Image under the exponential variant v -> sum v^n/n! (rationals only)."""
    from fractions import Fraction

    from raag.series import Q, exp_series

    out = PCSeries.one(g, Q, order)
    for s in w.syllables:
        x = PCSeries.generator(s.generator, g, Q, order).scale(Fraction(s.exponent))
        out = out * exp_series(x)
    return out


# -- valuations --------------------------------------------------------


@dataclass(frozen=True)
class Valuation:
    """Least filtration level containing mu(w) - 1.

    `decided` is False when every visible term sits at the truncation
    bound, in which case `value` is only a lower bound.
    """

    value: int
    decided: bool


def omega_valuation(w: GroupWord, g: Graph, domain: Domain, order: int) -> Valuation:
    x = magnus(w, g, domain, order) - PCSeries.one(g, domain, order)
    d = x.min_degree()
    return Valuation(d, d < x.order)


def _vp(n: int, p: int) -> int:
    if n == 0:
        raise ValueError("valuation of zero")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def omega_p_valuation(w: GroupWord, g: Graph, p: int, order: int) -> Valuation:
    """Least weight len(trace) + v_p(coefficient) among nonconstant terms of
    mu(w) - 1 over Z.  Exact whenever the result is below the truncation
    order, because hidden terms have trace length >= order."""
    if not _is_prime(p):
        raise DomainError(f"p-valuation needs a prime p, got {p}")
    x = magnus(w, g, Z, order) - PCSeries.one(g, Z, order)
    best = order
    for t, c in x.coeffs.items():
        weight = len(t) + _vp(c, p)
        if weight < best:
            best = weight
    return Valuation(best, best < order)


def dimension_subgroup_membership(w: GroupWord, g: Graph, n: int,
                                  domain: Domain, order: int) -> str:
    """Three-valued answer to `w in delta_n` for the representation v -> 1+v:
    'in', 'out', or 'undecided' when the truncation cannot tell."""
    val = omega_valuation(w, g, domain, order)
    if val.decided:
        return "in" if val.value >= n else "out"
    return "in" if n <= order else "undecided"


# -- leading monomial in characteristic p ------------------------------


@dataclass(frozen=True)
class LeadingMonomial:
    trace: Trace
    exponents: tuple[int, ...]  # the p-power exponent of each syllable
    coefficient: int  # nonzero mod p


def leading_monomial_char_p(w: GroupWord, g: Graph, p: int) -> LeadingMonomial:
    """The unique monomial of mu(w) over F_p with maximal syllable count and
    minimal (p-power) exponents, read off the canonical form: the syllable
    v^e with e = p^s * l, p not dividing l, contributes v^{p^s} and a
    factor l to the coefficient."""
    if not w.syllables:
        raise ValueError("identity has no leading monomial")
    letters: list[str] = []
    exps: list[int] = []
    coeff = 1
    for s in w.syllables:
        e = abs(s.exponent)
        sv = _vp(e, p)
        q = p**sv
        ell = s.exponent // q
        letters.extend([s.generator] * q)
        exps.append(q)
        coeff = coeff * ell % p
    return LeadingMonomial(canonicalize_trace(letters, g), tuple(exps), coeff % p)


# -- graded span ranks -------------------------------------------------


def magnus_span_rank(g: Graph, r: int, order: int, domain: Domain) -> list[int]:
    """For n = 1..order-1, the rank over `domain` of the span of degree-n
    components of n-fold products of (mu(v) - 1) with v a generator in the
    ball of radius r.  Since mu(v) - 1 = v, once r >= 1 every degree-n
    trace is such a component.
    """
    if domain.kind == "Z":
        raise DomainError("span rank needs a field domain")
    one = PCSeries.one(g, domain, order)
    gens = ([PCSeries.generator(v, g, domain, order) for v in g.vertices]
            if r >= 1 else [])
    ranks: list[int] = []
    for n in range(1, order):
        rows: list[dict] = []
        # all products of n generator images
        stack: list[tuple[int, PCSeries]] = [(0, one)]
        while stack:
            depth, acc = stack.pop()
            if depth == n:
                part = acc.homogeneous_part(n)
                if part:
                    rows.append(part)
                continue
            for x in gens:
                nxt = acc * x
                if nxt.coeffs:
                    stack.append((depth + 1, nxt))
            check_states(len(rows), "magnus_span_rank")
        ranks.append(rank_of_rows(rows, domain,
                                  col_key=lambda t: tuple(g.index(v) for v in t)))
    return ranks


# -- desk-scale injectivity check --------------------------------------


def injectivity_witness(g: Graph, r: int, order: int, domain: Domain):
    """None if the truncated images of the ball of radius r are pairwise
    distinct, else a pair of distinct elements with equal image."""
    seen: dict = {}
    for letters in geodesic_words(g, r):
        b = reduce_word(letters, g)
        key = frozenset(magnus(b, g, domain, order).coeffs.items())
        if key in seen:
            return (seen[key], b)
        seen[key] = b
    return None
