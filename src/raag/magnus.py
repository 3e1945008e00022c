"""The embedding of the group into units of the truncated series ring,
and the central-series data it computes.

Each generator v maps to 1+v; a syllable v^e maps to the binomial
expansion of (1+v)^e, which has integer coefficients for negative e as
well.  Valuations of the image decide membership in the lower central /
p-central series; the weighted valuation giving p degree 1 decides the
exponent-p series (for p >= 3).

Images are built one syllable step at a time: y.(1+v)^e is the sum of
c_k y.v^k, and each y.v^k is y.v^(k-1) with one letter appended, so no
general series product is formed (the exponential image steps with e^k/k!
for c_k).  The appends recur (t.v.v is (t.v).v when t.v is a term too, and
a prefix's image is extended by v^+1 and by v^-1), so each call keeps a
memo of them (`Appends`) and forms each t.v once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from raag.errors import check_states, max_states
from raag.graph import Graph
from raag.series import Domain, DomainError, PCSeries, Q, Z, _is_small_prime
from raag.words import (GroupWord, Trace, _concat, canonicalize_trace,
                        geodesic_words, reduce_word)


Appends = dict[str, dict[Trace, Trace]]  # v -> t -> t.v, for one call


def _binomials(e: int, order: int) -> list[int]:
    # the coefficients of (1+v)^e below degree `order`; for e < 0 the
    # generalized binomial coefficients comb(e, k) = (-1)^k * comb(-e+k-1, k)
    # are still integers
    if e >= 0:
        return [comb(e, k) for k in range(min(e + 1, order))]
    return [(-1) ** k * comb(-e + k - 1, k) for k in range(order)]


def _syllable_step(y: PCSeries, v: str, cs: list,
                   appends: Appends) -> PCSeries:
    """y * (c_0 + c_1 v + c_2 v^2 + ...) for the coefficients cs, cs[0] = 1,
    as the sum of c_k y.v^k: each y.v^k is y.v^(k-1) with one letter
    appended.  The append t.v is read from `appends`, or formed by one
    `_concat` and stored there."""
    g, order = y.graph, y.order
    col = appends.get(v)
    if col is None:
        col = appends[v] = {}
    terms = []
    for t, c in y.coeffs.items():
        terms.append((t, c))  # cs[0] = 1
        for ck in cs[1:order - len(t)]:
            tv = col.get(t)
            if tv is None:
                tv = col[t] = _concat(t, (v,), g)
            t = tv
            terms.append((t, c * ck))
    return y._like(terms)


def magnus(w: GroupWord, g: Graph, domain: Domain, order: int) -> PCSeries:
    """The image of w, truncated below degree `order`.

    Before each syllable step, its letter work (terms in x terms out per
    term x order) is added to a running total charged to the state cap
    under the stage "magnus", so a long word or a high order exits with
    `ResourceLimitError` instead of running unbounded."""
    cap = max_states()
    out = PCSeries.one(g, domain, order)
    appends: Appends = {}
    work = 0
    for s in w.syllables:
        e = s.exponent
        # charged before the binomials are built, since for a large |e| they
        # are huge integers: the width is len(_binomials(e, order))
        width = min(e + 1, order) if e >= 0 else order
        work += len(out.coeffs) * width * order
        check_states(work, "magnus", cap)
        out = _syllable_step(out, s.generator, _binomials(e, order), appends)
    return out


def magnus_exp(w: GroupWord, g: Graph, order: int) -> PCSeries:
    """Image under the exponential variant v -> sum v^n/n! (rationals only):
    the syllable v^e steps by exp(e v), with coefficients e^k/k!."""
    out = PCSeries.one(g, Q, order)
    appends: Appends = {}
    for s in w.syllables:
        cs = [Fraction(s.exponent**k, factorial(k)) for k in range(order)]
        out = _syllable_step(out, s.generator, cs, appends)
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

    def membership(self, n: int) -> str:
        """Three-valued answer to `w in delta_n`: 'in', 'out', or
        'undecided' when the truncation cannot tell."""
        if self.value >= n:
            return "in"
        return "out" if self.decided else "undecided"


def _omega(x: PCSeries) -> Valuation:
    # the least degree of a nonconstant term of the image x; its constant
    # term is 1, so these are the terms of x - 1
    d = min((len(t) for t in x.coeffs if t), default=x.order)
    return Valuation(d, d < x.order)


def omega_valuation(w: GroupWord, g: Graph, domain: Domain, order: int) -> Valuation:
    return _omega(magnus(w, g, domain, order))


def _vp(n: int, p: int) -> int:
    if n == 0:
        raise ValueError("valuation of zero")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _check_prime(p: int) -> None:
    # called before the image is built, so a bad p costs no work
    if not _is_small_prime(p):
        raise DomainError(f"p-valuation needs a prime p < 2^31, got {p}")


def _omega_p(x: PCSeries, p: int) -> Valuation:
    # the least weight len(trace) + v_p(coefficient) among the nonconstant
    # terms of the integer image x, for a p that passed `_check_prime`
    best = min([x.order] + [len(t) + _vp(c, p)
                            for t, c in x.coeffs.items() if t])
    return Valuation(best, best < x.order)


def omega_p_valuation(w: GroupWord, g: Graph, p: int, order: int) -> Valuation:
    """Least weight len(trace) + v_p(coefficient) among nonconstant terms of
    mu(w) - 1 over Z.  Exact whenever the result is below the truncation
    order, because hidden terms have trace length >= order."""
    _check_prime(p)
    return _omega_p(magnus(w, g, Z, order), p)


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


# -- desk-scale injectivity check --------------------------------------


def injectivity_witness(g: Graph, r: int, order: int, domain: Domain):
    """None if the truncated images of the ball of radius r are pairwise
    distinct, else a pair of distinct elements with equal image: the first
    geodesic word whose image was seen before, and the earlier one.

    `geodesic_words` yields every word after its prefix, so each image is
    its prefix's image times one letter, by one syllable step; the images
    of the words shorter than r are kept for that.  The steps share one
    `Appends` memo, so each append t.x is formed once per call: u.x and
    u.x^-1 append x to the same terms, and the image of u.y keeps the
    terms of u's image, to which its own extensions append again."""
    one = PCSeries.one(g, domain, order)
    steps = {e: _binomials(e, order) for e in (1, -1)}
    appends: Appends = {}
    images: dict = {}
    seen: dict = {}
    for letters in geodesic_words(g, r):
        image = one
        if letters:
            x, e = letters[-1]
            image = _syllable_step(images[letters[:-1]], x, steps[e], appends)
        if len(letters) < r:
            images[letters] = image
        key = frozenset(image.coeffs.items())
        if key in seen:
            return (reduce_word(seen[key], g), reduce_word(letters, g))
        seen[key] = letters
    return None
