"""The embedding of the group into units of the truncated series ring,
and the central-series data it computes.

Each generator v maps to 1+v; a syllable v^e maps to the binomial
expansion of (1+v)^e, which has integer coefficients for negative e as
well.  Valuations of the image decide membership in the lower central /
p-central series; the weighted valuation giving p degree 1 decides the
exponent-p series (for p >= 3).

Images are built one syllable step at a time: y.(1+v)^e is the sum of
c_k y.v^k, and each y.v^k is y.v^(k-1) with one letter appended, so no
general series product is formed.  The appends recur (t.v.v is (t.v).v
when t.v is a term too, and a prefix's image is extended by v^+1 and by
v^-1), so each call keeps a memo of them (`Appends`) and forms each t.v
once.  An image is a dict from trace to integer coefficient: Z -> Q and
Z -> F_p are ring maps, so one integer image, reduced mod p after each step
for F_p, serves every domain, and `magnus` alone builds a series from it.
"""

from __future__ import annotations

from typing import NamedTuple

from raag.errors import check_states, max_states
from raag.graph import Graph
from raag.series import Domain, DomainError, Fp, PCSeries
from raag.words import (GroupWord, Trace, _concat, canonicalize_trace,
                        geodesic_words, reduce_word)


Appends = dict[str, dict[Trace, Trace]]  # v -> t -> t.v, for one call


def _binomials(e: int, order: int) -> list[int]:
    # the coefficients of (1+v)^e below degree `order`, stepped by
    # c_{k+1} = c_k (e - k) / (k + 1), a division that is exact; for e < 0
    # they are the generalized binomial coefficients, still integers, and
    # for e >= 0 they stop at v^e
    cs = []
    c = 1
    for k in range(min(e + 1, order) if e >= 0 else order):
        cs.append(c)
        c = c * (e - k) // (k + 1)
    return cs


def _binomial_digits(e: int, width: int, order: int) -> int:
    """A bound on the size of the binomials c_k, k < width, of (1+v)^e, in
    decimal digits, with a c_k past 4,300 digits counted as its square over
    4,300: converting an int to decimal is quadratic in its digits, which is
    why Python refuses more than 4,300 of them by default.  c_k is at most
    (|e| + order)^min(k, |e|), since C(n, k) = C(n, n - k)."""
    d = (abs(e) + order).bit_length() * 30103 // 100000 + 1
    total = 0
    for k in range(1, width):
        c = min(k, abs(e)) * d
        total += c if c <= 4300 else c * c // 4300
    return total


def _syllable_step(y: dict[Trace, int], v: str, cs: list[int], order: int,
                   g: Graph, appends: Appends,
                   p: int | None = None) -> dict[Trace, int]:
    """y * (c_0 + c_1 v + c_2 v^2 + ...) below degree `order`, cs[0] = 1, as
    the sum of c_k y.v^k: each y.v^k is y.v^(k-1) with one letter appended,
    read from `appends` or formed by one `_concat` and stored there.  The
    integer sums are reduced mod p when p is given, and zeros dropped."""
    col = appends.setdefault(v, {})
    out: dict[Trace, int] = {}
    for t, c in y.items():
        out[t] = out.get(t, 0) + c  # cs[0] = 1
        for ck in cs[1:order - len(t)]:
            tv = col.get(t)
            if tv is None:
                tv = col[t] = _concat(t, (v,), g)
            t = tv
            out[t] = out.get(t, 0) + c * ck
    if p is None:
        return {t: c for t, c in out.items() if c}
    return {t: r for t, c in out.items() if (r := c % p)}


def _image(w: GroupWord, g: Graph, order: int,
           p: int | None = None) -> dict[Trace, int]:
    """The integer image of w below degree `order`, mod p when p is given.

    Before each syllable step, its letter work (terms in x terms out per
    term x order) is added to a running total charged to the state cap
    under the stage "magnus", and the digits of its binomials, once per
    term in, to another under "magnus (coefficient digits)", so a long
    word, a high order or a huge exponent exits with `ResourceLimitError`
    instead of running unbounded."""
    if order < 1:
        raise DomainError("truncation order must be >= 1")
    cap = max_states()
    out = {(): 1}
    appends: Appends = {}
    work = digits = 0
    for s in w.syllables:
        e = s.exponent
        # charged before the binomials are built, since for a large |e| they
        # are huge integers: the width is len(_binomials(e, order))
        width = min(e + 1, order) if e >= 0 else order
        work += len(out) * width * order
        check_states(work, "magnus", cap)
        digits += len(out) * _binomial_digits(e, width, order)
        check_states(digits, "magnus (coefficient digits)", cap)
        out = _syllable_step(out, s.generator, _binomials(e, order), order,
                             g, appends, p)
    return out


def magnus(w: GroupWord, g: Graph, domain: Domain, order: int) -> PCSeries:
    """The image of w over `domain`, truncated below degree `order`."""
    return PCSeries(g, domain, order, _image(w, g, order, domain.p).items())


# -- valuations --------------------------------------------------------


class Valuation(NamedTuple):
    """Least filtration level containing mu(w) - 1.

    `decided` is False when every visible term sits at the truncation
    bound, in which case `value` is only a lower bound.
    """

    value: int
    decided: bool

    def membership(self, n: int) -> str:
        """Three-valued answer to `w in delta_n`: 'in', 'out', or
        'undecided' when the truncation cannot tell.  Dimension subgroups
        start at delta_1."""
        if n < 1:
            raise DomainError(f"dimension subgroups start at 1, got {n}")
        if self.value >= n:
            return "in"
        return "out" if self.decided else "undecided"


def _omega(image: dict[Trace, int], order: int) -> Valuation:
    # the least degree of a nonconstant term of an image truncated below
    # `order`; its constant term is 1, so these are the terms of image - 1
    d = min((len(t) for t in image if t), default=order)
    return Valuation(d, d < order)


def _vp(n: int, p: int) -> int:
    if n == 0:
        raise ValueError("valuation of zero")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def valuations(w: GroupWord, g: Graph, order: int, domain: Domain,
               p: int) -> tuple[Valuation, Valuation]:
    """omega(w) over `domain`, and omega_p(w), the least weight
    len(trace) + v_p(coefficient) of a nonconstant term of mu(w) - 1 over
    Z; each is exact when below `order`, as hidden terms have trace length
    >= order.  One integer image, built once p is checked, serves both:
    Z -> Q and Z -> F_p are ring maps, and only F_p loses terms, those
    whose coefficients its prime divides."""
    Fp(p)
    image = _image(w, g, order)
    q = domain.p
    kept = image if q is None else {t: c for t, c in image.items() if c % q}
    best = min([order] + [len(t) + _vp(c, p) for t, c in image.items() if t])
    return _omega(kept, order), Valuation(best, best < order)


# -- leading monomial in characteristic p ------------------------------


class LeadingMonomial(NamedTuple):
    trace: Trace
    exponents: tuple[int, ...]  # the p-power exponent of each syllable
    coefficient: int  # nonzero mod p


def leading_monomial_char_p(w: GroupWord, g: Graph, p: int) -> LeadingMonomial:
    """The unique monomial of mu(w) over F_p with maximal syllable count and
    minimal (p-power) exponents, read off the canonical form: the syllable
    v^e with e = p^s * l, p not dividing l, contributes v^{p^s} and a
    factor l to the coefficient."""
    Fp(p)
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
    if order < 1:
        raise DomainError("truncation order must be >= 1")
    steps = {e: _binomials(e, order) for e in (1, -1)}
    appends: Appends = {}
    images: dict = {}
    seen: dict = {}
    for letters in geodesic_words(g, r):
        image = {(): 1}
        if letters:
            x, e = letters[-1]
            image = _syllable_step(images[letters[:-1]], x, steps[e], order,
                                   g, appends, domain.p)
        if len(letters) < r:
            images[letters] = image
        key = frozenset(image.items())
        if key in seen:
            return (reduce_word(seen[key], g), reduce_word(letters, g))
        seen[key] = letters
    return None
