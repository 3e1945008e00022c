"""Truncated power series in partially commuting variables.

Elements are finite maps from canonical traces of length < N to nonzero
coefficients, over Z, Q, or F_p.  All arithmetic is exact; binary
operations insist on equal graph, domain and truncation order.  The
shared sparse arithmetic lives in `LinComb`, which the clique algebra
uses as well; its constructor is where a series reduces into the domain
(`raag.magnus` steps its images as integer dicts, not as series).  The
tensor square of the ring over g is the ring over `join(g, g)`, so the Hopf
maps need no type of their own.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import chain
from math import factorial
from typing import Hashable, Iterable

from raag.errors import DomainError
from raag.graph import Graph, join
from raag.words import Trace, _concat, canonicalize_trace


def _is_small_prime(p: int) -> bool:
    """Whether p is a prime below 2^31, the one primality test of the
    package.  The size is checked before any division, so trial division
    takes at most 46,341 steps however large p is."""
    if not 2 <= p < 2**31:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class Domain(namedtuple("Domain", "kind p", defaults=(None,))):
    """Coefficient domain: Z, Q, or F_p with p prime."""

    __slots__ = ()

    def __new__(cls, kind: str, p: int | None = None):
        # kind is "Z" | "Q" | "Fp"
        if kind not in ("Z", "Q", "Fp"):
            raise DomainError(f"unknown domain kind {kind!r}")
        if kind == "Fp":
            if p is None or not _is_small_prime(p):
                raise DomainError(f"F_p needs a prime p < 2^31, got {p!r}")
        elif p is not None:
            raise DomainError("p is only meaningful for Fp")
        return super().__new__(cls, kind, p)

    # `_replace` builds through `_make`, which would skip the check above
    _make = classmethod(lambda cls, fields: cls(*fields))

    def coerce(self, x):
        """The image of x, an int (a bool is one) or a Fraction: a float,
        a Decimal or a str raises, as converting it could change it."""
        # nearly every coefficient is a plain int: it is mapped before the
        # ABCMeta check of isinstance(x, Fraction)
        if type(x) is int:
            if self.kind == "Z":
                return x
            return Fraction(x) if self.kind == "Q" else x % self.p
        if not isinstance(x, (int, Fraction)):
            raise DomainError(f"{x!r} is not an int or a Fraction")
        x = Fraction(x)
        if self.kind == "Q":
            return x
        if self.kind == "Z":
            if x.denominator != 1:
                raise DomainError(f"{x} is not an integer")
            return x.numerator
        den = x.denominator % self.p
        if not den:
            raise DomainError(f"{x} is not an element of F_{self.p}")
        return x.numerator * pow(den, -1, self.p) % self.p

    def is_unit(self, a) -> bool:
        if self.kind == "Z":
            return a in (1, -1)
        return a != self.coerce(0)

    def inv(self, a):
        if self.kind == "Z":
            if a not in (1, -1):
                raise DomainError(f"{a} is not a unit in Z")
            return a
        if self.kind == "Q":
            return Fraction(1) / a
        if a % self.p == 0:
            raise DomainError("division by zero in F_p")
        return pow(a, -1, self.p)

    @property
    def zero(self):
        return self.coerce(0)

    @property
    def one(self):
        return self.coerce(1)


Z = Domain("Z")
Q = Domain("Q")


def Fp(p: int) -> Domain:
    return Domain("Fp", p)


class LinComb:
    """Finitely supported linear combination of basis keys over a `Domain`,
    truncated below degree `order` (no truncation when `order` is None).

    Subclasses name the degree of a key (`_degree`) and add the product;
    binary operations insist on equal class, graph, domain and order.

    The constructor is the one place where coefficients are summed and
    reduced: it takes (key, coefficient) terms whose keys may repeat, sums
    the repeats as plain Python numbers, drops keys of degree >= `order`,
    and coerces each sum once into the domain, dropping zeros.  Reduction
    Z -> F_p is a ring map, so reducing once at the end gives the same
    element as reducing every partial sum and product.
    """

    __slots__ = ("graph", "domain", "order", "coeffs")
    _degree = len

    def __init__(self, graph: Graph, domain: Domain, order: int | None,
                 terms: Iterable[tuple[Hashable, object]] = ()):
        if order is not None and order < 1:
            raise DomainError("truncation order must be >= 1")
        self.graph = graph
        self.domain = domain
        self.order = order
        acc = {}
        for k, c in terms:
            if k in acc:
                acc[k] += c
            else:
                acc[k] = c
        coerce, degree = domain.coerce, self._degree
        bound = float("inf") if order is None else order
        clean = {}
        for k, c in acc.items():
            if degree(k) < bound:
                c = coerce(c)
                if c:
                    clean[k] = c
        self.coeffs = clean

    def _check(self, other: "LinComb"):
        if (type(self) is not type(other) or self.graph != other.graph
                or self.domain != other.domain or self.order != other.order):
            raise DomainError("mismatched graph, domain, or truncation order")

    def _like(self, terms: Iterable[tuple[Hashable, object]]):
        return type(self)(self.graph, self.domain, self.order, terms)

    def __add__(self, other):
        self._check(other)
        return self._like(chain(self.coeffs.items(), other.coeffs.items()))

    def __neg__(self):
        return self._like((k, -c) for k, c in self.coeffs.items())

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        c = self.domain.coerce(c)
        return self._like((k, c * x) for k, x in self.coeffs.items())

    def __eq__(self, other) -> bool:
        return (type(self) is type(other)
                and self.graph == other.graph
                and self.domain == other.domain
                and self.order == other.order
                and self.coeffs == other.coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs


class PCSeries(LinComb):
    """Element of the series ring, truncated below degree `order`; the keys
    are canonical traces."""

    __slots__ = ()

    # -- constructors --------------------------------------------------

    @classmethod
    def one(cls, graph: Graph, domain: Domain, order: int) -> "PCSeries":
        return cls(graph, domain, order, [((), 1)])

    @classmethod
    def generator(cls, v: str, graph: Graph, domain: Domain, order: int) -> "PCSeries":
        graph.index(v)
        return cls(graph, domain, order, [((v,), 1)])

    @classmethod
    def from_terms(cls, terms: Iterable[tuple[Iterable[str], object]],
                   graph: Graph, domain: Domain, order: int) -> "PCSeries":
        """Build from (letters, coefficient) pairs; letters need not be canonical."""
        return cls(graph, domain, order,
                   ((canonicalize_trace(letters, graph), c) for letters, c in terms))

    # -- ring operations -----------------------------------------------

    def __mul__(self, other: "PCSeries") -> "PCSeries":
        self._check(other)
        g, order = self.graph, self.order
        return self._like(
            (_concat(t1, t2, g), c1 * c2)
            for t1, c1 in self.coeffs.items()
            for t2, c2 in other.coeffs.items()
            if len(t1) + len(t2) < order)

    def __pow__(self, n: int) -> "PCSeries":
        if n < 0:
            return invert_unit(self) ** (-n)
        out = PCSeries.one(self.graph, self.domain, self.order)
        for _ in range(n):
            out = out * self
        return out

    # -- views ---------------------------------------------------------

    def coefficient(self, letters: Iterable[str]):
        t = canonicalize_trace(letters, self.graph)
        return self.coeffs.get(t, self.domain.zero)

    def constant_term(self):
        return self.coeffs.get((), self.domain.zero)

    def sorted_terms(self) -> list[tuple[Trace, object]]:
        rank = self.graph._index.__getitem__
        return sorted(self.coeffs.items(),
                      key=lambda item: (len(item[0]), tuple(map(rank, item[0]))))

    def __repr__(self) -> str:
        terms = self.sorted_terms()
        if not terms:
            return "0"
        return " + ".join(f"{c}*{''.join(t) or '1'}" for t, c in terms)


# -- module-level operations ------------------------------------------


def _power_sum(u: PCSeries, coeff) -> PCSeries:
    """The sum of coeff(n) * u^n over n >= 0, for u with zero constant
    term: each power starts one degree higher, so the loop stops at the
    first power that vanishes below the truncation order."""
    terms = []
    pw = PCSeries.one(u.graph, u.domain, u.order)
    n = 0
    while pw.coeffs:
        c = coeff(n)
        terms.extend((t, c * a) for t, a in pw.coeffs.items())
        pw = pw * u
        n += 1
    return u._like(terms)


def invert_unit(x: PCSeries) -> PCSeries:
    """Inverse of a series whose constant term is a unit, by the geometric
    series on the augmentation-ideal part."""
    d = x.domain
    c0 = x.constant_term()
    if not d.is_unit(c0):
        raise DomainError(f"constant term {c0!r} is not invertible")
    c0_inv = d.inv(c0)
    u = x.scale(c0_inv) - PCSeries.one(x.graph, d, x.order)  # u in the ideal
    return _power_sum(u, lambda n: (-1) ** n * c0_inv)


def exp_series(x: PCSeries) -> PCSeries:
    if x.domain.kind != "Q":
        raise DomainError("exp needs rational coefficients")
    if x.constant_term() != 0:
        raise DomainError("exp needs zero constant term")
    return _power_sum(x, lambda n: Fraction(1, factorial(n)))


def log_series(y: PCSeries) -> PCSeries:
    if y.domain.kind != "Q":
        raise DomainError("log needs rational coefficients")
    if y.constant_term() != 1:
        raise DomainError("log needs constant term 1")
    u = y - PCSeries.one(y.graph, y.domain, y.order)
    return _power_sum(u, lambda n: Fraction((-1) ** (n + 1), n) if n else 0)


def _side(x: PCSeries, tag: str) -> PCSeries:
    """x in one factor of the tensor square, the series ring of
    `join(g, g)`: a graph's names all collide with its own, so the join
    renames v to `disjoint_union`'s collision tags, v.1 on the left and
    v.2 on the right.  The copies keep g's order and edges, so renamed
    traces stay canonical."""
    g = x.graph
    return PCSeries(join(g, g), x.domain, x.order,
                    [(tuple(v + tag for v in t), c) for t, c in x.coeffs.items()])


def tensor(x: PCSeries, y: PCSeries) -> PCSeries:
    """x (x) y in the series ring of `join(g, g)`.  Every left letter
    commutes with every right one and precedes it in vertex order, so a
    canonical trace there is a left trace followed by a right trace."""
    return _side(x, ".1") * _side(y, ".2")


def coproduct(x: PCSeries) -> PCSeries:
    """Algebra map determined by v -> v.1 + v.2, into the tensor square.

    On a trace it expands as a sum over subsets of letter positions, the
    chosen letters going left and the rest right.
    """
    g = x.graph
    gj = join(g, g)
    terms = []
    for t, c in x.coeffs.items():
        k = len(t)
        for mask in range(1 << k):
            tagged = (v + (".1" if mask >> i & 1 else ".2")
                      for i, v in enumerate(t))
            terms.append((_concat((), tagged, gj), c))
    return PCSeries(gj, x.domain, x.order, terms)


def is_primitive(x: PCSeries) -> bool:
    one = PCSeries.one(x.graph, x.domain, x.order)
    return coproduct(x) == tensor(x, one) + tensor(one, x)


def is_grouplike(x: PCSeries) -> bool:
    return x.constant_term() == x.domain.one and coproduct(x) == tensor(x, x)
