"""Truncated power series in partially commuting variables.

Elements are finite maps from canonical traces of length < N to nonzero
coefficients, over Z, Q, or F_p.  All arithmetic is exact; binary
operations insist on equal graph, domain and truncation order.  The
shared sparse arithmetic lives in `LinComb`, which the tensor square and
the clique algebra use as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import factorial
from typing import Hashable, Iterable

from raag.errors import RaagError
from raag.graph import Graph
from raag.words import Trace, _concat, canonicalize_trace


class DomainError(RaagError, ValueError):
    pass


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


@dataclass(frozen=True)
class Domain:
    """Coefficient domain: Z, Q, or F_p with p prime."""

    kind: str  # "Z" | "Q" | "Fp"
    p: int | None = None

    def __post_init__(self):
        if self.kind not in ("Z", "Q", "Fp"):
            raise DomainError(f"unknown domain kind {self.kind!r}")
        if self.kind == "Fp":
            if self.p is None or not _is_small_prime(self.p):
                raise DomainError(f"F_p needs a prime p < 2^31, got {self.p!r}")
        elif self.p is not None:
            raise DomainError("p is only meaningful for Fp")

    def coerce(self, x):
        if self.kind == "Z":
            if isinstance(x, Fraction):
                if x.denominator != 1:
                    raise DomainError(f"{x} is not an integer")
                return x.numerator
            return int(x)
        if self.kind == "Q":
            return Fraction(x)
        if isinstance(x, Fraction):
            num = x.numerator % self.p
            den = x.denominator % self.p
            if not den:
                raise DomainError(f"{x} is not an element of F_{self.p}")
            return (num * pow(den, -1, self.p)) % self.p
        return int(x) % self.p

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


def _pair_degree(key) -> int:
    a, b = key
    return len(a) + len(b)


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

    def map_domain(self, domain: Domain):
        """Reinterpret coefficients in another domain (Z -> Q or Z -> F_p)."""
        return type(self)(self.graph, domain, self.order, self.coeffs.items())

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
    def zero(cls, graph: Graph, domain: Domain, order: int) -> "PCSeries":
        return cls(graph, domain, order)

    @classmethod
    def constant(cls, c, graph: Graph, domain: Domain, order: int) -> "PCSeries":
        return cls(graph, domain, order, [((), c)])

    @classmethod
    def one(cls, graph: Graph, domain: Domain, order: int) -> "PCSeries":
        return cls.constant(1, graph, domain, order)

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
        g = self.graph
        return sorted(
            self.coeffs.items(),
            key=lambda item: (len(item[0]), tuple(g.index(v) for v in item[0])),
        )

    def to_json_obj(self) -> list[dict]:
        # a trace is a list of vertex names: joining them is ambiguous
        # once a name is the concatenation of others
        return [
            {"trace": list(t), "coeff": str(c)} for t, c in self.sorted_terms()
        ]

    def __repr__(self) -> str:
        terms = self.sorted_terms()
        if not terms:
            return "0"
        return " + ".join(f"{c}*{''.join(t) or '1'}" for t, c in terms)


# -- module-level operations ------------------------------------------


def invert_unit(x: PCSeries) -> PCSeries:
    """Inverse of a series whose constant term is a unit, by the geometric
    series on the augmentation-ideal part."""
    d = x.domain
    c0 = x.constant_term()
    if not d.is_unit(c0):
        raise DomainError(f"constant term {c0!r} is not invertible")
    c0_inv = d.inv(c0)
    u = x.scale(c0_inv) - PCSeries.one(x.graph, d, x.order)  # u in the ideal
    out = PCSeries.one(x.graph, d, x.order)
    pw = PCSeries.one(x.graph, d, x.order)
    sign = -1
    for _ in range(1, x.order):
        pw = pw * u
        if not pw.coeffs:
            break
        out = out + pw.scale(sign)
        sign = -sign
    return out.scale(c0_inv)


def exp_series(x: PCSeries) -> PCSeries:
    if x.domain.kind != "Q":
        raise DomainError("exp needs rational coefficients")
    if x.constant_term() != 0:
        raise DomainError("exp needs zero constant term")
    out = PCSeries.one(x.graph, x.domain, x.order)
    pw = PCSeries.one(x.graph, x.domain, x.order)
    for n in range(1, x.order):
        pw = pw * x
        if not pw.coeffs:
            break
        out = out + pw.scale(Fraction(1, factorial(n)))
    return out


def log_series(y: PCSeries) -> PCSeries:
    if y.domain.kind != "Q":
        raise DomainError("log needs rational coefficients")
    if y.constant_term() != 1:
        raise DomainError("log needs constant term 1")
    u = y - PCSeries.one(y.graph, y.domain, y.order)
    out = PCSeries.zero(y.graph, y.domain, y.order)
    pw = PCSeries.one(y.graph, y.domain, y.order)
    for n in range(1, y.order):
        pw = pw * u
        if not pw.coeffs:
            break
        out = out + pw.scale(Fraction((-1) ** (n + 1), n))
    return out


def antipode(x: PCSeries) -> PCSeries:
    """The anti-automorphism sending each generator v to -v."""
    g = x.graph
    return x._like((canonicalize_trace(t[::-1], g), -c if len(t) % 2 else c)
                   for t, c in x.coeffs.items())


class TensorSeries(LinComb):
    """Element of the (truncated) tensor square of the series ring; the keys
    are pairs of canonical traces."""

    __slots__ = ()
    _degree = staticmethod(_pair_degree)

    def __mul__(self, other: "TensorSeries") -> "TensorSeries":
        self._check(other)
        g, order = self.graph, self.order
        return self._like(
            ((_concat(a1, a2, g), _concat(b1, b2, g)), c1 * c2)
            for (a1, b1), c1 in self.coeffs.items()
            for (a2, b2), c2 in other.coeffs.items()
            if len(a1) + len(a2) + len(b1) + len(b2) < order)

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        return " + ".join(
            f"{c}*({''.join(a) or '1'}(x){''.join(b) or '1'})"
            for (a, b), c in sorted(self.coeffs.items())
        )


def tensor(x: PCSeries, y: PCSeries) -> TensorSeries:
    x._check(y)
    return TensorSeries(x.graph, x.domain, x.order,
                        (((t1, t2), c1 * c2)
                         for t1, c1 in x.coeffs.items()
                         for t2, c2 in y.coeffs.items()))


def coproduct(x: PCSeries) -> TensorSeries:
    """Algebra map determined by v -> v(x)1 + 1(x)v.

    On a trace it expands as a sum over subsets of letter positions, the
    chosen letters going left and the rest right.
    """
    g = x.graph
    terms = []
    for t, c in x.coeffs.items():
        k = len(t)
        for mask in range(1 << k):
            left = tuple(t[i] for i in range(k) if mask >> i & 1)
            right = tuple(t[i] for i in range(k) if not mask >> i & 1)
            terms.append(((canonicalize_trace(left, g),
                           canonicalize_trace(right, g)), c))
    return TensorSeries(g, x.domain, x.order, terms)


def is_primitive(x: PCSeries) -> bool:
    one = PCSeries.one(x.graph, x.domain, x.order)
    return coproduct(x) == tensor(x, one) + tensor(one, x)


def is_grouplike(x: PCSeries) -> bool:
    return x.constant_term() == x.domain.one and coproduct(x) == tensor(x, x)

