"""Growth and Poincare series, with their closed forms.

Each series is an integer rational function with denominator constant
term 1, so every coefficient comes from the one integer recurrence of
`RatFunc.coefficients`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import count, islice
from typing import Iterator, Sequence

from raag.errors import RaagError, check_states
from raag.graph import Graph, clique_counts
from raag.series import DomainError


class SeriesError(RaagError, ValueError):
    pass


class RatFunc:
    """Quotient num/den of integer polynomials with den[0] == 1, so that
    every coefficient of its power series is an integer."""

    __slots__ = ("num", "den")

    def __init__(self, num: Sequence[int], den: Sequence[int] = (1,)):
        num = _trim([int(c) for c in num])
        den = _trim([int(c) for c in den])
        if den[0] != 1:
            raise SeriesError("denominator must have constant term 1")
        self.num = num
        self.den = den

    def coefficients(self) -> Iterator[int]:
        """The power series coefficients a_0, a_1, ..., without end, by the
        recurrence a_n = num_n - sum_{k>=1} den_k a_{n-k}."""
        num, tail = self.num, self.den[1:]
        recent = deque([0] * len(tail), maxlen=len(tail))  # a_{n-1}, a_{n-2}, ...
        for n in count():
            a = num[n] if n < len(num) else 0
            a -= sum(d * x for d, x in zip(tail, recent))
            recent.appendleft(a)
            yield a

    def series(self, order: int) -> list[int]:
        """The coefficients of t^0, ..., t^(order - 1)."""
        return list(islice(self.coefficients(), order))

    def __mul__(self, other: "RatFunc") -> "RatFunc":
        return RatFunc(_poly_mul(self.num, other.num), _poly_mul(self.den, other.den))

    def __pow__(self, n: int) -> "RatFunc":
        if n < 0:
            raise SeriesError("negative powers are not supported")
        return RatFunc(_poly_pow(self.num, n), _poly_pow(self.den, n))

    def __str__(self) -> str:
        num, den = _poly_str(self.num), _poly_str(self.den)
        if den == "1":
            return num
        return f"({num})/({den})"


def _trim(cs: list[int]) -> list[int]:
    while len(cs) > 1 and cs[-1] == 0:
        cs.pop()
    return cs or [0]


def _poly_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_str(cs: Sequence[int]) -> str:
    parts = []
    for n, c in enumerate(cs):
        if c == 0:
            continue
        if n == 0:
            parts.append(str(c))
        else:
            t = "t" if n == 1 else f"t^{n}"
            if c == 1:
                parts.append(t)
            elif c == -1:
                parts.append(f"-{t}")
            else:
                parts.append(f"{c}*{t}")
    if not parts:
        return "0"
    return " + ".join(parts).replace("+ -", "- ")


def phi_S(g: Graph) -> list[int]:
    """Clique polynomial (Poincare series of the signed clique algebra):
    the coefficient of t^n counts the n-cliques, for n = 0..|V|."""
    return clique_counts(g)


def phi_R(g: Graph, order: int) -> list[int]:
    """Poincare series of the polynomial ring: the reciprocal of the clique
    polynomial evaluated at -t."""
    _check_order(g, order)
    return phi_R_ratfunc(g).series(order)


def _check_order(g: Graph, order: int) -> None:
    if order < 1:
        raise DomainError(f"truncation order must be >= 1, got {order}")
    # the n-th coefficient of Phi_A is at most 2|V| (2|V| - 1)^(n-1), the
    # free group's sphere size, and that of Phi_R at most |V|^n; either has
    # at most (n + 1) * bitlen(2|V| - 1) bits, and the total bit length
    # bounds time and memory
    check_states(order * (order + 1) // 2 * (2 * len(g.vertices) - 1).bit_length(),
                 "growth series (coefficient bits)")


def phi_R_ratfunc(g: Graph) -> RatFunc:
    counts = clique_counts(g)
    den = [c if n % 2 == 0 else -c for n, c in enumerate(counts)]
    return RatFunc([1], den)


def phi_A(g: Graph, order: int) -> list[int]:
    """Growth series of the group: phi_R composed with 2t/(1+t)."""
    _check_order(g, order)
    return phi_A_ratfunc(g).series(order)


def phi_A_ratfunc(g: Graph) -> RatFunc:
    # 1 / Phi_S(-2t/(1+t)): clear (1+t) powers from the substituted clique
    # polynomial to keep integer polynomial data.
    counts = clique_counts(g)
    deg = len(counts) - 1
    den = [0] * (deg + 1)
    for k, c in enumerate(counts):
        term = _poly_mul(_poly_pow([0, -2], k), _poly_pow([1, 1], deg - k))
        for i, x in enumerate(term):
            if i <= deg:
                den[i] += c * x
    return RatFunc(_poly_pow([1, 1], deg), den)


def _poly_pow(a, k):
    out = [1]
    for _ in range(k):
        out = _poly_mul(out, a)
    return out


@dataclass(frozen=True)
class IdentityReport:
    name: str
    holds: bool


def union_join_identities(g1: Graph, g2: Graph, order: int) -> list[IdentityReport]:
    """Coefficientwise checks of the disjoint-union reciprocal-additivity
    identities and the join multiplicativity identities."""
    from raag.graph import disjoint_union, join

    gu, gj = disjoint_union(g1, g2), join(g1, g2)
    _check_order(gu, order)

    def clique_poly(g: Graph) -> RatFunc:
        return RatFunc(phi_S(g))

    def reciprocal(form):
        # 1/(num/den) is den/num; both numerators have constant term 1
        def recip(g: Graph) -> RatFunc:
            f = form(g)
            return RatFunc(f.den, f.num)
        return recip

    out = []
    for name, form in (("1 - 1/Phi_A", reciprocal(phi_A_ratfunc)),
                       ("1 - 1/Phi_R", reciprocal(phi_R_ratfunc)),
                       ("1 - Phi_S", clique_poly)):
        u, a, b = ([int(n == 0) - x for n, x in enumerate(form(g).series(order))]
                   for g in (gu, g1, g2))
        out.append(IdentityReport(f"union: {name} additive",
                                  u == [x + y for x, y in zip(a, b)]))
    for name, form in (("Phi_A", phi_A_ratfunc), ("Phi_R", phi_R_ratfunc),
                       ("Phi_S", clique_poly)):
        j, a, b = (form(g).series(order) for g in (gj, g1, g2))
        out.append(IdentityReport(f"join: {name} multiplicative",
                                  j == _poly_mul(a, b)[:order]))
    return out
