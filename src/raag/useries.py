"""Exact univariate truncated series and rational functions."""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from raag.errors import RaagError


class SeriesError(RaagError, ValueError):
    pass


class USeries:
    """Truncated series with exact rational coefficients, indexed by degree."""

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs: Iterable, order: int):
        cs = [Fraction(c) for c in coeffs][:order]
        cs += [Fraction(0)] * (order - len(cs))
        self.coeffs = cs
        self.order = order

    @classmethod
    def zero(cls, order: int) -> "USeries":
        return cls([], order)

    @classmethod
    def one(cls, order: int) -> "USeries":
        return cls([1], order)

    @classmethod
    def t(cls, order: int) -> "USeries":
        return cls([0, 1], order)

    def __getitem__(self, n: int) -> Fraction:
        return self.coeffs[n] if 0 <= n < self.order else Fraction(0)

    def _check(self, other: "USeries"):
        if self.order != other.order:
            raise SeriesError("mismatched truncation orders")

    def __add__(self, other: "USeries") -> "USeries":
        self._check(other)
        return USeries([a + b for a, b in zip(self.coeffs, other.coeffs)], self.order)

    def __sub__(self, other: "USeries") -> "USeries":
        self._check(other)
        return USeries([a - b for a, b in zip(self.coeffs, other.coeffs)], self.order)

    def __neg__(self) -> "USeries":
        return USeries([-a for a in self.coeffs], self.order)

    def scale(self, c) -> "USeries":
        c = Fraction(c)
        return USeries([c * a for a in self.coeffs], self.order)

    def __mul__(self, other: "USeries") -> "USeries":
        self._check(other)
        out = [Fraction(0)] * self.order
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j in range(self.order - i):
                b = other.coeffs[j]
                if b != 0:
                    out[i + j] += a * b
        return USeries(out, self.order)

    def invert(self) -> "USeries":
        if self.coeffs[0] == 0:
            raise SeriesError("constant term must be a unit")
        inv0 = Fraction(1) / self.coeffs[0]
        out = [inv0] + [Fraction(0)] * (self.order - 1)
        for n in range(1, self.order):
            s = sum(self.coeffs[k] * out[n - k] for k in range(1, n + 1))
            out[n] = -inv0 * s
        return USeries(out, self.order)

    def compose(self, inner: "USeries") -> "USeries":
        """self(inner(t)); inner must have zero constant term."""
        self._check(inner)
        if inner.coeffs[0] != 0:
            raise SeriesError("inner series must have zero constant term")
        out = USeries.zero(self.order)
        pw = USeries.one(self.order)
        for n, a in enumerate(self.coeffs):
            if a != 0:
                out = out + pw.scale(a)
            pw = pw * inner
            if all(c == 0 for c in pw.coeffs):
                break
        return out

    def substitute_neg(self) -> "USeries":
        """self(-t)."""
        return USeries([c if n % 2 == 0 else -c for n, c in enumerate(self.coeffs)],
                       self.order)

    def truncate(self, order: int) -> "USeries":
        return USeries(self.coeffs, order)

    def __eq__(self, other) -> bool:
        return (isinstance(other, USeries) and self.order == other.order
                and self.coeffs == other.coeffs)

    def __repr__(self) -> str:
        return f"USeries({[str(c) for c in self.coeffs]})"

    def as_ints(self) -> list[int]:
        out = []
        for c in self.coeffs:
            if c.denominator != 1:
                raise SeriesError(f"non-integer coefficient {c}")
            out.append(c.numerator)
        return out


class RatFunc:
    """Quotient of integer polynomials with invertible constant denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: Sequence[int], den: Sequence[int] = (1,)):
        num = _trim([int(c) for c in num])
        den = _trim([int(c) for c in den])
        if not den or den[0] == 0:
            raise SeriesError("denominator must have nonzero constant term")
        self.num = num
        self.den = den

    def series(self, order: int) -> USeries:
        return USeries(self.num, order) * USeries(self.den, order).invert()

    def __mul__(self, other: "RatFunc") -> "RatFunc":
        return RatFunc(_poly_mul(self.num, other.num), _poly_mul(self.den, other.den))

    def __pow__(self, n: int) -> "RatFunc":
        if n < 0:
            raise SeriesError("negative powers are not supported")
        out = RatFunc([1])
        for _ in range(n):
            out = out * self
        return out

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
