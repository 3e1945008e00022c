"""Integer rational functions and their power series."""

from __future__ import annotations

from collections import deque
from itertools import count, islice
from typing import Iterator, Sequence

from raag.errors import RaagError


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
