"""Exact rank computation for sparse rows over Q or F_p.

Rows are dicts keyed by mutually comparable column labels; elimination
keeps a pivot row per column, reducing each incoming row against the
pivots (deterministic: pivot on the least remaining column in the labels'
own order, since the rank does not depend on the column order).

Elimination is fraction-free.  Over Q each row is first cleared to
integers; pivots are stored unnormalised, a row is reduced as
r <- lead(piv) r - lead(r) piv (both leads divided by their gcd), and the
gcd content of the row is divided out after each step, so entries stay
small integers.  Over F_p the same step runs modulo p.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import Hashable, Iterable

from raag.series import Domain, DomainError


def _integer_row(row: dict, domain: Domain) -> dict:
    """The nonzero entries of a row, as integers: reduced mod p over F_p,
    scaled by the lcm of the denominators over Q."""
    if domain.kind == "Fp":
        coerce = domain.coerce
        return {c: x for c, x in ((c, coerce(v)) for c, v in row.items()) if x}
    vals = {c: v if type(v) is int else domain.coerce(v)
            for c, v in row.items()}
    den = lcm(*(v.denominator for v in vals.values())) if vals else 1
    return {c: int(v * den) for c, v in vals.items() if v}


def rank_of_rows(rows: Iterable[dict], domain: Domain) -> int:
    if domain.kind == "Z":
        raise DomainError("rank needs a field; use Q or F_p")
    p = domain.p
    pivots: dict[Hashable, tuple[int, dict]] = {}  # col -> (lead, rest)
    rank = 0
    for row in rows:
        r = _integer_row(row, domain)
        while r:
            col = min(r)
            b = r.pop(col)
            piv = pivots.get(col)
            if piv is None:
                pivots[col] = (b, r)
                rank += 1
                break
            a, rest = piv
            if p is None:
                d = gcd(a, b)
                a, b = a // d, b // d
            if a != 1:
                r = ({c: a * x for c, x in r.items()} if p is None
                     else {c: a * x % p for c, x in r.items()})
            for c, x in rest.items():
                y = r.get(c, 0) - b * x
                if p is not None:
                    y %= p
                if y:
                    r[c] = y
                else:
                    del r[c]
            if p is None and r:
                d = gcd(*r.values())
                if d != 1:
                    r = {c: x // d for c, x in r.items()}
    return rank
