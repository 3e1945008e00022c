"""Growth and Poincare series, with closed forms and a BFS oracle."""

from __future__ import annotations

from dataclasses import dataclass

from raag.graph import Graph, clique_counts
from raag.series import DomainError
from raag.useries import RatFunc, USeries, _poly_mul


def phi_S(g: Graph) -> USeries:
    """Clique polynomial (Poincare series of the signed clique algebra):
    the coefficient of t^n counts the n-cliques."""
    counts = clique_counts(g)
    return USeries(counts, len(counts))


def phi_R(g: Graph, order: int) -> USeries:
    """Poincare series of the polynomial ring: the reciprocal of the clique
    polynomial evaluated at -t."""
    _check_order(order)
    return phi_R_ratfunc(g).series(order)


def _check_order(order: int) -> None:
    if order < 1:
        raise DomainError(f"truncation order must be >= 1, got {order}")


def phi_R_ratfunc(g: Graph) -> RatFunc:
    counts = clique_counts(g)
    den = [c if n % 2 == 0 else -c for n, c in enumerate(counts)]
    return RatFunc([1], den)


def phi_A(g: Graph, order: int) -> USeries:
    """Growth series of the group: phi_R composed with 2t/(1+t)."""
    _check_order(order)
    inner = RatFunc([0, 2], [1, 1]).series(order)
    return phi_R(g, order).compose(inner)


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

    gu = disjoint_union(g1, g2)
    gj = join(g1, g2)
    one = USeries.one(order)
    out = []

    def recip_defect(series: USeries) -> USeries:
        return one - series.invert()

    out.append(IdentityReport(
        "union: 1 - 1/Phi_A additive",
        recip_defect(phi_A(gu, order))
        == recip_defect(phi_A(g1, order)) + recip_defect(phi_A(g2, order)),
    ))
    out.append(IdentityReport(
        "union: 1 - 1/Phi_R additive",
        recip_defect(phi_R(gu, order))
        == recip_defect(phi_R(g1, order)) + recip_defect(phi_R(g2, order)),
    ))
    out.append(IdentityReport(
        "union: 1 - Phi_S additive",
        one - phi_S(gu).truncate(order)
        == (one - phi_S(g1).truncate(order)) + (one - phi_S(g2).truncate(order)),
    ))
    out.append(IdentityReport(
        "join: Phi_A multiplicative",
        phi_A(gj, order) == phi_A(g1, order) * phi_A(g2, order),
    ))
    out.append(IdentityReport(
        "join: Phi_R multiplicative",
        phi_R(gj, order) == phi_R(g1, order) * phi_R(g2, order),
    ))
    out.append(IdentityReport(
        "join: Phi_S multiplicative",
        phi_S(gj).truncate(order)
        == phi_S(g1).truncate(order) * phi_S(g2).truncate(order),
    ))
    return out
