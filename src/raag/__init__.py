"""Exact computations attached to a right-angled Artin group A_Gamma.

Everything is parametrized by a finite simple graph with a fixed total
order on its vertices.  The main objects are:

* canonical forms for group elements and for monomials in partially
  commuting variables (:mod:`raag.words`);
* truncated power series in partially commuting variables with Hopf
  operations (:mod:`raag.series`);
* the "exterior" quadratic dual algebra on the clique basis
  (:mod:`raag.exterior`);
* the embedding of the group into units of the truncated series ring
  and the central-series valuations it induces (:mod:`raag.magnus`);
* graded ranks of the associated (restricted) Lie algebras
  (:mod:`raag.lie`);
* growth and Poincare series as exact rational data (:mod:`raag.growth`);
* a certificate that the Koszul complex, with its contracting homotopy,
  is a resolution (:mod:`raag.koszul`).

All arithmetic is exact (arbitrary-precision integers, fractions, or
residues mod a prime).
"""

from raag.errors import RaagError, ResourceLimitError, UnknownGeneratorError
from raag.graph import Graph

__all__ = [
    "Graph",
    "RaagError",
    "ResourceLimitError",
    "UnknownGeneratorError",
]
