"""Exact-arithmetic toolkit for symplectic/orthogonal parabolic Higgs fields.

Everything is computed over Q with no floating point: characteristic
polynomials and Pfaffians of Higgs fields, spectral plane curves, and the
integer dimension/genus identity chain relating the invariant-section space,
the moduli dimension and the Prym dimension for Sp(2m), SO(2m) and SO(2m+1).
A field's entries live in Q(t), but it is cleared once to the integer triple
(M, D, c), one matrix M over Z[t] over the common denominator c*D/lc(D), and
every check runs there; Q(t) appears only in field entries and JSON.
"""

from .poly import Q, RationalFunction, UniPoly

__all__ = ["Q", "RationalFunction", "UniPoly"]
__version__ = "0.1.0"
