"""Independent check of the duality matrix with sympy.

hgdual prints Psi and M = Psi^{-1} as JSON lists of numerator and
denominator coefficients.  Here both are rebuilt as matrices over the field
Q(z) in sympy, Psi is inverted there, and the inverse must equal M entry for
entry.  sympy is used only as an oracle; the package never imports it.
"""

from fractions import Fraction

import sympy
from sympy.polys.matrices import DomainMatrix

from layers import max_bits

_Z = sympy.Symbol("z")


def _poly(coeffs):
    return sum(
        (sympy.Rational(c) * _Z**i for i, c in enumerate(coeffs)), sympy.Integer(0)
    )


def _matrix(doc):
    return sympy.Matrix(
        [[_poly(e["num"]) / _poly(e["den"]) for e in row] for row in doc["entries"]]
    )


def inverse_matches(psi_doc, m_doc):
    """True when sympy's inverse of Psi equals M exactly."""
    inverse = DomainMatrix.from_Matrix(_matrix(psi_doc)).to_field().inv()
    m = DomainMatrix.from_Matrix(_matrix(m_doc))
    inverse, m = inverse.unify(m)
    return inverse == m


def entry_bits(doc):
    """Largest coefficient bit length among the printed matrix entries."""
    return max_bits(
        Fraction(c)
        for row in doc["entries"]
        for e in row
        for c in e["num"] + e["den"]
    )
