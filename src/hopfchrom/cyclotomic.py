"""Exact arithmetic in cyclotomic fields, power-basis representation.

A value of order m is a rational polynomial in zeta_m = exp(2*pi*i/m),
stored on the power basis 1, zeta, ..., zeta^(phi(m)-1) and kept reduced
modulo the m-th cyclotomic polynomial.  Just enough field arithmetic for
character theory of small abelian groups: add, multiply, conjugate, and
decide rationality.  No floating point anywhere.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import DomainError


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m):
    """Coefficients of the m-th cyclotomic polynomial, ascending, monic.

    Computed by exact division of x^m - 1 by the product of the d-th
    cyclotomic polynomials over proper divisors d of m.
    """
    if m < 1:
        raise DomainError("cyclotomic order must be positive")
    num = [0] * (m + 1)
    num[0], num[m] = -1, 1
    for d in range(1, m):
        if m % d == 0:
            num = _polydiv_exact(num, list(cyclotomic_polynomial(d)))
    return tuple(num)


def _polydiv_exact(num, den):
    """Divide polynomials with integer coefficients; remainder must vanish."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(out) - 1, -1, -1):
        c = num[i + len(den) - 1] // den[-1]
        out[i] = c
        for j, dj in enumerate(den):
            num[i + j] -= c * dj
    assert all(c == 0 for c in num), "non-exact polynomial division"
    return out


def reduce_mod_cyclotomic(m, coeffs):
    """Reduce a polynomial in zeta_m, given by its coefficient list
    (ascending, any length), to the power basis of length phi(m).

    The m-th cyclotomic polynomial is monic with integer coefficients, so
    the division only multiplies and subtracts: integer coefficients stay
    integers and Fractions stay Fractions."""
    phi = cyclotomic_polynomial(m)
    deg = len(phi) - 1
    cs = list(coeffs)
    for i in range(len(cs) - 1, deg - 1, -1):
        c = cs[i]
        if c:
            for j in range(deg):
                cs[i - deg + j] -= c * phi[j]
    del cs[deg:]
    cs.extend([0] * (deg - len(cs)))
    return cs


def _reduce(m, coeffs):
    """Reduce a coefficient list modulo the m-th cyclotomic polynomial."""
    return tuple(Fraction(c) for c in reduce_mod_cyclotomic(m, coeffs))


@dataclass(frozen=True)
class Cyclo:
    """An element of the m-th cyclotomic field."""

    order: int
    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _reduce(self.order, self.coeffs))

    @classmethod
    def root(cls, m, k=1):
        """zeta_m ** k."""
        e = [Fraction(0)] * ((k % m) + 1)
        e[k % m] = Fraction(1)
        return cls(m, tuple(e))

    @classmethod
    def from_rational(cls, m, value):
        return cls(m, (Fraction(value),))

    def _coerce(self, other):
        if isinstance(other, Cyclo):
            if other.order != self.order:
                if other.is_rational():
                    return Cyclo.from_rational(self.order, other.rational_value())
                raise DomainError("mixed cyclotomic orders %d and %d" % (self.order, other.order))
            return other
        if isinstance(other, (int, Fraction)):
            return Cyclo.from_rational(self.order, other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Cyclo(self.order, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return Cyclo(self.order, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        prod = [Fraction(0)] * (len(self.coeffs) + len(o.coeffs) - 1 or 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(o.coeffs):
                    if b:
                        prod[i + j] += a * b
        return Cyclo(self.order, tuple(prod))

    __rmul__ = __mul__

    def conjugate(self):
        """Complex conjugation, zeta -> zeta^(m-1)."""
        m = self.order
        full = [Fraction(0)] * m
        for j, c in enumerate(self.coeffs):
            full[(m - j) % m] += c
        return Cyclo(m, tuple(full))

    def is_rational(self):
        return all(c == 0 for c in self.coeffs[1:])

    def rational_value(self):
        if not self.is_rational():
            raise DomainError("value %r is not rational" % (self,))
        return self.coeffs[0] if self.coeffs else Fraction(0)

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.rational_value() == other
        if isinstance(other, Cyclo):
            if other.order == self.order:
                return self.coeffs == other.coeffs
            if self.is_rational() and other.is_rational():
                return self.rational_value() == other.rational_value()
            return False
        return NotImplemented

    def __hash__(self):
        if self.is_rational():
            return hash(self.rational_value())
        return hash((self.order, self.coeffs))

    def __str__(self):
        """Exact text: a rational value as its Fraction ("3", "1/2"), any
        other as its power-basis sum in GAP's E(m) notation, constant term
        first ("-1-E(3)" for zeta_3^2, "1/2*E(5)+E(5)^3")."""
        if self.is_rational():
            return str(self.rational_value())
        terms = []
        for j, c in enumerate(self.coeffs):
            if c:
                root = "E(%d)" % self.order + ("^%d" % j if j > 1 else "")
                terms.append(str(c) if j == 0 else root if c == 1 else
                             "-" + root if c == -1 else "%s*%s" % (c, root))
        # a term holds no "+", and a "-" only as its sign
        return "+".join(terms).replace("+-", "-")

    def __repr__(self):
        if self.is_rational():
            return "Cyclo(%s)" % (self.rational_value(),)
        return "Cyclo(z%d: %s)" % (self.order, list(self.coeffs))


def conj(value):
    """Complex conjugate of an int, Fraction, or Cyclo."""
    if isinstance(value, Cyclo):
        return value.conjugate()
    return value
