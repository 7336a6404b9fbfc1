"""Field arithmetic on cyclotomic values, kept as the reference the
exponent route of groups is tested against.

The program computes characters as integer exponent rows and
multiplicities by collecting powers of zeta_m and reducing once
(groups.irreducible_multiplicities), so its Cyclo only constructs,
compares and prints.  FieldCyclo adds the field operations: add,
subtract, multiply and conjugate, with ints, Fractions and rational
values of another order coerced in.  inner_product is the exact
<chi, psi> = (1/|G|) * sum over classes of size * conj(chi) * psi in
that field."""

from fractions import Fraction

from hopfchrom.cyclotomic import Cyclo
from hopfchrom.errors import DomainError
from hopfchrom.groups import ClassFunction, _as_exact


class FieldCyclo(Cyclo):
    """A Cyclo with the operations of the m-th cyclotomic field."""

    @classmethod
    def from_rational(cls, m, value):
        return cls(m, (Fraction(value),))

    def _coerce(self, other):
        if isinstance(other, Cyclo):
            if other.order != self.order:
                if other.is_rational():
                    return FieldCyclo.from_rational(self.order, other.rational_value())
                raise DomainError("mixed cyclotomic orders %d and %d" % (self.order, other.order))
            return other
        if isinstance(other, (int, Fraction)):
            return FieldCyclo.from_rational(self.order, other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldCyclo(self.order, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return FieldCyclo(self.order, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-lift(o))

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
        return FieldCyclo(self.order, tuple(prod))

    __rmul__ = __mul__

    def conjugate(self):
        """Complex conjugation, zeta -> zeta^(m-1)."""
        m = self.order
        full = [Fraction(0)] * m
        for j, c in enumerate(self.coeffs):
            full[(m - j) % m] += c
        return FieldCyclo(m, tuple(full))


def lift(value):
    """A Cyclo as a FieldCyclo; an int or Fraction as it is."""
    if isinstance(value, Cyclo) and not isinstance(value, FieldCyclo):
        return FieldCyclo(value.order, value.coeffs)
    return value


def lifted(cf):
    """The class function cf with its values lifted, so that sums and
    multiples of it can be taken."""
    return ClassFunction(cf.group, tuple(map(lift, cf.values)))


def conj(value):
    """Complex conjugate of an int, Fraction, or Cyclo."""
    value = lift(value)
    if isinstance(value, Cyclo):
        return value.conjugate()
    return value


def inner_product(chi, psi):
    """(1/|G|) * sum over classes of size * conj(chi) * psi, exactly.  A
    rational result is an int or Fraction, any other a plain Cyclo, as
    the program's multiplicities are."""
    if chi.group is not psi.group:
        raise DomainError("class functions live on different groups")
    group = chi.group
    total = 0
    for size, a, b in zip(group.class_sizes, chi.values, psi.values):
        total = total + size * conj(a) * lift(b)
    value = _as_exact(total * Fraction(1, group.order))
    if isinstance(value, Cyclo):
        value = Cyclo(value.order, value.coeffs)
    return value
