"""Permutation groups on labeled ground sets and exact class functions.

Groups are generated by explicit permutations and closed by breadth-first
multiplication (identity first, then products by the generators in input
order).  That enumeration order is the canonical element order; conjugacy
classes are ordered by the first appearance of any member in it, and the
printed representative of a class is its lexicographically smallest cycle
string.  All character arithmetic is exact: integers, fractions, and
cyclotomic values only.

Character-level comparison (effectiveness, the <= order on class functions)
is implemented for abelian groups, whose irreducible characters are exactly
the homomorphisms into roots of unity.  For nonabelian groups those
operations raise UnsupportedGroupError rather than silently approximating.

Each irreducible character of an abelian group of exponent m is kept as a
row of integer exponents e with chi(g) = zeta_m^e(g), found by adding
generator exponents mod m along the BFS tree.  A multiplicity
<chi, theta> sums size * zeta^-e * theta over the classes; every term is
a power of zeta times a rational, so the sum is collected in m rational
buckets indexed by the power mod m and reduced once modulo the m-th
cyclotomic polynomial.  Reduction is a ring homomorphism from
Q[x]/(x^m - 1) onto Q(zeta_m), so this equals the Cyclo inner product
term for term; ``inner_product`` keeps the Cyclo route for general class
functions and for ``burnside_count``.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import lcm

from .cyclotomic import Cyclo, conj, reduce_mod_cyclotomic
from .errors import DomainError, ResourceCapError, UnsupportedGroupError, VerificationFailure

GROUP_ORDER_CAP = 10080


@dataclass(frozen=True)
class Permutation:
    ground: tuple
    images: tuple
    _map: dict = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        ground = tuple(self.ground)
        images = tuple(self.images)
        object.__setattr__(self, "ground", ground)
        object.__setattr__(self, "images", images)
        if sorted(ground) != sorted(images) or len(set(ground)) != len(ground):
            raise DomainError("not a permutation of %r" % (ground,))
        object.__setattr__(self, "_map", dict(zip(ground, images)))

    @classmethod
    def identity(cls, ground):
        ground = tuple(sorted(ground))
        return cls(ground, ground)

    @classmethod
    def from_mapping(cls, mapping, ground=None):
        if ground is None:
            ground = sorted(mapping)
        ground = tuple(sorted(ground))
        images = tuple(mapping.get(x, x) for x in ground)
        return cls(ground, images)

    @classmethod
    def from_cycles(cls, text, ground):
        """Parse cycle notation like "(a c)(b d)"; "()" is the identity."""
        ground = tuple(sorted(ground))
        mapping = {}
        body = text.strip()
        if body in ("", "()"):
            return cls.identity(ground)
        if not (body.startswith("(") and body.endswith(")")):
            raise DomainError("cannot parse cycles from %r" % (text,))
        for cyc in body[1:-1].split(")("):
            labels = cyc.replace(",", " ").split()
            if len(labels) == 0:
                continue
            for x in labels:
                if x not in ground:
                    raise DomainError("cycle label %r is not in the ground set" % (x,))
                if x in mapping:
                    raise DomainError("label %r repeated in cycle notation %r" % (x, text))
            for a, b in zip(labels, labels[1:] + labels[:1]):
                mapping[a] = b
        return cls.from_mapping(mapping, ground)

    @classmethod
    def parse(cls, obj, ground):
        """Accept either a mapping {"a": "c", ...} or a cycle string."""
        if isinstance(obj, dict):
            return cls.from_mapping(obj, ground)
        if isinstance(obj, str):
            return cls.from_cycles(obj, ground)
        raise DomainError("cannot parse a permutation from %r" % (obj,))

    def __call__(self, x):
        try:
            return self._map[x]
        except KeyError:
            raise DomainError("label %r is not in the ground set" % (x,))

    def __mul__(self, other):
        """Composition: (self * other)(x) = self(other(x))."""
        if self.ground != other.ground:
            raise DomainError("permutations act on different ground sets")
        return Permutation(self.ground, tuple(self._map[y] for y in other.images))

    def inverse(self):
        return Permutation(self.ground, tuple(
            x for x, _ in sorted(zip(self.ground, self.images), key=lambda p: p[1])))

    def is_identity(self):
        return self.ground == self.images

    def order(self):
        k, p = 1, self
        while not p.is_identity():
            p = p * self
            k += 1
        return k

    def cycles(self):
        """Nontrivial cycles, each rotated to start at its smallest label,
        sorted by that label."""
        seen, out = set(), []
        for x in self.ground:
            if x in seen:
                continue
            cyc, y = [], x
            while y not in seen:
                seen.add(y)
                cyc.append(y)
                y = self._map[y]
            if len(cyc) > 1:
                i = cyc.index(min(cyc))
                out.append(tuple(cyc[i:] + cyc[:i]))
        return sorted(out)

    def cycle_string(self):
        cyc = self.cycles()
        if not cyc:
            return "()"
        return "".join("(%s)" % " ".join(c) for c in cyc)


class PermGroup:
    """A closed permutation group with its canonical element enumeration.

    Attributes: ground, generators, elements (BFS order, identity first),
    class_reps, class_sizes, and the per-element class index.
    """

    def __init__(self, generators, ground=None, cap=GROUP_ORDER_CAP):
        generators = list(generators)
        if ground is None:
            if not generators:
                raise DomainError("a trivial group needs an explicit ground set")
            ground = generators[0].ground
        ground = tuple(sorted(ground))
        for g in generators:
            if g.ground != ground:
                raise DomainError("generator %s acts on a different ground set" % g.cycle_string())
        ident = Permutation.identity(ground)
        elements = [ident]
        parents = [None]
        index = {ident: 0}
        queue = 0
        while queue < len(elements):
            x = elements[queue]
            for gi, g in enumerate(generators):
                y = x * g
                if y not in index:
                    index[y] = len(elements)
                    elements.append(y)
                    parents.append((queue, gi))
                    if len(elements) > cap:
                        raise ResourceCapError(
                            "group order exceeds the cap %d; raise it explicitly if intended" % cap)
            queue += 1

        self.ground = ground
        self.generators = tuple(generators)
        self.elements = tuple(elements)
        self._parents = tuple(parents)
        self._elem_index = index

        assigned = [None] * len(elements)
        inverses = [x.inverse() for x in elements]
        reps, sizes, members = [], [], []
        for i, x in enumerate(elements):
            if assigned[i] is not None:
                continue
            cls_set = {h * x * hi for h, hi in zip(elements, inverses)}
            ci = len(reps)
            for y in cls_set:
                assigned[index[y]] = ci
            reps.append(min(cls_set, key=lambda p: p.cycle_string()))
            sizes.append(len(cls_set))
            members.append(frozenset(cls_set))
        self.class_reps = tuple(reps)
        self.class_sizes = tuple(sizes)
        self.class_members = tuple(members)
        self._class_index = {x: assigned[i] for i, x in enumerate(elements)}
        # filled by abelian_irreducibles: the characters and their exponent rows
        self._irreducibles = None
        self._character_exponents = None

    @property
    def order(self):
        return len(self.elements)

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, g):
        return g in self._elem_index

    def class_of(self, g):
        try:
            return self._class_index[g]
        except KeyError:
            raise DomainError("permutation %s is not in the group" % g.cycle_string())

    def is_abelian(self):
        return all(a * b == b * a for a in self.generators for b in self.generators)

    def exponent(self):
        return lcm(*(x.order() for x in self.elements)) if self.elements else 1


def conjugacy_classes(group):
    """The (representative, size) pairs in canonical class order."""
    return list(zip(group.class_reps, group.class_sizes))


@dataclass(frozen=True)
class ClassFunction:
    """Exact values, one per conjugacy class in the group's class order."""

    group: PermGroup
    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        if len(self.values) != len(self.group.class_reps):
            raise DomainError("expected %d class values, got %d"
                              % (len(self.group.class_reps), len(self.values)))

    @classmethod
    def from_element_values(cls, group, by_element):
        """Build from a per-element mapping, asserting class constancy."""
        vals = []
        for members in group.class_members:
            got = {by_element[x] for x in members}
            if len(got) != 1:
                raise DomainError("values are not constant on a conjugacy class: %r" % (got,))
            vals.append(got.pop())
        return cls(group, tuple(vals))

    @classmethod
    def constant(cls, group, value):
        return cls(group, tuple(value for _ in group.class_reps))

    @classmethod
    def regular(cls, group):
        return cls(group, tuple(
            group.order if rep.is_identity() else 0 for rep in group.class_reps))

    def __call__(self, g):
        return self.values[self.group.class_of(g)]

    def at_identity(self):
        return self(Permutation.identity(self.group.ground))

    def __add__(self, other):
        self._check(other)
        return ClassFunction(self.group, tuple(a + b for a, b in zip(self.values, other.values)))

    def __sub__(self, other):
        self._check(other)
        return ClassFunction(self.group, tuple(a - b for a, b in zip(self.values, other.values)))

    def scale(self, c):
        return ClassFunction(self.group, tuple(c * v for v in self.values))

    def is_zero(self):
        return all(_value_is_zero(v) for v in self.values)

    def _check(self, other):
        if other.group is not self.group:
            raise DomainError("class functions live on different groups")


def _value_is_zero(v):
    if isinstance(v, Cyclo):
        return v.is_zero()
    return v == 0


def _as_exact(v):
    """Normalize a finished scalar: rational Cyclo -> Fraction -> int."""
    if isinstance(v, Cyclo) and v.is_rational():
        v = v.rational_value()
    if isinstance(v, Fraction) and v.denominator == 1:
        v = int(v)
    return v


def inner_product(chi, psi):
    """(1/|G|) * sum over classes of size * conj(chi) * psi, exactly."""
    if chi.group is not psi.group:
        raise DomainError("class functions live on different groups")
    group = chi.group
    total = 0
    for size, a, b in zip(group.class_sizes, chi.values, psi.values):
        total = total + size * conj(a) * b
    return _as_exact(total * Fraction(1, group.order))


def burnside_count(cf):
    """Average of a fixed-point count vector; asserts the result is a
    nonnegative integer, as it must be for any genuine action."""
    v = inner_product(ClassFunction.constant(cf.group, 1), cf)
    if not isinstance(v, int) or v < 0:
        raise VerificationFailure(
            "orbit count %r is not a nonnegative integer" % (v,),
            {"values": list(cf.values)})
    return v


def abelian_irreducibles(group):
    """All irreducible characters of an abelian group, as homomorphisms into
    the m-th roots of unity where m is the group exponent.

    Deterministic order: generator-exponent assignments are tried
    lexicographically and each new character is kept at first occurrence,
    so the trivial character always comes first.  The search runs once per
    group and its result is kept on the group, both as the characters and
    as their exponent rows (``group._character_exponents``: m and, per
    character, the exponents e with chi = zeta_m^e, one per class); every
    call returns a fresh list of the (immutable) characters.
    """
    if group._irreducibles is None:
        m, rows = _search_irreducibles(group)
        group._character_exponents = (m, rows)
        group._irreducibles = tuple(
            ClassFunction(group, tuple(Cyclo.root(m, e) for e in row)) for row in rows)
    return list(group._irreducibles)


def _search_irreducibles(group):
    """The exponent m and the exponent rows, in class order, of the
    homomorphisms G -> Z/m.

    Each generator of order o is sent to a multiple of m/o.  The exponents
    are extended along the BFS discovery tree by addition mod m, and an
    assignment is kept when it is additive on every product x * g."""
    if not group.is_abelian():
        raise UnsupportedGroupError(
            "irreducible characters are only enumerated for abelian groups")
    m = group.exponent()
    gens = group.generators
    if not gens:
        return m, ((0,),)
    orders = [g.order() for g in gens]
    work = 1
    for o in orders:
        work *= o
    if work > 10 ** 6:
        raise ResourceCapError("too many generator assignments (%d) for character search" % work)

    index = group._elem_index
    times = [[index[x * g] for g in gens] for x in group.elements]
    found = {}
    for assignment in product(*(range(o) for o in orders)):
        steps = [(m // o) * t for o, t in zip(orders, assignment)]
        exps = [0] * len(group.elements)
        for i in range(1, len(exps)):
            pi, gi = group._parents[i]
            exps[i] = (exps[pi] + steps[gi]) % m
        if all(exps[y] == (e + step) % m
               for e, row in zip(exps, times) for y, step in zip(row, steps)):
            found.setdefault(tuple(exps), None)
    rows = tuple(tuple(exps[index[rep]] for rep in group.class_reps) for exps in found)
    assert len(rows) == group.order, "character count %d != group order %d" % (
        len(rows), group.order)
    return m, rows


def irreducible_multiplicities(theta):
    """Multiplicity of each irreducible in a class function (abelian only).

    Equal to ``inner_product(chi, theta)`` for every character, computed
    from the exponent rows: conj(zeta^e) = zeta^-e, so the sum over classes
    of size * conj(chi) * theta is a polynomial in zeta = zeta_m whose
    coefficient of x^k collects size * theta where -e (plus the power of a
    Cyclo value of theta) is k mod m.  The map Q[x]/(x^m - 1) -> Q(zeta_m)
    is a ring homomorphism, so filling these m buckets with integer or
    Fraction additions and reducing once modulo the m-th cyclotomic
    polynomial gives the exact sum.  A Cyclo is built only when the result
    is not rational."""
    group = theta.group
    chars = abelian_irreducibles(group)
    m, rows = group._character_exponents
    terms = [[(k, size * c) for k, c in _power_terms(v, m)]
             for size, v in zip(group.class_sizes, theta.values)]
    out = []
    for chi, row in zip(chars, rows):
        buckets = [0] * m
        for e, class_terms in zip(row, terms):
            for k, c in class_terms:
                buckets[(k - e) % m] += c
        coeffs = reduce_mod_cyclotomic(m, buckets)
        if any(coeffs[1:]):
            value = Cyclo(m, tuple(Fraction(c, group.order) for c in coeffs))
        else:
            value = _as_exact(Fraction(coeffs[0], group.order))
        out.append((chi, value))
    return out


def _power_terms(v, m):
    """The nonzero pairs (k, c) with v = sum of c * zeta_m^k: the power
    basis of a Cyclo of order m, or (0, v) for a rational value."""
    if isinstance(v, Cyclo):
        if v.order == m:
            return [(k, c) for k, c in enumerate(v.coeffs) if c]
        if not v.is_rational():
            raise DomainError("mixed cyclotomic orders %d and %d" % (m, v.order))
        v = v.rational_value()
    return [(0, v)] if v else []


def is_effective(theta):
    """Whether a class function is a nonnegative integer combination of
    irreducible characters.  Returns (flag, details); details carries the
    multiplicity list or the first offending multiplicity."""
    for chi, mult in irreducible_multiplicities(theta):
        m = _as_exact(mult)
        if not isinstance(m, int) or m < 0:
            return False, {"offending_multiplicity": str(m),
                           "character_values": [str(_as_exact(v)) for v in chi.values]}
    return True, {}


def leq_char(chi, psi):
    """chi <= psi in the effective order: psi - chi is effective."""
    ok, details = is_effective(psi - chi)
    return ok, details
