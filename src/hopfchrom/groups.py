"""Permutation groups on labeled ground sets and exact class functions.

Groups are generated by explicit permutations and closed by breadth-first
multiplication (identity first, then products by the distinct generators
in input order).  That enumeration order is the canonical element order;
conjugacy classes are ordered by the first appearance of any member in
it, and the printed representative of a class is its lexicographically
smallest cycle string.  All character arithmetic is exact: integers,
fractions, and cyclotomic values only.  Facts the group already holds
are read, not recomputed: is_abelian reads the class table (every class
a singleton) and Permutation.order the cycle lengths (their lcm), so
neither multiplies permutations.

The group's action on label masks lives here too: label i of the sorted
ground set is bit i, Permutation.mask_images gives one permutation's image
of every mask, and PermGroup.stabilizer_bits, built once per group, marks
for each mask the elements that map it onto itself.  psi and hilb read
their fixed-point counts from that one table.

Character-level comparison (effectiveness, the <= order on class functions)
is implemented for abelian groups, whose irreducible characters are exactly
the homomorphisms into roots of unity.  For nonabelian groups those
operations raise UnsupportedGroupError rather than silently approximating.

Each irreducible character of an abelian group of exponent m is kept by
the group as a row of integer exponents e with chi(g) = zeta_m^e(g),
built by extending every character of a subgroup along one generator at
a time; its Cyclo values are only what a character prints as.  A
multiplicity <chi, theta> sums size * zeta^-e * theta over the classes;
every term is a power of zeta times a rational, so the sum is collected
in m rational buckets indexed by the power mod m and reduced once modulo
the m-th cyclotomic polynomial.  Reduction is a ring homomorphism from
Q[x]/(x^m - 1) onto Q(zeta_m), so this equals the inner product in the
cyclotomic field term for term; that field route is the reference in
the tests.
burnside_count averages integer counts, so it needs no field at all.
"""

import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import lcm

from .cyclotomic import Cyclo, reduce_mod_cyclotomic
from .errors import DomainError, ResourceCapError, UnsupportedGroupError, VerificationFailure

GROUP_ORDER_CAP = 10080
# Cycle notation: parenthesized cycles with optional whitespace around
# them; _CYCLE gives the text inside each pair of parentheses.
_CYCLE_TEXT = re.compile(r"\s*(?:\([^()]*\)\s*)*")
_CYCLE = re.compile(r"\(([^()]*)\)")


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
        if (len(images) != len(ground) or len(set(ground)) != len(ground)
                or set(ground) != set(images)):
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
        for x, y in mapping.items():
            if x not in ground:
                raise DomainError("label %r is not in the ground set" % (x,))
            if y not in ground:
                raise DomainError("image %r of label %r is not in the ground set" % (y, x))
        return cls(ground, tuple(mapping.get(x, x) for x in ground))

    @classmethod
    def from_cycles(cls, text, ground):
        """Parse cycle notation like "(a c)(b d)" or "(a c) (b d)": cycles
        in parentheses, with optional whitespace between them; "()" and ""
        are the identity.  A label may appear once in the whole text,
        inside one cycle as across cycles."""
        ground = tuple(sorted(ground))
        if not _CYCLE_TEXT.fullmatch(text):
            raise DomainError("cannot parse cycles from %r" % (text,))
        mapping = {}
        for cyc in _CYCLE.findall(text):
            labels = cyc.replace(",", " ").split()
            for a, b in zip(labels, labels[1:] + labels[:1]):
                if a not in ground:
                    raise DomainError("cycle label %r is not in the ground set" % (a,))
                if a in mapping:
                    raise DomainError("label %r repeated in cycle notation %r" % (a, text))
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

    @classmethod
    def _bijection(cls, ground, images):
        """The permutation of ground with these images, set directly
        without __post_init__'s check: the caller derives images from
        valid permutations of ground, and a composition or inverse of
        bijections of one set is a bijection of it."""
        p = object.__new__(cls)
        object.__setattr__(p, "ground", ground)
        object.__setattr__(p, "images", images)
        object.__setattr__(p, "_map", dict(zip(ground, images)))
        return p

    def __mul__(self, other):
        """Composition: (self * other)(x) = self(other(x))."""
        if self.ground != other.ground:
            raise DomainError("permutations act on different ground sets")
        return self._bijection(self.ground, tuple(map(self._map.__getitem__, other.images)))

    def inverse(self):
        back = {y: x for x, y in self._map.items()}
        return self._bijection(self.ground, tuple(map(back.__getitem__, self.ground)))

    def is_identity(self):
        return self.ground == self.images

    def order(self):
        """The lcm of the cycle lengths: a power p^k is the identity
        exactly when k is a multiple of every cycle's length."""
        return lcm(*map(len, self.cycles()))

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

    def mask_images(self):
        """img[m]: the mask of the images of the labels of mask m, where
        label i of the sorted ground set is bit i; built one lowest bit at
        a time.  Not cached: a group keeps one stabilizer table, not one
        image table per element."""
        ground = sorted(self.ground)
        index = {x: i for i, x in enumerate(ground)}
        bit = [1 << index[self._map[x]] for x in ground]
        img = [0] * (1 << len(bit))
        for m in range(1, len(img)):
            low = m & -m
            img[m] = img[m ^ low] | bit[low.bit_length() - 1]
        return img


class PermGroup:
    """A closed permutation group with its canonical element enumeration.

    Attributes: ground, generators (as listed), distinct_generators,
    elements (BFS order, identity first), class_reps, class_sizes, and the
    per-element class index.

    The class of x is the closure of {x} under y -> g y g^-1 for each
    generator g.  Each such map c is a bijection of the finite group, so
    it has finite order k and c^-1 = c^(k-1); a set closed under every c
    is then closed under their inverses too, hence under conjugation by
    every product of generators, which is every element.  So a class
    costs |class| * |generators| products, not |group|.

    Every group computation reads distinct_generators: the listed
    generators with the identity and every repeat of an earlier one left
    out, in the order of their first copies.  This changes neither
    closure.  At each element x the BFS meets a repeat's product x * g
    after g's first copy has added it or found it, and x * identity is x,
    already indexed; so the elements and their order stay the same.  The
    class of x is its closure under a set of maps, which repeats do not
    change, and the identity conjugates nothing.  generators stays as
    listed, for the output only.
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
        distinct = tuple(dict.fromkeys(g for g in generators if g != ident))
        elements = [ident]
        index = {ident: 0}
        queue = 0
        while queue < len(elements):
            x = elements[queue]
            for g in distinct:
                y = x * g
                if y not in index:
                    index[y] = len(elements)
                    elements.append(y)
                    if len(elements) > cap:
                        raise ResourceCapError(
                            "group order exceeds the cap %d; raise it explicitly if intended" % cap)
            queue += 1

        self.ground = ground
        self.generators = tuple(generators)
        self.distinct_generators = distinct
        self.elements = tuple(elements)
        self._elem_index = index

        assigned = [None] * len(elements)
        conjugators = [(g, g.inverse()) for g in distinct]
        reps, sizes, members = [], [], []
        for i, x in enumerate(elements):
            if assigned[i] is not None:
                continue
            cls_set, new = {x}, {x}
            while new:
                new = {g * y * gi for y in new for g, gi in conjugators} - cls_set
                cls_set |= new
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

    @property
    def order(self):
        return len(self.elements)

    @cached_property
    def stabilizer_bits(self):
        """stable[m]: bit k set when elements[k] maps the labels of mask m
        onto themselves.  g fixes a set composition or a flag exactly when
        it maps each block or member onto itself, so the elements fixing
        one are the AND of stable over its masks.  Built once per group,
        one element's image table at a time."""
        stable = [0] * (1 << len(self.ground))
        for k, g in enumerate(self.elements):
            for m, image in enumerate(g.mask_images()):
                if image == m:
                    stable[m] |= 1 << k
        return tuple(stable)

    @cached_property
    def character_exponents(self):
        """(m, rows) for an abelian group: its exponent m and, per
        irreducible character chi and in class order, the exponents e with
        chi = zeta_m^e (see _search_irreducibles).  Built once per
        group; a nonabelian group raises UnsupportedGroupError."""
        return _search_irreducibles(self)

    @cached_property
    def irreducibles(self):
        """The irreducible characters of an abelian group, as class
        functions of Cyclo roots, one per exponent row."""
        m, rows = self.character_exponents
        return tuple(ClassFunction(self, tuple(Cyclo.root(m, e) for e in row)) for row in rows)

    def class_of(self, g):
        try:
            return self._class_index[g]
        except KeyError:
            raise DomainError("permutation %s is not in the group" % g.cycle_string())

    def is_abelian(self):
        """Read off the class table: a group is abelian exactly when every
        conjugacy class is a singleton, so when it has |G| classes."""
        return len(self.class_reps) == self.order

    def exponent(self):
        return lcm(*(x.order() for x in self.elements))


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

    def __call__(self, g):
        return self.values[self.group.class_of(g)]

    def at_identity(self):
        """The value at the identity: the group lists the identity first and
        numbers its classes in order of first appearance, so class 0 is
        {identity}."""
        return self.values[0]

    def __add__(self, other):
        self._check(other)
        return ClassFunction(self.group, tuple(a + b for a, b in zip(self.values, other.values)))

    def __sub__(self, other):
        self._check(other)
        return ClassFunction(self.group, tuple(a - b for a, b in zip(self.values, other.values)))

    def scale(self, c):
        return ClassFunction(self.group, tuple(c * v for v in self.values))

    def is_zero(self):
        return all(v == 0 for v in self.values)

    def _check(self, other):
        if other.group is not self.group:
            raise DomainError("class functions live on different groups")


def _as_exact(v):
    """Normalize a finished scalar: rational Cyclo -> Fraction -> int."""
    if isinstance(v, Cyclo) and v.is_rational():
        v = v.rational_value()
    if isinstance(v, Fraction) and v.denominator == 1:
        v = int(v)
    return v


def burnside_count(cf):
    """Average of a fixed-point count vector, the sum of size * value over
    the classes divided by |G|; asserts the result is a nonnegative
    integer, as it must be for any genuine action.  The counts are
    rational, so the average is one Fraction."""
    group = cf.group
    v = _as_exact(Fraction(sum(size * value for size, value in zip(group.class_sizes, cf.values)),
                           group.order))
    if not isinstance(v, int) or v < 0:
        raise VerificationFailure(
            "orbit count %s is not a nonnegative integer" % (v,),
            {"values": list(cf.values)})
    return v


def abelian_irreducibles(group):
    """All irreducible characters of an abelian group, as homomorphisms into
    the m-th roots of unity where m is the group exponent.

    Deterministic order: lexicographic in the exponents of the distinct
    generators, so the trivial character always comes first.  The group
    builds the table once and keeps the characters (PermGroup.irreducibles)
    and their exponent rows (PermGroup.character_exponents); every call
    returns a fresh list of the (immutable) characters.
    """
    return list(group.irreducibles)


def _search_irreducibles(group):
    """The exponent m and the exponent rows, in class order, of the
    homomorphisms G -> Z/m.

    Every character of a subgroup H of a finite abelian group extends to
    the whole group, so the table grows one distinct generator g at a
    time from the trivial character on {1}.  Let k be the least power
    with g^k in H; the cosets H g^i for i < k partition H<g>, so k = 1
    adds nothing.  An extension of e is fixed by its step s = e(g), with
    e(x g^i) = e(x) + i s mod m, and is a homomorphism exactly when
    k s = e(g^k) mod m.  e(g^k) is a multiple of k: g^k has order
    ord(g)/k, so (ord(g)/k) e(g^k) is a multiple of m, and ord(g)
    divides m.  The solutions in [0, m) are then s = e(g^k)/k + t m/k
    for t = 0 .. k-1, so each character of H has k extensions and H<g>
    gets |H| k = |H<g>| of them, all of its characters.

    at maps the elements of H to their positions, coset H g^i after coset
    H g^(i-1); a row lists a character's exponents in that order.  g^i
    for 0 < i < k is in none of the cosets added before it, or g^(i-j)
    would be in H for some j < i, so looking g^i up in the growing table
    is looking it up in H.

    Taking the characters of H in order and their steps ascending lists
    each level in lexicographic order of the generator values, a skipped
    generator's value being fixed by the earlier ones.  That is the order
    in which a search over every assignment of steps (m/ord(g)) t to the
    distinct generators, t ascending, keeps those additive on every
    product; that search is the reference in the tests.  The work is at
    most log2 |G| levels, each of at most |G|^2 entries; a redundant
    generator costs one copy of the list of H and one lookup."""
    if not group.is_abelian():
        raise UnsupportedGroupError(
            "irreducible characters are only enumerated for abelian groups")
    m = group.exponent()
    at, rows = {group.elements[0]: 0}, [[0]]
    for g in group.distinct_generators:
        members, power = list(at), g
        while power not in at:
            for x in members:
                at[x * power] = len(at)
            power = power * g
        k = len(at) // len(members)
        if k > 1:
            rows = [[(e + i * s) % m for i in range(k) for e in row]
                    for row in rows for s in range(row[at[power]] // k, m, m // k)]
    rows = tuple(tuple(row[at[rep]] for rep in group.class_reps) for row in rows)
    assert len(rows) == group.order, "character count %d != group order %d" % (
        len(rows), group.order)
    return m, rows


def irreducible_multiplicities(theta):
    """Multiplicity of each irreducible in a class function (abelian only).

    Equal to the inner product <chi, theta> for every character, computed
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
    m, rows = group.character_exponents
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
    return is_effective(psi - chi)
