"""The central invariant: quasisymmetric class functions of proper colorings.

psi(h, char, G) attaches to a structure, a character and a group of
automorphisms the function whose value at g in G is the generating sum of
proper colorings fixed by g; organized by monomial type, each coefficient
is an exact class function.

Proper set compositions come from one kernel on bitmasks, after the
set-partition dynamic programme of Bjorklund, Husfeldt and Koivisto
("Set partitioning via inclusion-exclusion", SIAM J. Comput. 39, 2009).
Label i of the sorted ground set is bit i.  For every nonempty mask R of
labels still to be placed, the kernel tabulates the masks S inside R
allowed as the next block; one recursion over that table lists the
compositions.  Each (R, S) pair is decided once, so the table holds at
most 3^n pairs however many prefixes reach R:

- splitting kinds: the minor left at R is contract(h, ground - R), which
  for matroids rests on M/S1/S2 = M/(S1 | S2); S is allowed when the split
  of that minor along S is nonzero and the character is 1 on its
  restriction to S (on the minor itself when S = R);
- hypergraphs: S is allowed when every edge that meets S and lies inside
  the placed labels together with S meets S in exactly one element;
- point collections: every S is allowed and whole compositions are
  filtered, scoring against the points scaled once to integers.

psi counts, for every group element, the compositions it fixes, from a
table of the element's images of all masks.

The principal specialization gives a polynomial with class-function
coefficients on the binomial basis; orbital versions average each
coefficient over the group (Burnside), always landing in nonnegative
integers.  A brute-force coloring oracle provides an independent route
for cross-checking, and verify_flawless checks the f-vector inequalities
either numerically or in the effective order on characters.
"""

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import comb, lcm
from operator import itemgetter

from .compositions import IntComposition, SetComposition, type_of
from .errors import DomainError, ResourceCapError
from .groups import (ClassFunction, Permutation, burnside_count, leq_char)
from .structures import (CharacterSpec, automorphism_check, char_value, check_compatible,
                         contract, level_set_composition, proper_coloring,
                         restrict, split_is_zero)

GROUND_CAP = 9
ORACLE_GROUND_CAP = 8


def proper_compositions(h, char, max_ground=GROUND_CAP, masks=False):
    """All proper set compositions of h for the character, sorted by length
    then blocks.  With masks=True they come as tuples of block bitmasks
    (label i of the sorted ground set is bit i), in listing order."""
    char = check_compatible(h, char)
    n = len(h.ground)
    if n > max_ground:
        raise ResourceCapError("ground set size %d exceeds cap %d" % (n, max_ground))
    labels = _mask_labels(h.ground)
    table = _next_blocks(h, char, labels)
    found = _walk(table, len(table) - 1, table[-1])
    if h.kind == "gen_permutohedron":
        found = _points_filter(h, found)
    if masks:
        return list(found)
    # streamed, so the mask tuples never all coexist with the compositions
    comps = [SetComposition([labels[S] for S in c]) for c in found]
    comps.sort(key=lambda c: (c.length, c.blocks))
    return comps


def _submasks(R):
    """Nonempty submasks of R, in decreasing order."""
    S = R
    while S:
        yield S
        S = (S - 1) & R


def _mask_labels(ground):
    """labels[m]: the labels of the bits of m, in sorted order."""
    labels = [()]
    for m in range(1, 1 << len(ground)):
        low = m & -m
        labels.append((ground[low.bit_length() - 1],) + labels[m ^ low])
    return labels


def _next_blocks(h, char, labels):
    """table[R] for every mask R of labels still to be placed: the masks
    S inside R allowed as the next block.  table[0] is empty and unused.
    labels is _mask_labels of the ground set."""
    ground = h.ground
    full = (1 << len(ground)) - 1
    table = [[]]
    if h.kind == "hypergraph":
        index = {x: i for i, x in enumerate(ground)}
        edges = [sum(1 << index[x] for x in e) for e in h.edges]
        for R in range(1, full + 1):
            placed = full ^ R
            table.append([S for S in _submasks(R) if _edges_ok(edges, placed | S, S)])
    elif h.kind == "gen_permutohedron":
        for R in range(1, full + 1):
            table.append(list(_submasks(R)))
    else:
        for R in range(1, full + 1):
            minor = h if R == full else contract(h, labels[full ^ R])
            table.append([S for S in _submasks(R) if _splits(minor, char, labels[S], S == R)])
    return table


def _edges_ok(edges, covered, S):
    """No edge inside `covered` meets the new block S in two or more
    elements; such an edge would have no unique top element."""
    for e in edges:
        hit = e & S
        if hit & (hit - 1) and not e & ~covered:
            return False
    return True


def _splits(minor, char, S, whole):
    """Whether block S may be peeled off the minor: a nonzero split and the
    character 1 on the restriction (on the minor itself when S is all of
    it)."""
    if whole:
        return char_value(minor, char) == 1
    return not split_is_zero(minor, S) and char_value(restrict(minor, S), char) == 1


def _walk(table, R, blocks, prefix=()):
    """Every block sequence that extends prefix by one of `blocks` and
    then follows the table until no label is left, as tuples of masks."""
    for S in blocks:
        if S == R:
            yield prefix + (S,)
        else:
            yield from _walk(table, R ^ S, table[R ^ S], prefix + (S,))


def _points_filter(h, found):
    """Yield the compositions whose block-index weighting has a unique
    maximizing point, the test of structures._points_proper.  Scores use
    the points scaled by the lcm of their denominators: a positive factor
    keeps the set of maximizers, and the arithmetic is on integers.  A
    label in the j-th block (counting from 1) lies in exactly j of the
    suffix unions B_i | ... | B_k, so a point scores the sum of its
    coordinate sums over those unions."""
    n = len(h.ground)
    scale = lcm(*(c.denominator for p in h.points for c in p))
    points = [[c.numerator * (scale // c.denominator) for c in p] for p in h.points]
    # sums[m]: the coordinate sum over the bits of m, one entry per point
    sums = [[0] * len(points)]
    for m in range(1, 1 << n):
        low = m & -m
        i = low.bit_length() - 1
        sums.append([s + p[i] for s, p in zip(sums[m ^ low], points)])
    for c in found:
        suffixes, acc = [], 0
        for S in reversed(c):
            acc |= S
            suffixes.append(sums[acc])
        scores = list(map(sum, zip(*suffixes)))
        if scores.count(max(scores)) == 1:
            yield c


@dataclass
class ClassQSym:
    """Monomial-basis expansion with class-function coefficients.

    coeffs maps integer compositions of the degree to class functions;
    absent compositions are zero.  Engine outputs are fixed-composition
    counts, so values are nonnegative integers maximized at the identity;
    that much is validated here."""

    degree: int
    group: object
    coeffs: dict

    def __post_init__(self):
        ordered = {}
        for alpha in sorted(self.coeffs, key=lambda a: (a.length, a.parts)):
            cf = self.coeffs[alpha]
            if alpha.degree != self.degree:
                raise DomainError("coefficient %s does not match degree %d" % (alpha, self.degree))
            if cf.group is not self.group:
                raise DomainError("coefficient %s lives on a different group" % (alpha,))
            ident = cf.at_identity()
            for v in cf.values:
                if not isinstance(v, int) or v < 0 or v > ident:
                    raise DomainError(
                        "coefficient %s has value %r outside 0..identity" % (alpha, v))
            if ident != 0:
                ordered[alpha] = cf
        self.coeffs = ordered

    def coefficient(self, alpha):
        if alpha in self.coeffs:
            return self.coeffs[alpha]
        return ClassFunction.constant(self.group, 0)

    def support(self):
        return list(self.coeffs)

    def identity_slice(self):
        return {alpha: cf.at_identity() for alpha, cf in self.coeffs.items()}

    def __eq__(self, other):
        return (isinstance(other, ClassQSym) and self.degree == other.degree
                and self.group is other.group and self.coeffs == other.coeffs)


def psi(h, char, group, max_ground=GROUND_CAP):
    """The quasisymmetric class function of (h, char) under a group of
    automorphisms of h.  Every generator is checked; a non-automorphism is
    reported by name."""
    char = check_compatible(h, char)
    if group.ground != h.ground:
        raise DomainError("group acts on %r, structure lives on %r"
                          % (group.ground, h.ground))
    for g in group.generators:
        if not automorphism_check(h, g):
            raise DomainError("generator %s is not an automorphism of the structure"
                              % g.cycle_string())
    propers = proper_compositions(h, char, max_ground=max_ground, masks=True)
    elements = group.elements
    stable = _stabilizer_bits(h.ground, elements)
    everyone = (1 << len(elements)) - 1
    by_type = {}
    for comp in propers:
        fixers = everyone
        for S in comp:
            fixers &= stable[S]
        tally = by_type.setdefault(tuple(S.bit_count() for S in comp), {})
        tally[fixers] = tally.get(fixers, 0) + 1
    coeffs = {IntComposition(parts): cf
              for parts, cf in _class_functions(group, by_type).items()}
    return ClassQSym(len(h.ground), group, coeffs)


def _class_functions(group, tallies):
    """{key: class function} from tallies[key], which maps each bitset of
    fixing elements (bit k for group.elements[k]) to the number of objects
    fixed by exactly those elements.  The value at g sums the counts whose
    bitset contains g; class constancy is checked."""
    elements = group.elements
    return {key: ClassFunction.from_element_values(group, {
                g: sum(cnt for fixers, cnt in tally.items() if fixers >> k & 1)
                for k, g in enumerate(elements)})
            for key, tally in tallies.items()}


def _image_table(ground, g):
    """img[m]: the mask of the images under g of the labels of mask m
    (label i of the sorted ground set is bit i), built one lowest bit at
    a time."""
    index = {x: i for i, x in enumerate(ground)}
    bit = [1 << index[g(x)] for x in ground]
    img = [0] * (1 << len(ground))
    for m in range(1, len(img)):
        low = m & -m
        img[m] = img[m ^ low] | bit[low.bit_length() - 1]
    return img


def _stabilizer_bits(ground, elements):
    """stable[m]: bit k set when elements[k] maps the labels of mask m onto
    themselves.  A set composition is fixed by g exactly when g maps every
    block onto itself, so the elements fixing it are the AND of stable over
    its block masks; that is the test act(g, c) == c, read off tables."""
    stable = [0] * (1 << len(ground))
    for k, g in enumerate(elements):
        for m, image in enumerate(_image_table(ground, g)):
            if image == m:
                stable[m] |= 1 << k
    return stable


@dataclass
class ClassPolynomial:
    """Principal specialization on the binomial basis: value at a
    nonnegative integer k is sum over i of f_i * C(k, i), where each f_i
    is a class function."""

    group: object
    fvec: tuple

    @property
    def degree(self):
        return len(self.fvec) - 1

    def value_at(self, g, k):
        return sum(f(g) * comb(k, i) for i, f in enumerate(self.fvec))


def psi_polynomial(X):
    """Collapse a ClassQSym along composition length."""
    zero = ClassFunction.constant(X.group, 0)
    fvec = [zero for _ in range(X.degree + 1)]
    for alpha, cf in X.coeffs.items():
        fvec[alpha.length] = fvec[alpha.length] + cf
    return ClassPolynomial(X.group, tuple(fvec))


def orbital_psi(X):
    """Burnside average of every coefficient: composition -> orbit count."""
    return {alpha: burnside_count(cf) for alpha, cf in X.coeffs.items()}


def orbital_polynomial(X):
    """Binomial-basis integer f-vector of the orbital invariant."""
    return orbit_f_vector(X.degree, orbital_psi(X))


def orbit_f_vector(degree, orb):
    """Orbit counts (composition -> count) summed by composition length."""
    fvec = [0] * (degree + 1)
    for alpha, v in orb.items():
        fvec[alpha.length] += v
    return fvec


def binomial_to_monomial(fvec):
    """Convert sum f_i*C(x,i) to ascending monomial coefficients (exact)."""
    coeffs = [Fraction(0)] * len(fvec)
    for i, fi in enumerate(fvec):
        if fi == 0:
            continue
        # falling factorial x(x-1)...(x-i+1) / i!
        poly = [Fraction(1)]
        for j in range(i):
            poly = [a - j * b for a, b in zip([Fraction(0)] + poly, poly + [Fraction(0)])]
        fact = 1
        for j in range(1, i + 1):
            fact *= j
        for d, c in enumerate(poly):
            coeffs[d] += Fraction(fi) * c / fact
    return coeffs


# ---------------------------------------------------------------------------
# brute-force oracle


def coloring_oracle(h, char, k, max_ground=ORACLE_GROUND_CAP, max_colors=None):
    """All proper colorings with colors 1..k, by direct per-kind predicate.

    Returns color tuples aligned with the sorted ground set.  Capped
    because the search is k^n."""
    char = check_compatible(h, char)
    n = len(h.ground)
    if n > max_ground:
        raise ResourceCapError("oracle ground cap exceeded: %d > %d" % (n, max_ground))
    cap_colors = max_colors if max_colors is not None else max(n, 1)
    if k > cap_colors:
        raise ResourceCapError("oracle color cap exceeded: %d > %d" % (k, cap_colors))
    out = []
    for values in product(range(1, k + 1), repeat=n):
        f = dict(zip(h.ground, values))
        if proper_coloring(h, char, f):
            out.append(values)
    return out


def colorings_by_composition(colorings, ground):
    """Group color tuples by their level-set set composition."""
    ground = tuple(sorted(ground))
    out = Counter()
    for values in colorings:
        out[level_set_composition(dict(zip(ground, values)), ground)] += 1
    return dict(out)


def colorings_by_type(colorings, ground):
    """Group color tuples by monomial type (composition of the degree)."""
    by_comp = colorings_by_composition(colorings, ground)
    out = Counter()
    for comp, cnt in by_comp.items():
        out[type_of(comp)] += cnt
    return dict(out)


def fixed_coloring_counts(colorings, group):
    """Class function counting colorings fixed by each group element.

    A color tuple lists the colors of the sorted ground set, so g fixes it
    when, at every position of a label x that g moves, the tuple holds the
    same color as at the position of g(x).  Each element's positions are
    found once; the identity moves nothing and fixes every coloring."""
    ground = group.ground
    position = {x: i for i, x in enumerate(ground)}
    by_element = {}
    for g in group.elements:
        moved = [i for i, x in enumerate(ground) if g(x) != x]
        if moved:
            source = itemgetter(*moved)
            target = itemgetter(*(position[g(ground[i])] for i in moved))
            by_element[g] = sum(1 for values in colorings if source(values) == target(values))
        else:
            by_element[g] = len(colorings)
    return ClassFunction.from_element_values(group, by_element)


# ---------------------------------------------------------------------------
# f-vector inequalities


def verify_flawless(p):
    """Check the f-vector inequalities of a polynomial.

    For a ClassPolynomial the comparisons run in the effective order on
    class functions (abelian groups only); for a plain integer vector
    they are numeric.  Returns a report dict with one entry per
    inequality, each carrying pass/fail and a witness on failure."""
    if isinstance(p, ClassPolynomial):
        return _flawless_report(
            p.degree, p.fvec,
            lambda a, b: leq_char(a, b)[0],
            lambda f, c: f.scale(c),
            lambda f: [str(v) for v in f.values])
    fvec = list(p)
    return _flawless_report(
        len(fvec) - 1, fvec,
        lambda a, b: a <= b,
        lambda f, c: f * c,
        lambda f: f)


def _flawless_report(d, fvec, le, scale, show):
    zero = scale(fvec[0], 0)
    checks = []

    def record(name, i, lhs, rhs):
        ok = le(lhs, rhs)
        entry = {"name": name, "i": i, "ok": ok}
        if not ok:
            entry["witness"] = {"lhs": show(lhs), "rhs": show(rhs)}
        checks.append(entry)

    for i in range(0, d + 1):
        if 2 * i <= d - 1:
            record("rising", i, fvec[i], fvec[i + 1])
    for i in range(0, d + 1):
        if 2 * i <= d:
            record("mirror", i, fvec[i], fvec[d - i])
    padded = list(fvec) + [zero]
    for i in range(0, d + 1):
        record("edge", i, scale(padded[i], d - i), scale(padded[i + 1], i))
    return {"ok": all(c["ok"] for c in checks), "inequalities": checks}
