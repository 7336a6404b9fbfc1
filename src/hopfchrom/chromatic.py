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

- splitting kinds: the minor left at R is h with the placed labels
  C = ground - R contracted, which for matroids rests on M/S1/S2 =
  M/(S1 | S2): both have rank X -> r(X | S1 | S2) - r(S1 | S2).  S is
  allowed when the split of that minor along S is nonzero and the
  character is 1 on its restriction to S (on the minor itself when
  S = R).  Both answers are mask arithmetic in structures.splitting_memo,
  the one owner of the splitting calculus, which builds no minor and
  which the coloring complex's convexity check reads too;
- hypergraphs: S is allowed when every edge that meets S and lies inside
  the placed labels together with S meets S in exactly one element;
- point collections: every S is allowed, and the recursion carries each
  prefix's score vector, one integer per point, so a composition is kept
  at its last block when its weighting has exactly one best point.

psi counts, at each conjugacy class representative g, the compositions
g fixes, without listing them: g fixes one exactly when it maps every
block onto itself, read off the group's stabilizer table
(groups.PermGroup.stabilizer_bits), so the same recursion over the same
table, kept to the blocks g fixes, counts them by type.  The count is
constant on classes, because automorphisms act on the compositions.
Point collections, whose rule is not local, are listed and counted at
every element by fixed_qsym, the counter hilb uses for the flags of the
coloring complex.

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
from math import comb
from operator import add, itemgetter

from .compositions import IntComposition, submasks
from .errors import DomainError, ResourceCapError
from .groups import ClassFunction, burnside_count, leq_char
from .structures import (_one_best, automorphism_check, check_compatible,
                         coloring_test, splitting_memo)

GROUND_CAP = 9
ORACLE_GROUND_CAP = 8


def proper_compositions(h, char, max_ground=GROUND_CAP, table=None):
    """All proper set compositions of h for the character, as tuples of
    block masks (label i of the sorted ground set is bit i), in listing
    order: the order in which the recursion follows the next-block table.
    compositions.mask_labels gives the labels of a mask.  table is the
    job's _next_blocks(h, char) when the caller has built it already."""
    char = check_compatible(h, char)
    check_ground(len(h.ground), max_ground)
    if table is None:
        table = _next_blocks(h, char)
    full = len(table) - 1
    if h.kind == "gen_permutohedron":
        sums = _coordinate_sums(h.integer_points, full)
        return list(_scored_walk(table, sums, full, sums[0]))
    return list(_walk(table, full))


def check_ground(n, max_ground):
    if n > max_ground:
        raise ResourceCapError("ground set size %d exceeds cap %d" % (n, max_ground))


def _next_blocks(h, char):
    """table[R] for every mask R of labels still to be placed: the masks
    S inside R allowed as the next block.  table[0] is empty and unused.
    For splitting kinds S is allowed when the split of the minor at R
    along S is nonzero (S = R needs none) and the character is 1 on its
    piece S, as the job's structures.splitting_memo answers: following
    the table peels a composition block by block through nonzero splits,
    which is what makes it proper.  Hypergraphs allow S by the edge rule
    of _edges_ok; point collections allow every S, and _scored_walk
    scores each composition as it reaches its last block."""
    ground = h.ground
    full = (1 << len(ground)) - 1
    table = [[]]
    if h.kind == "hypergraph":
        index = {x: i for i, x in enumerate(ground)}
        edges = [sum(1 << index[x] for x in e) for e in h.edges]
        for R in range(1, full + 1):
            placed = full ^ R
            table.append([S for S in submasks(R) if _edges_ok(edges, placed | S, S)])
    elif h.kind == "gen_permutohedron":
        for R in range(1, full + 1):
            table.append(list(submasks(R)))
    else:
        memo = splitting_memo(h, char)
        for R in range(1, full + 1):
            table.append([S for S in submasks(R)
                          if memo.one(R, S) and (S == R or memo.nonzero(R, S))])
    return table


def _edges_ok(edges, covered, S):
    """No edge inside `covered` meets the new block S in two or more
    elements; such an edge would have no unique top element."""
    for e in edges:
        hit = e & S
        if hit & (hit - 1) and not e & ~covered:
            return False
    return True


def _walk(table, R, prefix=()):
    """Every block sequence that extends prefix by following the table
    from the labels R until no label is left, as tuples of masks."""
    for S in table[R]:
        if S == R:
            yield prefix + (S,)
        else:
            yield from _walk(table, R ^ S, prefix + (S,))


def _coordinate_sums(points, full):
    """sums[m] for every label mask m up to full: the coordinate sum of
    each point over the bits of m, one integer per point."""
    sums = [[0] * len(points)]
    for m in range(1, full + 1):
        low = m & -m
        i = low.bit_length() - 1
        sums.append([s + p[i] for s, p in zip(sums[m ^ low], points)])
    return sums


def _scored_walk(table, sums, R, score, prefix=()):
    """_walk for point collections, keeping only the compositions whose
    block-index weighting (a label in the j-th block, counting from 1,
    weighs j) has exactly one best point, the rule of vertex_generic.

    A label in the j-th block lies in exactly j of the remainders R_1,
    ..., R_k, where R_i holds the labels not yet placed before block i
    (the union of blocks i to k), so a point's weight is the sum of its
    coordinate sums sums[R_i].  score holds that sum over the remainders
    before R, one integer per point; sums[R] is added once here, for
    every composition that continues this prefix, and the vector is
    complete when the last block S = R is placed."""
    score = list(map(add, score, sums[R]))
    for S in table[R]:
        if S == R:
            if _one_best(score):
                yield prefix + (S,)
        else:
            yield from _scored_walk(table, sums, R ^ S, score, prefix + (S,))


@dataclass
class ClassQSym:
    """Monomial-basis expansion with class-function coefficients.

    coeffs maps integer compositions of the degree to class functions;
    absent compositions are zero.  Engine outputs are fixed-composition
    counts, so values are nonnegative integers maximized at the identity;
    that much is validated here.  Two are equal when their degrees,
    groups and coefficients are; a PermGroup compares by identity."""

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


def psi(h, char, group, max_ground=GROUND_CAP):
    """The quasisymmetric class function of (h, char) under a group of
    automorphisms of h.  Every generator is checked; a non-automorphism is
    reported by name.

    Each coefficient is counted once per conjugacy class, at its
    representative g, without listing compositions: _fixed_types runs the
    set-partition recursion over the next-block table with only the
    blocks g maps onto themselves.  g fixes a composition exactly when it
    maps every block onto itself, and if R and S are g-stable so is R - S;
    so every g-fixed composition is one path through g-stable remainders,
    and the recursion counts exactly the compositions g fixes.  The count
    is constant on g's class, since an automorphism x maps the proper
    compositions bijectively onto themselves and those fixed by g onto
    those fixed by x g x^-1.

    Point collections are the exception: their rule scores whole
    compositions, so those are listed by proper_compositions and counted
    at every element by fixed_qsym."""
    char = check_compatible(h, char)
    if group.ground != h.ground:
        raise DomainError("group acts on %r, structure lives on %r"
                          % (group.ground, h.ground))
    for g in group.distinct_generators:
        if not automorphism_check(h, g):
            raise DomainError("generator %s is not an automorphism of the structure"
                              % g.cycle_string())
    n = len(h.ground)
    if h.kind == "gen_permutohedron":
        by_type = {}
        for c in proper_compositions(h, char, max_ground=max_ground):
            by_type.setdefault(tuple(S.bit_count() for S in c), []).append(c)
        return fixed_qsym(group, n, by_type.items())
    check_ground(n, max_ground)
    table = _next_blocks(h, char)
    stable = group.stabilizer_bits
    per_class = [_fixed_types(table, stable, group._elem_index[rep])
                 for rep in group.class_reps]
    return ClassQSym(n, group, {
        IntComposition(parts): ClassFunction(group, tuple(f.get(parts, 0) for f in per_class))
        for parts in set().union(*per_class)})


def _fixed_types(table, stable, k):
    """Type -> number of proper compositions fixed by group element k,
    given the next-block table and the group's stabilizer_bits.

    f(R) maps each type of the blocks still to come, once R is left to
    place, to its count: f(0) = {(): 1}, and f(R) sums (|S|,) + t over the
    S in table[R] that element k maps onto themselves, for every t of
    f(R - S).  Memoized, so each remainder is expanded once."""
    memo = {0: {(): 1}}

    def f(R):
        out = memo.get(R)
        if out is None:
            out = {}
            for S in table[R]:
                if stable[S] >> k & 1:
                    head = (S.bit_count(),)
                    for t, cnt in f(R ^ S).items():
                        t = head + t
                        out[t] = out.get(t, 0) + cnt
            memo[R] = out
        return out

    return f(len(table) - 1)


def fixed_qsym(group, n, groups):
    """The quasisymmetric class function of degree n whose coefficient of
    each type counts, at every g, the objects of that type g fixes.

    groups yields (parts, chains) pairs: a type and the mask tuples of
    its objects, the block masks of set compositions or the member masks
    of flags.  g fixes one exactly when it maps every mask onto itself,
    so the elements fixing it are the AND of group.stabilizer_bits over
    its masks (bit k for group.elements[k]).  Objects are tallied by type
    and fixing bitset, the value at g sums the tallies whose bitset holds
    g, and class constancy is checked."""
    stable = group.stabilizer_bits
    everyone = (1 << group.order) - 1
    tallies = {}
    for parts, chains in groups:
        tally = tallies.setdefault(parts, {})
        for masks in chains:
            fixers = everyone
            for m in masks:
                fixers &= stable[m]
            tally[fixers] = tally.get(fixers, 0) + 1
    elements = group.elements
    return ClassQSym(n, group, {
        IntComposition(parts): ClassFunction.from_element_values(group, {
            g: sum(cnt for fixers, cnt in tally.items() if fixers >> k & 1)
            for k, g in enumerate(elements)})
        for parts, tally in tallies.items()})


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
    """Convert sum f_i*C(x,i) to ascending monomial coefficients (exact).
    C(x, i) is the falling factorial x(x-1)...(x-i+1) over i!, and both
    extend those of i - 1 by one factor, so each is built once."""
    coeffs = [Fraction(0)] * len(fvec)
    poly, fact = [1], 1
    for i, fi in enumerate(fvec):
        if i:
            poly = [a - (i - 1) * b for a, b in zip([0] + poly, poly + [0])]
            fact *= i
        if fi:
            for d, c in enumerate(poly):
                coeffs[d] += Fraction(fi) * c / fact
    return coeffs


# ---------------------------------------------------------------------------
# brute-force oracle


def coloring_oracle(h, char, k, max_ground=ORACLE_GROUND_CAP):
    """All proper colorings with colors 1..k, as color tuples aligned with
    the sorted ground set, by the predicate of coloring_test, built once.

    The search is k^n, so one rule caps it: n <= max_ground and k^n <=
    max_ground^max_ground.  As k^n < 2^(n bits(k)) and cap^cap >=
    2^(cap (bits(cap) - 1)), bit lengths settle most k without raising a
    large cap to its own power."""
    proper = coloring_test(h, char)
    n, cap = len(h.ground), max_ground
    if n > cap:
        raise ResourceCapError("oracle ground cap exceeded: %d > %d" % (n, cap))
    if n * k.bit_length() > cap * (cap.bit_length() - 1) and k ** n > cap ** cap:
        raise ResourceCapError("oracle color cap exceeded: %d^%d tuples > %d^%d"
                               % (k, n, cap, cap))
    return [c for c in product(range(1, k + 1), repeat=n) if proper(c)]


def colorings_by_type(colorings):
    """Count color tuples by monomial type: the sizes of their color
    classes in increasing color order (the level-set composition's type)."""
    sizes = Counter(tuple(m for _, m in sorted(Counter(c).items())) for c in colorings)
    return {IntComposition(parts): cnt for parts, cnt in sizes.items()}


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
