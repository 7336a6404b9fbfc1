import random
from fractions import Fraction

import pytest

import fact_reference as ref
from hopfchrom import groups
from hopfchrom.cyclotomic import cyclotomic_polynomial
from hopfchrom.errors import (DomainError, ResourceCapError,
                              UnsupportedGroupError, VerificationFailure)
from hopfchrom.groups import (ClassFunction, PermGroup, Permutation,
                              abelian_irreducibles, burnside_count,
                              irreducible_multiplicities, is_effective,
                              leq_char)
from hopfchrom.randgen import corpus
from cyclo_reference import FieldCyclo, inner_product

ABCD = ("a", "b", "c", "d")


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    # degree is Euler phi
    assert len(cyclotomic_polynomial(12)) - 1 == 4


def test_cyclo_arithmetic():
    i = FieldCyclo.root(4, 1)
    assert i * i == -1
    assert (i + i.conjugate()).is_rational()
    assert i + i.conjugate() == 0
    assert i * i.conjugate() == 1
    z = FieldCyclo.root(3, 1)
    assert z * z * z == 1
    assert z + z * z == -1
    assert (z - z).is_zero()


def test_cyclo_rational_interop():
    half = FieldCyclo.from_rational(4, Fraction(1, 2))
    assert half + half == 1
    assert half == Fraction(1, 2)
    assert hash(half) == hash(Fraction(1, 2))
    with pytest.raises(DomainError):
        FieldCyclo.root(4, 1) + FieldCyclo.root(3, 1)


def test_permutation_basics():
    g = Permutation.from_cycles("(a c)(b d)", ABCD)
    assert g("a") == "c" and g("b") == "d"
    assert g * g == Permutation.identity(ABCD)
    assert g.inverse() == g
    assert g.order() == 2
    assert g.cycle_string() == "(a c)(b d)"
    assert Permutation.from_cycles("()", ABCD).is_identity()


def test_permutation_composition_order():
    # self * other applies other first
    s = Permutation.from_cycles("(a b)", ("a", "b", "c"))
    t = Permutation.from_cycles("(b c)", ("a", "b", "c"))
    assert (s * t)("b") == s("c")
    assert (t * s)("a") == t("b")


def test_permutation_parse_forms():
    d = {"a": "b", "b": "a", "c": "c", "d": "d"}
    assert Permutation.parse(d, ABCD) == Permutation.from_cycles("(a b)", ABCD)
    assert Permutation.parse("(a b)", ABCD) == Permutation.from_cycles("(a b)", ABCD)
    with pytest.raises(DomainError):
        Permutation.parse("(a e)", ABCD)


@pytest.mark.parametrize("text, label", [
    ("(a a)", "a"), ("(a b a)", "a"), ("(c d b c)", "c"), ("(a b)(c d d)", "d"),
    ("(a b)(c a)", "a"), ("(a, b, b)", "b")])
def test_cycle_notation_refuses_a_repeated_label(text, label):
    """A label repeated inside one cycle is refused with the text that a
    label repeated across cycles gets; "(a a)" is no identity."""
    with pytest.raises(DomainError) as info:
        Permutation.from_cycles(text, ABCD)
    assert str(info.value) == "label %r repeated in cycle notation %r" % (label, text)


def test_cycle_notation_checks_each_label_in_order():
    """The first bad label in reading order names the refusal."""
    for text, message in (("(a e a)", "cycle label 'e' is not in the ground set"),
                          ("(a a e)", "label 'a' repeated in cycle notation '(a a e)'"),
                          ("(a)(b)", None)):
        try:
            g = Permutation.from_cycles(text, ABCD)
        except DomainError as exc:
            assert str(exc) == message
        else:
            assert message is None and g.is_identity()


@pytest.mark.parametrize("text, want", [
    ("(a b) (c d)", "(a b)(c d)"), (" (a b)\t(c d) ", "(a b)(c d)"), ("() (a b)", "(a b)"),
    ("((a b))", None), ("(a b)x(c d)", None), ("(a b", None), ("a b", None), (")(", None)])
def test_cycle_notation_reads_parenthesized_cycles(text, want):
    """Cycles in parentheses with optional whitespace between them; any
    other text is refused as a whole, naming no label of its own."""
    try:
        g = Permutation.from_cycles(text, ABCD)
    except DomainError as exc:
        assert want is None and str(exc) == "cannot parse cycles from %r" % (text,)
    else:
        assert g.cycle_string() == want


def test_group_closure_and_classes():
    r = Permutation.from_cycles("(a b d c)", ABCD)
    g4 = PermGroup((r,))
    assert g4.order == 4
    assert g4.elements[0].is_identity()
    reps = [p.cycle_string() for p in g4.class_reps]
    assert reps == ["()", "(a b d c)", "(a d)(b c)", "(a c d b)"]
    assert list(g4.class_sizes) == [1, 1, 1, 1]
    assert g4.is_abelian()
    assert g4.exponent() == 4


def test_symmetric_group_classes():
    s3 = PermGroup((Permutation.from_cycles("(a b)", ("a", "b", "c")),
                    Permutation.from_cycles("(a b c)", ("a", "b", "c"))))
    assert s3.order == 6
    assert not s3.is_abelian()
    assert sorted(s3.class_sizes) == [1, 2, 3]
    assert len(s3.class_reps) == 3


def _image_table(ground, g):
    """The former chromatic._image_table: img[m] is the mask of the images
    under g of the labels of mask m (label i of the sorted ground set is
    bit i)."""
    index = {x: i for i, x in enumerate(ground)}
    bit = [1 << index[g(x)] for x in ground]
    img = [0] * (1 << len(ground))
    for m in range(1, len(img)):
        low = m & -m
        img[m] = img[m ^ low] | bit[low.bit_length() - 1]
    return img


def _stabilizer_bits(ground, elements):
    """The former chromatic._stabilizer_bits: stable[m] has bit k set when
    elements[k] maps the labels of mask m onto themselves."""
    stable = [0] * (1 << len(ground))
    for k, g in enumerate(elements):
        for m, image in enumerate(_image_table(ground, g)):
            if image == m:
                stable[m] |= 1 << k
    return stable


def dihedral(n):
    """D_n on the first n letters, as the symmetries of the cycle a b c ..."""
    v = tuple("abcdefghi"[:n])
    flip = "".join("(%s %s)" % (v[i], v[n - i]) for i in range(1, (n + 1) // 2))
    return PermGroup((Permutation.from_cycles("(%s)" % " ".join(v), v),
                      Permutation.from_cycles(flip, v)))


def test_mask_action_matches_reference():
    """mask_images and the per-group stabilizer table equal the chromatic
    helpers they replaced, on every corpus group and on D7 and D8."""
    groups = [group for _, _, _, group in corpus()] + [dihedral(7), dihedral(8)]
    assert [g.order for g in groups[-2:]] == [14, 16]
    for group in groups:
        for g in group.elements:
            assert g.mask_images() == _image_table(group.ground, g), g
        assert list(group.stabilizer_bits) == _stabilizer_bits(group.ground, group.elements)
        assert group.stabilizer_bits is group.stabilizer_bits


def reference_classes(group):
    """The former class tables: each class conjugated out by every
    element, in element order; (reps, sizes, members, class index)."""
    index = {x: i for i, x in enumerate(group.elements)}
    assigned = [None] * group.order
    inverses = [x.inverse() for x in group.elements]
    reps, sizes, members = [], [], []
    for i, x in enumerate(group.elements):
        if assigned[i] is not None:
            continue
        cls_set = {h * x * hi for h, hi in zip(group.elements, inverses)}
        for y in cls_set:
            assigned[index[y]] = len(reps)
        reps.append(min(cls_set, key=lambda p: p.cycle_string()))
        sizes.append(len(cls_set))
        members.append(frozenset(cls_set))
    return (tuple(reps), tuple(sizes), tuple(members),
            {x: assigned[i] for i, x in enumerate(group.elements)})


def symmetric(n):
    v = tuple("abcdefghi"[:n])
    return PermGroup((Permutation.from_cycles("(a b)", v),
                      Permutation.from_cycles("(%s)" % " ".join(v), v)))


def test_conjugacy_classes_match_the_all_element_reference():
    """Classes closed under generator conjugation equal the classes
    conjugated out by every element, on every corpus group, D_n for
    n <= 9 and S_6."""
    groups = ([group for _, _, _, group in corpus()] + [dihedral(n) for n in range(1, 10)]
              + [symmetric(6)])
    assert [g.order for g in groups[-10:]] == [1, 2, 6, 8, 10, 12, 14, 16, 18, 720]
    for group in groups:
        got = (group.class_reps, group.class_sizes, group.class_members, group._class_index)
        assert got == reference_classes(group), group.generators
    assert len(symmetric(6).class_reps) == 11


def _same_permutation(got, want):
    assert (got, got.ground, got.images, got._map) == (want, want.ground, want.images, want._map)


def test_unchecked_products_equal_validated_ones(monkeypatch):
    """Products and inverses built without __post_init__'s check equal the
    ones the validating constructor builds, _map included, on every corpus
    group, D_n for n <= 9 and S_6 (S_6 against every 30th element); with
    every product validated, closure and class tables come out the same."""
    groups = ([group for _, _, _, group in corpus()] + [dihedral(n) for n in range(1, 10)]
              + [symmetric(6)])
    for group in groups:
        ground = group.ground
        for x in group.elements:
            _same_permutation(x.inverse(), Permutation.from_mapping({x(a): a for a in ground}, ground))
            for y in group.elements[::30 if group.order > 100 else 1]:
                _same_permutation(x * y, Permutation(ground, tuple(x(y(a)) for a in ground)))
    monkeypatch.setattr(Permutation, "_bijection",
                        classmethod(lambda cls, ground, images: cls(ground, images)))
    for group in groups:
        checked = PermGroup(group.generators)
        assert checked.elements == group.elements
        assert (checked.class_reps, checked.class_sizes, checked.class_members) == (
            group.class_reps, group.class_sizes, group.class_members)


def _closure(group):
    """Elements, parents (as parent index and generator permutation) and
    class tables of a group."""
    parents = [p and (p[0], group.distinct_generators[p[1]]) for p in group._parents]
    return (group.elements, parents, group.class_reps, group.class_sizes,
            group.class_members, group._class_index)


def _relisted(rng, gens, ident, extra):
    """gens in order, with up to extra repeats of earlier ones and
    identities before each and after the last."""
    listed = []
    for g in list(gens) + [None]:
        listed += [rng.choice(listed + [ident]) for _ in range(rng.randint(0, extra))]
        if g is not None:
            listed.append(g)
    return listed


def test_repeated_generators_and_identities_change_no_closure():
    """A group listed with repeated generators and identities mixed in has
    the elements, parents and class tables of the group listed once, keeps
    its listed generators, and closes over the distinct ones: on S7xS2 with
    its three generators listed 20 times and an identity after each, on
    D8, and on every corpus group with random repeats and identities."""
    rng = random.Random(27)
    v = tuple("abcdefghi")
    s7s2 = [Permutation.from_cycles(c, v) for c in ("(a b)", "(a b c d e f g)", "(h i)")]
    ident = Permutation.identity(v)
    cases = [(v, s7s2, [x for g in s7s2 for x in (g, ident)] * 20)]
    groups = [dihedral(8)] + [group for _, _, _, group in corpus()]
    for group in groups:
        once = list(dict.fromkeys(g for g in group.generators if not g.is_identity()))
        ident = Permutation.identity(group.ground)
        cases.append((group.ground, once, _relisted(rng, once, ident, 3)))
    orders, compared = [], 0
    for ground, once, listed in cases:
        want = PermGroup(once, ground=ground)
        got = PermGroup(listed, ground=ground)
        orders.append(got.order)
        assert got.generators == tuple(listed)
        assert got.distinct_generators == tuple(once)
        assert _closure(got) == _closure(want)
        if got.is_abelian():
            assert got.character_exponents == want.character_exponents
            compared += 1
    assert orders[:2] == [10080, 16] and compared > 100


def test_character_rows_of_relisted_groups_match_the_listed_search():
    """The character rows of every abelian corpus group, relisted with
    random repeats and identities, equal those of the search over listed
    generators (fact_reference) on the relisted group and on the group
    listed once."""
    rng = random.Random(33)
    compared = 0
    for _, _, _, group in corpus():
        if not group.is_abelian():
            continue
        once = list(dict.fromkeys(g for g in group.generators if not g.is_identity()))
        ident = Permutation.identity(group.ground)
        got = PermGroup(_relisted(rng, once, ident, 3), ground=group.ground)
        want = ref.listed_search(PermGroup(once, ground=group.ground))
        assert got.character_exponents == ref.listed_search(got) == want
        compared += 1
    assert compared > 150


def test_group_order_cap():
    gens = (Permutation.from_cycles("(a b)", ABCD),
            Permutation.from_cycles("(a b c d)", ABCD))
    with pytest.raises(ResourceCapError):
        PermGroup(gens, cap=10)


def test_class_function_from_element_values():
    r = Permutation.from_cycles("(a b d c)", ABCD)
    g4 = PermGroup((r,))
    cf = ClassFunction.from_element_values(g4, {g: g.order() for g in g4.elements})
    assert cf.values == (1, 4, 2, 4)
    assert cf.at_identity() == 1
    bad = {g: 0 for g in g4.elements}
    bad[g4.elements[1]] = 1
    # constant on classes, so this cannot happen unless the class splits
    cf2 = ClassFunction.from_element_values(g4, bad)
    assert cf2.values == (0, 1, 0, 0)


def test_class_zero_is_the_identity():
    """ClassFunction.at_identity reads values[0]: on every corpus group,
    and on D7 and D8, class 0 is the identity alone."""
    groups = [group for _, _, _, group in corpus()] + [dihedral(7), dihedral(8)]
    for group in groups:
        assert group.class_reps[0].is_identity() and group.class_sizes[0] == 1
        cf = ClassFunction(group, tuple(range(len(group.class_reps))))
        assert cf.at_identity() == cf(Permutation.identity(group.ground)) == 0


def test_inner_product_and_burnside():
    r = Permutation.from_cycles("(a b d c)", ABCD)
    g4 = PermGroup((r,))
    reg = ClassFunction(g4, (4, 0, 0, 0))
    triv = ClassFunction.constant(g4, 1)
    assert inner_product(triv, reg) == 1
    assert burnside_count(reg) == 1
    # 84, 0, 12, 0 fixed colorings: 24 orbits
    counts = ClassFunction(g4, (84, 0, 12, 0))
    assert burnside_count(counts) == 24 == inner_product(triv, counts)
    with pytest.raises(VerificationFailure, match="orbit count 1/4 is not"):
        burnside_count(ClassFunction(g4, (1, 0, 0, 0)))


def test_abelian_irreducibles_z4():
    r = Permutation.from_cycles("(a b d c)", ABCD)
    g4 = PermGroup((r,))
    irr = abelian_irreducibles(g4)
    assert len(irr) == 4
    # first is trivial
    assert all(v == 1 for v in irr[0].values)
    # characters are orthonormal
    for i, chi in enumerate(irr):
        for j, other in enumerate(irr):
            assert inner_product(chi, other) == (1 if i == j else 0)


def test_abelian_irreducibles_klein():
    g = PermGroup((Permutation.from_cycles("(a b)(c d)", ABCD),
                   Permutation.from_cycles("(a c)(b d)", ABCD)))
    assert g.order == 4
    irr = abelian_irreducibles(g)
    assert len(irr) == 4
    assert all(all(v in (1, -1) for v in chi.values) for chi in irr)


def test_abelian_irreducibles_are_cached_per_group():
    g4 = PermGroup((Permutation.from_cycles("(a b d c)", ABCD),))
    first = abelian_irreducibles(g4)
    first.clear()
    again = abelian_irreducibles(g4)
    assert len(again) == 4
    assert again is not abelian_irreducibles(g4)
    # the cached characters are reused, not searched for again
    assert all(a is b for a, b in zip(again, abelian_irreducibles(g4)))
    fresh = PermGroup((Permutation.from_cycles("(a b d c)", ABCD),))
    assert [chi.values for chi in abelian_irreducibles(fresh)] == [
        chi.values for chi in again]


def test_the_group_searches_its_characters_once(monkeypatch):
    """PermGroup keeps its characters and their exponent rows: one search
    serves every abelian_irreducibles and irreducible_multiplicities call."""
    calls, search = [], groups._search_irreducibles
    monkeypatch.setattr(groups, "_search_irreducibles", lambda g: calls.append(g) or search(g))
    g4 = PermGroup((Permutation.from_cycles("(a b d c)", ABCD),))
    chars = abelian_irreducibles(g4)
    assert [m for _, m in irreducible_multiplicities(ClassFunction(g4, (4, 0, 0, 0)))] == [1] * 4
    assert abelian_irreducibles(g4) == chars and calls == [g4]
    assert g4.irreducibles is g4.irreducibles
    assert g4.character_exponents == (4, ((0, 0, 0, 0), (0, 1, 2, 3), (0, 2, 0, 2), (0, 3, 2, 1)))


def test_abelian_only():
    s3 = PermGroup((Permutation.from_cycles("(a b)", ("a", "b", "c")),
                    Permutation.from_cycles("(a b c)", ("a", "b", "c"))))
    with pytest.raises(UnsupportedGroupError):
        abelian_irreducibles(s3)
    triv = ClassFunction.constant(s3, 1)
    with pytest.raises(UnsupportedGroupError):
        is_effective(triv)


def test_effective_and_leq():
    r = Permutation.from_cycles("(a b d c)", ABCD)
    g4 = PermGroup((r,))
    reg = ClassFunction(g4, (4, 0, 0, 0))
    ok, details = is_effective(reg)
    assert ok and details == {}
    assert all(m == 1 for _, m in irreducible_multiplicities(reg))
    # (2,0,-2,0) is the sum of the two order-4 characters, hence effective
    ok, _ = is_effective(ClassFunction(g4, (2, 0, -2, 0)))
    assert ok
    # identity value 1 with three zeros has multiplicity 1/4 everywhere
    ok, details = is_effective(ClassFunction(g4, (1, 0, 0, 0)))
    assert not ok and "offending_multiplicity" in details
    a = ClassFunction(g4, (2, 0, 2, 0))
    b = ClassFunction(g4, (12, 0, 0, 0))
    assert leq_char(a, b)[0]
    assert not leq_char(b, a)[0]
    assert leq_char(a, a)[0]


def test_multiplicities_of_permutation_character():
    r = Permutation.from_cycles("(a b d c)", ABCD)
    g4 = PermGroup((r,))
    # natural action character: fixed points per class
    nat = ClassFunction(g4, (4, 0, 0, 0))
    assert [m for _, m in irreducible_multiplicities(nat)] == [1, 1, 1, 1]
