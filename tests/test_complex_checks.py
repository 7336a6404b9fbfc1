"""Differential tests of the mask-based checks in complexes against the
code they replaced, kept here as the references: the scan over all faces
for sandwich closure and purity, the face-set validation (_validate and
the dimension check) that the next-block table rule replaces for
coloring complexes, the dense pair-by-pair incidence matrix
ranked by column-scan elimination, with its per-(source, target)
equivariance test, hilb counted with act_flag on every face, and the
faces built as one Flag per proper composition and written out in Flag
order."""

import gc
import random
from itertools import accumulate, combinations
from operator import or_

import pytest

from hopfchrom import chromatic, complexes, structures
from hopfchrom.chromatic import ClassQSym
from hopfchrom.complexes import (BalancedRelativeComplex, _table_rule,
                                 check_balanced_convex, coloring_complex, comparable_pairs,
                                 complex_automorphism_check, flag_f_vector, hilb,
                                 theta_certificate)
from hopfchrom.compositions import (Flag, alpha_of_subset, compositions_of, submasks,
                                    subset_of_alpha)
from hopfchrom.errors import DomainError, VerificationFailure
from hopfchrom.groups import ClassFunction, PermGroup, Permutation
from hopfchrom.jobio import flags_to_json
from hopfchrom.randgen import corpus
from hopfchrom.structures import CharacterSpec, Graph
from hopfchrom.verify import run_verification
from label_reference import (act_flag, enumerate_set_compositions, flag_of,
                             reference_faces_json)
from test_kernel import set_compositions

CORPUS = corpus()


def _flags(phi):
    """The faces of phi as Flags, sorted: the form the complex kept them in
    before it kept mask chains only."""
    ground = phi.ground
    return sorted(Flag(ground, tuple(tuple(x for i, x in enumerate(ground) if m >> i & 1)
                                     for m in c))
                  for c in phi.faces)


def _flags_of_type(phi, alpha):
    kappa = tuple(sorted(subset_of_alpha(alpha)))
    return [f for f in _flags(phi) if f.kappa == kappa]


def _flags_by_kappa(phi):
    out = {}
    for f in _flags(phi):
        out.setdefault(f.kappa, []).append(f)
    return out


def _reference_verdict(faces):
    """The former BalancedRelativeComplex._validate, as a verdict: None,
    "sandwich violation" or "purity violation"."""
    chains = {frozenset(f.chain) for f in faces}
    for tau in faces:
        members = list(tau.chain)
        for k in range(len(members)):
            for sub in combinations(members, k):
                sigma = frozenset(sub)
                if sigma in chains:
                    continue
                if any(rho <= sigma for rho in chains):
                    return "sandwich violation"
    if faces:
        top = max(len(f.chain) for f in faces)
        facets = [frozenset(f.chain) for f in faces if len(f.chain) == top]
        for f in faces:
            if not any(frozenset(f.chain) <= big for big in facets):
                return "purity violation"
    return None


def _verdict(ground, faces):
    try:
        BalancedRelativeComplex(ground, faces)
    except DomainError as exc:
        return str(exc).split(":")[0]
    return None


def dense_integer_rank(rows):
    """The former complexes.integer_matrix_rank: exact rank of dense
    integer rows by multiply-and-subtract elimination, column by column."""
    m = [list(r) for r in rows]
    if not m or not m[0]:
        return 0
    nr, nc = len(m), len(m[0])
    rank = 0
    for col in range(nc):
        piv = None
        for r in range(rank, nr):
            if m[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pivot = m[rank][col]
        for r in range(rank + 1, nr):
            if m[r][col] != 0:
                factor = m[r][col]
                m[r] = [pivot * a - factor * b for a, b in zip(m[r], m[rank])]
        rank += 1
        if rank == min(nr, nc):
            break
    return rank


def _reference_equivariant(group, src, tgt):
    """The former complexes._theta_equivariant."""
    tgt_set = set(tgt)
    for g in group.generators:
        for s in src:
            image = set(act_flag(g, s).chain)
            direct = {t for t in tgt if image <= set(t.chain)}
            moved = {act_flag(g, t) for t in tgt if set(s.chain) <= set(t.chain)}
            if direct != moved or not moved <= tgt_set:
                return False
    return True


def _reference_theta(phi, group, alpha, beta):
    """(matrix, rank, equivariant) from dense pair-by-pair inclusion tests."""
    src = _flags_of_type(phi, alpha)
    tgt = _flags_of_type(phi, beta)
    matrix = tuple(tuple(1 if set(s.chain) <= set(t.chain) else 0 for s in src)
                   for t in tgt)
    return matrix, dense_integer_rank(matrix), _reference_equivariant(group, src, tgt)


def _reference_hilb(phi, group):
    n = len(phi.ground)
    coeffs = {}
    for kappa, faces in _flags_by_kappa(phi).items():
        by_element = {g: sum(1 for f in faces if act_flag(g, f) == f)
                      for g in group.elements}
        coeffs[alpha_of_subset(set(kappa), n)] = ClassFunction.from_element_values(
            group, by_element)
    return ClassQSym(n, group, coeffs)


def _reference_automorphism(phi, g):
    flags = frozenset(_flags(phi))
    return frozenset(act_flag(g, f) for f in flags) == flags


def _theta_pairs(n):
    """Every comparable pair plus the equal pairs."""
    return comparable_pairs(n) + [(a, a) for a in compositions_of(n)]


def _check_theta(phi, group):
    n = len(phi.ground)
    for a, b in _theta_pairs(n):
        cert = theta_certificate(phi, group, a, b)
        assert (cert.matrix, cert.rank, cert.equivariance_checked) == \
            _reference_theta(phi, group, a, b), (a, b)


def _transpositions(ground):
    return tuple(Permutation.from_cycles("(%s %s)" % pair, ground)
                 for pair in zip(ground[:1], ground[1:2]))


def test_corpus_complexes_match_references():
    """Every corpus complex: valid under both checks, with the same
    certificates on every pair, the same hilb, and the same automorphism
    verdicts, for group elements and for a transposition of the first
    two labels."""
    built = 0
    for name, h, char, group in CORPUS:
        phi = coloring_complex(h, char)
        built += 1
        assert _reference_verdict(_flags(phi)) is None, name
        assert hilb(phi, group) == _reference_hilb(phi, group), name
        for g in group.elements + _transpositions(phi.ground):
            assert complex_automorphism_check(phi, g) == _reference_automorphism(phi, g), name
        _check_theta(phi, group)
    assert built == len(CORPUS)


def _all_flags(ground):
    return [flag_of(c) for c in enumerate_set_compositions(ground)]


def _random_family(rng, flags):
    """Either a random subset of all flags, or a union of one to three
    intervals [rho, tau] of flags; the second kind is often sandwich-closed
    and, with tops of different sizes, often impure."""
    if rng.random() < 0.3:
        return [f for f in flags if rng.random() < rng.random()]
    family = set()
    for _ in range(rng.randint(1, 3)):
        tau = rng.choice(flags)
        rho = {m for m in tau.chain if rng.random() < 0.4}
        family.update(f for f in flags
                      if rho <= set(f.chain) <= set(tau.chain))
    return sorted(family)


def test_validation_leaves_no_reference_cycle(bowtie):
    """Validating a complex, down through the search for a face below a
    missing tau - x, leaves no cyclic garbage: its face set is freed with
    the complex, not when the cyclic collector next runs."""
    phi = coloring_complex(bowtie, CharacterSpec("chromatic"))
    ground, flags = phi.ground, _flags(phi)
    assert any(tau[:i] + tau[i + 1:] not in phi.faces
               for tau in phi.faces for i in range(len(tau)))
    gc.collect()
    start, debug = len(gc.garbage), gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        BalancedRelativeComplex(ground, flags)
        gc.collect()
    finally:
        gc.set_debug(debug)
        cyclic = gc.garbage[start:]
        del gc.garbage[start:]
    assert cyclic == []


def _cyclic_garbage(call):
    """The objects that call leaves to the cyclic collector."""
    gc.collect()
    start, debug = len(gc.garbage), gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        call()
        gc.collect()
    finally:
        gc.set_debug(debug)
        cyclic = gc.garbage[start:]
        del gc.garbage[start:]
    return cyclic


def test_convexity_walk_leaves_no_reference_cycle(monkeypatch, bowtie):
    """The convexity walk, on a convex job and on one that returns a
    witness, leaves no cyclic garbage: its seen set and the splitting memo
    are not kept alive until the cyclic collector next runs."""
    chrom = CharacterSpec("chromatic")
    c6 = Graph(tuple("abcdef"), [(x, y) for x, y in zip("abcdef", "bcdefa")])
    assert check_balanced_convex(c6, chrom) is None
    structures.splitting_memo.cache_clear()
    assert _cyclic_garbage(lambda: check_balanced_convex(c6, chrom)) == []
    one = structures.SplittingMemo.one
    monkeypatch.setattr(structures.SplittingMemo, "one",
                        lambda memo, R, S: memo.labels[S] != ("a",) and one(memo, R, S))
    structures.splitting_memo.cache_clear()
    witness = check_balanced_convex(bowtie, chrom)
    assert witness["condition"] == 3 and witness["subset"] == ["a"]
    structures.splitting_memo.cache_clear()
    assert _cyclic_garbage(lambda: check_balanced_convex(bowtie, chrom)) == []
    structures.splitting_memo.cache_clear()


def test_random_flag_families_same_verdict():
    rng = random.Random(20261018)
    seen = {None: 0, "sandwich violation": 0, "purity violation": 0}
    for ground in (("a", "b", "c"), ("a", "b", "c", "d")):
        flags = _all_flags(ground)
        for _ in range(400):
            family = _random_family(rng, flags)
            want = _reference_verdict(family)
            assert _verdict(ground, family) == want, family
            seen[want] += 1
    assert min(seen.values()) >= 50, seen


def test_random_flag_families_same_certificates():
    """Unvalidated families under random permutations, which are mostly no
    automorphisms of the family, so the symmetric-difference branch of the
    equivariance check runs."""
    rng = random.Random(7)
    ground = ("a", "b", "c", "d")
    flags = _all_flags(ground)
    verdicts = set()
    for _ in range(40):
        family = _random_family(rng, flags)
        phi = BalancedRelativeComplex(ground, family, validate=False)
        images = list(ground)
        rng.shuffle(images)
        g = Permutation.from_mapping(dict(zip(ground, images)), ground)
        group = PermGroup((g,))
        for a, b in _theta_pairs(len(ground)):
            cert = theta_certificate(phi, group, a, b)
            want = _reference_theta(phi, group, a, b)
            assert (cert.matrix, cert.rank, cert.equivariance_checked) == want
            verdicts.add(want[2])
    assert verdicts == {True, False}


def test_theta_with_non_automorphism_generator(bowtie):
    """The swap (a b) is no automorphism of the bowtie complex: the images of
    some target faces leave the target set, and the equivariance verdicts
    agree with the reference on every pair."""
    phi = coloring_complex(bowtie, CharacterSpec("chromatic"))
    swap = Permutation.from_cycles("(a b)", phi.ground)
    group = PermGroup((swap,))
    assert not complex_automorphism_check(phi, swap)
    moved_off = 0
    verdicts = set()
    for a, b in _theta_pairs(len(phi.ground)):
        tgt = _flags_of_type(phi, b)
        moved_off += {act_flag(swap, t) for t in tgt} != set(tgt)
        cert = theta_certificate(phi, group, a, b)
        want = _reference_theta(phi, group, a, b)
        assert (cert.matrix, cert.rank, cert.equivariance_checked) == want, (a, b)
        verdicts.add(want[2])
    assert moved_off
    assert verdicts == {True, False}


def test_certificates_after_hilb_image_nothing(monkeypatch, bowtie, z2):
    """hilb settles each generator's moves on the face set once; the
    certificates read them and image no face of their own."""
    phi = coloring_complex(bowtie, CharacterSpec("chromatic"))
    hilb(phi, z2)
    calls = _count_mask_images(monkeypatch)
    certs = [theta_certificate(phi, z2, a, b) for a, b in _theta_pairs(len(phi.ground))]
    assert all(c.valid for c in certs)
    assert not calls


def _count_mask_images(monkeypatch):
    """Record every Permutation.mask_images call from here on."""
    calls, table = [], Permutation.mask_images

    def counted(g):
        calls.append(g)
        return table(g)

    monkeypatch.setattr(Permutation, "mask_images", counted)
    return calls


def test_verify_builds_the_stabilizer_table_once(monkeypatch):
    """One run_verification images every mask once per group element, for
    the stabilizer table that psi and hilb share, and once per generator,
    for that generator's moves on the face set, which hilb and the
    certificates share.  Building the table in psi and again in hilb would
    take group.order calls more."""
    v = tuple("abcdef")
    c6 = Graph(v, frozenset(frozenset({v[i], v[(i + 1) % 6]}) for i in range(6)))
    d6 = PermGroup((Permutation.from_cycles("(a b c d e f)", v),
                    Permutation.from_cycles("(b f)(c e)", v)))
    calls = _count_mask_images(monkeypatch)
    assert run_verification(c6, CharacterSpec("chromatic"), d6, include_oracle=False)["ok"]
    assert len(calls) == d6.order + len(d6.generators)
    assert set(calls[:d6.order]) == set(d6.elements)


def _mask_chain(ground, flag):
    bit = {x: 1 << i for i, x in enumerate(ground)}
    return tuple(sum(bit[x] for x in s) for s in flag.chain)


def _check_faces(h, char):
    """The faces of the coloring complex are the mask chains of the flags
    of the proper compositions, one each, and they are written out in the
    order of those Flags."""
    phi = coloring_complex(h, char)
    flags = [flag_of(c) for c in set_compositions(h, char)]
    assert len(phi.faces) == len(flags)
    assert phi.faces == {_mask_chain(h.ground, f) for f in flags}
    assert flags_to_json(phi) == reference_faces_json(flags)


def test_corpus_faces_match_flag_route():
    for name, h, char, group in CORPUS:
        _check_faces(h, char)


def test_c7_faces_match_flag_route():
    ground = tuple("abcdefg")
    c7 = Graph(ground, frozenset(frozenset({ground[i], ground[(i + 1) % 7]})
                                 for i in range(7)))
    _check_faces(c7, CharacterSpec("chromatic"))


def test_one_face_order_and_one_face_text():
    """Every corpus complex and 40 unvalidated random families: ordered is
    the face set sorted by (length, label chain), each per-size-set list
    is the Flag-sorted faces of that size set, and text is the Flag's
    text, "(empty)" for the empty face."""
    rng = random.Random(24)
    ground = ("a", "b", "c", "d")
    flags = _all_flags(ground)
    complexes = [coloring_complex(h, char) for _, h, char, _ in CORPUS]
    complexes += [BalancedRelativeComplex(ground, _random_family(rng, flags), validate=False)
                  for _ in range(40)]
    for phi in complexes:
        flag = {_mask_chain(phi.ground, f): f for f in _flags(phi)}
        assert phi.ordered == sorted(phi.faces, key=lambda c: (len(c), flag[c].chain))
        assert {kappa: [flag[c] for c in faces] for kappa, faces in phi._types.items()} \
            == _flags_by_kappa(phi)
        for c, f in flag.items():
            assert phi.text(c) == (str(f) if c else "(empty)")


def test_purity_witness_is_the_smallest_face_by_label_chain():
    """The refused face is the unreached face smallest by label chain, with
    no length compared first: {a}<{a,c} before {b}, which the sort key of
    ordered, shorter chains first, would name instead."""
    ground = ("a", "b", "c", "d")
    chains = [(("a",), ("a", "b"), ("a", "b", "c")), (("a",), ("a", "b")), (("b",),),
              (("a",), ("a", "c"))]
    with pytest.raises(DomainError) as info:
        BalancedRelativeComplex(ground, chains)
    assert str(info.value) == "purity violation: face {a}<{a,c} extends to no 3-vertex face"


def test_the_member_table_holds_each_member_mask_once():
    """members has one entry per distinct member mask of the faces, ranked
    in label-tuple order with its flag text, on every corpus complex and
    40 unvalidated random families; a complex on 20 labels with one
    two-member face has two."""
    rng = random.Random(27)
    ground = ("a", "b", "c", "d")
    flags = _all_flags(ground)
    complexes = [coloring_complex(h, char) for _, h, char, _ in CORPUS]
    complexes += [BalancedRelativeComplex(ground, _random_family(rng, flags), validate=False)
                  for _ in range(40)]
    for phi in complexes:
        labels = {m: tuple(x for i, x in enumerate(phi.ground) if m >> i & 1)
                  for c in phi.faces for m in c}
        ranked = sorted(labels, key=labels.__getitem__)
        assert phi.members == {m: (ranked.index(m), "{%s}" % ",".join(labels[m]))
                               for m in labels}
    twenty = ["v%02d" % i for i in range(20)]
    phi = BalancedRelativeComplex(twenty, [(("v03",), ("v03", "v11"))])
    assert phi.members == {1 << 3: (0, "{v03}"), 1 << 3 | 1 << 11: (1, "{v03,v11}")}
    assert flags_to_json(phi) == [["{v03}", "{v03,v11}"]]


def test_the_face_set_is_sorted_once(monkeypatch, bowtie, z2):
    """The JSON faces, the flag f-vector, hilb and every certificate read
    one sort of the face set: the sort key runs once per face."""
    keyed, key = [], BalancedRelativeComplex._key

    def counted(self, chain):
        keyed.append(chain)
        return key(self, chain)

    monkeypatch.setattr(BalancedRelativeComplex, "_key", counted)
    phi = coloring_complex(bowtie, CharacterSpec("chromatic"))
    assert not keyed
    faces = flags_to_json(phi)
    flag_f_vector(phi)
    hilb(phi, z2)
    for a, b in _theta_pairs(len(phi.ground)):
        theta_certificate(phi, z2, a, b)
    assert flags_to_json(phi) == faces
    assert sorted(keyed) == sorted(phi.faces)


def test_complex_route_builds_no_flags(monkeypatch, bowtie, z2):
    built = []
    check = Flag.__post_init__

    def counted(self):
        built.append(self)
        check(self)

    monkeypatch.setattr(Flag, "__post_init__", counted)
    phi = coloring_complex(bowtie, CharacterSpec("chromatic"))
    assert not built
    hilb(phi, z2)
    for a, b in _theta_pairs(len(phi.ground)):
        theta_certificate(phi, z2, a, b)
    flags_to_json(phi)
    assert not built
    # the counter sees the Flags of the public constructor
    BalancedRelativeComplex(phi.ground, [(("a",),)])
    assert len(built) == 1


# ---------------------------------------------------------------------------
# the next-block table rule against the face-set route


def _table_refusal(ground, table):
    """The face-set route on the flags of the full paths through a
    next-block table: _of_chains, which runs _validate, then
    coloring_complex's dimension check.  The refusal's text, or None."""
    n = len(ground)
    chains = [tuple(accumulate(c[:-1], or_)) for c in chromatic._walk(table, len(table) - 1)]
    try:
        phi = BalancedRelativeComplex._of_chains(ground, chains)
    except DomainError as exc:
        return str(exc)
    if phi.faces and phi.dimension != n - 2:
        return "coloring complex has dimension %d, expected %d" % (phi.dimension, n - 2)
    return None


def _hereditary_table(rng, n):
    """The blocks of a down-closed family (the submasks of one to three
    random masks, and most singletons), each (R, S) pair then dropped
    with a small probability: a hole."""
    full = (1 << n) - 1
    family = {S for _ in range(rng.randint(1, 3)) for S in submasks(rng.randint(1, full))}
    family |= {1 << i for i in range(n) if rng.random() < 0.9}
    hole = rng.choice((0.05, 0.1, 0.2))
    return [[]] + [[S for S in submasks(R) if S in family and rng.random() >= hole]
                   for R in range(1, full + 1)]


def _unstructured_table(rng, n):
    """Every (R, S) pair kept with one probability, singletons and S = R
    with a higher one, so that some paths reach 0."""
    full = (1 << n) - 1
    p = rng.random()
    return [[]] + [[S for S in submasks(R)
                    if rng.random() < (0.9 if S == R or not S & (S - 1) else p)]
                   for R in range(1, full + 1)]


def test_random_tables_same_verdict():
    """The table rule holds exactly when the face-set route accepts the
    flags of the table's full paths, on seeded random tables at n = 2..5
    of two kinds: hereditary families with holes, and unstructured ones."""
    rng = random.Random(20261022)
    seen = {True: 0, False: 0}
    for n in (2, 3, 4, 5):
        ground = tuple("abcde"[:n])
        for make in (_hereditary_table, _unstructured_table):
            for _ in range(150):
                table = make(rng, n)
                want = _table_refusal(ground, table) is None
                assert _table_rule(table) == want, table
                seen[want] += 1
    assert min(seen.values()) >= 50, seen


def _edgeless_abc():
    return Graph(tuple("abc"), frozenset())


def _four_cycle():
    return Graph(tuple("abcd"), frozenset(map(frozenset, ("ab", "bc", "cd", "da"))))


def _dropped(R, blocks):
    """The perturbation that drops these blocks from table[R]."""
    return lambda table: [[S for S in row if not (i == R and S in blocks)]
                          for i, row in enumerate(table)]


def _added(R, block):
    """The perturbation that appends a block to table[R]."""
    return lambda table: [row + [block] if i == R else row for i, row in enumerate(table)]


# (name, structure, perturbation of its table, start of the refusal)
FAULTS = (
    # {a,b} split as a then b is still a path, so () <= ({a,b}) <= ({a},{a,b})
    ("block dropped from a live row", _edgeless_abc, _dropped(0b111, {0b011}),
     "sandwich violation"),
    # the empty face lies below every full flag, and not every chain between is a face
    ("block added", _four_cycle, _added(0b1111, 0b1111), "sandwich violation"),
    # {b,c} is placed only as one block, so ({a}) lies in no full flag
    ("singleton path broken", _edgeless_abc, _dropped(0b110, {0b010, 0b100}),
     "purity violation"),
    # no full path starts with a singleton, so no face is a full flag
    ("no singleton leaves the full mask", _edgeless_abc, _dropped(0b111, {0b001, 0b010, 0b100}),
     "coloring complex has dimension"),
)


@pytest.mark.parametrize("name, build, perturb, refusal", FAULTS, ids=[f[0] for f in FAULTS])
def test_perturbed_tables_refuse_as_the_face_set_does(monkeypatch, name, build, perturb,
                                                      refusal):
    """A next-block table perturbed on its way into coloring_complex fails
    the rule, and the complex is refused with the exact text, witness
    faces included, that the face-set route gives on the same faces."""
    h, chrom = build(), CharacterSpec("chromatic")
    table = perturb(chromatic._next_blocks(h, chrom))
    assert not _table_rule(table)
    want = _table_refusal(h.ground, table)
    assert want.startswith(refusal), want
    monkeypatch.setattr(chromatic, "_next_blocks", lambda *args: [list(r) for r in table])
    error = VerificationFailure if refusal.startswith("coloring") else DomainError
    with pytest.raises(error) as info:
        coloring_complex(h, chrom)
    assert str(info.value) == want


def test_table_rule_leaves_no_reference_cycle():
    """The table rule, on a table that passes and on one that fails, leaves
    no cyclic garbage."""
    h, chrom = _edgeless_abc(), CharacterSpec("chromatic")
    table = chromatic._next_blocks(h, chrom)
    assert _table_rule(table)
    assert _cyclic_garbage(lambda: _table_rule(table)) == []
    broken = _dropped(0b111, {0b011})(table)
    assert not _table_rule(broken)
    assert _cyclic_garbage(lambda: _table_rule(broken)) == []


def test_one_table_per_complex_and_no_face_scan(monkeypatch):
    """coloring_complex builds the next-block table once and lists the
    faces through proper_compositions from it; the face set is scanned by
    _validate only for point collections, whose scored walk drops table
    paths."""
    calls = []

    def counted(owner, name):
        original = getattr(owner, name)

        def count(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, count)

    counted(chromatic, "_next_blocks")
    counted(complexes, "proper_compositions")
    counted(BalancedRelativeComplex, "_validate")
    for name, h, char, group in CORPUS:
        del calls[:]
        coloring_complex(h, char)
        scan = ["_validate"] if h.kind == "gen_permutohedron" else []
        assert calls == ["_next_blocks", "proper_compositions"] + scan, name
