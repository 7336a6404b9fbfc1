"""Differential tests of structures.splitting_memo, the one owner of the
splitting calculus, against the code it replaced: the per-minor table of
next blocks (reference_next_blocks) and the convexity walk over label
frozensets that built a restriction and a contraction for every split
(reference_convex).  The references call restrict, contract and
char_value through the structures module, so a fault injected there
reaches both routes, and decide splits with the label-set
peel_reference.split_is_zero."""

import io
from itertools import combinations

import pytest

from hopfchrom import chromatic, jobio, structures
from hopfchrom.complexes import check_balanced_convex
from hopfchrom.compositions import mask_labels, submasks
from hopfchrom.groups import PermGroup, Permutation
from hopfchrom.randgen import corpus
from hopfchrom.structures import (DIRECT_ONLY_KINDS, CharacterSpec,
                                  Matroid, make_double_poset, make_poset)
from hopfchrom.verify import run_verification
from peel_reference import split_is_zero
from test_groups import dihedral
from test_items import POSET7
from test_kernel import cycle_graph

SPLITTING = [(name, h, char) for name, h, char, _ in corpus()
             if h.kind not in DIRECT_ONLY_KINDS]


def uniform_matroid(r, n):
    ground = tuple("abcdefgh"[:n])
    return Matroid(ground, frozenset(frozenset(b) for b in combinations(ground, r)))


SEVEN = tuple("abcdefg")
LARGER = [
    ("C7", cycle_graph(7), CharacterSpec("chromatic")),
    ("C8", cycle_graph(8), CharacterSpec("chromatic")),
    ("U(3,7)", uniform_matroid(3, 7), CharacterSpec("chromatic")),
    ("poset7", make_poset(SEVEN, [("a", "b"), ("b", "c"), ("a", "d"), ("e", "f"),
                                  ("e", "d")]), CharacterSpec("chromatic")),
    ("mixed6", structures.MixedGraph(
        SEVEN[:6], frozenset({frozenset("ab"), frozenset("cd"), frozenset("ef")}),
        frozenset({("a", "c"), ("b", "d"), ("c", "e")})), CharacterSpec("weak_mixed")),
    ("double6", make_double_poset(SEVEN[:6], [("a", "b"), ("c", "d"), ("b", "e")],
                                  [("b", "a"), ("d", "f")]), CharacterSpec("inversion_free")),
]


def reference_splits(minor, char, S, whole):
    """The former chromatic._splits: whether block S may be peeled off the
    minor."""
    if whole:
        return structures.char_value(minor, char) == 1
    return (not split_is_zero(minor, S)
            and structures.char_value(structures.restrict(minor, S), char) == 1)


def reference_next_blocks(h, char):
    """The former next-block table of the splitting kinds: one contracted
    minor per R and a restriction for every S inside it."""
    labels = mask_labels(h.ground)
    full = len(labels) - 1
    table = [[]]
    for R in range(1, full + 1):
        minor = h if R == full else structures.contract(h, labels[full ^ R])
        table.append([S for S in submasks(R)
                      if reference_splits(minor, char, labels[S], S == R)])
    return table


def reference_convex(h, char):
    """The former check_balanced_convex: a walk over the minors as
    structures, splits in (size, label tuple) order, deduplicated by
    structure equality."""
    seen = set()

    def walk(cur, trail):
        if cur in seen:
            return None
        seen.add(cur)
        ground = cur.ground
        n = len(ground)
        phi = structures.char_value(cur, char)
        if n == 1:
            if phi != 1:
                return {"condition": 1, "ground": list(ground), "trail": trail,
                        "detail": "character is 0 on a singleton"}
            return None
        splits = []
        for k in range(1, n):
            for c in combinations(ground, k):
                S = frozenset(c)
                if not split_is_zero(cur, S):
                    splits.append(S)
        if not splits:
            return {"condition": 2, "ground": list(ground), "trail": trail,
                    "detail": "no nonzero split exists"}
        for S in splits:
            left, right = structures.restrict(cur, S), structures.contract(cur, S)
            if phi == 1 and (structures.char_value(left, char) != 1
                             or structures.char_value(right, char) != 1):
                return {"condition": 3, "ground": list(ground),
                        "subset": sorted(S), "trail": trail,
                        "detail": "character 1 on the whole but 0 on a piece"}
            for piece, tag in ((left, "restrict"), (right, "contract")):
                w = walk(piece, trail + [(tag, tuple(sorted(S)))])
                if w is not None:
                    return w
        return None

    return walk(h, [])


@pytest.fixture(autouse=True)
def cold_memo():
    structures.splitting_memo.cache_clear()
    yield
    structures.splitting_memo.cache_clear()


def _dumped(witness):
    out = io.StringIO()
    jobio.dump(witness, out)
    return out.getvalue()


@pytest.mark.parametrize("name, h, char", LARGER + [
    ("U(4,8)", uniform_matroid(4, 8), CharacterSpec("chromatic"))],
    ids=lambda v: v if isinstance(v, str) else "")
def test_memo_matches_references(name, h, char):
    assert chromatic._next_blocks(h, char) == reference_next_blocks(h, char)
    assert check_balanced_convex(h, char) == reference_convex(h, char)


def test_memo_matches_references_on_corpus():
    for name, h, char in SPLITTING:
        structures.splitting_memo.cache_clear()
        assert chromatic._next_blocks(h, char) == reference_next_blocks(h, char), name
        assert check_balanced_convex(h, char) == reference_convex(h, char), name


def test_mask_splits_match_the_label_set_reference():
    """nonzero(R, S) reads into[S] & (R - S); the reference restricts h to
    the labels of R and scans its relation over label sets.  Every R and
    every nonempty proper S inside it, on the corpus and the larger
    posets, mixed graph, double poset, C7 and U(3,7)."""
    cases = SPLITTING + [c for c in LARGER if c[0] != "C8"] + [
        ("POSET7", POSET7, CharacterSpec("zeta"))]
    zero = 0
    for name, h, char in cases:
        memo = structures.SplittingMemo(h, char)
        labels = memo.labels
        for R in range(1, memo.full + 1):
            minor = structures.restrict(h, labels[R])
            for S in submasks(R):
                if S != R:
                    want = not split_is_zero(minor, labels[S])
                    assert memo.nonzero(R, S) == want, (name, labels[R], labels[S])
                    zero += not want
    assert zero


def _faults(h, sizes):
    """Grounds on which an injected character reads 0: every singleton,
    and both pieces of every split of h whose first part has a size in
    sizes."""
    ground = h.ground
    out = [(x,) for x in ground]
    for k in sizes:
        for S in combinations(ground, k):
            out.append(S)
            out.append(tuple(x for x in ground if x not in S))
    return out


def _check_faults(monkeypatch, h, char, sizes):
    real = structures.char_value
    found = []
    for target in _faults(h, sizes):
        monkeypatch.setattr(structures, "char_value",
                            lambda m, c, t=target: 0 if m.ground == t else real(m, c))
        structures.splitting_memo.cache_clear()
        got, want = check_balanced_convex(h, char), reference_convex(h, char)
        assert got == want, (h, char, target)
        assert _dumped(got) == _dumped(want)
        found.append(got["condition"] if got else None)
    return found


def test_injected_faults_give_the_reference_witness_on_corpus(monkeypatch):
    found = []
    for name, h, char in SPLITTING:
        found += _check_faults(monkeypatch, h, char, range(2, len(h.ground) - 1))
    assert {1, 3} <= set(found)


@pytest.mark.parametrize("name, h, char", [c for c in LARGER if c[0] != "C8"],
                         ids=lambda v: v if isinstance(v, str) else "")
def test_injected_faults_give_the_reference_witness(monkeypatch, name, h, char):
    """Singletons everywhere, pieces of the two-element splits except on
    U(3,7), where the reference walk builds a matroid for every split."""
    sizes = () if h.kind == "matroid" else (2,)
    assert {1, 3} <= set(_check_faults(monkeypatch, h, char, sizes))


@pytest.mark.parametrize("name, h, char", [
    ("poset7", LARGER[3][1], LARGER[3][2]),
    ("C6", cycle_graph(6), CharacterSpec("chromatic")),
    ("U(2,5)", uniform_matroid(2, 5), CharacterSpec("chromatic")),
], ids=lambda v: v if isinstance(v, str) else "")
def test_verify_evaluates_each_split_once(monkeypatch, name, h, char):
    """One run_verification builds each minor and each restriction of a
    minor once: psi's table, the convexity walk and the complex's table
    read one memo.  For the kinds that contract by restriction the
    character is read once per label mask."""
    restricts, values = [], []
    real_restrict, real_value = structures.restrict, structures.char_value

    def counted_restrict(m, S):
        restricts.append((m, frozenset(S)))
        return real_restrict(m, S)

    def counted_value(m, c):
        values.append(m)
        return real_value(m, c)

    monkeypatch.setattr(structures, "restrict", counted_restrict)
    monkeypatch.setattr(structures, "char_value", counted_value)
    group = dihedral(6) if name == "C6" else PermGroup((Permutation.identity(h.ground),))
    assert run_verification(h, char, group, include_oracle=False)["ok"]
    assert restricts and len(restricts) == len(set(restricts))
    if h.kind != "matroid":
        assert len(values) <= 1 << len(h.ground)
