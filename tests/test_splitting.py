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

import minor_reference
from hopfchrom import chromatic, jobio, structures
from hopfchrom.chromatic import psi
from hopfchrom.complexes import check_balanced_convex, coloring_complex
from hopfchrom.compositions import mask_labels, submasks
from hopfchrom.groups import PermGroup, Permutation
from hopfchrom.randgen import corpus
from hopfchrom.structures import (CHARACTER_KINDS, DIRECT_ONLY_KINDS,
                                  CharacterSpec, Matroid, make_double_poset,
                                  make_poset)
from hopfchrom.verify import run_verification
from minor_reference import MinorMemo
from peel_reference import reference_next_blocks, split_is_zero
from test_groups import dihedral
from test_items import POSET7
from test_kernel import cycle_graph

CORPUS = corpus()
SPLITTING = [(name, h, char) for name, h, char, _ in CORPUS
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
        phi = minor_reference.char_value(cur, char)
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
            left, right = minor_reference.restrict(cur, S), minor_reference.contract(cur, S)
            if phi == 1 and (minor_reference.char_value(left, char) != 1
                             or minor_reference.char_value(right, char) != 1):
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


def _characters(h):
    """Every character of h's kind, dim_bound with s = 1, 2 and 3."""
    return [CharacterSpec(name, s) for name, kinds in sorted(CHARACTER_KINDS.items())
            if h.kind in kinds for s in ((1, 2, 3) if name == "dim_bound" else (None,))]


def _one_matches_the_minor_route(name, h):
    """SplittingMemo.one against MinorMemo.one on every (R, S), S inside
    R, under every character of the kind.  Returns the values seen."""
    values = set()
    for char in _characters(h):
        memo, ref = structures.SplittingMemo(h, char), MinorMemo(h, char)
        for R in range(1, memo.full + 1):
            for S in submasks(R):
                got = memo.one(R, S)
                assert got == ref.one(R, S), (name, str(char), memo.labels[R], memo.labels[S])
                values.add(got)
    return values


@pytest.mark.parametrize("name, h, char", LARGER + [
    ("U(4,8)", uniform_matroid(4, 8), CharacterSpec("chromatic"))],
    ids=lambda v: v if isinstance(v, str) else "")
def test_memo_matches_references(name, h, char):
    assert _one_matches_the_minor_route(name, h) == {True, False}
    assert chromatic._next_blocks(h, char) == reference_next_blocks(h, char)
    assert check_balanced_convex(h, char) == reference_convex(h, char)


def test_memo_matches_references_on_corpus():
    values = set()
    for name, h, char in SPLITTING:
        values |= _one_matches_the_minor_route(name, h)
        structures.splitting_memo.cache_clear()
        assert chromatic._next_blocks(h, char) == reference_next_blocks(h, char), name
        assert check_balanced_convex(h, char) == reference_convex(h, char), name
    assert values == {True, False}


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
            minor = minor_reference.restrict(h, labels[R])
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
    """Inject each fault into both routes alike: the reference char_value
    reads 0 on a structure with ground t, and SplittingMemo.one reads
    False on the masks S with labels t."""
    real_value, real_one = minor_reference.char_value, structures.SplittingMemo.one
    found = []
    for target in _faults(h, sizes):
        monkeypatch.setattr(minor_reference, "char_value",
                            lambda m, c, t=target: 0 if m.ground == t else real_value(m, c))
        monkeypatch.setattr(structures.SplittingMemo, "one",
                            lambda memo, R, S, t=target: (memo.labels[S] != t
                                                          and real_one(memo, R, S)))
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


VERIFIED = [
    ("poset7", LARGER[3][1], LARGER[3][2]),
    ("C6", cycle_graph(6), CharacterSpec("chromatic")),
    ("U(2,5)", uniform_matroid(2, 5), CharacterSpec("chromatic")),
]


def _group(name, h):
    return dihedral(6) if name == "C6" else PermGroup((Permutation.identity(h.ground),))


@pytest.mark.parametrize("name, h, char", VERIFIED,
                         ids=lambda v: v if isinstance(v, str) else "")
def test_verify_builds_one_splitting_memo(monkeypatch, name, h, char):
    """One run_verification builds one SplittingMemo: psi's table, the
    convexity walk and the complex's table read it."""
    built, real = [], structures.SplittingMemo

    def counted(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(structures, "SplittingMemo", counted)
    assert run_verification(h, char, _group(name, h), include_oracle=False)["ok"]
    assert built == [(h, char)]


def test_no_structure_is_built(monkeypatch):
    """psi, coloring_complex and run_verification (with the oracle) of a
    built structure construct no structure of any kind: no minor is
    built, so none is validated again.  One corpus case per kind and
    character, and the verified cases above."""
    cases, seen = [], set()
    for name, h, char, group in CORPUS:
        if (h.kind, char.name) not in seen:
            seen.add((h.kind, char.name))
            cases.append((h, char, group))
    cases += [(h, char, _group(name, h)) for name, h, char in VERIFIED]
    built = []
    for cls in structures.KIND_CLASSES.values():
        monkeypatch.setattr(cls, "__post_init__", lambda self: built.append(self.kind))
    for h, char, group in cases:
        structures.splitting_memo.cache_clear()
        psi(h, char, group)
        coloring_complex(h, char)
        assert run_verification(h, char, group)["ok"], (h, char)
    assert len(seen) == 15 and built == []
