"""The label-level peel of set compositions, kept as the reference the
mask routes are tested against.

split_is_zero decides one split of a structure over label sets, and
proper_composition peels a composition left to right through nonzero
splits, the character equal to 1 on every restricted block; hypergraphs
and point collections get their direct tests.  The program decides the
same questions over label masks: structures.SplittingMemo.nonzero for
the splits, chromatic._next_blocks for the compositions (for point
collections, chromatic._scored_walk, which carries each prefix's score
vector down the walk and keeps a composition at its last block),
structures.coloring_test for colorings.  restrict,
contract and char_value are read through the minor_reference module, so
a fault injected there reaches this route as well.  reference_next_blocks
builds the former next-block table of the splitting kinds from these
splits, one contracted minor per remaining label set."""

import minor_reference
from hopfchrom.compositions import mask_labels, submasks
from hopfchrom.errors import DomainError
from hopfchrom.structures import ITEMS, ORDER, _unique_argmax, check_compatible
from minor_reference import _check_subset


def split_is_zero(h, S):
    """Whether the split of h along (S, complement) vanishes: some pair of
    the kind's ORDER relation runs from the complement into S."""
    S = frozenset(S)
    _check_subset(h, S)
    if h.kind not in ITEMS:
        raise DomainError("kind %s has no splitting; its properness test is direct" % h.kind)
    field = ORDER.get(h.kind)
    return field is not None and any(a not in S and b in S for a, b in getattr(h, field))


def proper_composition(h, char, comp):
    """1 if the set composition is proper for (h, char), else 0.

    For splitting kinds this peels blocks left to right: every split must
    be nonzero and the character must equal 1 on every restricted block.
    Hypergraphs and point collections get their direct tests.
    """
    char = check_compatible(h, char)
    if comp.ground != h.ground:
        raise DomainError("set composition is not a composition of the ground set")
    if h.kind == "hypergraph":
        return _hypergraph_proper(h, comp)
    if h.kind == "gen_permutohedron":
        return _points_proper(h, comp)
    cur = h
    for i, block in enumerate(comp.blocks):
        S = frozenset(block)
        last = i == len(comp.blocks) - 1
        if not last and split_is_zero(cur, S):
            return 0
        if minor_reference.char_value(minor_reference.restrict(cur, S), char) == 0:
            return 0
        if not last:
            cur = minor_reference.contract(cur, S)
    return 1


def _hypergraph_proper(h, comp):
    """Every edge must meet its last block in exactly one element."""
    position = {}
    for i, block in enumerate(comp.blocks):
        for x in block:
            position[x] = i
    for e in h.edges:
        top = max(position[x] for x in e)
        if sum(1 for x in e if position[x] == top) != 1:
            return 0
    return 1


def _points_proper(h, comp):
    """The block-index weighting must pick out a unique maximizing point."""
    weight = {}
    for i, block in enumerate(comp.blocks):
        for x in block:
            weight[x] = i + 1
    w = tuple(weight[x] for x in h.ground)
    return 1 if _unique_argmax(h.points, w) else 0


def reference_splits(minor, char, S, whole):
    """The former chromatic._splits: whether block S may be peeled off the
    minor."""
    if whole:
        return minor_reference.char_value(minor, char) == 1
    return (not split_is_zero(minor, S)
            and minor_reference.char_value(minor_reference.restrict(minor, S), char) == 1)


def reference_next_blocks(h, char):
    """The former next-block table of the splitting kinds: one contracted
    minor per R and a restriction for every S inside it."""
    labels = mask_labels(h.ground)
    full = len(labels) - 1
    table = [[]]
    for R in range(1, full + 1):
        minor = h if R == full else minor_reference.contract(h, labels[full ^ R])
        table.append([S for S in submasks(R)
                      if reference_splits(minor, char, labels[S], S == R)])
    return table
