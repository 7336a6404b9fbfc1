"""Integer compositions, set compositions and flags of subsets.

Labels are opaque strings ordered lexicographically.  An integer composition
of d is a tuple of positive parts summing to d; compositions of d are in
bijection with subsets of {1, ..., d-1} via partial sums.  A set composition
of a finite ground set is an ordered sequence of disjoint nonempty blocks
covering it.  A flag is a strictly increasing chain of proper nonempty
subsets of the ground set; set compositions correspond to flags by taking
prefix unions and dropping the full ground set.  The kernels work on
masks instead, label i of the sorted ground set being bit i: a set
composition is the tuple of its block masks and a flag that of its member
masks, and mask_labels turns a mask back into its labels.

Canonical text forms, used in JSON and error messages:

    integer composition   "2,2"
    set composition       "a,c|b,d"      (labels sorted inside blocks)
    flag                  "{a,c}<{a,b,c}"  (empty flag is "")
"""

from dataclasses import dataclass
from itertools import combinations

from .errors import DomainError


@dataclass(frozen=True, order=True)
class IntComposition:
    parts: tuple

    def __post_init__(self):
        if not isinstance(self.parts, tuple):
            object.__setattr__(self, "parts", tuple(self.parts))
        if len(self.parts) == 0:
            raise DomainError("composition needs at least one part")
        for p in self.parts:
            if not isinstance(p, int) or p < 1:
                raise DomainError("composition parts must be positive integers, got %r" % (p,))

    @property
    def degree(self):
        return sum(self.parts)

    @property
    def length(self):
        return len(self.parts)

    def __str__(self):
        return ",".join(str(p) for p in self.parts)

    @classmethod
    def parse(cls, text):
        try:
            parts = tuple(int(piece) for piece in text.split(","))
        except (ValueError, AttributeError):
            raise DomainError("cannot parse integer composition from %r" % (text,))
        return cls(parts)


@dataclass(frozen=True, order=True)
class SetComposition:
    """Ordered disjoint nonempty blocks; each block a tuple of sorted labels."""

    blocks: tuple

    def __post_init__(self):
        blocks = tuple(tuple(sorted(b)) for b in self.blocks)
        object.__setattr__(self, "blocks", blocks)
        seen = set()
        for b in blocks:
            if len(b) == 0:
                raise DomainError("set composition blocks must be nonempty")
            for x in b:
                if x in seen:
                    raise DomainError("label %r appears in two blocks" % (x,))
                seen.add(x)

    @property
    def ground(self):
        return tuple(sorted(x for b in self.blocks for x in b))

    @property
    def length(self):
        return len(self.blocks)

    def __str__(self):
        return "|".join(",".join(b) for b in self.blocks)

    @classmethod
    def parse(cls, text):
        if not text:
            raise DomainError("empty set composition text")
        return cls(tuple(tuple(piece.split(",")) for piece in text.split("|")))


@dataclass(frozen=True, order=True)
class Flag:
    """Strictly increasing chain of proper nonempty subsets of ground.

    The chain may be empty (it then corresponds to the one-block set
    composition).  Subsets are stored as sorted tuples.
    """

    ground: tuple
    chain: tuple

    def __post_init__(self):
        ground = tuple(sorted(self.ground))
        chain = tuple(tuple(sorted(s)) for s in self.chain)
        object.__setattr__(self, "ground", ground)
        object.__setattr__(self, "chain", chain)
        gset = set(ground)
        if len(gset) != len(ground):
            raise DomainError("flag ground set has repeated labels")
        prev = None
        for s in chain:
            sset = set(s)
            if not sset or sset == gset or not sset <= gset:
                raise DomainError("flag members must be proper nonempty subsets of the ground set")
            if prev is not None and not prev < sset:
                raise DomainError("flag chain must strictly increase")
            prev = sset

    @property
    def kappa(self):
        """The set of member sizes, as a sorted tuple (the chain strictly
        increases, so its sizes already do)."""
        return tuple(len(s) for s in self.chain)

    def __str__(self):
        return "<".join("{%s}" % ",".join(s) for s in self.chain)

    @classmethod
    def parse(cls, text, ground):
        if text == "":
            return cls(tuple(ground), ())
        chain = []
        for piece in text.split("<"):
            piece = piece.strip()
            if not (piece.startswith("{") and piece.endswith("}")):
                raise DomainError("flag member %r is not of the form {a,b}" % (piece,))
            chain.append(tuple(piece[1:-1].split(",")))
        return cls(tuple(ground), tuple(chain))


def alpha_of_subset(subset, d):
    """Composition of d whose partial sums are the subset of {1, ..., d-1}.

    alpha_of_subset({1,3}, 4) == (1,2,1); the empty subset gives (d,).
    """
    if d < 1:
        raise DomainError("degree must be positive")
    sums = sorted(subset)
    for s in sums:
        if not 1 <= s <= d - 1:
            raise DomainError("partial sum %r outside 1..%d" % (s, d - 1))
    sums = sums + [d]
    parts = [b - a for a, b in zip([0] + sums, sums)]
    return IntComposition(tuple(parts))


def subset_of_alpha(alpha):
    """Inverse of alpha_of_subset: the proper partial sums of alpha."""
    total = 0
    out = []
    for p in alpha.parts[:-1]:
        total += p
        out.append(total)
    return frozenset(out)


def compositions_of(d):
    """All integer compositions of d, sorted by (length, parts)."""
    out = [alpha_of_subset(set(s), d)
           for k in range(d)
           for s in combinations(range(1, d), k)]
    return sorted(out, key=lambda a: (a.length, a.parts))


def refines(alpha, beta):
    """True iff beta refines alpha, i.e. beta splits the parts of alpha.

    Equivalent to subset_of_alpha(alpha) <= subset_of_alpha(beta).
    """
    if alpha.degree != beta.degree:
        raise DomainError("cannot compare compositions of different degrees")
    return subset_of_alpha(alpha) <= subset_of_alpha(beta)


def type_of(comp):
    """Block sizes of a set composition, as an integer composition."""
    return IntComposition(tuple(len(b) for b in comp.blocks))


def enumerate_set_compositions(ground):
    """All set compositions of ground, sorted by length then block strings.

    The number of results is the ordered Bell number of |ground|.
    """
    ground = tuple(sorted(ground))
    out = []

    def rec(remaining, prefix):
        if not remaining:
            out.append(SetComposition(tuple(prefix)))
            return
        rest = tuple(sorted(remaining))
        for k in range(1, len(rest) + 1):
            for block in combinations(rest, k):
                rec(remaining - set(block), prefix + [block])

    if ground:
        rec(set(ground), [])
    return sorted(out, key=lambda c: (c.length, c.blocks))


def mask_labels(ground):
    """labels[m]: the labels of the bits of mask m, in sorted order; ground
    is sorted, and its label i is bit i."""
    labels = [()]
    for m in range(1, 1 << len(ground)):
        low = m & -m
        labels.append((ground[low.bit_length() - 1],) + labels[m ^ low])
    return labels


def submasks(R):
    """Nonempty submasks of R, in decreasing order."""
    S = R
    while S:
        yield S
        S = (S - 1) & R


def act(g, comp):
    """Apply a permutation of the ground set blockwise: g(C1)|g(C2)|..."""
    return SetComposition(tuple(tuple(g(x) for x in b) for b in comp.blocks))


def act_flag(g, flag):
    """Apply a permutation memberwise to a flag."""
    return Flag(tuple(g(x) for x in flag.ground),
                tuple(tuple(g(x) for x in s) for s in flag.chain))


def flag_of(comp):
    """Prefix unions of a set composition, the full ground set dropped.

    The one-block composition maps to the empty flag.
    """
    chain = []
    acc = []
    for b in comp.blocks[:-1]:
        acc.extend(b)
        chain.append(tuple(sorted(acc)))
    return Flag(comp.ground, tuple(chain))


def composition_of(flag):
    """Inverse of flag_of: successive differences of the chain."""
    blocks = []
    prev = set()
    for s in flag.chain:
        blocks.append(tuple(sorted(set(s) - prev)))
        prev = set(s)
    blocks.append(tuple(sorted(set(flag.ground) - prev)))
    return SetComposition(tuple(blocks))


def type_of_flag(flag):
    """Integer composition attached to a flag via its member sizes.

    This is alpha_of_subset(kappa, |ground|); the empty flag gives the
    one-part composition (|ground|,).
    """
    return alpha_of_subset(set(flag.kappa), len(flag.ground))
