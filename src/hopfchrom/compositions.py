"""Integer compositions, flags of subsets, and label masks.

Labels are opaque strings ordered lexicographically.  An integer composition
of d is a tuple of positive parts summing to d; compositions of d are in
bijection with subsets of {1, ..., d-1} via partial sums.  A set composition
of a finite ground set is an ordered sequence of disjoint nonempty blocks
covering it, and a flag a strictly increasing chain of proper nonempty
subsets of the ground set; set compositions correspond to flags by taking
prefix unions and dropping the full ground set.  The program holds both
as label masks, label i of the sorted ground set being bit i: a set
composition is the tuple of its block masks and a flag that of its member
masks, and mask_labels turns a mask back into its labels.  Flag, a chain
of label tuples, is how a caller hands the faces of a complex to
complexes.BalancedRelativeComplex.

Canonical text forms, used in JSON and error messages:

    integer composition   "2,2"
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
