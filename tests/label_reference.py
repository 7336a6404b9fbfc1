"""Set compositions and flags over labels, kept as the reference the mask
routes of the program are tested against.

The program holds a set composition as the tuple of its block masks and
a flag as that of its member masks (label i of the sorted ground set is
bit i).  Here a set composition is an ordered sequence of disjoint
nonempty blocks of labels covering the ground set, listed by brute
force; a permutation acts on it block by block and on a Flag member by
member; and flag_of takes prefix unions.  Canonical text form of a set
composition, labels sorted inside blocks:

    "a,c|b,d"
"""

from dataclasses import dataclass
from itertools import combinations

from hopfchrom.compositions import Flag, IntComposition
from hopfchrom.errors import DomainError


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


def reference_faces_json(flags):
    """The former jobio.flags_to_json, on Flags."""
    return [["{%s}" % ",".join(m) for m in f.chain]
            for f in sorted(flags, key=lambda f: (len(f.chain), f.chain))]
