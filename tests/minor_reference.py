"""The splitting calculus over structures, kept as the reference the mask
arithmetic of structures.SplittingMemo is tested against.

restrict and contract build a minor as a structure, validated by its
constructor; char_value reads a character off a whole structure; and
MinorMemo answers SplittingMemo.one by building the minor at every label
mask R and restricting it.  Module-level names are looked up when
called, so a fault injected into char_value here reaches restrict,
contract, MinorMemo and the references that call them through this
module."""

from hopfchrom.compositions import mask_labels
from hopfchrom.errors import DomainError
from hopfchrom.structures import ITEMS, Matroid, check_compatible


def restrict(h, S):
    """The induced structure on S (a nonempty subset of the ground set):
    the items of every ITEMS field that lie inside S.

    A matroid M gives the bases B & S of largest size, over the bases B
    of M.  Every independent subset I of S extends to a basis B of M, and
    when I is maximal in S, B & S (independent, containing I) equals I.
    So the bases of M|S, the maximal independent subsets of S, are
    exactly these top-size traces; a loop-only S gives one empty basis."""
    S = frozenset(S)
    _check_subset(h, S)
    if h.kind == "matroid":
        top = max(len(b & S) for b in h.bases)
        return Matroid(tuple(S), frozenset(b & S for b in h.bases if len(b & S) == top))
    if h.kind not in ITEMS:
        raise DomainError("kind %s has no restriction; its properness test is direct" % h.kind)
    return type(h)(tuple(S), *(frozenset(filter(S.issuperset, getattr(h, f)))
                               for f in ITEMS[h.kind]))


def contract(h, S):
    """The structure induced on the complement of S after splitting off S.

    A matroid M gives the sets B - S over the same bases B as restrict,
    those meeting S in a basis I = B & S of M|S.  M/S fixes one such I
    and takes the J outside S with I | J a basis of M.  Those J do not
    depend on I: since I spans S, I | J is a basis exactly when
    |J| = rank(M) - rank(S) and rank(J | S) = |J| + rank(S) (Oxley,
    Matroid Theory, 3.1.7).  So the union over every I equals the set
    the lexicographically first I gave.  Every other splitting kind
    contracts by restricting to the complement."""
    S = frozenset(S)
    _check_subset(h, S)
    rest = frozenset(h.ground) - S
    if not rest:
        raise DomainError("cannot contract the full ground set")
    if h.kind == "matroid":
        top = max(len(b & S) for b in h.bases)
        return Matroid(tuple(rest), frozenset(b - S for b in h.bases if len(b & S) == top))
    if h.kind in ITEMS:
        return restrict(h, rest)
    raise DomainError("kind %s has no contraction; its properness test is direct" % h.kind)


def _check_subset(h, S):
    if not S:
        raise DomainError("subset must be nonempty")
    if not S <= set(h.ground):
        raise DomainError("%r is not a subset of the ground set" % (sorted(S),))


def char_value(h, char):
    """0/1 value of a character on a whole structure."""
    char = check_compatible(h, char)
    name = char.name
    if name == "zeta":
        return 1
    if name == "chromatic":
        if h.kind == "graph":
            return 1 if not h.edges else 0
        if h.kind == "poset":
            return 1 if not h.less else 0
        if h.kind == "matroid":
            return 1 if len(h.bases) == 1 else 0
    if name == "strong_mixed":
        return 1 if not h.undirected and not h.directed else 0
    if name == "weak_mixed":
        return 1 if not h.undirected else 0
    if name == "inversion_free":
        bad = any((a, b) in h.less1 and (b, a) in h.less2 for a, b in h.less1)
        return 0 if bad else 1
    if name == "unique_local_max":
        return 1 if all(len(e) == 1 for e in h.edges) else 0
    if name == "dim_bound":
        return 1 if all(len(f) <= char.s for f in h.faces) else 0
    if name == "vertex_generic":
        return 1 if len(h.points) == 1 else 0
    raise AssertionError("unhandled character %s on kind %s" % (char, h.kind))


class MinorMemo:
    """The former SplittingMemo's character half: one(R, S) is the
    character on restrict(contract(h, ground - R), S), each minor and
    each value computed once.  minors[R] is the minor at R.  The kinds
    that contract by restriction have restrict(h, R) there, and
    restricting it to S gives minors[S], so their values are keyed by S,
    matroids' by (R, S)."""

    def __init__(self, h, char):
        self.char, self.labels = char, mask_labels(h.ground)
        full = self.full = len(self.labels) - 1
        self.minors = ([None] + [contract(h, self.labels[full ^ R]) for R in range(1, full)]
                       + [h])
        self._by_restriction = h.kind != "matroid"
        self._one = {}

    def one(self, R, S):
        key = S if self._by_restriction else (R, S)
        if key not in self._one:
            piece = (self.minors[S] if self._by_restriction or S == R
                     else restrict(self.minors[R], self.labels[S]))
            self._one[key] = char_value(piece, self.char) == 1
        return self._one[key]
