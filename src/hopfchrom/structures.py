"""The eight supported structure kinds and their splitting calculus.

Each kind carries a ground set of string labels.  For the six splitting
kinds one table, ITEMS, names the fields that hold label items (edges,
relation pairs, bases, arcs, faces: each item a set or an ordered pair
of labels), in constructor order after the ground set; a permutation is
an automorphism when it maps every item field onto itself.  SHAPES gives
each field's item shape, and one routine freezes the fields and refuses
a bad item; one transitive closure over label masks decides the order
axioms of posets, double posets and mixed-graph arcs.  A refusal names
the smallest offender in sorted label order, never the first one met
in a frozenset, so its text does not depend on the hash seed.  The
splitting calculus is stated over label masks and builds no minor.
Restricting to S keeps the items inside S and contracting restricts to
the complement, so a character is 1 on a restriction exactly when none
of its FORBIDDEN items lies inside S.  ORDER names the relation of
posets, double posets and mixed graphs whose pairs running from the
complement into S make the split along (S, complement) vanish; the other
splitting kinds never split to zero.  A matroid is read through its rank
table instead: the minor left after contracting C has rank X -> r(X |
C) - r(C).  Hypergraphs and point collections (DIRECT_ONLY_KINDS,
generalized permutohedra for the latter) have no splitting calculus
here; their properness predicate is stated directly on whole set
compositions.  splitting_memo owns the calculus: one table of character
values per label mask (or the rank table) and one predecessor mask per
label set for the splits, shared by the kernel's next-block table and
the convexity check.

A character assigns 0 or 1 to a structure, multiplicatively over blocks.
Supported names and the kinds they apply to:

    zeta             graph poset matroid mixed_graph double_poset simplicial_complex
    chromatic        graph poset matroid
    strong_mixed     mixed_graph
    weak_mixed       mixed_graph
    inversion_free   double_poset
    unique_local_max hypergraph
    dim_bound(s)     simplicial_complex
    vertex_generic   gen_permutohedron

A set composition is proper when its blocks peel off left to right
through nonzero splits, the character equal to 1 on every restricted
block; the kernel (chromatic._next_blocks) decides that over label
masks.  coloring_test builds the equivalent direct test on color tuples
aligned with the sorted ground set: a coloring is proper exactly when
its level-set composition (the color classes in increasing color order)
is.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from math import lcm

from .compositions import mask_labels
from .errors import DomainError, ResourceCapError
from .groups import Permutation


def _norm_ground(labels):
    ground = tuple(sorted(labels))
    if len(set(ground)) != len(ground):
        raise DomainError("ground set has repeated labels")
    if not ground:
        raise DomainError("ground set must be nonempty")
    return ground


def _items(ground, field, raw):
    """The items of field over ground, frozen by its SHAPES entry.  An
    item of the wrong shape or with a label outside the ground is bad; the
    smallest bad item in sorted label order is refused with the field's
    text, named by its labels as given: freezing ("a", "a") into a set
    would name {"a"}, an item the input does not hold.  Then the smallest
    item that repeats a label is refused, tested on the item as given too."""
    freeze, size, text = SHAPES[field]
    raw, labels = [tuple(item) for item in raw], set(ground)
    frozen = [freeze(item) for item in raw]
    bad = [item if freeze is tuple else sorted(item) for item, f in zip(raw, frozen)
           if not labels >= set(f) or len(set(f)) != len(f) or size not in (None, len(f))]
    if bad:
        raise DomainError(text % (min(bad),))
    repeats = [sorted(item) for item in raw if len(set(item)) != len(item)]
    if repeats:
        raise DomainError("%s item %r repeats a label" % (field, min(repeats)))
    return frozenset(frozen)


def _frozen_items(h):
    """Sort the ground of h and freeze every ITEMS field of its kind in
    place, refusing a bad item."""
    object.__setattr__(h, "ground", _norm_ground(h.ground))
    for field in ITEMS[h.kind]:
        object.__setattr__(h, field, _items(h.ground, field, getattr(h, field)))


def _predecessors(at, pairs):
    """before[i]: the mask of the labels a with a pair (a, b), b the label
    of index i in at."""
    before = [0] * len(at)
    for a, b in pairs:
        before[at[b]] |= 1 << at[a]
    return before


def _closure(ground, pairs):
    """The transitive closure of pairs over the sorted ground, and the
    smallest label on a cycle (one that precedes itself) or None.  One
    Warshall pass over the predecessor masks: after step k, closed[i]
    holds the labels with a path to label i whose inner labels are all
    below k."""
    closed = _predecessors({x: i for i, x in enumerate(ground)}, pairs)
    for k in range(len(closed)):
        for i, m in enumerate(closed):
            if m >> k & 1:
                closed[i] = m | closed[k]
    less = {(a, b) for b, m in zip(ground, closed) for i, a in enumerate(ground) if m >> i & 1}
    return less, next((x for x in ground if (x, x) in less), None)


def _strict_order(ground, pairs):
    """Refuse pairs that are not a strict order stored transitively closed:
    a cycle names its smallest label and the smallest label related to it
    both ways, a relation that is not closed its smallest missing pair."""
    less, x = _closure(ground, pairs)
    if x is not None:
        y = min(b for a, b in less if a == x and b != x and (b, a) in less)
        raise DomainError("order relation contains a cycle through %r, %r" % (x, y))
    if less != pairs:
        raise DomainError("order relation is not transitively closed at %r"
                          % (min(less - pairs),))


@dataclass(frozen=True)
class Graph:
    kind = "graph"
    ground: tuple
    edges: frozenset

    def __post_init__(self):
        _frozen_items(self)


@dataclass(frozen=True)
class Poset:
    """Strict order relation, stored transitively closed."""

    kind = "poset"
    ground: tuple
    less: frozenset

    def __post_init__(self):
        _frozen_items(self)
        _strict_order(self.ground, self.less)


def make_poset(ground, relations):
    """Build a poset from arbitrary strict relations (e.g. cover pairs),
    taking the transitive closure and rejecting cycles; a pair (a, a) is a
    cycle through a."""
    ground = _norm_ground(ground)
    pairs = set(map(tuple, relations))
    _items(ground, "less", {p for p in pairs if len(p) != 2 or p[0] != p[1] or p[0] not in ground})
    less, x = _closure(ground, pairs)
    if x is not None:
        raise DomainError("relations contain a cycle through %r" % (x,))
    return Poset(ground, less)


@dataclass(frozen=True)
class Matroid:
    """Bases of equal size with basis exchange: for bases A, B and a in
    A - B there is b in B - A with A - a + b a basis."""

    kind = "matroid"
    ground: tuple
    bases: frozenset

    def __post_init__(self):
        _frozen_items(self)
        if not self.bases:
            raise DomainError("a matroid needs at least one basis")
        sizes = {len(b) for b in self.bases}
        if len(sizes) != 1:
            raise DomainError("bases must all have the same size, got sizes %r" % (sorted(sizes),))
        # basis masks in sorted label order, so the first failure met is the
        # smallest (A, B, a); swap[a] is the mask of the b outside A with
        # A - a + b a basis
        bit = {x: 1 << i for i, x in enumerate(self.ground)}
        labels = {sum(map(bit.get, b)): sorted(b) for b in self.bases}
        masks = sorted(labels, key=labels.get)
        for A in masks:
            swap = {x: sum(b for b in bit.values() if not A & b and A ^ a | b in labels)
                    for x, a in bit.items() if A & a}
            for B in masks:
                for x, b in swap.items():
                    if not B & bit[x] and not B & b:
                        raise DomainError("bases fail the exchange axiom for %r, %r at %r"
                                          % (labels[A], labels[B], x))

    @property
    def rank(self):
        return len(next(iter(self.bases)))


@dataclass(frozen=True)
class MixedGraph:
    """Undirected edges plus directed arcs (u, v), read as u before v:
    a proper coloring needs f(u) <= f(v), strictly so for the strong rule."""

    kind = "mixed_graph"
    ground: tuple
    undirected: frozenset
    directed: frozenset

    def __post_init__(self):
        _frozen_items(self)
        # arcs must be acyclic for any proper coloring to exist at all
        x = _closure(self.ground, self.directed)[1]
        if x is not None:
            raise DomainError("directed part contains a cycle through %r" % (x,))


@dataclass(frozen=True)
class DoublePoset:
    """Two strict orders on one ground set, both stored closed."""

    kind = "double_poset"
    ground: tuple
    less1: frozenset
    less2: frozenset

    def __post_init__(self):
        _frozen_items(self)
        for less in (self.less1, self.less2):
            _strict_order(self.ground, less)


def make_double_poset(ground, relations1, relations2):
    p1 = make_poset(ground, relations1)
    p2 = make_poset(ground, relations2)
    return DoublePoset(p1.ground, p1.less, p2.less)


@dataclass(frozen=True)
class Hypergraph:
    """Edge multiset; edges may repeat and have any size >= 1, but an
    edge that repeats a label is refused, not collapsed."""

    kind = "hypergraph"
    ground: tuple
    edges: tuple

    def __post_init__(self):
        object.__setattr__(self, "ground", _norm_ground(self.ground))
        edges = tuple(sorted(tuple(sorted(e)) for e in self.edges))
        object.__setattr__(self, "edges", edges)
        gset = set(self.ground)
        for e in edges:
            if len(e) == 0 or len(set(e)) != len(e) or not set(e) <= gset:
                raise DomainError("bad hyperedge %r" % (e,))


@dataclass(frozen=True)
class SimplicialComplex:
    """Faces closed under taking subsets; the empty face is always present."""

    kind = "simplicial_complex"
    ground: tuple
    faces: frozenset

    def __post_init__(self):
        _frozen_items(self)
        closed = {frozenset()}
        for f in self.faces:
            for k in range(1, len(f) + 1):
                closed.update(map(frozenset, combinations(f, k)))
        object.__setattr__(self, "faces", frozenset(closed))


@dataclass(frozen=True)
class PointCollection:
    """Finitely many exact rational points indexed by the ground set,
    all on a common hyperplane sum(x) = const in the intended use.
    Coordinates are stored in sorted-label order; duplicates collapse.

    integer_points holds the points scaled by the lcm of their
    denominators, as sorted distinct integer tuples, and points the same
    points as Fraction tuples in the same order, with one Fraction built
    per distinct value.  Multiplying by one positive scale is injective
    and keeps the lexicographic order of tuples, so deduplicating and
    sorting the scaled tuples gives the points deduplicated and sorted as
    Fractions; and it keeps the set of maximizers of every weighting, so
    integer scores decide properness exactly as the Fractions do."""

    kind = "gen_permutohedron"
    ground: tuple
    points: tuple

    def __post_init__(self):
        object.__setattr__(self, "ground", _norm_ground(self.ground))
        rows = []
        for p in self.points:
            if len(p) != len(self.ground):
                raise DomainError("point %r has wrong dimension" % (p,))
            rows.append(tuple(c if type(c) is int else Fraction(c) for c in p))
        if not rows:
            raise DomainError("need at least one point")
        scale = lcm(*(c.denominator for p in rows for c in p))
        ints = tuple(sorted({tuple(c.numerator * (scale // c.denominator) for c in p)
                             for p in rows}))
        exact = {v: Fraction(v, scale) for v in {v for p in ints for v in p}}
        object.__setattr__(self, "integer_points", ints)
        object.__setattr__(self, "points", tuple(tuple(map(exact.__getitem__, p))
                                                 for p in ints))


KIND_CLASSES = {
    "graph": Graph,
    "poset": Poset,
    "matroid": Matroid,
    "mixed_graph": MixedGraph,
    "double_poset": DoublePoset,
    "hypergraph": Hypergraph,
    "simplicial_complex": SimplicialComplex,
    "gen_permutohedron": PointCollection,
}


@dataclass(frozen=True)
class CharacterSpec:
    name: str
    s: int = None

    def __post_init__(self):
        if not isinstance(self.name, str) or self.name not in CHARACTER_KINDS:
            raise DomainError("unknown character %r" % (self.name,))
        if self.name == "dim_bound":
            if not isinstance(self.s, int) or isinstance(self.s, bool) or self.s < 1:
                raise DomainError("dim_bound needs an integer bound s >= 1")
        elif self.s is not None:
            raise DomainError("character %r takes no parameter" % (self.name,))

    def __str__(self):
        if self.name == "dim_bound":
            return "dim_bound(%d)" % self.s
        return self.name

    @classmethod
    def parse(cls, obj):
        if isinstance(obj, cls):
            return obj
        if isinstance(obj, dict):
            return cls(obj.get("name"), obj.get("s"))
        if isinstance(obj, str):
            text = obj.strip()
            if text.startswith("dim_bound(") and text.endswith(")"):
                try:
                    return cls("dim_bound", int(text[len("dim_bound("):-1]))
                except ValueError:
                    raise DomainError("cannot parse %r" % (obj,))
            return cls(text)
        raise DomainError("cannot parse a character from %r" % (obj,))


CHARACTER_KINDS = {
    "zeta": {"graph", "poset", "matroid", "mixed_graph", "double_poset", "simplicial_complex"},
    "chromatic": {"graph", "poset", "matroid"},
    "strong_mixed": {"mixed_graph"},
    "weak_mixed": {"mixed_graph"},
    "inversion_free": {"double_poset"},
    "unique_local_max": {"hypergraph"},
    "dim_bound": {"simplicial_complex"},
    "vertex_generic": {"gen_permutohedron"},
}

# The fields of each splitting kind that hold label items, in constructor
# order after the ground set; an item is a set or an ordered pair of labels.
ITEMS = {
    "graph": ("edges",),
    "poset": ("less",),
    "matroid": ("bases",),
    "mixed_graph": ("undirected", "directed"),
    "double_poset": ("less1", "less2"),
    "simplicial_complex": ("faces",),
}

# Each ITEMS field as (freeze, size, refusal): its items are ordered pairs
# of distinct labels (tuple, 2), label sets of size 2 (frozenset, 2) or
# label sets of any size (frozenset, None); an item of another shape or
# with a label outside the ground is refused with the text.
SHAPES = {
    "edges": (frozenset, 2, "bad edge %r"),
    "less": (tuple, 2, "bad order pair %r"),
    "bases": (frozenset, None, "basis %r is not a subset of the ground set"),
    "undirected": (frozenset, 2, "bad undirected edge %r"),
    "directed": (tuple, 2, "bad arc %r"),
    "less1": (tuple, 2, "bad order pair %r"),
    "less2": (tuple, 2, "bad order pair %r"),
    "faces": (frozenset, None, "face %r is not a subset of the ground set"),
}

# The relation whose pairs (a, b), a outside S and b in S, make a split zero.
ORDER = {"poset": "less", "double_poset": "less1", "mixed_graph": "directed"}

# The items of each character, as (h, s) -> items with s the dim_bound
# bound, whose presence inside S makes the character 0 on the restriction
# to S; a matroid's chromatic character reads its rank table instead.
FORBIDDEN = {
    "zeta": lambda h, s: (),
    "chromatic": lambda h, s: h.edges if h.kind == "graph" else h.less,
    "strong_mixed": lambda h, s: h.undirected | h.directed,
    "weak_mixed": lambda h, s: h.undirected,
    "inversion_free": lambda h, s: [(a, b) for a, b in h.less1 if (b, a) in h.less2],
    "dim_bound": lambda h, s: [f for f in h.faces if len(f) > s],
}

DIRECT_ONLY_KINDS = set(KIND_CLASSES) - set(ITEMS)


def check_compatible(h, char):
    char = CharacterSpec.parse(char)
    if h.kind not in CHARACTER_KINDS[char.name]:
        raise DomainError("character %s does not apply to kind %s" % (char, h.kind))
    return char


# ---------------------------------------------------------------------------
# the splitting calculus on label masks


class SplittingMemo:
    """The splitting calculus of one splitting-kind structure h and a
    character, as tables over label masks (label i of the sorted ground
    set is bit i); no minor is built.  The minor at R is h with the
    labels outside R contracted.  For masks S inside R:

    - one(R, S): is the character 1 on the restriction of the minor at R
      to S?  When S = R this is the minor itself.
    - nonzero(R, S), S a proper part of R: is the split of that minor
      along S nonzero?

    Graphs, posets, mixed graphs, double posets and simplicial complexes
    contract by restricting to the complement, so the minor at R keeps
    the items of h inside R and its restriction to S the items inside S:
    one(R, S) depends on S alone.  The character is 1 on it exactly when
    no FORBIDDEN item of the character lies inside S, and free[S] says
    so, built once, one lowest bit of S at a time: an item inside S that
    holds the lowest bit of S has it as its own lowest bit.

    A matroid M has the rank table rank[X] = max |B & X| over its basis
    masks B.  With C = ground - R, the bases of M/C are the J outside C
    with J | I a basis of M, for a basis I of M|C (Oxley, Matroid Theory,
    3.1.7), so the minor at R restricted to S has rank X -> r(X | C) -
    r(C) on the X inside S.  zeta is 1 on every minor, and so is free.
    chromatic is 1 when the minor has exactly one basis, which holds
    exactly when its non-loops are independent: every basis avoids the
    loops, and every non-loop e lies in a basis since {e} is independent,
    so a single basis is the set of non-loops; conversely independent
    non-loops span (loops add no rank), so they are a basis and every
    basis, a set of non-loops of the same size, equals them.  The loops
    of the minor are the labels in closure[C], those e with r(C | e) =
    r(C).  So chromatic is 1 when r(S | C) - r(C), the rank of the
    non-loops, equals the number of labels of S outside closure[C].

    into[S] is the mask of the labels a with an ORDER pair (a, b), b in
    S, built with free.  The split of the minor at R along S is zero
    exactly when an ORDER pair of that minor runs from R - S into S.  The
    kinds with an ORDER entry contract by restriction, so their minor at
    R keeps exactly the pairs of h with both labels in R, and such a pair
    (a, b), b in S and a in R - S, is a bit a of into[S] & (R - S).  So
    nonzero(R, S) is not into[S] & (R - S).  The kinds without an ORDER
    entry (graphs, matroids, simplicial complexes) never split to zero;
    their into is all 0.

    key(R, T) names the minor at R restricted to T: equal keys mean equal
    minors.  A kind that contracts by restriction keeps the items of h
    inside T there, named by T alone; a matroid's is named by (R, T)."""

    def __init__(self, h, char):
        self.kind, self.labels = h.kind, mask_labels(h.ground)
        full = self.full = len(self.labels) - 1
        at = {x: i for i, x in enumerate(h.ground)}

        def mask(item):
            return sum(1 << at[x] for x in item)

        # before[i]: into of label i alone, from the unclosed pairs (a path
        # through a contracted label is no pair of the minor)
        before = _predecessors(at, getattr(h, ORDER[h.kind]) if h.kind in ORDER else ())
        lowest = [[] for _ in at]  # lowest[i]: the forbidden items of lowest bit i
        self.rank = None
        if h.kind == "matroid" and char.name == "chromatic":
            bases = {mask(b) for b in h.bases}
            rank = self.rank = [max((B & X).bit_count() for B in bases)
                                for X in range(full + 1)]
            self.closure = [sum(1 << i for i in range(len(at)) if rank[C | 1 << i] == rank[C])
                            for C in range(full + 1)]
        else:
            for item in FORBIDDEN[char.name](h, char.s):
                m = mask(item)
                lowest[(m & -m).bit_length() - 1].append(m)
        self.into, self.free = into, free = [0], [True]
        for S in range(1, full + 1):
            low = S & -S
            i = low.bit_length() - 1
            into.append(into[S ^ low] | before[i])
            free.append(free[S ^ low] and all(m & ~S for m in lowest[i]))

    def key(self, R, T):
        return (R, T) if self.kind == "matroid" else T

    def one(self, R, S):
        if self.rank is None:
            return self.free[S]
        C = self.full ^ R
        return self.rank[S | C] - self.rank[C] == (S & ~self.closure[C]).bit_count()

    def nonzero(self, R, S):
        return not self.into[S] & (R ^ S)


@lru_cache(maxsize=1)
def splitting_memo(h, char):
    """The SplittingMemo of (h, char), a CharacterSpec.  Only the latest
    one is kept, so the kernel's table and the convexity check of one
    job share it and the next job replaces it."""
    return SplittingMemo(h, char)


# ---------------------------------------------------------------------------
# colorings


def coloring_test(h, char):
    """The direct properness test of colorings for (h, char), as a
    predicate on color tuples c, where c[i] colors h.ground[i].

    The character is checked and the kind dispatched once, here; the
    per-kind statements read edges, relations, bases, hyperedges and big
    faces as tuples of positions.  Stated independently of the kernel's
    mask table, so the two routes can be checked against each other."""
    char = check_compatible(h, char)
    name = char.name
    at = {x: i for i, x in enumerate(h.ground)}

    def positions(items):
        return tuple(tuple(at[x] for x in item) for item in items)

    if name == "zeta" and h.kind in ("graph", "matroid", "simplicial_complex"):
        return lambda c: True
    if h.kind == "graph":
        edges = positions(h.edges)
        return lambda c: all(c[a] != c[b] for a, b in edges)
    if h.kind == "poset":
        less = positions(h.less)
        if name == "zeta":
            return lambda c: all(c[a] <= c[b] for a, b in less)
        return lambda c: all(c[a] < c[b] for a, b in less)
    if h.kind == "matroid":
        bases = positions(h.bases)
        # exactly one basis of minimum weight: one best negated weight
        return lambda c: _one_best([-sum(c[x] for x in b) for b in bases])
    if h.kind == "mixed_graph":
        und, arcs = positions(h.undirected), positions(h.directed)
        if name == "zeta":
            return lambda c: all(c[u] <= c[v] for u, v in arcs)
        if name == "weak_mixed":
            return lambda c: (all(c[a] != c[b] for a, b in und)
                              and all(c[u] <= c[v] for u, v in arcs))
        return lambda c: (all(c[a] != c[b] for a, b in und)
                          and all(c[u] < c[v] for u, v in arcs))
    if h.kind == "double_poset":
        less1, less2 = positions(h.less1), set(positions(h.less2))
        if name == "zeta":
            return lambda c: all(c[a] <= c[b] for a, b in less1)
        return lambda c: (all(c[a] <= c[b] for a, b in less1) and all(
            not (c[a] == c[b] and (b, a) in less2) for a, b in less1))
    if h.kind == "hypergraph":
        # every edge has a unique top color
        edges = positions(h.edges)
        return lambda c: all(_one_best([c[x] for x in e]) for e in edges)
    if h.kind == "simplicial_complex":
        big = positions(f for f in h.faces if len(f) > char.s)
        return lambda c: all(len({c[x] for x in face}) != 1 for face in big)
    if h.kind == "gen_permutohedron":
        return lambda c: _unique_argmax(h.integer_points, c)
    raise AssertionError("unhandled kind %s" % h.kind)


def _one_best(values):
    """Whether exactly one of the values is the largest: the rule of every
    "unique optimum" predicate, each scoring its own values."""
    return values.count(max(values)) == 1


def _unique_argmax(points, w):
    """Whether exactly one point has the largest weight under w."""
    return _one_best([sum(c * wi for c, wi in zip(p, w)) for p in points])


# ---------------------------------------------------------------------------
# automorphisms


def automorphism_check(h, g):
    """Whether a permutation of the ground set preserves the structure:
    g maps every ITEMS field onto itself, item by item.

    A hypergraph compares its edge multiset, sorted.  A point collection
    compares its integer_points with coordinates permuted: scaling by one
    positive factor is injective and commutes with permuting coordinates,
    so g maps the points onto themselves exactly when it maps the scaled
    points onto themselves."""
    if tuple(sorted(g.ground)) != h.ground:
        raise DomainError("permutation acts on a different ground set")
    if h.kind == "hypergraph":
        mapped = sorted(tuple(sorted(g(x) for x in e)) for e in h.edges)
        return tuple(mapped) == h.edges
    if h.kind == "gen_permutohedron":
        # reading coordinate j at the position of g(ground[j]) moves the
        # points by g^-1, which keeps the point set exactly when g does
        at = {x: i for i, x in enumerate(h.ground)}
        pull = [at[g(x)] for x in h.ground]
        points = set(h.integer_points)
        return {tuple(p[i] for i in pull) for p in points} == points
    return all(frozenset(type(item)(map(g, item)) for item in getattr(h, f)) == getattr(h, f)
               for f in ITEMS[h.kind])


def automorphisms(h, cap=7):
    """All structure automorphisms, by filtering every permutation of the
    ground set; capped because the search is factorial."""
    n = len(h.ground)
    if n > cap:
        raise ResourceCapError("automorphism search is factorial; %d > cap %d" % (n, cap))
    out = []
    for images in permutations(h.ground):
        g = Permutation(h.ground, images)
        if automorphism_check(h, g):
            out.append(g)
    return out


# ---------------------------------------------------------------------------
# a classical family of point collections


def loday_associahedron(n):
    """The associahedron on ground labels "1", ..., "n", realized as the
    Minkowski sum over intervals [i, j] of the simplex on coordinates
    i..j; the stored points are all sums of one vertex per simplex, not
    only the vertices of their convex hull.

    vertex_generic asks whether exactly one point maximizes a weighting,
    and the answer is the same on these points as on the vertices of
    their hull alone.  Over the hull the weighting is largest on a face
    F, and the points attaining the maximum are the points in F.  If F
    is a vertex, it is the only one, since duplicates collapse;
    otherwise F has at least two vertices, and every vertex of the hull
    is a stored point."""
    if not 1 <= n <= 9:
        raise DomainError("need 1 <= n <= 9 (single-digit labels keep sorted order numeric)")
    ground = tuple(str(i) for i in range(1, n + 1))
    sums = {tuple(0 for _ in range(n))}
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            sums = {tuple(p[t] + (1 if t == k - 1 else 0) for t in range(n))
                    for p in sums for k in range(i, j + 1)}
    return PointCollection(ground, tuple(sums))
