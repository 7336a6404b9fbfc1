"""Balanced relative complexes of flags, their flag f-vectors and Hilb
functions, and certified embeddings between type-selected face sets.

A face is a flag (a strictly increasing chain of proper nonempty subsets
of the ground set, possibly empty).  A balanced relative complex is a
face set that is sandwich-closed (anything between two faces is a face),
pure (every face extends to one of maximal size), and balanced (member
sizes inside a face are distinct, which flags guarantee for free).  A
face is kept only as its mask chain, the tuple of its member bitmasks
(label i of the sorted ground set is bit i).  The complex owns the face
order and the face text in one member table, built from the member
masks its faces hold and never sized by the 2^n masks of the ground
set: each mask's rank in label-tuple order and its text.  It sorts its
faces once, shorter flags first and then by label chain, into
BalancedRelativeComplex.ordered, one int key per face built from the
ranks; the per-size-set lists, hilb, the certificates and the JSON faces
all read that order.  The text half of the table is the one place that
writes a flag as text, for the JSON faces and the sandwich and purity
refusals.

coloring_complex builds the face set of all flags of proper compositions
of a structure; for kinds with a splitting calculus the three convexity
conditions of the character are verified first, recursively over every
minor reachable through nonzero splits, and a violation is reported with
the witnessing subset chain.  The minors are label-mask pairs, never
built as structures, and their character values and splits come from
structures.splitting_memo, the same memo the enumeration kernel's
next-block table reads, so one job evaluates the splitting calculus
once.  Sandwich closure is checked locally, on tau - x for every face
tau and member x, and purity by a search down from the top faces;
BalancedRelativeComplex._validate proves both equivalent to the scans
over all faces.

hilb packages fixed-face counts per size set into the same kind of
quasisymmetric class function that psi produces, through the counter
chromatic.fixed_qsym: g fixes a flag exactly when it maps every member
onto itself, read off the group's stabilizer table.  hilb counts at
every element and checks class constancy, psi counts at class
representatives.  The two agree for coloring complexes, and
psi_hilb_diffs names every coefficient where they do not.
theta_certificate certifies that
coarser-type faces embed into finer-type faces: a 0/1 incidence matrix
(rows: finer faces) of full column rank, plus generator equivariance.
Flag members have distinct sizes, so a coarser face lies in a finer one
exactly when it is the finer face's projection to the coarser sizes:
each row has at most one 1, and the certificate keeps that projection
map.  Its rank is that of the distinct hits as sparse unit rows (exact
integer elimination, no division).  Permutations keep inclusion, so
equivariance is read off the faces each generator moves, computed once
per complex and generator, none for an automorphism.
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, combinations
from operator import or_

from .compositions import (Flag, IntComposition, alpha_of_subset,
                           compositions_of, refines, submasks, subset_of_alpha)
# psi is not called here; it stays importable next to hilb, and
# perfbench/test_perfbench.py checks its tracer rebinds this name
from .chromatic import (GROUND_CAP, check_ground, fixed_qsym,
                        proper_compositions, psi)
from .errors import DomainError, VerificationFailure
from .structures import DIRECT_ONLY_KINDS, check_compatible, splitting_memo


class BalancedRelativeComplex:
    """A validated set of faces on a common ground set.

    A face is a mask chain: the tuple of its member masks (label i of the
    sorted ground set is bit i), in increasing order.  The constructor
    takes Flags, or chains of label tuples checked as Flags, and keeps
    only their mask chains; the checks, hilb and the certificates work on
    those."""

    def __init__(self, ground, faces, validate=True):
        ground = tuple(sorted(ground))
        bit = {x: 1 << i for i, x in enumerate(ground)}
        chains = set()
        for f in faces:
            if not isinstance(f, Flag):
                f = Flag(ground, tuple(f))
            if f.ground != ground:
                raise DomainError("face %s lives on a different ground set" % (f,))
            chains.add(tuple(sum(bit[x] for x in s) for s in f.chain))
        self.ground, self.faces, self._moved = ground, frozenset(chains), {}
        if validate:
            self._validate()

    @classmethod
    def _of_chains(cls, ground, chains):
        """The validated complex whose faces are the given mask chains on
        the sorted ground set, taken as they are."""
        phi = cls.__new__(cls)
        phi.ground, phi.faces, phi._moved = ground, frozenset(chains), {}
        phi._validate()
        return phi

    @property
    def dimension(self):
        """One less than the largest face size; -1 for the empty complex."""
        if not self.faces:
            return -1
        return max(map(len, self.faces)) - 1

    def _validate(self):
        """Sandwich closure, then purity, on member masks.

        Sandwich: whenever rho <= sigma <= tau with rho and tau faces,
        sigma is a face.  It suffices to test sigma = tau - x for every
        face tau and member x: if that local rule holds and rho <= sigma
        <= tau, take x in tau - sigma; tau - x lies above the face rho, so
        it is a face, and induction on |tau - sigma| reaches sigma;
        _face_below says whether some face lies below sigma.

        Purity: every face lies in a face of the top size.  Search down
        from the top faces, dropping one member at a time and passing only
        through faces.  With sandwich closure every chain between a face
        and a top face above it is a face, so the search reaches exactly
        the faces below some top face; the empty face, when present, is
        always reached.  The face refused is the unreached one smallest by
        label chain, with no length compared first: keyed by its list of
        member ranks, not by _key."""
        chains = self.faces
        below = {}
        for tau in chains:
            for i in range(len(tau)):
                sigma = tau[:i] + tau[i + 1:]
                if sigma not in chains:
                    rho = _face_below(sigma, chains, below)
                    if rho is not None:
                        raise DomainError(
                            "sandwich violation: %s <= %s <= %s, middle face missing"
                            % tuple(map(self.text, (rho, sigma, tau))))
        if chains:
            top = max(map(len, chains))
            reached = frontier = {c for c in chains if len(c) == top}
            while frontier:
                frontier = ({c[:i] + c[i + 1:] for c in frontier for i in range(len(c))}
                        & chains) - reached
                reached |= frontier
            if len(reached) < len(chains):
                members = self.members
                face = min((c for c in chains if c not in reached),
                           key=lambda c: [members[m][0] for m in c])
                raise DomainError("purity violation: face %s extends to no %d-vertex face"
                                  % (self.text(face), top))

    @cached_property
    def members(self):
        """mask -> (rank, text) for each member mask the faces hold: its
        position among those masks sorted by label tuple, and its flag
        text, as "{a,c}".  Nothing here is sized by the 2^n masks of the
        ground set, only by the masks that occur in faces."""
        ground = self.ground
        labels = {m: tuple(x for i, x in enumerate(ground) if m >> i & 1)
                  for m in set().union(*self.faces)}
        return {m: (rank, "{%s}" % ",".join(labels[m]))
                for rank, m in enumerate(sorted(labels, key=labels.__getitem__))}

    def text(self, chain):
        """A mask chain as flag text, "(empty)" for the empty one."""
        members = self.members
        return "<".join(members[m][1] for m in chain) or "(empty)"

    def _key(self, chain):
        """The sort key of a face, one int: its length, then each member's
        rank in a field of w bits, w the bit length of the number of
        member masks, so every rank fits in its field.  Ranks compare as
        label tuples do, since distinct masks have distinct label tuples.
        At one length L the key is L * 2^(wL) plus the packed ranks, so
        two keys compare as their rank chains do.  A chain of length L has
        a key below (L + 1) * 2^(wL), and one of length L' > L a key of at
        least L' * 2^(wL') >= (L + 1) * 2^(w(L + 1)), so the longer chain
        has the larger key.  The empty face's key is 0."""
        members = self.members
        width, key = len(members).bit_length(), len(chain)
        for m in chain:
            key = key << width | members[m][0]
        return key

    @cached_property
    def ordered(self):
        """The faces sorted once, by length and then by label chain: the
        order of the JSON faces and of every per-size-set list."""
        return sorted(self.faces, key=self._key)

    @cached_property
    def _types(self):
        """kappa -> the faces of that size set, in the order of their label
        chains (the order of their Flags).  All faces of one size set have
        the same length, so the walk over ordered lists each in that order."""
        out = {}
        for c in self.ordered:
            out.setdefault(tuple(m.bit_count() for m in c), []).append(c)
        return out

    def _of_type(self, alpha):
        """The faces of the size set of alpha, in label-chain order."""
        n = len(self.ground)
        if alpha.degree != n:
            raise DomainError("composition degree %d does not match ground size %d"
                              % (alpha.degree, n))
        return self._types.get(tuple(sorted(subset_of_alpha(alpha))), ())

    def _moves(self, g):
        """kappa -> the faces of size set kappa in faces ^ g(faces), kept
        per ground permutation g.  g is injective on chains, so g(faces) is
        the face set exactly when it lies inside it: for an automorphism
        one short-circuit pass over the faces, with no image set built,
        gives no moves."""
        if g not in self._moved:
            img = g.mask_images()
            moves = {}
            if not all(tuple(img[m] for m in c) in self.faces for c in self.faces):
                for c in self.faces ^ {tuple(img[m] for m in c) for c in self.faces}:
                    moves.setdefault(tuple(m.bit_count() for m in c), set()).add(c)
            self._moved[g] = moves
        return self._moved[g]


def _face_below(sigma, chains, below):
    """A face inside sigma, or None: sigma itself if it is a face, else
    the answer for some sigma - x, since a face strictly inside sigma
    misses some member x of sigma; by induction on |sigma| it finds a
    face exactly when one exists.  below memoizes the answers.  A module
    function, not a closure over the face set: a closure that calls
    itself is a reference cycle, and would keep the face set alive after
    its complex until the cyclic collector ran."""
    if sigma in chains:
        return sigma
    if sigma not in below:
        below[sigma] = None
        for i in range(len(sigma)):
            rho = _face_below(sigma[:i] + sigma[i + 1:], chains, below)
            if rho is not None:
                below[sigma] = rho
                break
    return below[sigma]


def check_balanced_convex(h, char):
    """Verify the three convexity conditions on every minor of h reachable
    through nonzero splits.  Returns None when all hold, else a witness
    dict naming the condition and the offending subset chain.

    The minors are named by label masks and read from
    structures.splitting_memo; no structure is built here.  A pair (R, T),
    T inside R, is the minor at R (h with C = ground - R contracted)
    restricted to T, and (full, full) is h.  Restricting it to S gives
    (R, S).  Contracting it by S gives the minor with C | S contracted,
    restricted to T - S, which is (R - S, T - S).  For matroids the rank
    tables say so: (R, T) has rank X -> r(X | C) - r(C) on the X inside
    T, and contracting S leaves X -> (r(X | S | C) - r(C)) - (r(S | C) -
    r(C)) = r(X | C | S) - r(C | S) on the X inside T - S.  The other
    five kinds contract by restriction, so both sides keep the items of h
    inside T - S.  Its splits are nonzero(T, .), since the memo's mask rule reads
    only the labels of T: the relation pairs inside T are the same in the
    minor (R, T) and the minor at T, and a matroid split is never zero.
    Its character values are one(R, .).

    Splits are tried by size and then by label tuple, and a minor is
    walked once per memo key, where the frozenset walk this replaces
    walked it once per structure.  Both find the same first violation:
    equal keys mean equal structures, and a minor skipped by either rule
    has already been walked in full without a violation, since the walk
    stops at the first one and every minor below a minor is smaller."""
    char = check_compatible(h, char)
    if h.kind in DIRECT_ONLY_KINDS:
        return None
    memo = splitting_memo(h, char)
    return _convex_walk(memo, set(), memo.full, memo.full, [])


def _convex_walk(memo, seen, R, T, trail):
    """The first violation on the minor (R, T) or a minor below it, or
    None; seen holds the memo keys of the minors already walked.  A
    module function, not a closure: a closure that calls itself is a
    reference cycle, and would keep seen and the memo alive after the
    walk until the cyclic collector ran."""
    key = memo.key(R, T)
    if key in seen:
        return None
    seen.add(key)
    labels, phi = memo.labels, memo.one(R, T)
    witness = {"ground": list(labels[T]), "trail": trail}
    if not T & (T - 1):
        return None if phi else dict(witness, condition=1,
                                     detail="character is 0 on a singleton")
    splits = sorted((S for S in submasks(T) if S != T and memo.nonzero(T, S)),
                    key=lambda S: (S.bit_count(), labels[S]))
    if not splits:
        return dict(witness, condition=2, detail="no nonzero split exists")
    for S in splits:
        if phi and not (memo.one(R, S) and memo.one(R ^ S, T ^ S)):
            return dict(witness, condition=3, subset=list(labels[S]),
                        detail="character 1 on the whole but 0 on a piece")
        for R2, T2, tag in ((R, S, "restrict"), (R ^ S, T ^ S, "contract")):
            w = _convex_walk(memo, seen, R2, T2, trail + [(tag, labels[S])])
            if w is not None:
                return w
    return None


def coloring_complex(h, char, max_ground=GROUND_CAP):
    """The balanced relative complex of flags of proper compositions.

    The ground cap is checked first, so an over-cap job builds no
    splitting memo.  For splitting kinds the character's convexity
    conditions are checked next and a violation raises with the witness;
    the built complex is then validated structurally (sandwich, purity)
    in all cases.  The flag of a composition is the chain of its prefix
    unions, the full ground set dropped, taken straight from the kernel's
    block masks."""
    char = check_compatible(h, char)
    check_ground(len(h.ground), max_ground)
    witness = check_balanced_convex(h, char)
    if witness is not None:
        raise VerificationFailure(
            "character %s is not balanced convex on this structure: %s"
            % (char, witness["detail"]), witness)
    # the kernel's listing is not kept: it is freed once its chains are taken
    phi = BalancedRelativeComplex._of_chains(h.ground, (
        tuple(accumulate(c[:-1], or_))
        for c in proper_compositions(h, char, max_ground=max_ground)))
    if phi.faces and phi.dimension != len(h.ground) - 2:
        raise VerificationFailure(
            "coloring complex has dimension %d, expected %d"
            % (phi.dimension, len(h.ground) - 2))
    return phi


def flag_f_vector(phi):
    """Face counts per size set, one entry for every subset of sizes."""
    n = len(phi.ground)
    out = {}
    for k in range(n):
        for c in combinations(range(1, n), k):
            out[c] = len(phi._types.get(c, ()))
    return out


def complex_automorphism_check(phi, g):
    """Whether a ground permutation maps faces to faces: exactly when g
    moves no face into or out of the face set."""
    return not phi._moves(g)


def hilb(phi, group):
    """Fixed-face counts per size set, as a quasisymmetric class function
    of degree |ground|; the empty flag contributes to the one-part
    composition.  Generators must be complex automorphisms.

    g fixes a flag exactly when it maps every member onto itself, since
    g keeps member sizes and a flag has one member of each of its sizes;
    that is the rule psi applies to blocks.  The flags are tallied by
    fixed_qsym, one size set at a time."""
    if group.ground != phi.ground:
        raise DomainError("group acts on %r, complex lives on %r"
                          % (group.ground, phi.ground))
    for g in group.distinct_generators:
        if not complex_automorphism_check(phi, g):
            raise DomainError("generator %s is not an automorphism of the complex"
                              % g.cycle_string())
    n = len(phi.ground)
    return fixed_qsym(group, n, ((alpha_of_subset(set(kappa), n).parts, chains)
                                 for kappa, chains in phi._types.items()))


def psi_hilb_diffs(X, H):
    """(alpha, psi values, hilb values) for every coefficient where the
    composition route X and the complex route H differ, in (length,
    parts) order of alpha."""
    out = []
    for alpha in sorted(set(X.coeffs) | set(H.coeffs), key=lambda a: (a.length, a.parts)):
        a, b = X.coefficient(alpha).values, H.coefficient(alpha).values
        if a != b:
            out.append((alpha, a, b))
    return out


# ---------------------------------------------------------------------------
# embedding certificates


@dataclass
class EmbeddingCertificate:
    """Witness that coarser-type faces embed equivariantly into finer-type
    faces: full column rank of the incidence matrix (rows: finer faces,
    columns: coarser faces) plus generator equivariance.  A row has at
    most one 1 (theta_certificate): hits[i] is its column, or None."""

    alpha: IntComposition
    beta: IntComposition
    n_source: int
    n_target: int
    hits: tuple
    rank: int
    equivariance_checked: bool

    @property
    def valid(self):
        return self.rank == self.n_source and self.equivariance_checked

    @property
    def matrix(self):
        """The dense 0/1 rows; equal rows are one shared tuple."""
        zero = (0,) * self.n_source
        unit = {j: zero[:j] + (1,) + zero[j + 1:] for j in set(self.hits) - {None}}
        return tuple(unit.get(j, zero) for j in self.hits)


def integer_matrix_rank(rows):
    """Exact rank of sparse integer rows (mappings column -> entry) by
    multiply-and-subtract elimination: no division, no floating point.
    Pivots have distinct leading columns, so they are independent.  A row
    whose leading column j has a pivot p becomes p[j] * row - row[j] * p,
    which spans the same space with p (p[j] != 0) and leads further right;
    so each row ends as a new pivot or as zero."""
    pivots = {}  # leading column -> the pivot row
    for row in rows:
        row = {j: v for j, v in row.items() if v}
        while row:
            lead = min(row)
            piv = pivots.get(lead)
            if piv is None:
                pivots[lead] = row
                break
            a, b = piv[lead], row[lead]
            row = {j: v for j in row.keys() | piv.keys()
                   if (v := a * row.get(j, 0) - b * piv.get(j, 0))}
    return len(pivots)


def theta_certificate(phi, group, alpha, beta):
    """Certificate for the pair alpha <= beta (beta refines alpha).

    The members of a flag have distinct sizes, and the size set A of alpha
    lies inside the size set B of beta.  So a source face s lies inside a
    target face t exactly when s is the projection of t, its sub-chain of
    the members with sizes in A: each matrix row has at most one 1, in the
    column of that projection, its hit, found by one dict lookup.

    The rank is taken of the distinct hits only, one unit row {j: 1} each.
    A zero row adds nothing to the row space and a repeated row adds
    nothing new, so the row space, and with it the rank, is that of the
    full matrix.  Distinct unit rows have distinct leading columns, so
    each becomes a pivot and the elimination never subtracts."""
    if not refines(alpha, beta):
        raise DomainError("%s is not refined by %s" % (alpha, beta))
    if group.ground != phi.ground:
        raise DomainError("group acts on %r, complex lives on %r"
                          % (group.ground, phi.ground))
    src = phi._of_type(alpha)
    tgt = phi._of_type(beta)
    kappa, sizes = tuple(sorted(subset_of_alpha(beta))), subset_of_alpha(alpha)
    keep = [i for i, k in enumerate(kappa) if k in sizes]

    def project(t):
        return tuple(t[i] for i in keep)

    column = {s: j for j, s in enumerate(src)}
    hits = tuple(column.get(project(t)) for t in tgt)
    rank = integer_matrix_rank({j: 1} for j in dict.fromkeys(hits) if j is not None)
    equi = _theta_equivariant(phi, group, src, kappa, project)
    return EmbeddingCertificate(alpha, beta, len(src), len(tgt), hits, rank, equi)


def _theta_equivariant(phi, group, src, kappa, project):
    """Whether, for every generator g and source face s, the targets above
    g(s) are exactly the images g(t) of the targets t above s.

    Any permutation keeps inclusion, g(s) <= g(t) iff s <= t, so the images
    of the targets above s are the members of g(tgt) above g(s), and the
    test asks that tgt and g(tgt) hold the same chains above g(s).  It
    fails exactly when some chain in the symmetric difference of tgt and
    g(tgt) has its projection in g(src).  g keeps sizes, so that
    difference is the kappa part of the face set's moves under g."""
    for g in group.distinct_generators:
        changed = phi._moves(g).get(kappa)
        if changed:
            img = g.mask_images()
            moved_src = {tuple(img[m] for m in s) for s in src}
            if any(project(u) in moved_src for u in changed):
                return False
    return True


def comparable_pairs(n, covering_only=False):
    """Pairs (alpha, beta) of compositions of n with beta refining alpha,
    alpha != beta; covering pairs split exactly one part.  Each
    composition's partial sums are taken once."""
    comps = [(c, subset_of_alpha(c)) for c in compositions_of(n)]
    return [(a, b) for a, sa in comps for b, sb in comps
            if sa < sb and (not covering_only or len(sb) == len(sa) + 1)]
