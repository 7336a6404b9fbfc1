"""Balanced relative complexes of flags, their flag f-vectors and Hilb
functions, and certified embeddings between type-selected face sets.

A face is a flag (a strictly increasing chain of proper nonempty subsets
of the ground set, possibly empty).  A balanced relative complex is a
face set that is sandwich-closed (anything between two faces is a face),
pure (every face extends to one of maximal size), and balanced (member
sizes inside a face are distinct, which flags guarantee for free).  Each
face is also kept as the tuple of its member bitmasks (label i of the
sorted ground set is bit i), and the checks below work on those.

coloring_complex builds the face set of all flags of proper compositions
of a structure; for kinds with a splitting calculus the three convexity
conditions of the character are verified first, recursively over every
minor reachable through nonzero splits, and a violation is reported with
the witnessing subset chain.  Sandwich closure is checked locally, on
tau - x for every face tau and member x, and purity by a search down
from the top faces; BalancedRelativeComplex._validate proves both
equivalent to the scans over all faces.

hilb packages fixed-face counts per size set into the same kind of
quasisymmetric class function that psi produces, with the same rule: g
fixes a flag exactly when it maps every member onto itself.  The two
agree for coloring complexes, and verify_psi_equals_hilb checks that
coefficient by coefficient.  theta_certificate certifies that
coarser-type faces embed into finer-type faces: a 0/1 incidence matrix
(rows indexed by the finer faces) with full column rank, plus an
equivariance check on the group generators.  Since flag members have
distinct sizes, a coarser face lies in a finer one exactly when it is
the finer face's projection to the coarser sizes, so each row has at
most one 1 and is built by a lookup; since permutations keep inclusion,
equivariance is decided by the chains a generator moves into or out of
the finer faces, none for an automorphism.  Rank is computed by exact
integer elimination; no floating point.
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from .compositions import (Flag, IntComposition, alpha_of_subset,
                           compositions_of, refines, subset_of_alpha)
from .chromatic import (GROUND_CAP, ClassQSym, _class_functions, _image_table,
                        _mask_labels, _stabilizer_bits, proper_compositions, psi)
from .errors import DomainError, VerificationFailure
from .groups import leq_char
from .structures import (DIRECT_ONLY_KINDS, char_value, check_compatible,
                         contract, restrict, split_is_zero)


class BalancedRelativeComplex:
    """A validated set of flag faces on a common ground set.

    Alongside the Flag faces the complex keeps each face as its tuple of
    member masks (label i of the sorted ground set is bit i), in chain
    order; the checks, hilb and the certificates work on those."""

    def __init__(self, ground, faces, validate=True):
        self.ground = tuple(sorted(ground))
        canon = set()
        for f in faces:
            if not isinstance(f, Flag):
                f = Flag(self.ground, tuple(f))
            if f.ground != self.ground:
                raise DomainError("face %s lives on a different ground set" % (f,))
            canon.add(f)
        self.faces = frozenset(canon)
        bit = {x: 1 << i for i, x in enumerate(self.ground)}
        mask_of = {}
        for f in self.faces:
            for s in f.chain:
                if s not in mask_of:
                    mask_of[s] = sum(bit[x] for x in s)
        self._chains = {f: tuple(mask_of[s] for s in f.chain) for f in self.faces}
        if validate:
            self._validate()

    @property
    def dimension(self):
        """One less than the largest face size; -1 for the empty complex."""
        if not self.faces:
            return -1
        return max(len(f.chain) for f in self.faces) - 1

    def _validate(self):
        """Sandwich closure, then purity, on member masks.

        Sandwich: whenever rho <= sigma <= tau with rho and tau faces,
        sigma is a face.  It suffices to test sigma = tau - x for every
        face tau and member x: if that local rule holds and rho <= sigma
        <= tau, take x in tau - sigma; tau - x lies above the face rho, so
        it is a face, and induction on |tau - sigma| reaches sigma.
        face_below(sigma) answers "is some face inside sigma?": sigma
        itself if it is a face, else the answer for some sigma - x, since
        a face strictly inside sigma misses some member x of sigma; by
        induction on |sigma| it finds a face exactly when one exists.

        Purity: every face lies in a face of the top size.  Search down
        from the top faces, dropping one member at a time and passing only
        through faces.  With sandwich closure every chain between a face
        and a top face above it is a face, so the search reaches exactly
        the faces below some top face."""
        chains = set(self._chains.values())
        below = {}

        def face_below(sigma):
            if sigma in chains:
                return sigma
            if sigma not in below:
                below[sigma] = None
                for i in range(len(sigma)):
                    rho = face_below(sigma[:i] + sigma[i + 1:])
                    if rho is not None:
                        below[sigma] = rho
                        break
            return below[sigma]

        for tau in chains:
            for i in range(len(tau)):
                sigma = tau[:i] + tau[i + 1:]
                if sigma not in chains:
                    rho = face_below(sigma)
                    if rho is not None:
                        raise DomainError(
                            "sandwich violation: %s <= %s <= %s, middle face missing"
                            % tuple(_chain_str(self._labels(c)) for c in (rho, sigma, tau)))
        if chains:
            top = max(map(len, chains))
            reached = frontier = {c for c in chains if len(c) == top}
            while frontier:
                frontier = ({c[:i] + c[i + 1:] for c in frontier for i in range(len(c))}
                        & chains) - reached
                reached |= frontier
            if len(reached) < len(chains):
                face = min(f for f, c in self._chains.items() if c not in reached)
                raise DomainError("purity violation: face %s extends to no %d-vertex face"
                                  % (face, top))

    def _labels(self, chain):
        return [tuple(x for i, x in enumerate(self.ground) if m >> i & 1) for m in chain]

    @cached_property
    def _types(self):
        """kappa -> (faces of that size set sorted by chain, their member
        masks in the same order)."""
        out = {}
        for f in sorted(self.faces, key=lambda f: f.chain):
            out.setdefault(f.kappa, []).append(f)
        return {k: (fs, [self._chains[f] for f in fs]) for k, fs in out.items()}

    def by_kappa(self):
        """Faces grouped by their size set."""
        return {k: list(fs) for k, (fs, _) in self._types.items()}

    def faces_of_type(self, alpha):
        """Faces whose size set corresponds to the given composition."""
        return list(self._of_type(alpha)[0])

    def _of_type(self, alpha):
        """(faces, member masks) of the size set of alpha, sorted by chain."""
        n = len(self.ground)
        if alpha.degree != n:
            raise DomainError("composition degree %d does not match ground size %d"
                              % (alpha.degree, n))
        return self._types.get(tuple(sorted(subset_of_alpha(alpha))), ((), ()))


def _chain_str(chain):
    parts = sorted(chain, key=lambda s: (len(s), s))
    return "<".join("{%s}" % ",".join(s) for s in parts) or "(empty)"


def check_balanced_convex(h, char):
    """Verify the three convexity conditions on every minor of h reachable
    through nonzero splits.  Returns None when all hold, else a witness
    dict naming the condition and the offending subset chain."""
    char = check_compatible(h, char)
    if h.kind in DIRECT_ONLY_KINDS:
        return None
    seen = set()

    def walk(cur, trail):
        if cur in seen:
            return None
        seen.add(cur)
        ground = cur.ground
        n = len(ground)
        phi = char_value(cur, char)
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
            left, right = restrict(cur, S), contract(cur, S)
            if phi == 1 and (char_value(left, char) != 1 or char_value(right, char) != 1):
                return {"condition": 3, "ground": list(ground),
                        "subset": sorted(S), "trail": trail,
                        "detail": "character 1 on the whole but 0 on a piece"}
            for piece, tag in ((left, "restrict"), (right, "contract")):
                w = walk(piece, trail + [(tag, tuple(sorted(S)))])
                if w is not None:
                    return w
        return None

    return walk(h, [])


def coloring_complex(h, char, max_ground=GROUND_CAP, workers=1):
    """The balanced relative complex of flags of proper compositions.

    For splitting kinds the character's convexity conditions are checked
    first and a violation raises with the witness; the built complex is
    then validated structurally (sandwich, purity) in all cases."""
    char = check_compatible(h, char)
    witness = check_balanced_convex(h, char)
    if witness is not None:
        raise VerificationFailure(
            "character %s is not balanced convex on this structure: %s"
            % (char, witness["detail"]), witness)
    # the flag of a composition: its prefix unions, the full ground set dropped
    labels = _mask_labels(h.ground)
    faces = []
    for comp in proper_compositions(h, char, workers=workers, max_ground=max_ground,
                                    masks=True):
        chain, acc = [], 0
        for S in comp[:-1]:
            acc |= S
            chain.append(labels[acc])
        faces.append(Flag(h.ground, tuple(chain)))
    phi = BalancedRelativeComplex(h.ground, faces, validate=True)
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
            out[c] = len(phi._types.get(c, ((), ()))[0])
    return out


def complex_automorphism_check(phi, g):
    """Whether a ground permutation maps faces to faces.  g is injective on
    flags, so the image of the face set is the face set exactly when it
    lies inside it; a member's image is read off g's mask image table."""
    img = _image_table(phi.ground, g)
    chains = set(phi._chains.values())
    return all(tuple(img[m] for m in c) in chains for c in chains)


def hilb(phi, group):
    """Fixed-face counts per size set, as a quasisymmetric class function
    of degree |ground|; the empty flag contributes to the one-part
    composition.  Generators must be complex automorphisms.

    g fixes a flag exactly when it maps every member onto itself, since
    g keeps member sizes and a flag has one member of each of its sizes;
    so the elements fixing a face are the AND of chromatic's stabilizer
    bitsets over its member masks, the rule psi applies to blocks."""
    if group.ground != phi.ground:
        raise DomainError("group acts on %r, complex lives on %r"
                          % (group.ground, phi.ground))
    for g in group.generators:
        if not complex_automorphism_check(phi, g):
            raise DomainError("generator %s is not an automorphism of the complex"
                              % g.cycle_string())
    n = len(phi.ground)
    stable = _stabilizer_bits(phi.ground, group.elements)
    everyone = (1 << group.order) - 1
    tallies = {}
    for kappa, (_, chains) in phi._types.items():
        tally = tallies[alpha_of_subset(set(kappa), n)] = {}
        for c in chains:
            fixers = everyone
            for m in c:
                fixers &= stable[m]
            tally[fixers] = tally.get(fixers, 0) + 1
    return ClassQSym(n, group, _class_functions(group, tallies))


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


def verify_psi_equals_hilb(h, char, group, max_ground=GROUND_CAP):
    """Compare the two routes coefficient by coefficient."""
    X = psi(h, char, group, max_ground=max_ground)
    phi = coloring_complex(h, char, max_ground=max_ground)
    diffs = [{"alpha": str(alpha), "psi": list(a), "hilb": list(b)}
             for alpha, a, b in psi_hilb_diffs(X, hilb(phi, group))]
    return {"ok": not diffs, "diffs": diffs}


# ---------------------------------------------------------------------------
# embedding certificates


@dataclass
class EmbeddingCertificate:
    """Witness that faces of the coarser type embed equivariantly into
    faces of the finer type: full column rank of the incidence matrix
    (rows: finer faces, columns: coarser faces) plus generator
    equivariance."""

    alpha: IntComposition
    beta: IntComposition
    n_source: int
    n_target: int
    matrix: tuple
    rank: int
    equivariance_checked: bool

    @property
    def valid(self):
        return self.rank == self.n_source and self.equivariance_checked


def integer_matrix_rank(rows):
    """Exact rank by multiply-and-subtract integer elimination (no
    division, no floating point; rows are scaled by the pivot)."""
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


def theta_certificate(phi, group, alpha, beta):
    """Certificate for the pair alpha <= beta (beta refines alpha).

    The members of a flag have distinct sizes, and the size set A of alpha
    lies inside the size set B of beta.  So a source face s lies inside a
    target face t exactly when s is the projection of t, its sub-chain of
    the members with sizes in A: each matrix row has at most one 1, in the
    column of that projection, found by one dict lookup.

    The rank is taken of the distinct nonzero rows only, one unit row per
    column that some target projects to.  A zero row adds nothing to the
    row space and a repeated row adds nothing new, so the row space, and
    with it the rank, is that of the full matrix.  Distinct unit rows give
    one pivot each, so the elimination never subtracts."""
    if not refines(alpha, beta):
        raise DomainError("%s is not refined by %s" % (alpha, beta))
    if group.ground != phi.ground:
        raise DomainError("group acts on %r, complex lives on %r"
                          % (group.ground, phi.ground))
    _, src = phi._of_type(alpha)
    _, tgt = phi._of_type(beta)
    sizes_a = subset_of_alpha(alpha)
    keep = [i for i, k in enumerate(sorted(subset_of_alpha(beta))) if k in sizes_a]

    def project(t):
        return tuple(t[i] for i in keep)

    column = {s: j for j, s in enumerate(src)}
    zero = (0,) * len(src)
    unit = {}  # column -> the one row with its 1 there
    rows = []
    for t in tgt:
        j = column.get(project(t))
        if j is None:
            rows.append(zero)
        else:
            if j not in unit:
                unit[j] = zero[:j] + (1,) + zero[j + 1:]
            rows.append(unit[j])
    matrix = tuple(rows)
    rank = integer_matrix_rank(list(unit.values()))
    equi = _theta_equivariant(phi.ground, group, src, tgt, project)
    return EmbeddingCertificate(alpha, beta, len(src), len(tgt), matrix, rank, equi)


def _theta_equivariant(ground, group, src, tgt, project):
    """Whether, for every generator g and source face s, the targets above
    g(s) are exactly the images g(t) of the targets t above s.

    Any permutation keeps inclusion, g(s) <= g(t) iff s <= t, so the images
    of the targets above s are the members of g(tgt) above g(s), and the
    test asks that tgt and g(tgt) hold the same chains above g(s).  It
    fails exactly when some chain in the symmetric difference of tgt and
    g(tgt) has its projection in g(src).  For an automorphism the
    difference is empty, and one pass over the targets settles g."""
    targets = set(tgt)
    for g in group.generators:
        img = _image_table(ground, g)
        changed = {tuple(img[m] for m in t) for t in tgt} ^ targets
        if changed:
            moved_src = {tuple(img[m] for m in s) for s in src}
            if any(project(u) in moved_src for u in changed):
                return False
    return True


def comparable_pairs(n, covering_only=False):
    """Pairs (alpha, beta) of compositions of n with beta refining alpha,
    alpha != beta; covering pairs split exactly one part."""
    comps = compositions_of(n)
    out = []
    for a in comps:
        sa = subset_of_alpha(a)
        for b in comps:
            sb = subset_of_alpha(b)
            if sa < sb and (not covering_only or len(sb) == len(sa) + 1):
                out.append((a, b))
    return out


def verify_m_increasing(X, phi, group, certify="covering"):
    """Certificates on refinement pairs plus, for abelian groups, the
    effective-order comparison of every comparable coefficient pair.

    certify: "covering" (enough for the order, by composing embeddings)
    or "comparable" (every pair)."""
    n = X.degree
    cert_pairs = comparable_pairs(n, covering_only=(certify == "covering"))
    certs = []
    for a, b in cert_pairs:
        c = theta_certificate(phi, group, a, b)
        certs.append(c)
    abelian = group.is_abelian()
    leq_failures = []
    if abelian:
        for a, b in comparable_pairs(n):
            ca, cb = X.coefficient(a), X.coefficient(b)
            if ca.is_zero() and cb.is_zero():
                continue
            ok, details = leq_char(ca, cb)
            if not ok:
                leq_failures.append({"alpha": str(a), "beta": str(b), "details": details})
    bad_certs = [c for c in certs if not c.valid]
    return {
        "ok": not bad_certs and not leq_failures,
        "abelian": abelian,
        "certificates": certs,
        "invalid_certificates": [(str(c.alpha), str(c.beta)) for c in bad_certs],
        "leq_failures": leq_failures,
    }
