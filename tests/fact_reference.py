"""The former routines that worked a fact out again, kept as references
for the reads that replaced them (tests/test_facts.py).

pairwise_is_abelian multiplies every ordered pair of generators, where
PermGroup.is_abelian reads the class table; product_order multiplies a
permutation by itself until the identity, where Permutation.order takes
the lcm of its cycle lengths.  unique_min_basis, unique_argmax and
unique_top_color are the former "exactly one best" rules of matroids,
point collections and hypergraphs, each with its own loop or count,
where structures states the rule once as _one_best.
binomial_to_monomial rebuilds every falling factorial and factorial from
scratch, and comparable_pairs takes the partial sums of a composition
once per pair.  listed_search is the character search over the
generators as listed, where groups._search_irreducibles reads the
distinct ones; it has no work cap."""

from fractions import Fraction
from itertools import product

from hopfchrom.compositions import compositions_of, subset_of_alpha


def pairwise_is_abelian(group):
    return all(a * b == b * a for a in group.generators for b in group.generators)


def product_order(p):
    k, q = 1, p
    while not q.is_identity():
        q = q * p
        k += 1
    return k


def unique_min_basis(bases, c):
    """Whether exactly one basis (positions) has minimum total weight under c."""
    best, count = None, 0
    for b in bases:
        v = sum(c[x] for x in b)
        if best is None or v < best:
            best, count = v, 1
        elif v == best:
            count += 1
    return count == 1


def unique_argmax(points, w):
    best, count = None, 0
    for p in points:
        v = sum(c * wi for c, wi in zip(p, w))
        if best is None or v > best:
            best, count = v, 1
        elif v == best:
            count += 1
    return count == 1


def unique_top_color(edges, c):
    """Every edge (positions) has a unique top color under c."""
    return all([c[x] for x in e].count(max(c[x] for x in e)) == 1 for e in edges)


def binomial_to_monomial(fvec):
    """Convert sum f_i*C(x,i) to ascending monomial coefficients (exact)."""
    coeffs = [Fraction(0)] * len(fvec)
    for i, fi in enumerate(fvec):
        if fi == 0:
            continue
        # falling factorial x(x-1)...(x-i+1) / i!
        poly = [Fraction(1)]
        for j in range(i):
            poly = [a - j * b for a, b in zip([Fraction(0)] + poly, poly + [Fraction(0)])]
        fact = 1
        for j in range(1, i + 1):
            fact *= j
        for d, c in enumerate(poly):
            coeffs[d] += Fraction(fi) * c / fact
    return coeffs


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


def listed_search(group):
    """(m, rows) of groups._search_irreducibles, with an exponent tried
    for every listed generator, copies and identities included; a BFS
    parent's step is that of its distinct generator's first copy."""
    m = group.exponent()
    gens = group.generators
    if not gens:
        return m, ((0,),)
    orders = [g.order() for g in gens]
    first = [gens.index(g) for g in group.distinct_generators]
    index = group._elem_index
    times = [[index[x * g] for g in gens] for x in group.elements]
    found = {}
    for assignment in product(*(range(o) for o in orders)):
        steps = [(m // o) * t for o, t in zip(orders, assignment)]
        exps = [0] * len(group.elements)
        for i in range(1, len(exps)):
            pi, di = group._parents[i]
            exps[i] = (exps[pi] + steps[first[di]]) % m
        if all(exps[y] == (e + step) % m
               for e, row in zip(exps, times) for y, step in zip(row, steps)):
            found.setdefault(tuple(exps), None)
    return m, tuple(tuple(exps[index[rep]] for rep in group.class_reps) for exps in found)
