"""The former axiom checks of structures, kept as references for the
label-mask checks that replaced them (tests/test_refusals.py).

Each gives the refusal's message, or None on acceptance
(fixpoint_make_poset also the closure); which offender a message names
may differ from the program's, which names the smallest, so the tests
compare verdicts, not texts.  The inputs are relations or base families
over a sorted ground."""

from hopfchrom.errors import DomainError


def fixpoint_make_poset(relations):
    """make_poset's former closure: add (a, d) for every (a, b), (b, d)
    until nothing changes, then refuse a pair (a, a) or a pair whose
    reverse is present.  Returns (closed relation, None) or (None,
    message)."""
    less = {tuple(p) for p in relations}
    changed = True
    while changed:
        changed = False
        for a, b in list(less):
            for c, d in list(less):
                if b == c and (a, d) not in less:
                    less.add((a, d))
                    changed = True
    for a, b in less:
        if a == b or (b, a) in less:
            return None, "relations contain a cycle through %r" % (a,)
    return frozenset(less), None


def pair_scan_poset(less):
    """Poset's former check of a stored relation: no pair with its
    reverse, and (a, d) present for every (a, b), (b, d)."""
    for a, b in less:
        if (b, a) in less:
            return "order relation contains a cycle through %r, %r" % (a, b)
        for c, d in less:
            if b == c and (a, d) not in less:
                return "order relation is not transitively closed at %r" % ((a, d),)
    return None


def dfs_arcs(ground, arcs):
    """MixedGraph's former depth-first search for a directed cycle."""
    succ = {x: set() for x in ground}
    for u, v in arcs:
        succ[u].add(v)
    seen, done = set(), set()

    def visit(x):
        if x in done:
            return
        if x in seen:
            raise DomainError("directed part contains a cycle through %r" % (x,))
        seen.add(x)
        for y in succ[x]:
            visit(y)
        done.add(x)

    try:
        for x in ground:
            visit(x)
    except DomainError as exc:
        return str(exc)
    return None


def frozenset_exchange(bases):
    """Matroid's former exchange check of a family of equal-size bases,
    rebuilding frozensets for every (A, B, a, b)."""
    bases = frozenset(frozenset(b) for b in bases)
    for A in bases:
        for B in bases:
            for a in A - B:
                if not any((A - {a}) | {b} in bases for b in B - A):
                    return ("bases fail the exchange axiom for %r, %r at %r"
                            % (sorted(A), sorted(B), a))
    return None
