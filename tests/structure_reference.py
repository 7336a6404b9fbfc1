"""The former axiom checks of structures, kept as references for the
label-mask checks that replaced them (tests/test_refusals.py), and the
former per-kind if-chains of jobio.parse_structure and
jobio.structure_to_json, kept as references for its FORMATS table
(tests/test_job_format.py).

Each gives the refusal's message, or None on acceptance
(fixpoint_make_poset also the closure); which offender a message names
may differ from the program's, which names the smallest, so the tests
compare verdicts, not texts.  The inputs are relations or base families
over a sorted ground."""

from hopfchrom.errors import DomainError
from hopfchrom.jobio import _coordinate, _items, _label_sets, _labels, _need, _pairs
from hopfchrom.structures import (Graph, Hypergraph, Matroid, MixedGraph, PointCollection,
                                  SimplicialComplex, make_double_poset, make_poset)


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


def if_chain_parse_structure(kind, obj):
    """The former jobio.parse_structure, one branch per kind, without the
    ground cap."""
    if not isinstance(obj, dict):
        raise DomainError("structure is not a JSON object")
    field = "vertices" if kind == "graph" else "ground"
    given = _labels(_need(obj, field, kind), field)
    if kind == "graph":
        return Graph(tuple(given), _pairs(obj.get("edges", []), "edges"))
    ground = tuple(sorted(given))
    if kind == "poset":
        return make_poset(ground, _pairs(obj.get("relations", []), "relations"))
    if kind == "matroid":
        return Matroid(ground, _label_sets(_need(obj, "bases", kind), "bases"))
    if kind == "mixed_graph":
        return MixedGraph(ground, _pairs(obj.get("edges", []), "edges"),
                          _pairs(obj.get("arcs", []), "arcs"))
    if kind == "double_poset":
        return make_double_poset(ground,
                                 _pairs(obj.get("relations1", []), "relations1"),
                                 _pairs(obj.get("relations2", []), "relations2"))
    if kind == "hypergraph":
        return Hypergraph(ground, _label_sets(obj.get("edges", []), "edges"))
    if kind == "simplicial_complex":
        return SimplicialComplex(ground, _label_sets(obj.get("faces", []), "faces"))
    if kind == "gen_permutohedron":
        order = {v: i for i, v in enumerate(given)}
        points = []
        for i, row in enumerate(_need(obj, "points", kind)):
            if len(_items(row, "points[%d]" % i)) != len(given):
                raise DomainError("points[%d] has %d coordinates, ground has %d"
                                  % (i, len(row), len(given)))
            try:
                vals = [_coordinate(str(c)) for c in row]
            except (ValueError, ZeroDivisionError) as exc:
                raise DomainError("points[%d]: %s" % (i, exc))
            points.append(tuple(vals[order[v]] for v in ground))
        return PointCollection(ground, tuple(points))
    raise DomainError("unknown kind %r" % kind)


def if_chain_structure_to_json(h):
    """The former jobio.structure_to_json, one branch per kind."""
    kind = h.kind
    if kind == "graph":
        return {"vertices": list(h.ground),
                "edges": sorted(sorted(e) for e in h.edges)}
    out = {"ground": list(h.ground)}
    if kind == "poset":
        out["relations"] = sorted(map(list, h.less))
    elif kind == "matroid":
        out["bases"] = sorted(sorted(b) for b in h.bases)
    elif kind == "mixed_graph":
        out["edges"] = sorted(sorted(e) for e in h.undirected)
        out["arcs"] = sorted(map(list, h.directed))
    elif kind == "double_poset":
        out["relations1"] = sorted(map(list, h.less1))
        out["relations2"] = sorted(map(list, h.less2))
    elif kind == "hypergraph":
        out["edges"] = [list(e) for e in h.edges]
    elif kind == "simplicial_complex":
        out["faces"] = sorted((sorted(f) for f in h.faces), key=lambda f: (len(f), f))
    elif kind == "gen_permutohedron":
        out["points"] = [[str(c) for c in p] for p in h.points]
    return out
