"""JSON input and output for the command line.

A job file names a structure kind, the structure data, and optionally a
character, a group (cycle strings or image maps), and a color count.
Malformed fields raise DomainError naming the field.  Output dicts all
carry schema "1" and go to dump as they are: exact values stay Fraction
or Cyclo up to the encoder, which writes an integral Fraction as an int
and any other exact value as its string.
"""

import json
from fractions import Fraction

from .chromatic import binomial_to_monomial
from .cyclotomic import Cyclo
from .errors import DomainError
from .groups import GROUP_ORDER_CAP, PermGroup, Permutation
from .structures import (CharacterSpec, DoublePoset, Graph, Hypergraph,
                         Matroid, MixedGraph, PointCollection,
                         SimplicialComplex, make_double_poset, make_poset)

SCHEMA = "1"


def _need(obj, field, kind):
    if field not in obj:
        raise DomainError("missing field %r for kind %r" % (field, kind))
    return obj[field]


def _pairs(raw, field):
    out = []
    for i, p in enumerate(raw):
        if not isinstance(p, (list, tuple)) or len(p) != 2:
            raise DomainError("%s[%d] is not a pair" % (field, i))
        out.append((str(p[0]), str(p[1])))
    return out


def parse_structure(kind, obj):
    if kind == "graph":
        ground = tuple(str(v) for v in _need(obj, "vertices", kind))
        edges = frozenset(frozenset(e) for e in _pairs(obj.get("edges", []), "edges"))
        return Graph(tuple(sorted(ground)), edges)
    ground = tuple(sorted(str(v) for v in _need(obj, "ground", kind)))
    if kind == "poset":
        return make_poset(ground, _pairs(obj.get("relations", []), "relations"))
    if kind == "matroid":
        bases = frozenset(frozenset(str(x) for x in b)
                          for b in _need(obj, "bases", kind))
        return Matroid(ground, bases)
    if kind == "mixed_graph":
        und = frozenset(frozenset(e) for e in _pairs(obj.get("edges", []), "edges"))
        arcs = frozenset(_pairs(obj.get("arcs", []), "arcs"))
        return MixedGraph(ground, und, arcs)
    if kind == "double_poset":
        return make_double_poset(ground,
                                 _pairs(obj.get("relations1", []), "relations1"),
                                 _pairs(obj.get("relations2", []), "relations2"))
    if kind == "hypergraph":
        edges = tuple(sorted(tuple(sorted(str(x) for x in e))
                             for e in obj.get("edges", [])))
        return Hypergraph(ground, edges)
    if kind == "simplicial_complex":
        faces = frozenset(frozenset(str(x) for x in f)
                          for f in obj.get("faces", []))
        return SimplicialComplex(ground, faces)
    if kind == "gen_permutohedron":
        given = [str(v) for v in _need(obj, "ground", kind)]
        order = {v: i for i, v in enumerate(given)}
        points = []
        for i, row in enumerate(_need(obj, "points", kind)):
            if len(row) != len(given):
                raise DomainError("points[%d] has %d coordinates, ground has %d"
                                  % (i, len(row), len(given)))
            try:
                vals = [Fraction(str(c)) for c in row]
            except (ValueError, ZeroDivisionError) as exc:
                raise DomainError("points[%d]: %s" % (i, exc))
            points.append(tuple(vals[order[v]] for v in ground))
        return PointCollection(ground, tuple(points))
    raise DomainError("unknown kind %r" % kind)


def parse_group(raw, ground, cap=GROUP_ORDER_CAP):
    gens = []
    for i, item in enumerate(raw or []):
        try:
            gens.append(Permutation.parse(item, ground))
        except DomainError as exc:
            raise DomainError("group[%d]: %s" % (i, exc))
    if not gens:
        gens = [Permutation.identity(tuple(sorted(ground)))]
    return PermGroup(gens, cap=cap)


def load_job(data, group_cap=GROUP_ORDER_CAP):
    """Parse one job dict into structure, character, group, colors."""
    if not isinstance(data, dict):
        raise DomainError("job must be a JSON object")
    kind = data.get("kind")
    if not kind:
        raise DomainError("missing field 'kind'")
    h = parse_structure(kind, data.get("structure", data))
    char = None
    if "character" in data:
        char = CharacterSpec.parse(data["character"])
    group = parse_group(data.get("group"), h.ground, cap=group_cap)
    return h, char, group, check_colors(data.get("colors"))


def check_colors(colors):
    """A color count, from the job field or the --colors flag: None or a
    nonnegative integer."""
    if colors is not None and (not isinstance(colors, int) or colors < 0):
        raise DomainError("field 'colors' must be a nonnegative integer")
    return colors


def read_job(path, group_cap=GROUP_ORDER_CAP):
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DomainError("invalid JSON in %s: %s" % (path, exc))
    return load_job(data, group_cap=group_cap)


# ---------------------------------------------------------------------------
# output


def _count(v):
    if isinstance(v, int):
        return v
    if isinstance(v, Fraction) and v.denominator == 1:
        return int(v)
    if isinstance(v, Cyclo) and v.is_rational():
        r = v.rational_value()
        if r.denominator == 1:
            return int(r)
    raise DomainError("expected an integer count, got %r" % (v,))


def class_list(group):
    return [{"rep": rep.cycle_string(), "size": size}
            for rep, size in zip(group.class_reps, group.class_sizes)]


def group_to_json(group):
    return {"order": group.order,
            "generators": [g.cycle_string() for g in group.generators],
            "classes": class_list(group)}


def structure_to_json(h):
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


def qsym_to_json(X):
    coeffs = {}
    for alpha in X.support():
        coeffs[str(alpha)] = [_count(v) for v in X.coefficient(alpha).values]
    return {"degree": X.degree, "coefficients": coeffs}


def poly_to_json(p):
    per_class = []
    for idx in range(len(p.group.class_reps)):
        per_class.append([_count(f.values[idx]) for f in p.fvec])
    identity = [_count(f.at_identity()) for f in p.fvec]
    mono = binomial_to_monomial(identity)
    return {
        "degree": p.degree,
        "f_vectors": per_class,
        "identity": {
            "binomial_basis": identity,
            "monomial_basis": [str(c) for c in mono],
        },
    }


def flags_to_json(phi):
    """The faces of a complex as flag member texts, sorted by length and
    then by label chain."""
    chains = sorted(map(phi.labels, phi.faces), key=lambda ch: (len(ch), ch))
    return [["{%s}" % ",".join(m) for m in ch] for ch in chains]


def certificate_to_json(cert):
    return {
        "alpha": str(cert.alpha),
        "beta": str(cert.beta),
        "n_source": cert.n_source,
        "n_target": cert.n_target,
        "rank": cert.rank,
        "matrix": cert.matrix,
        "equivariant": cert.equivariance_checked,
        "valid": cert.valid,
    }


def _exact(value):
    """Encoder hook for what json cannot write: an integral Fraction
    becomes an int, any other value (a Fraction, a Cyclo) its string."""
    if isinstance(value, Fraction) and value.denominator == 1:
        return int(value)
    return str(value)


def dump(obj, stream):
    """Write obj as sorted, indented JSON plus a newline, streaming.

    Every dict key in obj is a string and no float reaches it: a key of
    another type would be written by json's rules, not as its str, and a
    float as a number, not as its str."""
    json.dump(obj, stream, indent=1, sort_keys=True, default=_exact)
    stream.write("\n")
