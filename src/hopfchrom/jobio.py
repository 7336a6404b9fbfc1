"""JSON input and output for the command line.

A job file names a structure kind, the structure data, and optionally a
character, a group (cycle strings or image maps), and a color count.
FORMATS states the structure fields of each kind, for reading and for
writing alike.
Malformed fields raise DomainError naming the field.  Output dicts all
carry schema "1" and go to dump as they are: exact values stay Fraction
or Cyclo up to the writer, which writes an integral Fraction as an int
and any other exact value as its string.

dump is a small streaming writer whose bytes equal those of
``json.dump(obj, stream, indent=1, sort_keys=True, default=_exact)``
plus a newline.  It renders a list of leaves as one string, streams a
container of containers one item at a time, and renders a tuple that
recurs in one container once (the argument is in _write's docstring):
a certificate matrix repeats a few shared row tuples, so its text costs
one rendering per distinct row, not one json value per entry.
"""

import json
import re
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .chromatic import binomial_to_monomial, check_ground
from .errors import DomainError
from .groups import GROUP_ORDER_CAP, PermGroup, Permutation, _as_exact
from .structures import (ITEMS, SHAPES, CharacterSpec, Graph, Hypergraph,
                         Matroid, MixedGraph, PointCollection,
                         SimplicialComplex, make_double_poset, make_poset)

SCHEMA = "1"


def _need(obj, field, kind):
    """The required list field, checked by _items."""
    if field not in obj:
        raise DomainError("missing field %r for kind %r" % (field, kind))
    return _items(obj[field], field)


def _items(raw, field):
    """raw, a list field, or DomainError naming the field."""
    if not isinstance(raw, (list, tuple)):
        raise DomainError("%s is not a list" % field)
    return raw


def _label(x, field):
    """A label as its string: a JSON string or number; a list, object,
    boolean or null is refused by name."""
    if isinstance(x, bool) or not isinstance(x, (str, int, float)):
        raise DomainError("%s is not a label" % field)
    return str(x)


def _labels(raw, field):
    """The labels of a list field, checked by _label."""
    return [_label(x, "%s[%d]" % (field, i)) for i, x in enumerate(_items(raw, field))]


def _label_sets(raw, field):
    """The items of a list field as lists of label strings; an item that
    repeats a label is refused by index, never collapsed into a smaller
    set."""
    out = []
    for i, item in enumerate(_items(raw, field)):
        labels = _labels(item, "%s[%d]" % (field, i))
        if len(set(labels)) != len(labels):
            raise DomainError("%s[%d] repeats a label" % (field, i))
        out.append(labels)
    return out


def _pairs(raw, field):
    out = []
    for i, p in enumerate(_items(raw, field)):
        if not isinstance(p, (list, tuple)) or len(p) != 2:
            raise DomainError("%s[%d] is not a pair" % (field, i))
        out.append(tuple(_labels(p, "%s[%d]" % (field, i))))
    return out


# The most digits a coordinate's numerator or denominator may have: the
# limit int() puts on a decimal string, and so on a JSON integer.
COORDINATE_DIGITS = 4300
_INTEGER = re.compile(r"-?[0-9]+")
_EXPONENT = re.compile(r"\s*[-+]?([\d_]*)(?:\.([\d_]*))?[eE]([-+]?\d[\d_]*)\s*")


def _coordinate(text):
    """The exact value of a coordinate's text, equal to Fraction(text).

    A plain integer text (an optional minus sign and ASCII digits) of at
    most COORDINATE_DIGITS characters is read by int(), which cannot
    refuse it, since it has no more digits than int() reads.  Any other
    text is read by Fraction, which reads the digits of a numerator or
    denominator through int() too, refusing more than COORDINATE_DIGITS
    of them, but then multiplies by 10 ** exponent unbounded.  So in
    exponent notation the numerator Fraction would build, the
    significant digits times 10 ** exponent, and the denominator,
    10 ** (fraction digits - exponent), are bounded first, before any
    integer is built."""
    if len(text) <= COORDINATE_DIGITS and _INTEGER.fullmatch(text):
        return int(text)
    m = _EXPONENT.fullmatch(text)
    if m:
        whole, frac, exp = (g.replace("_", "") for g in m.groups(""))
        exp = int(exp)
        if max(len((whole + frac).lstrip("0")) + exp,
               len(frac) + 1 - exp) > COORDINATE_DIGITS:
            raise ValueError("a coordinate has more than %d digits" % COORDINATE_DIGITS)
    return Fraction(text)


# The job format, one row per kind: the constructor, called with the
# sorted ground and then one list per field, and each field as (JSON
# name, required, attribute).  An absent optional field is the empty
# list.  A field of a splitting kind fills the attribute ITEMS names and
# is read and written by that attribute's SHAPES entry: as pairs when its
# items have size 2, else as label sets, and kept in order when they
# freeze to tuples, else sorted; hyperedges are label sets.  Three cases
# are special: the graph's ground is its "vertices"; points are rows of
# coordinates in the order of the ground as given; simplicial faces are
# written shortest first.
FORMATS = {
    "graph": (Graph, (("edges", False, "edges"),)),
    "poset": (make_poset, (("relations", False, "less"),)),
    "matroid": (Matroid, (("bases", True, "bases"),)),
    "mixed_graph": (MixedGraph, (("edges", False, "undirected"), ("arcs", False, "directed"))),
    "double_poset": (make_double_poset, (("relations1", False, "less1"),
                                         ("relations2", False, "less2"))),
    "hypergraph": (Hypergraph, (("edges", False, "edges"),)),
    "simplicial_complex": (SimplicialComplex, (("faces", False, "faces"),)),
    "gen_permutohedron": (PointCollection, (("points", True, "points"),)),
}


def _shape(kind, attr):
    """(freeze, size) of a label-item field: its SHAPES entry for a
    splitting kind, label sets of any size for hyperedges."""
    return SHAPES[attr][:2] if kind in ITEMS else (frozenset, None)


def _points(rows, given):
    """The points of a list field, each row's coordinates reordered from
    the ground as given to the sorted ground."""
    order = {v: i for i, v in enumerate(given)}
    ground, points = sorted(given), []
    for i, row in enumerate(rows):
        if len(_items(row, "points[%d]" % i)) != len(given):
            raise DomainError("points[%d] has %d coordinates, ground has %d"
                              % (i, len(row), len(given)))
        try:
            vals = [_coordinate(str(c)) for c in row]
        except (ValueError, ZeroDivisionError) as exc:
            raise DomainError("points[%d]: %s" % (i, exc))
        points.append(tuple(vals[order[v]] for v in ground))
    return tuple(points)


def parse_structure(kind, obj, max_ground=None):
    """The structure of kind in obj, read by its FORMATS row.  With
    max_ground, a ground of more distinct labels is refused
    (ResourceCapError) before any other field is read or any structure is
    built."""
    if not isinstance(obj, dict):
        raise DomainError("structure is not a JSON object")
    field = "vertices" if kind == "graph" else "ground"
    given = _labels(_need(obj, field, kind), field)
    if max_ground is not None:
        check_ground(len(set(given)), max_ground)
    # a JSON list or object kind cannot be looked up: it is unhashable
    if not isinstance(kind, str) or kind not in FORMATS:
        raise DomainError("unknown kind %r" % (kind,))
    make, fields = FORMATS[kind]
    values = []
    for name, required, attr in fields:
        raw = _need(obj, name, kind) if required else obj.get(name, [])
        if attr == "points":
            values.append(_points(raw, given))
        else:
            values.append((_pairs if _shape(kind, attr)[1] == 2 else _label_sets)(raw, name))
    return make(tuple(sorted(given)), *values)


def parse_group(raw, ground, cap=GROUP_ORDER_CAP):
    """The group of a job's group field, a list of cycle strings or image
    maps read like every other list field; an absent or null field is
    the trivial group.  A map's images are read by _label, so a number
    names the label of its text; an image whose text is no ground label
    stays as written, so the refusal names it as the job does."""
    gens = []
    for i, item in enumerate(_items([] if raw is None else raw, "group")):
        if isinstance(item, dict):
            item = {x: label if (label := _label(y, "group[%d][%r]" % (i, x))) in ground else y
                    for x, y in item.items()}
        try:
            gens.append(Permutation.parse(item, ground))
        except DomainError as exc:
            raise DomainError("group[%d]: %s" % (i, exc))
    if not gens:
        gens = [Permutation.identity(tuple(sorted(ground)))]
    return PermGroup(gens, cap=cap)


def load_job(data, group_cap=GROUP_ORDER_CAP, max_ground=None):
    """Parse one job dict into structure, character, group, colors; with
    max_ground, the ground cap is checked before anything is built."""
    if not isinstance(data, dict):
        raise DomainError("job must be a JSON object")
    kind = data.get("kind")
    if not kind:
        raise DomainError("missing field 'kind'")
    h = parse_structure(kind, data.get("structure", data), max_ground=max_ground)
    char = None
    if "character" in data:
        char = CharacterSpec.parse(data["character"])
    group = parse_group(data.get("group"), h.ground, cap=group_cap)
    return h, char, group, check_colors(data.get("colors"))


def check_colors(colors):
    """A color count, from the job field or the --colors flag: None or a
    nonnegative integer (a JSON true or false is not one)."""
    if colors is not None and (not isinstance(colors, int) or isinstance(colors, bool)
                               or colors < 0):
        raise DomainError("field 'colors' must be a nonnegative integer")
    return colors


def read_job(path, group_cap=GROUP_ORDER_CAP, max_ground=None):
    """The job in the UTF-8 file at path; a file that cannot be opened or
    decoded, or holds no JSON document or one nested too deep to parse,
    is refused with its path."""
    try:
        fh = open(path, encoding="utf-8")
    except OSError as exc:
        raise DomainError("cannot read %s: %s" % (path, exc.strerror))
    with fh:
        try:
            data = json.load(fh)
        except (ValueError, RecursionError) as exc:
            # JSONDecodeError, UnicodeDecodeError and an integer past the
            # digit limit of int() are all ValueErrors; json's decoder
            # recurses once per nested array or object
            raise DomainError("invalid JSON in %s: %s" % (path, exc))
    return load_job(data, group_cap=group_cap, max_ground=max_ground)


# ---------------------------------------------------------------------------
# output


def _count(v):
    """v as an int, normalized by groups._as_exact; any other value is
    refused."""
    count = _as_exact(v)
    if not isinstance(count, int):
        raise DomainError("expected an integer count, got %r" % (v,))
    return count


def class_list(group):
    return [{"rep": rep.cycle_string(), "size": size}
            for rep, size in zip(group.class_reps, group.class_sizes)]


def group_to_json(group):
    return {"order": group.order,
            "generators": [g.cycle_string() for g in group.generators],
            "classes": class_list(group)}


def structure_to_json(h):
    """The structure field of a job holding h, written by its FORMATS row:
    parse_structure reads it back to h."""
    out = {"vertices" if h.kind == "graph" else "ground": list(h.ground)}
    for name, _, attr in FORMATS[h.kind][1]:
        items = getattr(h, attr)
        if attr == "points":
            out[name] = [[str(c) for c in p] for p in items]
        else:
            ordered = _shape(h.kind, attr)[0] is tuple
            out[name] = sorted(map(list if ordered else sorted, items),
                               key=(lambda f: (len(f), f)) if attr == "faces" else None)
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
    """The faces of a complex as lists of member texts, in the order and
    with the texts the complex owns (phi.ordered, and the text half of
    phi.members); nothing is sorted or formatted here."""
    members = phi.members
    return [[members[m][1] for m in c] for c in phi.ordered]


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
    """What json cannot write, as a value it can: an integral Fraction
    becomes an int, any other value (a Fraction, a Cyclo) its string."""
    if isinstance(value, Fraction) and value.denominator == 1:
        return int(value)
    return str(value)


_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _leaf(value):
    """The JSON text of a leaf, as json writes it, or None for a list,
    tuple or dict.  bool is tested before int; what json cannot write
    goes through _exact and is written again."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        text = float.__repr__(value)
        return _NONFINITE.get(text, text)
    if isinstance(value, (list, tuple, dict)):
        return None
    return _leaf(_exact(value))


def _flat(value, nl):
    """The whole text of value, whose line starts at the indent of nl, if
    it is a leaf, an empty container, or a list or tuple of leaves; None
    if it holds a container, so that it must be streamed."""
    text = _leaf(value)
    if text is not None:
        return text
    if not value:
        return "{}" if isinstance(value, dict) else "[]"
    if isinstance(value, dict):
        return None
    texts = []
    for item in value:
        text = _leaf(item)
        if text is None:
            return None
        texts.append(text)
    inner = nl + " "
    return "[" + inner + ("," + inner).join(texts) + nl + "]"


def _write(value, write, nl):
    """Write value, whose line starts at the indent of nl: in one write
    when _flat gives its text, else item by item (a dict in sorted key
    order), recursing into each item that _flat cannot render.

    A tuple item's text is memoised by id for as long as its container
    is being written.  The id is stable, because the caller holds obj
    and so every item in it; the text is the same wherever the item
    recurs in this container, because every item of one container sits
    at the same depth; and the memo dies with the container, so no id
    outlives the object it names.  A certificate matrix holds each
    distinct row as one shared tuple, so each is rendered once."""
    text = _flat(value, nl)
    if text is not None:
        write(text)
        return
    inner = nl + " "
    if isinstance(value, dict):
        sep, close = "{" + inner, "}"
        items = [(encode_basestring_ascii(k) + ": ", v) for k, v in sorted(value.items())]
    else:
        sep, close = "[" + inner, "]"
        items = [("", v) for v in value]
    memo = {}
    for head, item in items:
        text = memo.get(id(item))
        if text is None:
            text = _flat(item, inner)
            if isinstance(item, tuple):
                memo[id(item)] = text
        if text is None:
            write(sep + head)
            _write(item, write, inner)
        else:
            write(sep + head + text)
        sep = "," + inner
    write(nl + close)


def dump(obj, stream):
    """Write obj as sorted, one-space-indented JSON plus a newline: the
    bytes ``json.dump(obj, stream, indent=1, sort_keys=True,
    default=_exact)`` and a newline would write, streamed.

    Leaves are written as json writes them; a list or tuple of leaves
    goes out in one write, and a container of containers one item at a
    time, so no write holds more than one row of such a container (the
    whole document, or a certificate's list of pairs, is never one
    string).  Every dict key in obj is a string: a key of another type
    raises TypeError."""
    _write(obj, stream.write, "\n")
    stream.write("\n")
