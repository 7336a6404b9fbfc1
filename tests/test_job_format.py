"""The job format table, jobio.FORMATS, against the per-kind if-chains it
replaced (tests/structure_reference.py).

structure_to_json must write the bytes the former writer wrote, and
parse_structure must read them back to the structure, on the random
corpus at two seeds, on loday_associahedron(4) and on the structure of
every bundled fixture job; on fields of the wrong type or shape both
parsers must refuse with one text.  The table holds one row per kind,
and a row of a splitting kind fills the attributes structures.ITEMS
names, in order.  A kind that is no string (a JSON list, object, number
or true) is unknown, after the ground has been read."""

import json

import pytest

from hopfchrom import jobio
from hopfchrom.cli import load_fixtures, main
from hopfchrom.errors import DomainError
from hopfchrom.randgen import corpus
from hopfchrom.structures import ITEMS, KIND_CLASSES, loday_associahedron
from structure_reference import if_chain_parse_structure, if_chain_structure_to_json

STRUCTURES = ([h for seed in (20260822, 1) for _, h, _, _ in corpus(seed=seed)]
              + [loday_associahedron(4)])
FIXTURE_JOBS = [fx["job"] for fx in load_fixtures()]


def test_one_row_per_kind():
    assert list(jobio.FORMATS) == list(KIND_CLASSES)
    for kind, attrs in ITEMS.items():
        assert tuple(attr for _, _, attr in jobio.FORMATS[kind][1]) == attrs, kind


def test_the_corpus_covers_every_kind():
    assert {h.kind for h in STRUCTURES} == set(KIND_CLASSES)
    assert {job["kind"] for job in FIXTURE_JOBS} == set(KIND_CLASSES)


def _text(obj):
    """The JSON text of obj with its keys in insertion order, so that two
    writers agree only when they build the same dict."""
    return json.dumps(obj)


def _check_inverse(h):
    out = jobio.structure_to_json(h)
    assert _text(out) == _text(if_chain_structure_to_json(h)), h.kind
    assert jobio.parse_structure(h.kind, out) == h, h.kind
    assert jobio.parse_structure(h.kind, json.loads(_text(out))) == h, h.kind


def test_structure_to_json_is_the_inverse_of_parse_structure():
    for h in STRUCTURES:
        _check_inverse(h)


@pytest.mark.parametrize("job", FIXTURE_JOBS, ids=lambda job: job["kind"])
def test_fixture_structures_read_and_write_as_before(job):
    kind, structure = job["kind"], job.get("structure", job)
    h = jobio.parse_structure(kind, structure)
    assert h == if_chain_parse_structure(kind, structure)
    _check_inverse(h)


def _outcome(parse, kind, structure):
    try:
        return "ok", parse(kind, structure)
    except DomainError as exc:
        return "refused", str(exc)


def _malformed(kind, structure):
    """structure with each of its fields, and the first item of each,
    replaced by a value of the wrong type or shape, or dropped."""
    for field, value in structure.items():
        for bad in (5, "x", None, {}, [5], [[]], [["a"]], [value[0] * 3] if value else [[]]):
            yield dict(structure, **{field: bad})
        yield {f: v for f, v in structure.items() if f != field}
        if value and isinstance(value[0], list):
            for item in ([], [None], [["a"]], ["zz", "zz"], value[0][:1] * 2):
                yield dict(structure, **{field: [item] + value[1:]})


def test_malformed_fields_are_refused_as_before():
    seen = set()
    for h in STRUCTURES[::8] + [loday_associahedron(3)]:
        out = jobio.structure_to_json(h)
        for structure in _malformed(h.kind, out):
            want = _outcome(if_chain_parse_structure, h.kind, structure)
            assert _outcome(jobio.parse_structure, h.kind, structure) == want, \
                (h.kind, structure)
            seen.add((h.kind, want[0]))
    assert {kind for kind, verdict in seen if verdict == "refused"} == set(KIND_CLASSES)


def _job_message(tmp_path, capsys, job):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(dict({"character": "zeta"}, **job)))
    code = main(["psi", "--input", str(path)])
    return code, json.loads(capsys.readouterr().err)["message"]


@pytest.mark.parametrize("kind, text", [
    (["graph"], "['graph']"), ({"a": 1}, "{'a': 1}"), (5, "5"), (True, "True"),
    (1.5, "1.5"), ("tree", "'tree'")])
def test_a_kind_that_is_no_known_string_is_unknown(tmp_path, capsys, kind, text):
    """Exit 2 naming the kind as written, after the ground is read: a
    missing ground or a bad label is named first, and an over-cap ground
    exits 3."""
    ground = {"ground": ["a", "b"], "vertices": ["a", "b"], "edges": [["a", "b"]]}
    assert _job_message(tmp_path, capsys, dict(ground, kind=kind)) == \
        (2, "unknown kind %s" % text)
    assert _job_message(tmp_path, capsys, {"kind": kind, "vertices": ["a"]}) == \
        (2, "missing field 'ground' for kind %s" % text)
    assert _job_message(tmp_path, capsys, {"kind": kind, "ground": [["a"]]}) == \
        (2, "ground[0] is not a label")
    assert _job_message(tmp_path, capsys, {"kind": kind, "ground": list("abcdefghij")}) == \
        (3, "ground set size 10 exceeds cap 9")
    with pytest.raises(DomainError, match="^unknown kind "):
        jobio.parse_structure(kind, ground)
