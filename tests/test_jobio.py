"""Differential tests of jobio.dump against the writer it replaced,
dump_reference.reference_dump: a full json_ready copy of the result
(integral Fractions to ints, other exact values and non-string keys to
strings, tuples to lists) handed to json.dump.  Both must write the same bytes on
every fixture, on command outputs of corpus cases, on the benchmark's
complex and certify outputs, and on hand-built values of the kinds
VerificationFailure.details can carry.  Where json_ready would change a
value (a float), jobio.dump is compared with json.dump itself."""

import importlib.util
import io
import json
import math
from fractions import Fraction
from pathlib import Path

import pytest

from hopfchrom import jobio
from hopfchrom.cli import load_fixtures, main, run_fixture
from hopfchrom.cyclotomic import Cyclo
from hopfchrom.randgen import corpus
from cyclo_reference import FieldCyclo
from dump_reference import reference_dump

DUMP = jobio.dump  # the fixture below rebinds jobio.dump to a recorder


def _bytes(writer, obj):
    buf = io.StringIO()
    writer(obj, buf)
    return buf.getvalue().encode()


@pytest.fixture
def dumped(monkeypatch):
    """Every object the command line hands to jobio.dump, in order."""
    seen = []

    def record(obj, stream):
        seen.append(obj)
        DUMP(obj, stream)

    monkeypatch.setattr(jobio, "dump", record)
    return seen


def _assert_same_bytes(objs):
    assert objs
    for obj in objs:
        assert _bytes(DUMP, obj) == _bytes(reference_dump, obj)


@pytest.mark.parametrize("fx", load_fixtures(), ids=lambda fx: fx["name"])
def test_fixture_outputs(dumped, fx):
    ok, diffs, _ = run_fixture(fx)
    assert ok, diffs
    _assert_same_bytes(dumped)


def _corpus_sample():
    """The first case of each structure kind, ground size at most 5."""
    out, kinds = [], set()
    for name, h, char, group in corpus():
        if h.kind not in kinds and len(h.ground) <= 5:
            kinds.add(h.kind)
            out.append((name, h, char, group))
    return out


@pytest.mark.parametrize("case", _corpus_sample(), ids=lambda c: c[0])
def test_corpus_command_outputs(tmp_path, dumped, case):
    _, h, char, group = case
    job = {"kind": h.kind, "structure": jobio.structure_to_json(h),
           "character": str(char),
           "group": [g.cycle_string() for g in group.generators]}
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    for command in ("psi", "complex", "certify", "verify"):
        out = tmp_path / (command + ".json")
        assert main([command, "--input", str(path), "--output", str(out)]) == 0
        assert out.read_bytes() == _bytes(reference_dump, dumped[-1])


def test_exact_values():
    irrational = FieldCyclo.root(3) + Fraction(1, 2)
    details = {
        "integral": Fraction(6, 3),
        "negative_integral": Fraction(-4, 1),
        "fraction": Fraction(-1, 2),
        "cyclo_integral": Cyclo(4, (3,)),
        "cyclo_rational": Cyclo(6, (Fraction(5, 3),)),
        "cyclo": irrational,
        "values": [Cyclo.root(4), Cyclo.root(4, 2), 0, Fraction(7, 1)],
        "trail": [("restrict", ("a", "b")), ("contract", ("c",))],
        "nested": {"b": (Fraction(1, 3), None, True, False),
                   "a": {"z": [], "y": {}, "x": ()}},
        "none": None,
        "flag": True,
        "text": "x < y",
    }
    assert _bytes(DUMP, details) == _bytes(reference_dump, details)
    failure = {"schema": jobio.SCHEMA, "error": "verification",
               "message": "orbit count 1/2 is not a nonnegative integer",
               "details": details}
    assert _bytes(DUMP, failure) == _bytes(reference_dump, failure)
    data = json.loads(_bytes(DUMP, details))
    assert data["integral"] == 2 and data["fraction"] == "-1/2"
    assert data["cyclo_integral"] == str(details["cyclo_integral"])
    assert data["cyclo"] == str(irrational)


def test_cyclo_text():
    """A rational Cyclo prints as its Fraction, any other as its power-basis
    sum in GAP's E(m) notation, and jobio.dump writes those strings."""
    values = [Cyclo(4, (3,)), Cyclo(6, (Fraction(1, 2),)),
              Cyclo.root(3), Cyclo.root(3, 2), Cyclo.root(4, 3),
              FieldCyclo.root(3) + Fraction(1, 2),
              FieldCyclo(5, (0, Fraction(-1, 2), 0, 1)) * 2 + Cyclo.root(5, 2)]
    assert [str(v) for v in values] == [
        "3", "1/2", "E(3)", "-1-E(3)", "-E(4)", "1/2+E(3)", "-E(5)+E(5)^2+2*E(5)^3"]
    assert _bytes(DUMP, {"details": values}) == (
        b'{\n "details": [\n  "3",\n  "1/2",\n  "E(3)",\n  "-1-E(3)",\n  "-E(4)",\n'
        b'  "1/2+E(3)",\n  "-E(5)+E(5)^2+2*E(5)^3"\n ]\n}\n')


def json_dump(obj, stream):
    """json.dump with jobio's encoder hook, on the value as it is."""
    json.dump(obj, stream, indent=1, sort_keys=True, default=jobio._exact)
    stream.write("\n")


def _jobgen():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "jobgen.py"
    spec = importlib.util.spec_from_file_location("jobgen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def complex_certify(tmp_path_factory):
    """job id -> (the object the command line dumps, the bytes it wrote)
    for the benchmark's complex-certify jobs: complex on C6 under D6 and
    certify (comparable pairs) on the octahedron under Z6."""
    jobgen, tmp = _jobgen(), tmp_path_factory.mktemp("complex-certify")
    seen, out = [], {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(jobio, "dump", lambda obj, stream: (seen.append(obj), DUMP(obj, stream)))
        for job_id, command, job in jobgen.build_jobs("complex-certify", 1):
            path, result = tmp / (job_id + ".json"), tmp / (job_id + ".out.json")
            path.write_bytes(jobgen.job_bytes(job))
            assert main([command, "--input", str(path), "--output", str(result)]) == 0
            out[job_id] = seen[-1], result.read_bytes()
    return out


def test_complex_certify_outputs(complex_certify):
    assert sorted(complex_certify) == ["c6_complex", "octa_certify"]
    for obj, written in complex_certify.values():
        assert written == _bytes(reference_dump, obj)
    assert len(complex_certify["octa_certify"][0]["pairs"]) == 211


class _Recorder:
    def __init__(self):
        self.sizes = []

    def write(self, text):
        self.sizes.append(len(text))


def test_no_write_holds_more_than_a_matrix(complex_certify):
    """The octahedron certificates go out one row at a time: no write is
    longer than the largest matrix's text as it sits in the document, at
    depth 3, so neither the document nor its list of pairs is one string."""
    obj, written = complex_certify["octa_certify"]
    largest = max(len(json.dumps(pair["matrix"], indent=1).replace("\n", "\n   "))
                  for pair in obj["pairs"])
    stream = _Recorder()
    DUMP(obj, stream)
    assert sum(stream.sizes) == len(written)
    assert max(stream.sizes) <= largest < len(written) // 5


SHARED = (0, 1, 0)
EMPTY_AT_DEPTH = (lambda e: e, lambda e: [e], lambda e: {"a": [e, 1]},
                  lambda e: {"b": [{"c": e}], "a": e})


@pytest.mark.parametrize("value", [
    *[pytest.param(wrap(empty), id="empty-%s-depth-%d" % (type(empty).__name__, depth))
      for empty in ([], (), {}) for depth, wrap in enumerate(EMPTY_AT_DEPTH)],
    pytest.param({"rows": [SHARED, SHARED, (1, 0, 0), SHARED],
                  "deeper": [[SHARED, {"m": (SHARED, SHARED)}], SHARED]}, id="shared-tuple"),
    pytest.param({"café → \U0001d11e": ["\"quoted\"", "back\\slash", "\x00\x1f\n\t\x7f",
                                          "é \U0001f600"],
                  "\"\\\n": {"\x01": "ÿ"}}, id="escapes"),
    pytest.param([0, True, 1, False, 2, None], id="bools-in-ints"),
    pytest.param([-7, 10 ** 29 + 1, -(10 ** 30 - 1), 0], id="big-ints"),
    pytest.param([1, Fraction(1, 2), 2, Fraction(4, 2), Cyclo.root(3),
                  Cyclo(3, (5,)), 3], id="exact-in-ints"),
    pytest.param("top-level text", id="top-level-str"),
    pytest.param(12, id="top-level-int"),
    pytest.param(None, id="top-level-null"),
])
def test_hand_built_values(value):
    assert _bytes(DUMP, value) == _bytes(reference_dump, value)
    assert _bytes(DUMP, value) == _bytes(json_dump, value)


def test_floats_as_json_writes_them():
    value = {"f": [0.1, -2.5, 1e300, 1.0, -0.0, 5e-324, math.inf, -math.inf, math.nan],
             "g": 2.0, "h": [[1.5]]}
    assert _bytes(DUMP, value) == _bytes(json_dump, value)


def test_non_string_key_is_refused():
    with pytest.raises(TypeError):
        DUMP({1: 2}, io.StringIO())
