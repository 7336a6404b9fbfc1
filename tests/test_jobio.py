"""Differential tests of jobio.dump against the writer it replaced, kept
here as the reference: a full json_ready copy of the result (integral
Fractions to ints, other exact values and non-string keys to strings,
tuples to lists) handed to json.dump.  Both must write the same bytes on
every fixture, on command outputs of corpus cases, and on hand-built
values of the kinds VerificationFailure.details can carry."""

import io
import json
from fractions import Fraction

import pytest

from hopfchrom import jobio
from hopfchrom.cli import load_fixtures, main, run_fixture
from hopfchrom.cyclotomic import Cyclo
from hopfchrom.randgen import corpus


def json_ready(value):
    """Recursively convert exact values to JSON-safe types."""
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, int):
        return value
    if isinstance(value, (Fraction, Cyclo)):
        if isinstance(value, Fraction) and value.denominator == 1:
            return int(value)
        return str(value)
    if isinstance(value, dict):
        return {json_ready_key(k): json_ready(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_ready(v) for v in value]
    return str(value)


def json_ready_key(key):
    if isinstance(key, str):
        return key
    return str(key)


def reference_dump(obj, stream):
    json.dump(json_ready(obj), stream, indent=1, sort_keys=True)
    stream.write("\n")


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
    irrational = Cyclo.root(3) + Fraction(1, 2)
    details = {
        "integral": Fraction(6, 3),
        "negative_integral": Fraction(-4, 1),
        "fraction": Fraction(-1, 2),
        "cyclo_integral": Cyclo.from_rational(4, 3),
        "cyclo_rational": Cyclo.from_rational(6, Fraction(5, 3)),
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
    values = [Cyclo.from_rational(4, 3), Cyclo.from_rational(6, Fraction(1, 2)),
              Cyclo.root(3), Cyclo.root(3, 2), Cyclo.root(4, 3),
              Cyclo.root(3) + Fraction(1, 2),
              Cyclo(5, (0, Fraction(-1, 2), 0, 1)) * 2 + Cyclo.root(5, 2)]
    assert [str(v) for v in values] == [
        "3", "1/2", "E(3)", "-1-E(3)", "-E(4)", "1/2+E(3)", "-E(5)+E(5)^2+2*E(5)^3"]
    assert _bytes(DUMP, {"details": values}) == (
        b'{\n "details": [\n  "3",\n  "1/2",\n  "E(3)",\n  "-1-E(3)",\n  "-E(4)",\n'
        b'  "1/2+E(3)",\n  "-E(5)+E(5)^2+2*E(5)^3"\n ]\n}\n')
