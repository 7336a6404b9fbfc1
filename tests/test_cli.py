import dataclasses
import json
import os
import subprocess
import sys
import tempfile
import zipfile

import pytest

from hopfchrom import chromatic, cli, complexes, structures, verify
from hopfchrom.cli import load_fixtures, main, run_fixture
from hopfchrom.complexes import coloring_complex, comparable_pairs
from hopfchrom.errors import ResourceCapError
from hopfchrom.structures import CharacterSpec, Graph

FOUR_CYCLE_JOB = {
    "kind": "graph",
    "structure": {
        "vertices": ["a", "b", "c", "d"],
        "edges": [["a", "b"], ["a", "c"], ["b", "d"], ["c", "d"]],
    },
    "character": "chromatic",
    "group": ["(a b d c)"],
}


def _write_job(tmp_path, job):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    return str(path)


def _run(argv):
    proc = subprocess.run([sys.executable, "-m", "hopfchrom.cli"] + argv,
                          capture_output=True, text=True)
    return proc


def test_psi_output(tmp_path):
    job = _write_job(tmp_path, FOUR_CYCLE_JOB)
    out = tmp_path / "out.json"
    assert main(["psi", "--input", job, "--output", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["schema"] == "1"
    assert data["command"] == "psi"
    assert data["coefficients"]["2,2"] == [2, 0, 2, 0]
    assert data["coefficients"]["1,1,1,1"] == [24, 0, 0, 0]
    assert data["group"]["order"] == 4


def test_worker_byte_determinism(tmp_path):
    job = _write_job(tmp_path, FOUR_CYCLE_JOB)
    outs = []
    for workers in ("1", "2", "3"):
        out = tmp_path / ("out%s.json" % workers)
        assert main(["psi", "--input", job, "--output", str(out),
                     "--workers", workers]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_poly_and_orbital(tmp_path):
    job = _write_job(tmp_path, FOUR_CYCLE_JOB)
    out = tmp_path / "poly.json"
    assert main(["poly", "--input", job, "--output", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["identity"]["binomial_basis"] == [0, 0, 2, 12, 24]
    assert data["identity"]["monomial_basis"] == ["0", "-3", "6", "-4", "1"]

    out2 = tmp_path / "orb.json"
    assert main(["orbital-poly", "--input", job, "--output", str(out2)]) == 0
    data = json.loads(out2.read_text())
    assert data["f_vector"] == [0, 0, 1, 3, 6]
    assert data["flawless"]["ok"]


def test_complex_and_certify(tmp_path):
    job = dict(FOUR_CYCLE_JOB)
    out = tmp_path / "cx.json"
    assert main(["complex", "--input", _write_job(tmp_path, job),
                 "--output", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["dimension"] == 2
    assert data["hilb"]["coefficients"]["2,2"] == [2, 0, 2, 0]
    assert ["{a,d}"] in data["faces"]
    assert ["{a}", "{a,d}"] in data["faces"]
    assert data["flag_f_vector"]["2"] == 2

    out2 = tmp_path / "ct.json"
    assert main(["certify", "--input", _write_job(tmp_path, job),
                 "--output", str(out2)]) == 0
    data = json.loads(out2.read_text())
    assert data["ok"]
    assert all(p["valid"] for p in data["pairs"])


def test_verify_command(tmp_path):
    job = _write_job(tmp_path, FOUR_CYCLE_JOB)
    out = tmp_path / "v.json"
    assert main(["verify", "--input", job, "--output", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["ok"]
    assert data["checks"]["oracle"]["total_colorings"] == 84
    assert data["checks"]["psi_equals_hilb"]["ok"]


def test_verify_no_oracle(tmp_path):
    job = _write_job(tmp_path, FOUR_CYCLE_JOB)
    out = tmp_path / "v.json"
    assert main(["verify", "--input", job, "--output", str(out), "--no-oracle"]) == 0
    data = json.loads(out.read_text())
    assert data["ok"]
    assert data["checks"]["oracle"] == {"ok": True, "skipped": "oracle not run"}


def test_verify_names_the_oracle_cap(tmp_path):
    """Above the oracle's ground cap the report says the cap skipped the
    oracle; --no-oracle still says it was not run."""
    ground = list("abcdefghi")
    job = {"kind": "poset",
           "structure": {"ground": ground, "relations": list(zip(ground, ground[1:]))},
           "character": "zeta"}
    path = _write_job(tmp_path, job)
    out = tmp_path / "v.json"
    for extra, skipped in (([], "ground size 9 exceeds the oracle cap 8"),
                           (["--no-oracle"], "oracle not run")):
        assert main(["verify", "--input", path, "--output", str(out),
                     "--max-ground", "9"] + extra) == 0
        data = json.loads(out.read_text())
        assert data["ok"]
        assert data["checks"]["oracle"] == {"ok": True, "skipped": skipped}


def test_certify_covering_pairs(tmp_path):
    job = _write_job(tmp_path, FOUR_CYCLE_JOB)
    pairs = {}
    for choice in ("covering", "comparable"):
        out = tmp_path / (choice + ".json")
        assert main(["certify", "--input", job, "--output", str(out),
                     "--pairs", choice]) == 0
        pairs[choice] = json.loads(out.read_text())["pairs"]
    want = [(str(a), str(b)) for a, b in comparable_pairs(4, covering_only=True)]
    assert [(p["alpha"], p["beta"]) for p in pairs["covering"]] == want
    comparable = {(p["alpha"], p["beta"]): p for p in pairs["comparable"]}
    assert len(comparable) > len(want)
    for p in pairs["covering"]:
        assert p == comparable[(p["alpha"], p["beta"])]


def test_oracle_command(tmp_path):
    job = _write_job(tmp_path, FOUR_CYCLE_JOB)
    out = tmp_path / "o.json"
    assert main(["oracle", "--input", job, "--output", str(out),
                 "--colors", "4"]) == 0
    data = json.loads(out.read_text())
    assert data["total"] == 84
    counts = {row["rep"]: row["count"] for row in data["fixed_by_class"]}
    assert counts["()"] == 84
    assert counts["(a d)(b c)"] == 12


def test_exit_code_domain_error(tmp_path):
    job = dict(FOUR_CYCLE_JOB, group=["(a e)"])
    proc = _run(["psi", "--input", _write_job(tmp_path, job)])
    assert proc.returncode == 2
    err = json.loads(proc.stderr)
    assert err["error"] == "domain"


def test_exit_code_resource_cap(tmp_path):
    job = {"kind": "graph",
           "structure": {"vertices": list("abcdefghij"), "edges": []},
           "character": "zeta"}
    proc = _run(["psi", "--input", _write_job(tmp_path, job)])
    assert proc.returncode == 3
    err = json.loads(proc.stderr)
    assert err["error"] == "resource_cap"


def test_exit_code_small_ground_cap_before_the_table(tmp_path, monkeypatch):
    def no_table(*args):
        raise AssertionError("next-block table built above the ground cap")

    monkeypatch.setattr(chromatic, "_next_blocks", no_table)
    job = _write_job(tmp_path, FOUR_CYCLE_JOB)
    assert main(["psi", "--input", job, "--max-ground", "3"]) == 3


@pytest.mark.parametrize("command", ["complex", "certify"])
def test_exit_code_small_ground_cap_before_the_splitting_memo(tmp_path, capsys,
                                                              monkeypatch, command):
    """complex and certify check the ground cap before the convexity walk,
    so an over-cap job exits 3 without building a splitting memo."""
    def no_memo(*args):
        raise AssertionError("splitting memo built above the ground cap")

    structures.splitting_memo.cache_clear()
    monkeypatch.setattr(structures, "SplittingMemo", no_memo)
    job = _write_job(tmp_path, {"kind": "graph", "character": "zeta",
                                "structure": {"vertices": list("abcde"), "edges": []}})
    assert main([command, "--input", job, "--max-ground", "4"]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "resource_cap"
    assert err["message"] == "ground set size 5 exceeds cap 4"
    h = Graph(tuple("abcde"), frozenset())
    with pytest.raises(ResourceCapError):
        coloring_complex(h, CharacterSpec("zeta"), max_ground=4)


@pytest.mark.parametrize("command", ["psi", "oracle"])
def test_exit_code_workers_below_one(tmp_path, command):
    job = _write_job(tmp_path, FOUR_CYCLE_JOB)
    proc = _run([command, "--input", job, "--workers", "0"])
    assert proc.returncode == 2
    assert json.loads(proc.stderr)["error"] == "domain"


@pytest.mark.parametrize("command,colors", [("verify", "-1"), ("oracle", "-2")])
def test_exit_code_negative_colors(tmp_path, command, colors):
    job = _write_job(tmp_path, FOUR_CYCLE_JOB)
    proc = _run([command, "--input", job, "--colors", colors])
    assert proc.returncode == 2
    assert proc.stdout == ""
    err = json.loads(proc.stderr)
    assert err["error"] == "domain"
    assert err["message"] == "field 'colors' must be a nonnegative integer"


@pytest.mark.parametrize("mapping,label", [
    ({"a": "b", "b": "a", "z": "q"}, "'z'"),
    ({"a": 1}, "1"),
])
def test_exit_code_mapping_generator_off_the_ground_set(tmp_path, capsys, mapping, label):
    """A mapping-form generator whose key or image is not a ground label is
    refused by name, never dropped or left to a TypeError."""
    job = _write_job(tmp_path, dict(FOUR_CYCLE_JOB, group=[mapping]))
    assert main(["psi", "--input", job, "--output", str(tmp_path / "o")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "domain"
    assert label + " " in err["message"] and "not in the ground set" in err["message"]


@pytest.mark.parametrize("group", [
    [{"1": 2, "2": 1}], [{"1": "2", "2": 1}], [{"2": 1, "1": 2, "3": 3}]])
def test_mapping_images_are_labels(tmp_path, capsys, group):
    """A number in a mapping generator names the label of its text, as a
    number in the ground set does: every form of the swap writes the same
    bytes.  An image that is no label is refused by its generator."""
    job = {"kind": "graph", "character": "chromatic", "vertices": [1, 2, 3], "edges": [[1, 2]]}
    outputs = []
    for i, g in enumerate((["(1 2)"], group)):
        path = _write_job(tmp_path, dict(job, group=g))
        assert main(["psi", "--input", path, "--output", str(tmp_path / ("out%d" % i))]) == 0
        outputs.append((tmp_path / ("out%d" % i)).read_bytes())
    assert outputs[0] == outputs[1]
    for g, message in (([{"1": [2]}], "group[0]['1'] is not a label"),
                       (["()", {"2": 1, "1": None}], "group[1]['1'] is not a label"),
                       ([{"1": True}], "group[0]['1'] is not a label")):
        assert main(["psi", "--input", _write_job(tmp_path, dict(job, group=g))]) == 2
        assert json.loads(capsys.readouterr().err)["message"] == message


def test_absent_or_null_group_is_the_trivial_group(tmp_path):
    outputs, job = set(), {k: v for k, v in FOUR_CYCLE_JOB.items() if k != "group"}
    for extra in ({}, {"group": None}, {"group": []}, {"group": ["()"]}):
        path = _write_job(tmp_path, dict(job, **extra))
        out = tmp_path / "out"
        assert main(["psi", "--input", path, "--output", str(out)]) == 0
        outputs.add(out.read_bytes())
    assert len(outputs) == 1


@pytest.mark.parametrize("job,field", [
    ({"kind": "graph", "structure": 5}, "structure"),
    ({"kind": "graph", "vertices": 5}, "vertices"),
    ({"kind": "poset", "ground": ["a", "b"], "relations": 5}, "relations"),
    ({"kind": "matroid", "ground": ["a", "b"], "bases": 5}, "bases"),
    ({"kind": "matroid", "ground": ["a", "b"], "bases": [1]}, "bases[0]"),
    ({"kind": "mixed_graph", "ground": ["a", "b"], "arcs": 5}, "arcs"),
    ({"kind": "hypergraph", "ground": ["a", "b"], "edges": [5]}, "edges[0]"),
    ({"kind": "simplicial_complex", "ground": ["a", "b"], "faces": [5]}, "faces[0]"),
    ({"kind": "gen_permutohedron", "ground": ["a", "b"], "points": [5]}, "points[0]"),
    (dict(FOUR_CYCLE_JOB, group=5), "group"),
    ({"kind": "matroid", "ground": ["a", "b"], "bases": [["a", "a"], ["b", "b"]]},
     "bases[0] repeats a label"),
    ({"kind": "matroid", "ground": ["a", "b", "c"], "bases": [["a", "b"], ["c", "c"]]},
     "bases[1] repeats a label"),
    ({"kind": "hypergraph", "character": "unique_local_max", "ground": ["a", "b", "c"],
      "edges": [["a", "a"], ["b", "c"]]}, "edges[0] repeats a label"),
    ({"kind": "hypergraph", "character": "unique_local_max", "ground": ["a", "b", "c"],
      "edges": [["b", "c"], ["c", "a", "c"]]}, "edges[1] repeats a label"),
    ({"kind": "simplicial_complex", "ground": ["a", "b"], "faces": [["a", "b", "b"]]},
     "faces[0] repeats a label"),
    ({"kind": "graph", "vertices": [["a"]]}, "vertices[0] is not a label"),
    ({"kind": "graph", "vertices": ["a", "b"], "edges": [["a", None]]},
     "edges[0][1] is not a label"),
    ({"kind": "poset", "ground": ["a", {"b": 1}]}, "ground[1] is not a label"),
    ({"kind": "poset", "ground": ["a", "b"], "relations": [[True, "b"]]},
     "relations[0][0] is not a label"),
    ({"kind": "mixed_graph", "ground": ["a", "b"], "arcs": [["a", ["b"]]]},
     "arcs[0][1] is not a label"),
    ({"kind": "matroid", "ground": ["a", "b"], "bases": [["a", ["b"]]]},
     "bases[0][1] is not a label"),
    ({"kind": "hypergraph", "ground": ["a", "b"], "edges": [[None]]},
     "edges[0][0] is not a label"),
    ({"kind": "simplicial_complex", "ground": ["a", "b"], "faces": [["a", False]]},
     "faces[0][1] is not a label"),
    ({"kind": "gen_permutohedron", "ground": [False, "b"], "points": [[0, 1]]},
     "ground[0] is not a label"),
])
def test_exit_code_malformed_list_field(tmp_path, capsys, job, field):
    """A list field that is not a list, or a list item that is not one,
    is refused by name (exit 2), never left to a TypeError.  A matroid
    basis, a hypergraph edge or a simplicial face that repeats a label is
    refused too, never collapsed into a smaller set: [["a", "a"], ["b",
    "b"]] would run as a rank-1 matroid, and the edge ["a", "a"] as the
    singleton edge {a}.  A label that is a list, an object, a boolean or
    null is refused by its field, never run under its str()."""
    job = _write_job(tmp_path, dict({"character": "zeta"}, **job))
    assert main(["psi", "--input", job, "--output", str(tmp_path / "o")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "domain"
    assert field in err["message"]


@pytest.mark.parametrize("n", [10, 11])
def test_exit_code_non_matroid_at_any_size(tmp_path, capsys, n):
    """The bases {a, b} and {c, d} fail basis exchange ({b, c} is no
    basis), and an input matroid is refused for it (exit 2, naming the
    bases) on 11 labels as on 10, so a raised --max-ground never runs a
    non-matroid."""
    job = _write_job(tmp_path, {"kind": "matroid", "character": "zeta",
                                "ground": list("abcdefghijk"[:n]),
                                "bases": [["a", "b"], ["c", "d"]]})
    argv = ["psi", "--input", job, "--max-ground", str(n), "--output", str(tmp_path / "o")]
    assert main(argv) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "domain"
    assert "bases" in err["message"]


@pytest.mark.parametrize("colors", [True, False])
def test_exit_code_boolean_colors(tmp_path, capsys, colors):
    job = _write_job(tmp_path, dict(FOUR_CYCLE_JOB, colors=colors))
    assert main(["oracle", "--input", job, "--output", str(tmp_path / "o")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "domain"
    assert err["message"] == "field 'colors' must be a nonnegative integer"


def _invalid_job_file(tmp_path, name, content):
    path = tmp_path / name
    path.write_bytes(content)
    return str(path)


@pytest.mark.parametrize("make,reason", [
    (lambda tmp: str(tmp / "absent.json"), "No such file or directory"),
    (lambda tmp: str(tmp), "Is a directory"),
    (lambda tmp: _invalid_job_file(tmp, "latin1.json", json.dumps(
        dict(FOUR_CYCLE_JOB, character="chromatic")).encode().replace(b'"a"', b'"\xe4"')),
     "can't decode byte 0xe4"),
    (lambda tmp: _invalid_job_file(tmp, "digits.json", json.dumps(
        dict(FOUR_CYCLE_JOB, colors=0)).encode().replace(b'"colors": 0', b'"colors": '
                                                         + b"9" * 5000)),
     "4300 digits"),
], ids=["missing", "directory", "not-utf8", "long-integer"])
def test_exit_code_unreadable_job_file(tmp_path, capsys, make, reason):
    """A job file that is missing, a directory, not UTF-8, or holds an
    integer past Python's digit limit is refused with its path (exit 2)."""
    path = make(tmp_path)
    assert main(["psi", "--input", path]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    err = json.loads(err)
    assert err["error"] == "domain"
    assert path in err["message"] and reason in err["message"]


def test_exit_code_output_in_a_missing_directory(tmp_path, capsys):
    job = _write_job(tmp_path, FOUR_CYCLE_JOB)
    out = str(tmp_path / "absent" / "out.json")
    assert main(["psi", "--input", job, "--output", out]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "domain"
    assert err["message"] == "cannot write %s: No such file or directory" % out


@pytest.mark.parametrize("character,message", [
    ({"name": ["x"]}, "unknown character ['x']"),
    ({"name": {"a": 1}}, "unknown character {'a': 1}"),
    ({"name": "dim_bound", "s": True}, "dim_bound needs an integer bound s >= 1"),
])
def test_exit_code_malformed_character(tmp_path, capsys, character, message):
    """A character name that is not a string, or a boolean bound, is
    refused (exit 2): never a TypeError, never dim_bound(1)."""
    job = {"kind": "simplicial_complex", "ground": ["a", "b"], "faces": [["a", "b"]],
           "character": character}
    assert main(["psi", "--input", _write_job(tmp_path, job)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err == {"schema": "1", "error": "domain", "message": message}


def test_number_labels_accepted(tmp_path, capsys):
    job = {"kind": "graph", "character": "chromatic",
           "structure": {"vertices": [1, 2.5], "edges": [[1, 2.5]]}, "group": ["(1 2.5)"]}
    assert main(["psi", "--input", _write_job(tmp_path, job)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["coefficients"] == {"1,1": [2, 0]}


@pytest.mark.parametrize("command", ["certify", "verify"])
def test_exit_code_invalid_certificate(tmp_path, monkeypatch, command):
    """An invalid certificate sets the top-level ok to false: exit 1, and
    the result is still written."""
    real = complexes.theta_certificate

    def invalid(*args):
        return dataclasses.replace(real(*args), equivariance_checked=False)

    monkeypatch.setattr(cli, "theta_certificate", invalid)
    monkeypatch.setattr(verify, "theta_certificate", invalid)
    out = tmp_path / "o.json"
    job = _write_job(tmp_path, FOUR_CYCLE_JOB)
    assert main([command, "--input", job, "--output", str(out)]) == 1
    data = json.loads(out.read_text())
    assert data["ok"] is False
    if command == "certify":
        assert data["pairs"] and not any(p["valid"] for p in data["pairs"])
    else:
        section = data["checks"]["theta_certificates"]
        assert not section["ok"] and len(section["invalid"]) == section["pairs_checked"]


def test_exit_code_convexity_witness(tmp_path, capsys, monkeypatch):
    """A convexity witness ends complex with a verification error (exit 1)
    and no result."""
    witness = {"condition": "planted", "detail": "a planted witness"}
    monkeypatch.setattr(complexes, "check_balanced_convex", lambda h, char: witness)
    out = tmp_path / "o.json"
    job = _write_job(tmp_path, FOUR_CYCLE_JOB)
    assert main(["complex", "--input", job, "--output", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "verification" and err["details"] == witness
    assert "a planted witness" in err["message"]
    assert not out.exists()


def test_count_commands_call_psi_through_the_module(tmp_path, monkeypatch):
    """Each count command makes one psi call, looked up as cli.psi when it
    runs, so a tracer that rebinds the module attribute sees it."""
    real, calls = chromatic.psi, []

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "psi", counting)
    job = _write_job(tmp_path, FOUR_CYCLE_JOB)
    for command in ("psi", "orbital", "poly", "orbital-poly"):
        assert main([command, "--input", job, "--output", str(tmp_path / "o")]) == 0
    assert len(calls) == 4


def test_workers_above_one_warns(tmp_path):
    job = _write_job(tmp_path, FOUR_CYCLE_JOB)
    proc = _run(["psi", "--input", job, "--workers", "2"])
    assert proc.returncode == 0
    assert "FutureWarning" in proc.stderr and "deprecated" in proc.stderr
    assert proc.stderr == ("FutureWarning: --workers is deprecated and ignored: "
                           "every command runs serially\n")


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
@pytest.mark.parametrize("option,value", [
    ("--max-ground", "0"), ("--max-ground", "-1"), ("--max-group-order", "-5")])
def test_exit_code_cap_below_one(tmp_path, capsys, command, option, value):
    """A cap below 1 is malformed input, refused by name before the job is
    read, never taken as a cap that every job exceeds."""
    job = _write_job(tmp_path, FOUR_CYCLE_JOB)
    out = tmp_path / "o"
    assert main([command, "--input", job, "--output", str(out), option, value]) == 2
    assert not out.exists()
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "domain"
    assert err["message"] == "%s must be at least 1, got %s" % (option, value)


def test_oracle_color_cap(tmp_path, capsys):
    """k^n color tuples may not exceed max_ground^max_ground: 5^4 > 4^4."""
    job = _write_job(tmp_path, FOUR_CYCLE_JOB)
    argv = ["oracle", "--input", job, "--max-ground", "4", "--output", str(tmp_path / "o")]
    assert main(argv + ["--colors", "5"]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "resource_cap"
    assert err["message"] == "oracle color cap exceeded: 5^4 tuples > 4^4"
    assert main(argv + ["--colors", "4"]) == 0


def test_verify_and_oracle_share_the_color_cap(tmp_path, capsys):
    """verify runs the oracle under the rule of oracle: k^n <= cap^cap."""
    job = _write_job(tmp_path, FOUR_CYCLE_JOB)
    out = str(tmp_path / "v.json")
    assert main(["verify", "--input", job, "--output", out, "--colors", "5"]) == 0
    with open(out) as fh:
        assert json.load(fh)["checks"]["oracle"]["total_colorings"] == 260
    messages = []
    for command in ("verify", "oracle"):
        assert main([command, "--input", job, "--output", out,
                     "--max-ground", "4", "--colors", "5"]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "resource_cap"
        messages.append(err["message"])
    assert messages == ["oracle color cap exceeded: 5^4 tuples > 4^4"] * 2


def test_parser_built_once_per_process(tmp_path, monkeypatch):
    build, builds = cli.build_parser, []

    def counting():
        builds.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    job = _write_job(tmp_path, FOUR_CYCLE_JOB)
    for name in ("a.json", "b.json"):
        assert main(["psi", "--input", job, "--output", str(tmp_path / name)]) == 0
    assert len(builds) == 1
    cli._parser.cache_clear()


def test_max_ground_override(tmp_path):
    job = {"kind": "graph",
           "structure": {"vertices": list("abcde"),
                         "edges": [["a", "b"]]},
           "character": "chromatic"}
    out = tmp_path / "out.json"
    assert main(["psi", "--input", _write_job(tmp_path, job),
                 "--output", str(out), "--max-ground", "5"]) == 0


def test_missing_character(tmp_path):
    job = {"kind": "graph", "structure": {"vertices": ["a"], "edges": []}}
    proc = _run(["psi", "--input", _write_job(tmp_path, job)])
    assert proc.returncode == 2


def test_incompatible_character(tmp_path):
    job = dict(FOUR_CYCLE_JOB, character="inversion_free")
    proc = _run(["psi", "--input", _write_job(tmp_path, job)])
    assert proc.returncode == 2


def test_fixture_listing_and_all_pass():
    fixtures = load_fixtures()
    assert len(fixtures) >= 9
    names = [f["name"] for f in fixtures]
    assert len(set(names)) == len(names)
    for fx in fixtures:
        ok, diffs, _ = run_fixture(fx)
        assert ok, (fx["name"], diffs)


def test_fixtures_subcommand_exit():
    assert main(["fixtures"]) == 0
    assert main(["fixtures", "--run", "--name", "four-cycle-psi"]) == 0


FIXTURE_KEYS = {"name", "description", "expected_from", "command", "job", "expected"}


def test_fixtures_hold_only_fields_the_runner_or_listing_reads():
    """A fixture field nothing reads would be silently ignored."""
    for fx in load_fixtures():
        assert FIXTURE_KEYS <= set(fx) <= FIXTURE_KEYS | {"notes"}, fx["name"]


def test_refused_fixture_is_one_failure_and_the_run_goes_on(monkeypatch, capsys):
    """A fixture whose command is refused is a FAIL with its exit code and
    message, not a traceback; the next fixture still runs, and the run
    exits 1."""
    bad = load_fixtures("four-cycle-psi")[0]
    bad["job"]["character"] = "zeta_bad"
    fixtures = [bad] + load_fixtures("bowtie-zeta")
    monkeypatch.setattr(cli, "load_fixtures", lambda name=None: fixtures)
    assert main(["fixtures", "--run"]) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [
        "FAIL four-cycle-psi",
        "     exit 2: unknown character 'zeta_bad'",
        "PASS bowtie-zeta",
    ]
    assert captured.err == ""
    ok, diffs, result = run_fixture(bad)
    assert (ok, diffs) == (False, ["exit 2: unknown character 'zeta_bad'"])
    assert result == {"schema": "1", "error": "domain",
                      "message": "unknown character 'zeta_bad'"}


def test_fixtures_run_creates_no_temporary_file(monkeypatch, capsys):
    """Each fixture runs in this process, its result kept in memory."""
    def refuse(*args, **kwargs):
        raise AssertionError("fixtures --run made a temporary file")

    for name in ("NamedTemporaryFile", "mkstemp", "TemporaryDirectory"):
        monkeypatch.setattr(tempfile, name, refuse)
    assert main(["fixtures", "--run"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [l.split()[0] for l in lines if not l.startswith(" ")] == ["PASS"] * 14


def test_fixtures_run_writes_its_report_to_output(tmp_path, capsys):
    """With --output, fixtures --run writes there exactly the lines it
    prints without it, and prints nothing."""
    assert main(["fixtures", "--run", "--name", "four-cycle-psi"]) == 0
    printed = capsys.readouterr().out
    assert printed.startswith("PASS four-cycle-psi\n")
    out = tmp_path / "report.txt"
    assert main(["fixtures", "--run", "--name", "four-cycle-psi", "--output", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text() == printed


def test_fixtures_run_output_in_a_missing_directory(tmp_path, capsys):
    out = str(tmp_path / "absent" / "report.txt")
    assert main(["fixtures", "--run", "--output", out]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "domain"
    assert err["message"] == "cannot write %s: No such file or directory" % out


def test_fixtures_load_from_a_zipped_package(tmp_path):
    """Imported from a zip archive, with os.listdir raising as it does for
    a path inside one, the package still loads every bundled fixture."""
    package = os.path.dirname(cli.__file__)
    archive = tmp_path / "hopfchrom.zip"
    with zipfile.ZipFile(archive, "w") as zf:
        for folder, _, names in os.walk(package):
            for name in names:
                if name.endswith((".py", ".json")):
                    path = os.path.join(folder, name)
                    zf.write(path, os.path.relpath(path, os.path.dirname(package)))
    code = ("import json, os, sys; import hopfchrom.cli as c\n"
            "assert '.zip' in c.__file__, c.__file__\n"
            "def no_listdir(path='.'): raise NotADirectoryError(path)\n"
            "os.listdir = no_listdir\n"
            "json.dump(c.load_fixtures(), sys.stdout)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(archive)))
    assert proc.returncode == 0, proc.stderr
    bundled = load_fixtures()
    assert len(bundled) == 14
    assert json.loads(proc.stdout) == bundled
