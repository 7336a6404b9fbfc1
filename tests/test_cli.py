import json
import subprocess
import sys

import pytest

from hopfchrom.cli import load_fixtures, main, run_fixture
from hopfchrom.complexes import comparable_pairs

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


def test_workers_above_one_warns(tmp_path):
    job = _write_job(tmp_path, FOUR_CYCLE_JOB)
    proc = _run(["psi", "--input", job, "--workers", "2"])
    assert proc.returncode == 0
    assert "FutureWarning" in proc.stderr and "deprecated" in proc.stderr


def test_oracle_color_cap(tmp_path, capsys):
    """k^n color tuples may not exceed max_ground^max_ground: 5^4 > 4^4."""
    job = _write_job(tmp_path, FOUR_CYCLE_JOB)
    argv = ["oracle", "--input", job, "--max-ground", "4", "--output", str(tmp_path / "o")]
    assert main(argv + ["--colors", "5"]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "resource_cap"
    assert err["message"] == "oracle color cap exceeded: 5^4 tuples > 4^4"
    assert main(argv + ["--colors", "4"]) == 0


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
