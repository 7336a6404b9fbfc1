"""The runner of scripts/cap_checks.py cannot swallow a failure, and the
checks run without pytest."""

import ast
import json
import os
import re
import subprocess
import sys
import time

import cap_checks


def passes():
    print("stub pid %d" % os.getpid())


def raises():
    print("stub pid %d" % os.getpid())
    raise AssertionError("this stub always fails")


def test_runner_runs_every_check_in_a_child_and_exits_1_on_a_failure(capfd, monkeypatch):
    """Each check runs in a child of its own, a check after a failing one
    still runs, the failing one is named, and the run exits 1."""
    started, run = [], subprocess.run

    def record(argv, **kwargs):
        started.append(argv)
        return run(argv, **kwargs)

    monkeypatch.setattr(subprocess, "run", record)
    start = time.perf_counter()
    assert cap_checks.run([passes, raises, cap_checks.twenty_labels]) == 1
    assert time.perf_counter() - start < 5
    assert [argv[-1] for argv in started] == [
        "import test_cap_checks as m; m.passes()", "import test_cap_checks as m; m.raises()",
        "import cap_checks as m; m.twenty_labels()"]
    out, err = capfd.readouterr()
    pids = [int(p) for p in re.findall(r"^stub pid (\d+)$", out, re.M)]
    assert len(set(pids)) == 2 and os.getpid() not in pids
    assert re.search(r"^20 labels, one face: JSON in ", out, re.M)
    status = [line.split()[:2] for line in out.splitlines() if line.startswith(("PASS", "FAIL"))]
    assert status == [["PASS", "passes"], ["FAIL", "raises"], ["PASS", "twenty_labels"]]
    assert out.splitlines()[-1] == "failed: raises"
    assert "AssertionError: this stub always fails" in err


def test_every_module_the_checks_import_loads_without_pytest():
    """Each module scripts/cap_checks.py imports, at its top or inside a
    check, loads in a child where importing pytest fails, so that the
    checks run under an interpreter without the test runner."""
    with open(cap_checks.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    modules = sorted({a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names}
                     | {n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)})
    assert {"dump_reference", "label_reference", "peel_reference", "refusal_jobs",
            "hopfchrom.cli", "jobgen", "cap_checks"} <= set(modules)
    code = "import sys\nsys.modules['pytest'] = None\n" + "".join(
        "import %s\n" % m for m in modules)
    proc = subprocess.run([sys.executable, "-c", code], env=cap_checks.child_env(),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_peak_is_the_checks_own_not_that_of_the_process_that_started_it():
    """peak_mb in a fresh interpreter started by one that holds 100 MB
    reads the fresh interpreter's own peak."""
    code = ("import subprocess, sys\n"
            "ballast = b'x' * (100 << 20)\n"
            "sys.exit(subprocess.run([sys.executable, '-c', "
            "'import cap_checks; print(cap_checks.peak_mb())']).returncode)\n")
    proc = subprocess.run([sys.executable, "-c", code], env=cap_checks.child_env(),
                          capture_output=True, text=True, check=True)
    assert float(proc.stdout) < 60, proc.stdout


def test_cli_peak_is_the_childs_own_not_that_of_the_process_that_started_it():
    """cli, called from a process that holds 100 MB, reports the peak of
    the command-line child it starts, not the caller's, with the exit
    code and output of `python -m hopfchrom.cli`."""
    code = ("import json, cap_checks\n"
            "ballast = b'x' * (100 << 20)\n"
            "code, out, err, wall, peak = cap_checks.cli('fixtures')\n"
            "print(json.dumps([code, out.decode(), err.decode(), peak]))\n")
    env = cap_checks.child_env()
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True)
    code, out, err, peak = json.loads(proc.stdout)
    direct = subprocess.run([sys.executable, "-m", "hopfchrom.cli", "fixtures"], env=env,
                            capture_output=True, text=True)
    assert [code, out, err] == [direct.returncode, direct.stdout, direct.stderr]
    assert peak < 60, peak
