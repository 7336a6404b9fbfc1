"""The runner of scripts/cap_checks.py cannot swallow a failure."""

import os
import re
import subprocess
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
