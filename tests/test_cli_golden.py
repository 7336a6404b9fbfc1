"""Golden bytes of every command variant on every bundled fixture job.

cli_golden.json holds, for each variant and fixture job, the sha256 of
stdout and of stderr and the exit code of ``main``.  It pins the full
output of oracle, verify and certify --pairs covering, which the fixture
subsets do not.  After a change that is meant to alter output, record
the digests again with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import hashlib
import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest

from hopfchrom.cli import load_fixtures, main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_golden.json")

VARIANTS = {
    "psi": ["psi"],
    "orbital": ["orbital"],
    "poly": ["poly"],
    "orbital-poly": ["orbital-poly"],
    "complex": ["complex"],
    "certify": ["certify"],
    "certify-covering": ["certify", "--pairs", "covering"],
    "verify": ["verify"],
    "verify-no-oracle": ["verify", "--no-oracle"],
    "oracle": ["oracle"],
    "oracle-colors-3": ["oracle", "--colors", "3"],
}


def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_variant(argv, job):
    """[stdout sha256, stderr sha256, exit code] of main on one job."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "job.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(job, fh)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv[:1] + ["--input", path] + argv[1:])
    return [_sha(out.getvalue()), _sha(err.getvalue()), code]


def record():
    return {"%s/%s" % (variant, fx["name"]): run_variant(argv, fx["job"])
            for variant, argv in VARIANTS.items() for fx in load_fixtures()}


def _golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def test_golden_covers_every_variant_and_fixture():
    assert len(load_fixtures()) == 14
    want = {"%s/%s" % (v, fx["name"]) for v in VARIANTS for fx in load_fixtures()}
    assert set(_golden()) == want


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_golden_bytes(variant):
    golden = _golden()
    for fx in load_fixtures():
        key = "%s/%s" % (variant, fx["name"])
        assert run_variant(VARIANTS[variant], fx["job"]) == golden[key], key


if __name__ == "__main__":
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(record(), fh, indent=1, sort_keys=True)
        fh.write("\n")
