"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import hashlib
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import jobgen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402

DIGEST_OF_JOBS = (
    "import hashlib, sys; sys.path[:0] = [%r, %r]; import jobgen; "
    "print(hashlib.sha256(b''.join(jobgen.job_bytes(j) for w in jobgen.WORKLOADS "
    "for _, _, j in jobgen.build_jobs(w, 7))).hexdigest())"
    % (os.path.join(ROOT, "src"), HERE))


def all_job_bytes(seed):
    return [(w, i, c, jobgen.job_bytes(j))
            for w in jobgen.WORKLOADS for i, c, j in jobgen.build_jobs(w, seed)]


def test_job_bytes_repeat_across_generations_and_hash_seeds():
    assert all_job_bytes(7) == all_job_bytes(7)
    digests = set()
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        out = subprocess.run([sys.executable, "-c", DIGEST_OF_JOBS], env=env,
                             capture_output=True, text=True, check=True)
        digests.add(out.stdout.strip())
    assert digests == {hashlib.sha256(b"".join(b for *_, b in all_job_bytes(7))).hexdigest()}


def test_seed_relabels_corpus_and_keeps_fixed_jobs():
    a = {i: b for w, i, c, b in all_job_bytes(7)}
    b = {i: b for w, i, c, b in all_job_bytes(8)}
    assert a.keys() == b.keys()
    assert a["c7_psi"] == b["c7_psi"]
    corpus = [i for i in a if "-" in i]
    assert sum(a[i] != b[i] for i in corpus) > len(corpus) // 2


def test_relabel_keeps_a_valid_job():
    import random
    from hopfchrom import jobio
    for _, _, job in jobgen.build_jobs("count", 7):
        h, char, group, _ = jobio.load_job(jobgen.relabel(job, random.Random(3)))
        assert group.order > 1


def test_tampered_digest_counts_as_failure(tmp_path):
    from hopfchrom import cli
    (job_id, command, job), = [j for j in jobgen.build_jobs("count", 7) if j[0] == "poset7_psi"]
    path, output = str(tmp_path / "job.json"), str(tmp_path / "out.json")
    with open(path, "wb") as fh:
        fh.write(jobgen.job_bytes(job))
    jobs = [{"id": job_id, "output": output,
             "argv": [command, "--input", path, "--output", output, "--workers", "1"]}]
    records = worker.run_jobs(cli.main, jobs, 0)
    with open(os.path.join(HERE, "digests.json")) as fh:
        digests = json.load(fh)["count"]
    assert run.check_executions(records, jobs, digests) == []
    tampered = dict(digests, poset7_psi="0" * 64)
    assert len(run.check_executions(records, jobs, tampered)) == 1
    records[0]["code"] = 1
    assert len(run.check_executions(records, jobs, digests)) == 1


def test_ok_false_anywhere_fails():
    assert run._all_ok({"ok": True, "checks": {"a": {"ok": True}}})
    assert not run._all_ok({"ok": True, "checks": {"a": {"ok": False}}})
    assert not run._all_ok({"pairs": [{"ok": 1}]})


def test_self_time_subtracts_direct_children():
    spans_ = [["a", 0.0, 10.0, None, "j", 0],
              ["b", 1.0, 4.0, 0, "j", 0],
              ["c", 2.0, 3.0, 1, "j", 0]]
    times = spans.self_times(spans_)
    assert times[(0, "a")] == pytest.approx(7.0)
    assert times[(0, "b")] == pytest.approx(2.0)
    assert times[(0, "c")] == pytest.approx(1.0)


TRACED_VERIFY = """
import sys
sys.path[:0] = [%r, %r]
import spans
from hopfchrom import chromatic, cli, complexes, verify
original = chromatic.psi
tracer = spans.Tracer()
spans.install(tracer)
assert verify.psi is chromatic.psi is cli.psi is complexes.psi is not original
assert complexes.proper_compositions is chromatic.proper_compositions
tracer.job, tracer.execution = "j", 0
assert cli.main(["verify", "--input", sys.argv[1], "--output", sys.argv[2]]) == 0
print(" ".join(sorted({s[0] for s in tracer.spans})))
"""


def test_install_rebinds_every_imported_name(tmp_path):
    job = {"kind": "graph", "character": "chromatic", "group": ["(a b c)"],
           "structure": {"vertices": ["a", "b", "c"],
                         "edges": [["a", "b"], ["b", "c"], ["a", "c"]]}}
    path = tmp_path / "job.json"
    path.write_bytes(jobgen.job_bytes(job))
    out = subprocess.run([sys.executable, "-c", TRACED_VERIFY % (os.path.join(ROOT, "src"), HERE),
                          str(path), str(tmp_path / "out.json")],
                         capture_output=True, text=True, check=True)
    assert set(out.stdout.split()) == {layer for _, _, layer, *_ in spans.LAYERS}


def test_benchmark_json_names_the_metrics_run_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(jobgen.WORKLOADS)
    e2e = run.end_to_end([{"job": "j", "seconds": 1.0}], 0.1, 1024)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == {
        k: u for k, (v, u) in e2e.items()}
    result = {"untraced": [], "traced": [], "spans": []}
    layer, _ = run.per_layer("count", result)
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {
        k: u for k, (v, u) in layer.items()}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "count",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
