"""hopfchrom benchmark: one workload, one seed, one run.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload count --seed 1 --seconds 30 --trace 0

Workloads (see jobgen.py for the jobs):

- count: count-only commands (psi, orbital, poly, orbital-poly) on
  ground size 7; never touches ``complexes``.
- corpus-verify: ``verify`` on the 192-instance acceptance corpus; the
  many-small-jobs route.
- complex-certify: ``complex`` on C6 under D6 and ``certify`` on the
  octahedron under Z6; lists and validates faces instead of counting.

All job files are written from the seed before anything is timed.  The
jobs then run in one fresh interpreter (worker.py), one at a time, each
with ``--workers 1``.  No workload varies ``--workers``: the option is
not clamped to the core count yet and starts every worker process at
once, and on a 2-core machine parallel runs would measure contention.

Every execution must exit 0, and its output bytes must match the digest
recorded in digests.json; every ``ok`` field in an output must be true.
A relabelled corpus instance gives the same report bytes, because a
passing report names no label, so the digests hold at every seed.  A
failed execution counts in ``failed`` and in the printed failed_ratio,
and makes the run exit 1.

Printed metrics: setup_s (median over fresh interpreters of start until
``hopfchrom.cli`` is imported), run_s (sum over jobs of each job's
median latency), job_p50_s and job_p90_s (over those per-job medians),
peak_rss_mb (of the worker), failed_ratio, and each count and
complex-certify job's latency by name.  The last stdout line is one
JSON object: correct, attempted, failed and metrics.  With
``--trace 0`` its metrics are the end-to-end ones above except
failed_ratio and the per-job latencies.  With ``--trace 1`` the seconds
are split between an untraced loop and a traced one, and its metrics are
per layer (spans.py), per pass of the workload, with the per-job
latencies of the untraced loop and the tracing overhead (traced run_s
minus untraced run_s).  A run record with the environment (CPU count,
Python, platform, git commit) goes to ``.bench_build/perfbench/results/``.
Exit status: 0 correct, 1 a job failed or a layer recorded no span,
2 not run from a source checkout.

Out of reach today, to be added as workloads once the program gets there:
``complex`` on C7 (unfinished after 15 minutes on a 2-core machine),
listing the proper compositions of C8, the certificate rank at n = 7,
and the oracle at n = 8.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict

import jobgen
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_build", "perfbench")
SETUP_STARTS = 15
DEADLINE_S = 170
PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); import hopfchrom.cli; "
         "print(repr(time.monotonic()))")

# Per-job latencies reported by name, on the workload that runs the job.
NAMED_JOBS = ("c7_psi", "u37_orbital", "hyper7_poly", "assoc5_orbital_poly",
              "poset7_psi", "c6_complex", "octa_certify")


def setup_seconds():
    """Median over fresh interpreters of start until hopfchrom.cli is imported."""
    samples = []
    for _ in range(SETUP_STARTS):
        t0 = time.monotonic()
        out = subprocess.run([sys.executable, "-c", PROBE, os.path.join(ROOT, "src")],
                             check=True, capture_output=True, text=True, timeout=60)
        samples.append(float(out.stdout) - t0)
    return statistics.median(samples)


def prepare(workload, seed, tag):
    """Write the job files into a fresh work directory; returns it and the
    worker's job list."""
    work = os.path.join(WORK, tag)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    jobs = []
    for job_id, command, job in jobgen.build_jobs(workload, seed):
        path = os.path.join(work, job_id + ".job.json")
        with open(path, "wb") as fh:
            fh.write(jobgen.job_bytes(job))
        output = os.path.join(work, job_id + ".out.json")
        jobs.append({"id": job_id, "output": output,
                     "argv": [command, "--input", path, "--output", output,
                              "--workers", "1"]})
    return work, jobs


def run_worker(work, jobs, seconds, trace, result_path, timeout):
    manifest = os.path.join(work, "manifest.json")
    with open(manifest, "w") as fh:
        json.dump({"root": ROOT, "seconds": seconds, "trace": trace, "jobs": jobs}, fh)
    subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), manifest, result_path],
                   check=True, timeout=timeout)
    with open(result_path) as fh:
        return json.load(fh)


def check_executions(records, jobs, digests):
    """Failure reason per failed execution; outputs of passing jobs are
    also parsed once for their ``ok`` fields."""
    outputs = {j["id"]: j["output"] for j in jobs}
    failures = []
    parsed = set()
    for r in records:
        job = r["job"]
        if r["error"] is not None:
            failures.append("%s raised %s" % (job, r["error"]))
        elif r["code"] != 0:
            failures.append("%s exited %s" % (job, r["code"]))
        elif job not in digests:
            failures.append("%s has no recorded digest" % job)
        elif r["sha256"] != digests[job]:
            failures.append("%s output digest %s, recorded %s" % (job, r["sha256"], digests[job]))
        elif job not in parsed:
            parsed.add(job)
            with open(outputs[job]) as fh:
                if not _all_ok(json.load(fh)):
                    failures.append("%s output has an ok field that is not true" % job)
    return failures


def _all_ok(doc):
    if isinstance(doc, dict):
        return doc.get("ok", True) is True and all(_all_ok(v) for v in doc.values())
    if isinstance(doc, list):
        return all(_all_ok(v) for v in doc)
    return True


def per_job(records):
    """Median latency of each job over its executions."""
    by_job = defaultdict(list)
    for r in records:
        by_job[r["job"]].append(r["seconds"])
    return {job: statistics.median(v) for job, v in by_job.items()}


def p90(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def end_to_end(records, setup_s, peak_rss_kb):
    latency = per_job(records)
    values = sorted(latency.values())
    return {
        "setup_s": (setup_s, "s"),
        "run_s": (sum(values), "s"),
        "job_p50_s": (statistics.median(values), "s"),
        "job_p90_s": (p90(values), "s"),
        "peak_rss_mb": (peak_rss_kb / 1024.0, "MB"),
    }


def per_layer(workload, result):
    """Per-pass layer metrics from the traced loop, plus the per-job
    latencies of the untraced loop and the tracing overhead.  Returns
    (metrics, names of expected layers that recorded no span)."""
    traced = result["traced"]
    execs_of = Counter(r["job"] for r in traced)
    job_of = {i: r["job"] for i, r in enumerate(traced)}
    totals = Counter()
    for (execution, layer), seconds in spans.self_times(result["spans"]).items():
        totals[layer + "_s"] += seconds / execs_of[job_of[execution]]
    for r in traced:
        for name, value in r["counts"].items():
            totals[name] += value / execs_of[r["job"]]
        totals["jobio.output_bytes"] += r["bytes"] / execs_of[r["job"]]

    metrics = {}
    for module, function, layer, counter, expected, moves in spans.LAYERS:
        metrics[layer + "_s"] = (totals[layer + "_s"], "s")
    for name in spans.COUNTS:
        metrics[name] = (totals[name], "count")
    for name, (num, den, layer) in spans.RATIOS.items():
        metrics[name] = (totals[num] / totals[den] if totals[den] else 0.0, "ratio")
    metrics["jobio.output_bytes"] = (totals["jobio.output_bytes"], "bytes")

    untraced = per_job(result["untraced"])
    overhead = sum(per_job(traced).values()) - sum(untraced.values())
    metrics["trace.overhead_s"] = (overhead, "s")
    for job in NAMED_JOBS:
        metrics[job + "_s"] = (untraced.get(job, 0.0), "s")

    seen = {span[0] for span in result["spans"]}
    missing = []
    for module, function, layer, counter, expected, moves in spans.LAYERS:
        if workload not in expected:
            continue
        fed = [n for n, l in spans.COUNTS.items() if l == layer]
        fed += [n for n, v in spans.RATIOS.items() if v[2] == layer]
        if layer not in seen or any(metrics[n][0] <= 0 for n in [layer + "_s"] + fed):
            missing.append(layer)
    return metrics, missing


def environment():
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "--git-dir", os.path.join(ROOT, ".git"),
                                  "rev-parse", "HEAD"], capture_output=True, text=True)
        except OSError:
            out = None
        if out is not None and out.returncode == 0:
            commit = out.stdout.strip()
    return {"cpu_count": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform(), "commit": commit}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=jobgen.WORKLOADS)
    ap.add_argument("--seed", type=int, default=jobgen.CORPUS_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    start = time.monotonic()
    if not os.path.isfile(os.path.join(ROOT, "src", "hopfchrom", "cli.py")):
        print("perfbench: no hopfchrom sources under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    with open(os.path.join(HERE, "digests.json")) as fh:
        digests = json.load(fh)[args.workload]

    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    results = os.path.join(WORK, "results")
    os.makedirs(results, exist_ok=True)
    work, jobs = prepare(args.workload, args.seed, tag)
    setup_s = setup_seconds()
    result = run_worker(work, jobs, args.seconds, args.trace,
                        os.path.join(results, tag + ".worker.json"),
                        timeout=DEADLINE_S - (time.monotonic() - start))

    records = result["untraced"] + result.get("traced", [])
    failures = check_executions(records, jobs, digests)
    shutil.rmtree(work)
    e2e = end_to_end(result["untraced"], setup_s, result["peak_rss_kb"])
    latency = per_job(result["untraced"])
    metrics = e2e
    missing = []
    if args.trace:
        metrics, missing = per_layer(args.workload, result)

    env = environment()
    print("workload %s  seed %d  trace %d  jobs %d  executions %d"
          % (args.workload, args.seed, args.trace, len(jobs), len(records)))
    print("environment " + " ".join("%s=%s" % kv for kv in sorted(env.items())))
    for name, (value, unit) in e2e.items():
        print("%-22s %r %s" % (name, value, unit))
    print("%-22s %r ratio (%d of %d executions)"
          % ("failed_ratio", len(failures) / len(records), len(failures), len(records)))
    if args.trace:
        for name, (value, unit) in metrics.items():
            print("%-36s %r %s" % (name, value, unit))
    else:
        for job in NAMED_JOBS:
            if job in latency:
                print("%-22s %r s" % (job + "_s", latency[job]))
    for f in failures:
        print("FAILED " + f)
    for m in missing:
        print("FAILED layer %s recorded no span or a zero metric" % m)

    line = {"correct": not failures and not missing, "attempted": len(records), "failed": len(failures),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    with open(os.path.join(results, tag + ".json"), "w") as fh:
        json.dump({"environment": env, "per_job_s": latency, "failures": failures,
                   "layers_missing": missing,
                   "end_to_end": {k: v for k, (v, u) in e2e.items()}, "result": line},
                  fh, indent=1, sort_keys=True)
    print(json.dumps(line, sort_keys=True))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
