"""One workload in a fresh interpreter.

Usage: python3 worker.py MANIFEST RESULT

A closed-loop client with one outstanding job: it calls
``hopfchrom.cli.main`` once per job, in the manifest's order, cycling
until every job ran once and the manifest's ``seconds`` have passed.
Each execution records its latency, exit code, any exception, and the
digest and size of the output file.  With ``trace`` set, the untraced
loop and a second, traced loop get half the seconds each, and the spans
of the traced loop go into RESULT too.
"""

import hashlib
import json
import os
import resource
import sys
import time


def run_jobs(main, jobs, seconds, tracer=None):
    """Execute jobs in a closed loop; returns one record per execution."""
    records = []
    start = time.perf_counter()
    while len(records) < len(jobs) or time.perf_counter() - start < seconds:
        job = jobs[len(records) % len(jobs)]
        if os.path.exists(job["output"]):
            os.remove(job["output"])
        if tracer is not None:
            tracer.job, tracer.execution = job["id"], len(records)
            tracer.counts.clear()
        error = None
        t0 = time.perf_counter()
        try:
            code = main(job["argv"])
        except (Exception, SystemExit) as exc:  # a job that raises is a failed job
            code, error = None, repr(exc)
        elapsed = time.perf_counter() - t0
        record = {"job": job["id"], "seconds": elapsed, "code": code, "error": error,
                  "sha256": None, "bytes": 0}
        if os.path.exists(job["output"]):
            with open(job["output"], "rb") as fh:
                data = fh.read()
            record["sha256"] = hashlib.sha256(data).hexdigest()
            record["bytes"] = len(data)
        if tracer is not None:
            record["counts"] = dict(tracer.counts)
        records.append(record)
    return records


def main(manifest_path, result_path):
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    src = os.path.join(manifest["root"], "src")
    sys.path.insert(0, src)
    from hopfchrom import cli
    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit("hopfchrom imported from %s, not from %s" % (cli.__file__, src))

    jobs, seconds = manifest["jobs"], manifest["seconds"]
    if manifest["trace"]:
        seconds /= 2
    result = {"untraced": run_jobs(cli.main, jobs, seconds)}
    if manifest["trace"]:
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)
        result["traced"] = run_jobs(cli.main, jobs, seconds, tracer)
        result["spans"] = tracer.spans
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
