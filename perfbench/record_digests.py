"""Record the output digests that run.py checks against.

Usage (from the root of a source checkout): python3 perfbench/record_digests.py

Runs every job of every workload once at the default seed and rewrites
digests.json.  Only needed when the benchmark gains a job: hopfchrom's
results are meant to stay byte-identical, so a digest that stops matching
is a regression to fix, not a file to re-record.
"""

import json
import os
import shutil
import sys

import run
import jobgen


def main():
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    digests = {}
    for workload in jobgen.WORKLOADS:
        work, jobs = run.prepare(workload, jobgen.CORPUS_SEED, "record-" + workload)
        result = run.run_worker(work, jobs, 0, 0, os.path.join(work, "result.json"),
                                timeout=run.DEADLINE_S)
        bad = [r for r in result["untraced"] if r["code"] != 0 or r["error"] is not None]
        if bad:
            raise SystemExit("job failed while recording: %r" % bad[0])
        digests[workload] = {r["job"]: r["sha256"] for r in result["untraced"]}
        shutil.rmtree(work)
    with open(os.path.join(run.HERE, "digests.json"), "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
