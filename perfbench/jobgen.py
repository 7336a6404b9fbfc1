"""Job files for the benchmark workloads, generated from a seed.

Every job is a (job id, subcommand, job dict) triple.  The dicts are
written with sorted keys and no whitespace choices left to chance, so the
same seed gives the same bytes under any PYTHONHASHSEED.

count and complex-certify are fixed instances written out here; the seed
does not change them.  corpus-verify is the default acceptance corpus,
``randgen.corpus(per_kind=24, seed=20260822)``, with the labels of every
instance permuted by the seed.  A fresh corpus per seed would add the
corpus's own variation to the machine's: one pass took from 12.6 s to
17.5 s across three randgen seeds (2-core x86-64 Linux, Python 3.11.7),
while a relabelled instance does the same work.  Jobs run in the same
order at every seed, so the same jobs meet the package's caches cold.
"""

import json
import random
import re
from itertools import combinations

CORPUS_SEED = 20260822
CORPUS_PER_KIND = 24
LETTERS = "abcdefg"


def _cycle_graph(n):
    ground = LETTERS[:n]
    return {"vertices": list(ground),
            "edges": [sorted([ground[i], ground[(i + 1) % n]]) for i in range(n)]}


def _dihedral(n):
    """Rotation and the reflection fixing the first vertex of an n-cycle."""
    ground = LETTERS[:n]
    flip = "".join("(%s %s)" % (ground[i], ground[n - i]) for i in range(1, (n + 1) // 2))
    return ["(%s)" % " ".join(ground), flip]


def _count_jobs():
    from hopfchrom.jobio import structure_to_json
    from hopfchrom.structures import loday_associahedron

    g7 = list(LETTERS)
    return [
        ("c7_psi", "psi",
         {"kind": "graph", "structure": _cycle_graph(7), "character": "chromatic",
          "group": _dihedral(7)}),
        ("u37_orbital", "orbital",
         {"kind": "matroid", "character": "chromatic", "group": ["(%s)" % " ".join(g7)],
          "structure": {"ground": g7, "bases": [list(b) for b in combinations(g7, 3)]}}),
        ("hyper7_poly", "poly",
         {"kind": "hypergraph", "character": "unique_local_max",
          "group": ["(%s)" % " ".join(g7)],
          "structure": {"ground": g7,
                        "edges": [sorted(g7[(i + j) % 7] for j in range(3))
                                  for i in range(7)]}}),
        ("assoc5_orbital_poly", "orbital-poly",
         {"kind": "gen_permutohedron", "character": "vertex_generic",
          "structure": structure_to_json(loday_associahedron(5)),
          "group": ["(1 5)(2 4)"]}),
        ("poset7_psi", "psi",
         {"kind": "poset", "character": "zeta",
          "structure": {"ground": g7, "relations": [["a", "b"], ["c", "d"], ["e", "f"]]},
          "group": ["(a c e)(b d f)", "(a c)(b d)"]}),
    ]


def _complex_certify_jobs():
    g6 = LETTERS[:6]
    parts = ({"a", "b"}, {"c", "d"}, {"e", "f"})
    octahedron = [[x, y] for x, y in combinations(g6, 2) if {x, y} not in parts]
    return [
        ("c6_complex", "complex",
         {"kind": "graph", "structure": _cycle_graph(6), "character": "chromatic",
          "group": _dihedral(6)}),
        ("octa_certify", "certify",
         {"kind": "graph", "character": "chromatic", "group": ["(a c e b d f)"],
          "structure": {"vertices": list(g6), "edges": octahedron}}),
    ]


_LABEL = re.compile(r"[^()\s]+")


def relabel(job, rng):
    """The same job with its ground labels permuted at random."""
    s = job["structure"]
    ground = s["vertices"] if job["kind"] == "graph" else s["ground"]
    shuffled = list(ground)
    rng.shuffle(shuffled)
    to = dict(zip(ground, shuffled))

    def sub(value):
        if isinstance(value, list):
            return [sub(v) for v in value]
        return to[value]

    if job["kind"] == "gen_permutohedron":
        # coordinates stay aligned with the listed ground order
        structure = dict(s, ground=sub(s["ground"]))
    else:
        structure = {k: sub(v) for k, v in s.items()}
    group = [_LABEL.sub(lambda m: to[m.group()], g) for g in job["group"]]
    return dict(job, structure=structure, group=group)


def _corpus_jobs(rng):
    from hopfchrom import jobio, randgen

    jobs = []
    for name, h, char, group in randgen.corpus(per_kind=CORPUS_PER_KIND, seed=CORPUS_SEED):
        job = {"kind": h.kind, "structure": jobio.structure_to_json(h),
               "character": str(char),
               "group": [g.cycle_string() for g in group.generators]}
        jobs.append((name, "verify", relabel(job, rng)))
    return jobs


WORKLOADS = ("count", "corpus-verify", "complex-certify")


def build_jobs(workload, seed):
    """The workload's jobs for this seed, in the order they run."""
    if workload == "count":
        return _count_jobs()
    if workload == "complex-certify":
        return _complex_certify_jobs()
    if workload == "corpus-verify":
        return _corpus_jobs(random.Random(seed))
    raise ValueError("unknown workload %r" % workload)


def job_bytes(job):
    return (json.dumps(job, sort_keys=True, separators=(",", ":")) + "\n").encode()
