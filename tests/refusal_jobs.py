"""The job files of the refusal checks: jobs the command line must refuse,
shared by tests/test_refusals.py, tests/test_reachability.py and
scripts/cap_checks.py, which runs without pytest, so nothing here
imports it."""

import json
import os
from itertools import combinations

# Jobs refused with exit 2; each has several offenders, so a check that
# names the first one it meets in a frozenset prints a hash-dependent text.
BAD_JOBS = {
    "cyclic_relations": {"kind": "poset", "ground": list("abcdef"),
                         "relations": [["b", "c"], ["c", "d"], ["d", "b"], ["e", "f"],
                                       ["f", "e"], ["a", "b"]]},
    "cyclic_arcs": {"kind": "mixed_graph", "ground": list("abcdef"), "edges": [["a", "b"]],
                    "arcs": [["c", "d"], ["d", "e"], ["e", "c"], ["f", "b"], ["b", "f"]]},
    "cyclic_relations1": {"kind": "double_poset", "ground": list("abcdef"),
                          "relations1": [["e", "f"], ["f", "e"], ["c", "d"], ["d", "c"]],
                          "relations2": []},
    "non_matroid": {"kind": "matroid", "ground": list("abcdefgh"),
                    "bases": [["a", "b"], ["c", "d"], ["e", "f"], ["g", "h"], ["a", "c"]]},
    "bad_edges": {"kind": "graph", "vertices": list("abc"),
                  "edges": [["c", "x"], ["b", "y"], ["a", "a"], ["a", "w"]]},
    "bad_relations": {"kind": "poset", "ground": list("abc"),
                      "relations": [["c", "x"], ["b", "y"], ["b", "w"]]},
    "bad_bases": {"kind": "matroid", "ground": list("abc"),
                  "bases": [["c", "x"], ["b", "y"], ["b", "w"]]},
    "bad_arcs": {"kind": "mixed_graph", "ground": list("abc"),
                 "arcs": [["c", "x"], ["b", "y"], ["b", "w"]]},
    "bad_undirected": {"kind": "mixed_graph", "ground": list("abc"),
                       "edges": [["c", "x"], ["b", "y"], ["b", "w"]]},
    "bad_faces": {"kind": "simplicial_complex", "ground": list("abc"),
                  "faces": [["c", "x"], ["b", "y", "z"], ["b", "w"]]},
    "repeated_in_cycle": {"kind": "graph", "vertices": list("abcd"), "edges": [["a", "b"]],
                          "group": ["(a b)", "(c b d c b)"]},
    "group_zero": {"kind": "graph", "vertices": list("abcd"), "edges": [["a", "b"]], "group": 0},
    "group_object": {"kind": "graph", "vertices": list("abcd"), "edges": [["a", "b"]],
                     "group": {}},
}

def _uniform(rank, labels):
    return {"kind": "matroid", "ground": list(labels),
            "bases": [list(b) for b in combinations(labels, rank)]}


# Jobs over the default ground cap whose structure or group is slow to
# build: U(6,12) has 924 bases, and Z2^10 acts on 20 labels.
TWENTY = ["v%02d" % i for i in range(20)]
OVER_CAP_JOBS = {
    "u6_12": _uniform(6, ["x%02d" % i for i in range(12)]),
    "edgeless20_z2_10": {"kind": "graph", "vertices": TWENTY, "edges": [],
                         "group": ["(%s %s)" % (TWENTY[i], TWENTY[i + 1])
                                   for i in range(0, 20, 2)]},
}


# Point collections with a coordinate of 12 bytes whose numerator or
# denominator would have ten million digits; Fraction alone takes seconds
# to build one.
HUGE_COORDINATE_JOBS = {
    "huge_numerator": {"kind": "gen_permutohedron", "ground": ["a", "b"],
                       "points": [["1e10000000", "0"], ["0", "1"]]},
    "huge_denominator": {"kind": "gen_permutohedron", "ground": ["a", "b"],
                         "points": [["0", "1"], [1, "1e-10000000"]]},
}


# A 3-vertex path whose group lists the swap of its ends thousands of
# times: a group of order 2, which verify must read as the swap listed
# once, without a product of orders over the copies.
REPEATED_GENERATOR_JOBS = {
    "swap%d" % copies: {"kind": "graph", "vertices": ["a", "b", "c"],
                        "edges": [["a", "c"], ["b", "c"]], "group": ["(a b)"] * copies}
    for copies in (3000, 20000)}


# K7 under Z12 = <(a b c)(d e f g)>, listing its 11 non-identity
# elements, the powers 1 to 11 of (a b c)(d e f g): 11 distinct
# generators whose orders multiply to 214,990,848, past the character
# search cap.
K7 = list("abcdefg")
CHARACTER_CAP_JOB = {
    "kind": "graph", "vertices": K7, "edges": [list(e) for e in combinations(K7, 2)],
    "group": ["(a b c)(d e f g)", "(a c b)(d f)(e g)", "(d g f e)", "(a b c)",
              "(a c b)(d e f g)", "(d f)(e g)", "(a b c)(d g f e)", "(a c b)", "(d e f g)",
              "(a b c)(d f)(e g)", "(a c b)(d g f e)"]}

# A job file of one array nested 200,000 deep, past json's recursion limit.
DEEP_JOB_TEXT = "[" * 200000 + "]" * 200000


def write_jobs(directory, jobs, character="zeta"):
    """Write each job with the character to directory/name.json; returns
    {name: path}."""
    paths = {}
    for name, job in jobs.items():
        paths[name] = os.path.join(str(directory), name + ".json")
        with open(paths[name], "w", encoding="utf-8") as fh:
            json.dump(dict({"character": character}, **job), fh)
    return paths
