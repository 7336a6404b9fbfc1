"""Refusals of the six splitting kinds, of over-cap jobs and of huge
coordinates.

The label-mask checks of structures (one normalizer over SHAPES, one
order closure, basis exchange over masks) against the former checks in
structure_reference, on random relations (cyclic, not closed, closed)
and random base families (matroids and not); the exact text of every
refusal, which names the smallest offender in sorted label order; the
bad-input jobs of the command line under three hash seeds, whose stderr
must not differ; over-cap jobs, which exit 3 before any structure or
group is built; point coordinates whose exponent would build an
integer of millions of digits, which exit 2 before any is built; and
groups that list a generator many times or with identities, which
verify reads as their distinct generators, while distinct generators
whose orders multiply past 10^6 exit 3 at the character search cap."""

import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from itertools import combinations

import pytest

from hopfchrom import jobio, randgen
from hopfchrom.cli import main
from hopfchrom.errors import DomainError
from hopfchrom.structures import (DoublePoset, Graph, Hypergraph, Matroid,
                                  MixedGraph, Poset, SimplicialComplex,
                                  make_double_poset, make_poset)
from refusal_jobs import (BAD_JOBS, CHARACTER_CAP_JOB, DEEP_JOB_TEXT, HUGE_COORDINATE_JOBS,
                          OVER_CAP_JOBS, REPEATED_GENERATOR_JOBS, write_jobs)
from structure_reference import (dfs_arcs, fixpoint_make_poset,
                                 frozenset_exchange, pair_scan_poset)
from test_groups import _relisted

BAD_JOB_MESSAGES = {
    "cyclic_relations": "relations contain a cycle through 'b'",
    "cyclic_arcs": "directed part contains a cycle through 'b'",
    "cyclic_relations1": "relations contain a cycle through 'c'",
    "non_matroid": "bases fail the exchange axiom for ['a', 'b'], ['c', 'd'] at 'a'",
    "bad_edges": "bad edge ['a', 'a']",
    "bad_relations": "bad order pair ('b', 'w')",
    "bad_bases": "basis ['b', 'w'] is not a subset of the ground set",
    "bad_arcs": "bad arc ('b', 'w')",
    "bad_undirected": "bad undirected edge ['b', 'w']",
    "bad_faces": "face ['b', 'w'] is not a subset of the ground set",
    "repeated_in_cycle": "group[1]: label 'c' repeated in cycle notation '(c b d c b)'",
    "group_zero": "group is not a list",
    "group_object": "group is not a list",
}


# ---------------------------------------------------------------------------
# differential tests against the former checks


def _random_relation(rng, ground, loops=False):
    """Ordered pairs of ground labels at a random density, sometimes
    closed first, then sometimes one pair dropped or reversed."""
    pairs = [(a, b) for a in ground for b in ground if loops or a != b]
    density = rng.choice((0.1, 0.2, 0.35, 0.6))
    rel = {p for p in pairs if rng.random() < density}
    if rng.random() < 0.5:
        closed, _ = fixpoint_make_poset(rel)
        rel = set(closed or rel)
        if rel and rng.random() < 0.5:
            a, b = rng.choice(sorted(rel))
            rel.discard((a, b))
            if rng.random() < 0.3:
                rel.add((b, a))
    return frozenset(rel)


def _verdict(build):
    """None when build() returns, else the DomainError's message."""
    try:
        build()
    except DomainError as exc:
        return str(exc)
    return None


def test_make_poset_matches_the_fixpoint_reference():
    """make_poset accepts exactly the acyclic relations, with the closure
    of the fixpoint loop, on relations with and without loops (a, a)."""
    rng = random.Random(17)
    seen = set()
    for _ in range(600):
        ground = tuple("abcdef"[:rng.randint(1, 6)])
        rel = _random_relation(rng, ground, loops=rng.random() < 0.3)
        closed, refusal = fixpoint_make_poset(rel)
        try:
            got = make_poset(ground, rel).less
        except DomainError as exc:
            assert refusal is not None and str(exc).startswith(
                "relations contain a cycle through "), (ground, sorted(rel))
            seen.add("refused")
        else:
            assert refusal is None and got == closed, (ground, sorted(rel))
            seen.add("accepted")
    assert seen == {"accepted", "refused"}


def test_poset_and_double_poset_match_the_pair_scan():
    """Poset accepts a relation, and DoublePoset a pair of relations,
    exactly when the former pair scan accepts each."""
    rng = random.Random(23)
    counts = {"accepted": 0, "cycle": 0, "not closed": 0}
    for _ in range(600):
        ground = tuple("abcdef"[:rng.randint(2, 6)])
        rel1, rel2 = _random_relation(rng, ground), _random_relation(rng, ground)
        got = _verdict(lambda: Poset(ground, rel1))
        assert (got is None) == (pair_scan_poset(rel1) is None), (ground, sorted(rel1))
        counts["accepted" if got is None else "cycle" if "cycle" in got else "not closed"] += 1
        want = pair_scan_poset(rel1) is None and pair_scan_poset(rel2) is None
        got = _verdict(lambda: DoublePoset(ground, rel1, rel2))
        assert (got is None) == want, (ground, sorted(rel1), sorted(rel2))
    assert min(counts.values()) > 40, counts


def test_mixed_graph_arcs_match_the_depth_first_search():
    rng = random.Random(29)
    verdicts = set()
    for _ in range(600):
        ground = tuple("abcdef"[:rng.randint(2, 6)])
        arcs = _random_relation(rng, ground)
        got = _verdict(lambda: MixedGraph(ground, frozenset(), arcs))
        assert (got is None) == (dfs_arcs(ground, arcs) is None), (ground, sorted(arcs))
        verdicts.add(got is None)
    assert verdicts == {True, False}


def _random_families(rng):
    """Base families: random matroids of randgen, uniform matroids, each
    with one basis dropped or one other set of the rank added, and random
    families of equal-size sets."""
    out = []
    for _ in range(150):
        n = rng.randint(4, 6)
        m = randgen.random_matroid(rng, n)
        ground, k = m.ground, rng.randint(2, n - 2)
        uniform = {frozenset(b) for b in combinations(ground, k)}
        out += [(ground, set(m.bases)), (ground, uniform)]
        for family in (set(m.bases), uniform):
            others = [frozenset(b) for b in combinations(ground, len(next(iter(family))))
                      if frozenset(b) not in family]
            if len(family) > 1:
                out.append((ground, family - {rng.choice(sorted(family, key=sorted))}))
            if others:
                out.append((ground, family | {rng.choice(others)}))
        subsets = [frozenset(b) for b in combinations(ground, k)]
        out.append((ground, set(rng.sample(subsets, rng.randint(2, len(subsets) - 1)))))
    return out


def test_matroid_matches_the_frozenset_exchange():
    rng = random.Random(31)
    verdicts = {True: 0, False: 0}
    for ground, bases in _random_families(rng):
        got = _verdict(lambda: Matroid(ground, frozenset(bases)))
        assert (got is None) == (frozenset_exchange(bases) is None), (ground, bases)
        verdicts[got is None] += 1
    assert min(verdicts.values()) > 100, verdicts


# ---------------------------------------------------------------------------
# the exact refusals


ABC, ABCD = tuple("abc"), tuple("abcd")


@pytest.mark.parametrize("build,message", [
    (lambda: Graph(ABC, [("c", "z"), ("b", "x"), ("a", "a")]), "bad edge ['a', 'a']"),
    (lambda: Graph(ABC, [("c", "z"), ("b", "x")]), "bad edge ['b', 'x']"),
    (lambda: Graph(ABC, [("a", "b", "c")]), "bad edge ['a', 'b', 'c']"),
    (lambda: Poset(ABC, [("b", "z"), ("a", "a"), ("b", "a")]), "bad order pair ('a', 'a')"),
    (lambda: Poset(ABC, [("c", "a", "b")]), "bad order pair ('c', 'a', 'b')"),
    (lambda: Poset(ABCD, [("c", "d"), ("d", "c"), ("b", "c"), ("c", "b"), ("b", "d"),
                          ("d", "b")]),
     "order relation contains a cycle through 'b', 'c'"),
    (lambda: Poset(ABCD, [("d", "c"), ("c", "d"), ("c", "c")]), "bad order pair ('c', 'c')"),
    (lambda: Poset(ABCD, [("a", "b"), ("b", "c"), ("c", "d")]),
     "order relation is not transitively closed at ('a', 'c')"),
    (lambda: Poset(ABCD, [("b", "c"), ("c", "d"), ("a", "c"), ("a", "d")]),
     "order relation is not transitively closed at ('b', 'd')"),
    (lambda: make_poset(ABCD, [("d", "c"), ("c", "d")]), "relations contain a cycle through 'c'"),
    (lambda: make_poset(ABC, [("b", "b"), ("c", "a"), ("a", "c")]),
     "relations contain a cycle through 'a'"),
    (lambda: make_poset(ABC, [("c", "c")]), "relations contain a cycle through 'c'"),
    (lambda: make_poset(ABC, [("c", "c"), ("b", "z")]), "bad order pair ('b', 'z')"),
    (lambda: make_poset(ABC, [("z", "z")]), "bad order pair ('z', 'z')"),
    (lambda: make_double_poset(ABC, [], [("b", "c"), ("c", "b")]),
     "relations contain a cycle through 'b'"),
    (lambda: Matroid(ABC, []), "a matroid needs at least one basis"),
    (lambda: Matroid(ABC, [("c", "z"), ("b", "y"), ("a",)]),
     "basis ['b', 'y'] is not a subset of the ground set"),
    (lambda: Matroid(ABC, [("a",), ("b", "c")]), "bases must all have the same size, got "
                                                 "sizes [1, 2]"),
    (lambda: Matroid(tuple("abcdef"), [("e", "f"), ("c", "d"), ("a", "c"), ("a", "b")]),
     "bases fail the exchange axiom for ['a', 'b'], ['c', 'd'] at 'a'"),
    (lambda: Matroid(ABCD, [("b", "d"), ("a", "c"), ("a", "b")]),
     "bases fail the exchange axiom for ['a', 'c'], ['b', 'd'] at 'a'"),
    (lambda: MixedGraph(ABC, [("a", "b", "c")], []), "bad undirected edge ['a', 'b', 'c']"),
    (lambda: MixedGraph(ABC, [("c", "q"), ("b", "b")], []), "bad undirected edge ['b', 'b']"),
    (lambda: MixedGraph(ABC, [], [("c", "q"), ("b", "b")]), "bad arc ('b', 'b')"),
    (lambda: MixedGraph(ABCD, [], [("d", "c"), ("c", "d"), ("b", "a"), ("a", "b")]),
     "directed part contains a cycle through 'a'"),
    (lambda: MixedGraph(ABCD, [], [("b", "c"), ("c", "d"), ("d", "b"), ("a", "b")]),
     "directed part contains a cycle through 'b'"),
    (lambda: DoublePoset(ABC, [("a", "q"), ("b", "q")], []), "bad order pair ('a', 'q')"),
    (lambda: DoublePoset(ABC, [("a", "b")], [("c", "b"), ("b", "c")]),
     "order relation contains a cycle through 'b', 'c'"),
    (lambda: DoublePoset(ABC, [("a", "b"), ("b", "c")], []),
     "order relation is not transitively closed at ('a', 'c')"),
    (lambda: SimplicialComplex(("a", "b"), [("b", "z"), ("a", "y", "x")]),
     "face ['a', 'x', 'y'] is not a subset of the ground set"),
    # an item that repeats a label is refused, not collapsed into a set
    (lambda: Matroid(ABC, [("a", "a"), ("b",)]), "bases item ['a', 'a'] repeats a label"),
    (lambda: Matroid(ABC, [("c", "b", "c"), ("b", "a", "a"), ("a", "b")]),
     "bases item ['a', 'a', 'b'] repeats a label"),
    (lambda: SimplicialComplex(("a", "b"), [("a", "a", "b")]),
     "faces item ['a', 'a', 'b'] repeats a label"),
    (lambda: Graph(ABC, [("c", "b", "c"), ("a", "b", "a")]),
     "edges item ['a', 'a', 'b'] repeats a label"),
    (lambda: MixedGraph(ABC, [("b", "c", "b")], []),
     "undirected item ['b', 'b', 'c'] repeats a label"),
    (lambda: Hypergraph(ABC, [("a", "a"), ("b", "c")]), "bad hyperedge ('a', 'a')"),
    (lambda: Hypergraph(ABC, [("c", "c", "b"), ("b", "x"), ("a", "b", "b")]),
     "bad hyperedge ('a', 'b', 'b')"),
])
def test_refusal_names_the_smallest_offender(build, message):
    with pytest.raises(DomainError) as info:
        build()
    assert str(info.value) == message


def test_bad_jobs_refuse_with_the_pinned_message(tmp_path, capsys):
    for name, path in write_jobs(tmp_path, BAD_JOBS).items():
        assert main(["psi", "--input", path]) == 2, name
        err = json.loads(capsys.readouterr().err)
        assert err == {"schema": "1", "error": "domain", "message": BAD_JOB_MESSAGES[name]}, name


RUN_ALL = """
import contextlib, io, sys
from hopfchrom.cli import main
for path in sys.argv[1:]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["psi", "--input", path])
    sys.stdout.write("%s %d %s" % (path, code, err.getvalue()))
"""


def test_bad_jobs_print_the_same_stderr_under_any_hash_seed(tmp_path):
    """Exit 2 and byte-identical stderr for every bad job under
    PYTHONHASHSEED 0, 1 and 2, in fresh interpreters."""
    paths = sorted(write_jobs(tmp_path, BAD_JOBS).values())
    outputs = []
    for seed in ("0", "1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        proc = subprocess.run([sys.executable, "-c", RUN_ALL] + paths, env=env,
                              capture_output=True, check=True)
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1] == outputs[2]
    assert outputs[0].count(b" 2 {") == len(BAD_JOBS)


# ---------------------------------------------------------------------------
# the ground cap before anything is built


@pytest.mark.parametrize("name", sorted(OVER_CAP_JOBS))
def test_over_cap_job_builds_no_structure_and_no_group(tmp_path, capsys, monkeypatch, name):
    def never(*args, **kwargs):
        raise AssertionError("built above the ground cap")

    monkeypatch.setattr(Matroid, "__post_init__", never)
    monkeypatch.setattr(Graph, "__post_init__", never)
    monkeypatch.setattr(jobio, "PermGroup", never)
    path = write_jobs(tmp_path, {name: OVER_CAP_JOBS[name]})[name]
    n = len(OVER_CAP_JOBS[name].get("ground", OVER_CAP_JOBS[name].get("vertices")))
    for command in ("psi", "verify", "oracle", "complex"):
        assert main([command, "--input", path]) == 3, command
        err = json.loads(capsys.readouterr().err)
        cap = {"verify": 8, "oracle": 8}.get(command, 9)
        assert err["message"] == "ground set size %d exceeds cap %d" % (n, cap), command


@pytest.mark.parametrize("structure", [
    {"ground": list("abcdefghij"), "bases": 5},
    {"ground": list("abcdefghij"), "bases": [["a", "z"]]},
    {"ground": list("abcdefghij") + ["a"], "bases": [["a"]]},
])
def test_over_cap_job_exits_3_before_its_other_fields_are_read(tmp_path, capsys, structure):
    """Ten distinct labels exceed the cap 9 whatever else the job holds;
    a repeated label counts once."""
    path = write_jobs(tmp_path, {"m": dict({"kind": "matroid", "group": 7}, **structure)})["m"]
    assert main(["psi", "--input", path]) == 3
    assert json.loads(capsys.readouterr().err)["message"] == "ground set size 10 exceeds cap 9"


def test_ground_at_the_cap_is_read_as_before(tmp_path, capsys):
    """A ground of exactly max-ground labels passes the cap and is then
    checked as before: repeated labels are malformed input."""
    path = write_jobs(tmp_path, {"m": {"kind": "matroid", "ground": ["a", "b", "a"],
                                       "bases": [["a"]]}})["m"]
    assert main(["psi", "--input", path, "--max-ground", "2"]) == 2
    assert json.loads(capsys.readouterr().err)["message"] == "ground set has repeated labels"


# ---------------------------------------------------------------------------
# coordinates bounded by their digits before any Fraction is built


def test_huge_coordinate_exits_2_in_a_fresh_process(tmp_path):
    """psi on a two-point job with a coordinate of 10^7 digits exits 2,
    naming the point, within 2 s of starting a fresh interpreter."""
    paths = write_jobs(tmp_path, HUGE_COORDINATE_JOBS, character="vertex_generic")
    for name, index in (("huge_numerator", 0), ("huge_denominator", 1)):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "hopfchrom.cli", "psi", "--input",
                               paths[name]], capture_output=True, timeout=2)
        assert proc.returncode == 2, (name, proc.stderr)
        assert json.loads(proc.stderr)["message"] == (
            "points[%d]: a coordinate has more than 4300 digits" % index)
        assert time.perf_counter() - start < 2, name


@pytest.mark.parametrize("text, numerator, denominator", [
    ("1e4299", 10 ** 4299, 1), ("-1E-4299", -1, 10 ** 4299), ("0.5e4299", 5 * 10 ** 4298, 1),
    ("0e4300", 0, 1), ("1_0.2_5e-2", 41, 400), (" 2.5e+1 ", 25, 1), (1e300, 10 ** 300, 1),
])
def test_coordinates_within_the_digit_bound_are_read_exactly(text, numerator, denominator):
    h = jobio.parse_structure("gen_permutohedron", {"ground": ["a"], "points": [[text]]})
    assert h.points == ((Fraction(numerator, denominator),),)


@pytest.mark.parametrize("text", ["1e4300", "1e-4300", "0.05e4302", "0e1000000000",
                                  "1.0e-4299", "1e" + "9" * 30])
def test_coordinates_past_the_digit_bound_are_refused(text):
    with pytest.raises(DomainError, match=r"^points\[0\]: a coordinate has more than 4300 digits$"):
        jobio.parse_structure("gen_permutohedron", {"ground": ["a"], "points": [[text]]})


# ---------------------------------------------------------------------------
# hostile jobs in a fresh process


def _verify(path, timeout=None):
    """verify on the job file in a fresh interpreter: (process, wall s)."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "hopfchrom.cli", "verify", "--input", path],
                          capture_output=True, timeout=timeout)
    return proc, time.perf_counter() - start


@pytest.mark.parametrize("name", sorted(REPEATED_GENERATOR_JOBS))
def test_repeated_generators_verify_as_the_generator_listed_once(tmp_path, name):
    """verify on a group of order 2 listing its generator 3,000 or 20,000
    times exits 0 within 3 s of starting a fresh interpreter and prints
    the bytes of the job that lists it once."""
    job = REPEATED_GENERATOR_JOBS[name]
    paths = write_jobs(tmp_path, {name: job, "once": dict(job, group=job["group"][:1])},
                       character="chromatic")
    proc, wall = _verify(paths[name], timeout=3)
    assert proc.returncode == 0, proc.stderr
    assert wall < 3
    once, _ = _verify(paths["once"])
    assert once.returncode == 0 and proc.stdout == once.stdout


def test_distinct_generators_past_the_character_search_cap_exit_3(tmp_path):
    """verify on K7 under Z12 listing its 11 non-identity elements, whose
    orders multiply past 10^6, exits 3 at the character search cap within
    3 s of starting a fresh interpreter, naming the cap and the number of
    distinct generators."""
    path = write_jobs(tmp_path, {"k7_z12": CHARACTER_CAP_JOB}, character="chromatic")["k7_z12"]
    proc, wall = _verify(path, timeout=3)
    assert proc.returncode == 3, proc.stderr
    assert json.loads(proc.stderr)["message"] == (
        "too many generator assignments for character search: 11 generators, cap 1000000")
    assert wall < 3


def test_relisted_corpus_groups_verify_as_listed_once(tmp_path):
    """verify on every corpus job whose group is relisted with random
    repeats and identities writes the report bytes of the job that lists
    each distinct generator once."""
    rng = random.Random(34)
    relisted = 0
    for name, h, char, group in randgen.corpus():
        once = [g.cycle_string() for g in group.distinct_generators]
        listed = _relisted(rng, once, "()", 3)
        relisted += listed != once
        reports = []
        for generators in (once, listed):
            job = {"kind": h.kind, "structure": jobio.structure_to_json(h), "group": generators}
            path = write_jobs(tmp_path, {"job": job}, character=str(char))["job"]
            out = tmp_path / "report.json"
            assert main(["verify", "--input", path, "--output", str(out)]) == 0, name
            reports.append(out.read_bytes())
        assert reports[0] == reports[1], name
    assert relisted > 150


def test_deeply_nested_job_exits_2_in_a_fresh_process(tmp_path):
    """A job file nested past json's recursion limit is invalid JSON: exit
    2 with one JSON document on stderr, within 2 s, not a traceback."""
    path = tmp_path / "deep.json"
    path.write_text(DEEP_JOB_TEXT)
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "hopfchrom.cli", "psi", "--input", str(path)],
                          capture_output=True, timeout=2)
    assert proc.returncode == 2, proc.stderr[-300:]
    err = json.loads(proc.stderr)
    assert err["error"] == "domain"
    assert err["message"].startswith("invalid JSON in %s: " % path)
    assert time.perf_counter() - start < 2
