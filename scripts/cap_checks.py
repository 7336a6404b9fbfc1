#!/usr/bin/env python3
"""The checks at the caps, too slow for the tier-1 tests.

    python scripts/cap_checks.py

Runs every check in CHECKS in its own fresh interpreter, keeps going
after a failure, prints one PASS or FAIL line per check after that
check's own output, and exits 1 if any check failed.  A check passes
when it returns; it fails when it raises.

Five checks bound their own process's peak RSS, and three read that of
the command-line child they start.  So this module imports only the
standard library, each check imports what it needs inside its body, and
a child loads no more than its check uses.  The children get src, tests,
perfbench and scripts on PYTHONPATH, ahead of the caller's."""

import json
import os
import resource
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# ---------------------------------------------------------------------------
# shared builders


def chromatic_graph(vertices, edges, generators):
    """A chromatic graph job on these vertices, edges and generator cycle
    strings: (the Graph, its PermGroup, the job dict)."""
    from hopfchrom.groups import PermGroup, Permutation
    from hopfchrom.structures import Graph
    job = {"kind": "graph", "character": "chromatic",
           "structure": {"vertices": vertices, "edges": edges}, "group": generators}
    graph = Graph(tuple(vertices), frozenset(frozenset(e) for e in edges))
    return graph, PermGroup([Permutation.from_cycles(c, graph.ground) for c in generators]), job


def cycle(n):
    """C_n on a, b, ... under D_n, generated by the rotation and the
    reflection that fixes a."""
    v = [chr(ord("a") + i) for i in range(n)]
    reflection = "".join("(%s %s)" % (v[i], v[n - i]) for i in range(1, (n + 1) // 2))
    return chromatic_graph(v, [[v[i], v[(i + 1) % n]] for i in range(n)],
                           ["(%s)" % " ".join(v), reflection])


def k6k2():
    """K6 on a..f plus the edge g h, under S6 x S2."""
    v = list("abcdefgh")
    edges = [[x, y] for i, x in enumerate(v[:6]) for y in v[i + 1:6]] + [["g", "h"]]
    return chromatic_graph(v, edges, ["(a b)", "(a b c d e f)", "(g h)"])


def k7k2():
    """K7 on a..g plus the edge h i, under S7 x S2."""
    v = list("abcdefghi")
    edges = [[x, y] for i, x in enumerate(v[:7]) for y in v[i + 1:7]] + [["h", "i"]]
    return chromatic_graph(v, edges, ["(a b)", "(a b c d e f g)", "(h i)"])


def uniform(rank, n):
    """U(rank, n) on a, b, ... under the rotation of the n labels."""
    from itertools import combinations
    from hopfchrom.groups import PermGroup, Permutation
    from hopfchrom.structures import Matroid
    v = tuple(chr(ord("a") + i) for i in range(n))
    return (Matroid(v, frozenset(frozenset(b) for b in combinations(v, rank))),
            PermGroup((Permutation.from_cycles("(%s)" % " ".join(v), v),)))


def peak_mb():
    """This process's own peak RSS in MB: VmHWM from /proc/self/status,
    which starts afresh at exec.  Linux's ru_maxrss keeps, across exec,
    the peak of the process that started this one; it is the fallback
    where there is no /proc."""
    try:
        with open("/proc/self/status") as fh:
            return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")) / 1024
    except (OSError, StopIteration):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# The command-line child of cli(): hopfchrom.cli.main on its arguments,
# then, however it exits, its own peak_mb() written to the file that
# CAP_CHECKS_PEAK names; cap_checks is imported after main has run.
CLI_CHILD = ("import os, sys\nfrom hopfchrom.cli import main\ntry:\n    sys.exit(main())\n"
             "finally:\n    import cap_checks\n"
             "    with open(os.environ['CAP_CHECKS_PEAK'], 'w') as fh:\n"
             "        fh.write(repr(cap_checks.peak_mb()))\n")


def cli(*argv, **env):
    """Run hopfchrom.cli.main on argv in a child with env added to the
    environment: (exit code, stdout, stderr, wall seconds, the child's
    own peak RSS in MB).  The child, which imports cap_checks from the
    PYTHONPATH of child_env, reports its own VmHWM through peak_mb, since
    RUSAGE_CHILDREN's ru_maxrss would carry this process's peak across
    exec."""
    with tempfile.TemporaryDirectory() as tmp:
        peak_file = os.path.join(tmp, "peak")
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", CLI_CHILD, *argv],
                              env=dict(os.environ, CAP_CHECKS_PEAK=peak_file, **env),
                              capture_output=True)
        wall = time.perf_counter() - start
        with open(peak_file) as fh:
            peak = float(fh.read())
    return proc.returncode, proc.stdout, proc.stderr, wall, peak


def complex_faces_from_cli(graph, job):
    """Run `complex` on the job in a child and check its faces against the
    label-sort reference; returns (faces, wall seconds, child peak MB)."""
    from hopfchrom.complexes import coloring_complex
    from hopfchrom.compositions import Flag, mask_labels
    from hopfchrom.structures import CharacterSpec
    from label_reference import reference_faces_json
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "job.json"), os.path.join(tmp, "complex.json")
        with open(path, "w") as fh:
            json.dump(job, fh)
        code, _, err, wall, peak = cli("complex", "--input", path, "--output", out)
        assert code == 0, err
        with open(out) as fh:
            faces = json.load(fh)["faces"]
    phi = coloring_complex(graph, CharacterSpec("chromatic"))
    labels = mask_labels(phi.ground)
    want = reference_faces_json(Flag(phi.ground, tuple(labels[m] for m in c))
                                 for c in phi.faces)
    assert faces == want
    return faces, wall, peak


# ---------------------------------------------------------------------------
# the checks


def refusals():
    """Over-cap jobs exit 3 in 2 s of a fresh interpreter; S7xS2 class
    tables in 3 s, also from its generators listed 20 times."""
    from hopfchrom.groups import PermGroup, Permutation
    from refusal_jobs import OVER_CAP_JOBS, write_jobs

    with tempfile.TemporaryDirectory() as tmp:
        for name, path in sorted(write_jobs(tmp, OVER_CAP_JOBS).items()):
            code, _, err, wall, _ = cli("psi", "--input", path)
            print("%s: exit %d in %.2f s" % (name, code, wall))
            assert code == 3 and wall < 2, (name, code, err, wall)
    v = tuple("abcdefghi")
    start = time.perf_counter()
    group = PermGroup([Permutation.from_cycles(c, v)
                       for c in ("(a b)", "(a b c d e f g)", "(h i)")])
    wall = time.perf_counter() - start
    print("S7xS2: order %d, %d classes in %.2f s" % (group.order, len(group.class_reps), wall))
    assert (group.order, len(group.class_reps)) == (10080, 30)
    assert wall < 3, wall
    listed = [x for g in group.generators for x in (g, Permutation.identity(v))] * 20
    start = time.perf_counter()
    relisted = PermGroup(listed)
    wall = time.perf_counter() - start
    print("S7xS2 from %d listed generators: order %d, %d classes in %.2f s"
          % (len(listed), relisted.order, len(relisted.class_reps), wall))
    assert relisted.elements == group.elements
    assert (relisted.class_reps, relisted.class_sizes) == (group.class_reps, group.class_sizes)
    assert wall < 3, wall


def c9_psi():
    """C9 psi under D9: 3,543,630 identity compositions, peak RSS under 100 MB."""
    from hopfchrom.chromatic import psi
    from hopfchrom.structures import CharacterSpec
    c9, d9, _ = cycle(9)
    X = psi(c9, CharacterSpec("chromatic"), d9)
    total = sum(X.identity_slice().values())
    assert total == 3543630, total
    peak = peak_mb()
    print("C9 under D9: %d proper compositions, peak RSS %.0f MB" % (total, peak))
    assert peak < 100, peak


def assoc6_psi():
    """Associahedron psi at n = 6 under the reversal: 1,652 identity
    compositions, the listing equals the whole-composition filter, psi
    under 4 s."""
    from hopfchrom import chromatic
    from hopfchrom.chromatic import proper_compositions, psi
    from hopfchrom.groups import PermGroup, Permutation
    from hopfchrom.structures import check_compatible, loday_associahedron
    from points_reference import points_filter
    h = loday_associahedron(6)
    group = PermGroup((Permutation.from_cycles("(1 6)(2 5)(3 4)", h.ground),))
    start = time.perf_counter()
    X = psi(h, "vertex_generic", group)
    wall = time.perf_counter() - start
    total = sum(X.identity_slice().values())
    assert total == 1652, total
    table = chromatic._next_blocks(h, check_compatible(h, "vertex_generic"))
    full = len(table) - 1
    every = list(chromatic._walk(table, full))
    listed = proper_compositions(h, "vertex_generic")
    assert listed == list(points_filter(h, every))
    print("loday_associahedron(6) under (1 6)(2 5)(3 4): %d points, %d of %d compositions "
          "kept as the filter keeps them; psi %.2f s" % (len(h.points), len(listed),
                                                        len(every), wall))
    assert wall < 4, wall


def c8_complex():
    """C8 coloring complex under D8: 272,918 faces, dimension 6,
    psi = hilb, peak RSS under 200 MB."""
    from hopfchrom.chromatic import psi
    from hopfchrom.complexes import coloring_complex, hilb, psi_hilb_diffs
    from hopfchrom.structures import CharacterSpec
    c8, d8, _ = cycle(8)
    chrom = CharacterSpec("chromatic")
    phi = coloring_complex(c8, chrom)
    assert len(phi.faces) == 272918, len(phi.faces)
    assert phi.dimension == 6, phi.dimension
    assert psi_hilb_diffs(psi(c8, chrom, d8), hilb(phi, d8)) == []
    peak = peak_mb()
    print("C8 under D8: 272918 faces, peak RSS %.0f MB" % peak)
    assert peak < 200, peak


def c8_complex_cli():
    """C8 complex under D8 through the command line: faces equal the
    label-sort reference, child peak RSS under 120 MB."""
    c8, _, job = cycle(8)
    faces, wall, peak = complex_faces_from_cli(c8, job)
    print("C8 under D8: complex writes %d faces in label-sort order in %.1f s, "
          "child peak RSS %.0f MB" % (len(faces), wall, peak))
    assert len(faces) == 272918, len(faces)
    assert peak < 120, peak


def k6k2_complex_cli():
    """K6+K2 complex under S6xS2 through the command line: 122,400 faces
    equal the label-sort reference; wall time and child peak RSS."""
    graph, _, job = k6k2()
    faces, wall, peak = complex_faces_from_cli(graph, job)
    assert len(faces) == 122400, len(faces)
    print("K6+K2 under S6xS2: complex writes %d faces in label-sort order in %.1f s, "
          "child peak RSS %.0f MB" % (len(faces), wall, peak))


def k7k2_complex_cli():
    """K7+K2 complex under S7xS2 through the command line (n = 9): exit 0
    and 1,139,040 faces in under 40 s, child peak RSS under 700 MB.  The
    faces are counted as the file streams past, one row each at indent 2
    of the faces list; nothing checks them against the label-sort
    reference, which would hold them all in this process."""
    _, _, job = k7k2()
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "job.json"), os.path.join(tmp, "complex.json")
        with open(path, "w") as fh:
            json.dump(job, fh)
        code, _, err, wall, peak = cli("complex", "--input", path, "--output", out)
        assert code == 0, err
        faces, listing = 0, False
        with open(out) as fh:
            for line in fh:
                if listing:
                    if line.startswith(" ]"):
                        break
                    faces += line.startswith("  [")
                else:
                    listing = line == ' "faces": [\n'
    print("K7+K2 under S7xS2: complex writes %d faces in %.1f s, child peak RSS %.0f MB"
          % (faces, wall, peak))
    assert faces == 1139040, faces
    assert wall < 40 and peak < 700, (wall, peak)


def twenty_labels():
    """A library complex on 20 labels with one face writes its JSON in
    under 0.5 s and 60 MB (no table over the 2^20 masks)."""
    from hopfchrom.complexes import BalancedRelativeComplex
    from hopfchrom.jobio import flags_to_json
    twenty = ["v%02d" % i for i in range(20)]
    start = time.perf_counter()
    phi = BalancedRelativeComplex(twenty, [(("v03",), ("v03", "v11"))])
    faces = flags_to_json(phi)
    wall = time.perf_counter() - start
    peak = peak_mb()
    assert faces == [["{v03}", "{v03,v11}"]], faces
    assert len(phi.members) == 2, phi.members
    print("20 labels, one face: JSON in %.3f s, peak RSS %.0f MB" % (wall, peak))
    assert wall < 0.5 and peak < 60, (wall, peak)


def u48_complex():
    """U(4,8) coloring complex under the 8-cycle rotation (matroid rank
    table at n = 8): 393,750 faces, psi = hilb, peak RSS under 250 MB."""
    from hopfchrom.chromatic import psi
    from hopfchrom.complexes import coloring_complex, hilb, psi_hilb_diffs
    from hopfchrom.structures import CharacterSpec
    u48, z8 = uniform(4, 8)
    chrom = CharacterSpec("chromatic")
    phi = coloring_complex(u48, chrom)
    assert len(phi.faces) == 393750, len(phi.faces)
    assert psi_hilb_diffs(psi(u48, chrom, z8), hilb(phi, z8)) == []
    peak = peak_mb()
    print("U(4,8) under Z8: 393750 faces, peak RSS %.0f MB" % peak)
    assert peak < 250, peak


def u510_splitting():
    """U(5,10) under Z10: the mask calculus equals the minor route on
    every (R, S), 58,025 pairs; psi under 10 s."""
    from hopfchrom import chromatic, structures
    from hopfchrom.chromatic import psi
    from hopfchrom.compositions import submasks
    from hopfchrom.structures import CharacterSpec
    from minor_reference import MinorMemo
    from peel_reference import reference_next_blocks
    u510, z10 = uniform(5, 10)
    chrom = CharacterSpec("chromatic")
    memo, ref = structures.SplittingMemo(u510, chrom), MinorMemo(u510, chrom)
    pairs = 0
    for R in range(1, memo.full + 1):
        for S in submasks(R):
            assert memo.one(R, S) == ref.one(R, S), (R, S)
            pairs += 1
    assert pairs == 3 ** 10 - 2 ** 10, pairs
    assert chromatic._next_blocks(u510, chrom) == reference_next_blocks(u510, chrom)
    structures.splitting_memo.cache_clear()
    start = time.perf_counter()
    X = psi(u510, chrom, z10, max_ground=10)
    wall = time.perf_counter() - start
    total = sum(X.identity_slice().values())
    print("U(5,10) under Z10: one and the next-block table equal the minor route on "
          "%d pairs; psi %.2f s, %d identity compositions" % (pairs, wall, total))
    assert wall < 10, wall


def c8_verify():
    """C8 verify under D8 without the oracle: ok, 2,059 certified pairs,
    peak RSS under 300 MB."""
    from hopfchrom.structures import CharacterSpec
    from hopfchrom.verify import run_verification
    c8, d8, _ = cycle(8)
    report = run_verification(c8, CharacterSpec("chromatic"), d8, include_oracle=False)
    assert report["ok"], report["checks"]
    pairs = report["checks"]["theta_certificates"]["pairs_checked"]
    assert pairs == 2059, pairs
    peak = peak_mb()
    print("C8 under D8: verify ok, %d certified pairs, peak RSS %.0f MB" % (pairs, peak))
    assert peak < 300, peak


def c7_verify():
    """C7 verify under D7 with the oracle: ok, 6^7 - 6 proper colorings
    at 7 colors."""
    from hopfchrom.structures import CharacterSpec
    from hopfchrom.verify import run_verification
    c7, d7, _ = cycle(7)
    report = run_verification(c7, CharacterSpec("chromatic"), d7)
    assert report["ok"], report["checks"]
    oracle = report["checks"]["oracle"]
    assert oracle["colors"] == 7 and oracle["total_colorings"] == 6 ** 7 - 6, oracle
    print("C7 under D7: verify ok, %d proper 7-colorings" % oracle["total_colorings"])


def octahedron_certify():
    """Octahedron certify through the command line: the recorded digest,
    and the writer at least 3x faster than json.dump."""
    import hashlib
    import io
    import jobgen
    from hopfchrom import jobio
    from hopfchrom.cli import main
    from dump_reference import reference_dump
    with open(os.path.join(ROOT, "perfbench", "digests.json")) as fh:
        want = json.load(fh)["complex-certify"]["octa_certify"]
    (job,) = [j for i, _, j in jobgen.build_jobs("complex-certify", 1) if i == "octa_certify"]
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "octa.json"), os.path.join(tmp, "certify.json")
        with open(path, "wb") as fh:
            fh.write(jobgen.job_bytes(job))
        code, _, err, _, _ = cli("certify", "--input", path, "--output", out)
        assert code == 0, err
        with open(out, "rb") as fh:
            got = hashlib.sha256(fh.read()).hexdigest()
        assert got == want, (got, want)
        dump, seen = jobio.dump, []
        jobio.dump = lambda obj, stream: seen.append(obj)
        try:
            assert main(["certify", "--input", path, "--output", out]) == 0
        finally:
            jobio.dump = dump

    def best(writer):
        times = []
        for _ in range(3):
            start = time.perf_counter()
            writer(seen[0], io.StringIO())
            times.append(time.perf_counter() - start)
        return min(times)

    new, ref = best(jobio.dump), best(reference_dump)
    print("octahedron certify: sha256 as recorded; jobio.dump %.3f s, json.dump %.3f s (%.1fx)"
          % (new, ref, ref / new))
    assert ref >= 3 * new, (new, ref)


def c12_reference():
    """C12 psi under D12 (max_ground=12) equals the weighted chromatic
    symmetric functions of the quotients, tests/csf_reference.py, on every
    coefficient at every class."""
    from csf_reference import class_values
    from hopfchrom.chromatic import psi
    from hopfchrom.compositions import IntComposition
    from hopfchrom.structures import CharacterSpec
    c12, d12, _ = cycle(12)
    start = time.perf_counter()
    X = psi(c12, CharacterSpec("chromatic"), d12, max_ground=12)
    wall = time.perf_counter() - start
    want = class_values(c12.ground, c12.edges, d12.class_reps)
    assert {a.parts for a in X.support()} <= set(want)
    for alpha, values in want.items():
        assert X.coefficient(IntComposition(alpha)).values == values, alpha
    print("C12 under D12: psi %.2f s equals the quotient reference on %d coefficients"
          % (wall, len(want) * len(d12.class_reps)))


CHECKS = (refusals, c9_psi, assoc6_psi, c8_complex, c8_complex_cli, k6k2_complex_cli,
          k7k2_complex_cli, twenty_labels, u48_complex, u510_splitting, c8_verify, c7_verify,
          octahedron_certify, c12_reference)


def child_env():
    """This process's environment with src, tests, perfbench and scripts
    on PYTHONPATH, ahead of the caller's."""
    dirs = [os.path.join(ROOT, d) for d in ("src", "tests", "perfbench", "scripts")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, dirs + [os.environ.get("PYTHONPATH")])))


def run(checks):
    """Run each check in a fresh interpreter that imports it from its
    module; 1 if any raised, else 0."""
    env = child_env()
    failed = []
    for check in checks:
        start = time.perf_counter()
        code = subprocess.run([sys.executable, "-c", "import %s as m; m.%s()"
                               % (check.__module__, check.__name__)], env=env).returncode
        status = "PASS" if code == 0 else "FAIL"
        print("%s %s (%.1f s)" % (status, check.__name__, time.perf_counter() - start),
              flush=True)
        if code:
            failed.append(check.__name__)
    if failed:
        print("failed: %s" % ", ".join(failed))
    return 1 if failed else 0


if __name__ == "__main__":
    import cap_checks  # the module the children import the checks from
    sys.exit(cap_checks.run(cap_checks.CHECKS))
