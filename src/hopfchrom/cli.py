"""Command line front end.

Subcommands read one JSON job file and write one JSON result (stdout or
--output).  Exit codes: 0 success, 1 a verification check failed, 2 bad
input, 3 a resource cap was hit.  Output is deterministic: keys are
sorted and worker count never changes bytes.
"""

import argparse
import functools
import json
import os
import sys
import tempfile
from warnings import warn

from . import jobio
from .chromatic import (GROUND_CAP, ORACLE_GROUND_CAP, binomial_to_monomial,
                        coloring_oracle, colorings_by_type,
                        fixed_coloring_counts, orbital_polynomial, orbital_psi,
                        psi, psi_polynomial, verify_flawless)
from .complexes import (coloring_complex, comparable_pairs, flag_f_vector,
                        hilb, theta_certificate)
from .errors import DomainError, ResourceCapError, VerificationFailure
from .groups import GROUP_ORDER_CAP
from .verify import VERIFY_GROUND_CAP, run_verification


def _add_common(p, max_ground_default):
    p.add_argument("--input", required=True, help="job JSON file")
    p.add_argument("--output", help="write the result here instead of stdout")
    p.add_argument("--workers", type=int, default=1,
                   help="deprecated and ignored (at least 1): every command runs "
                        "serially")
    p.add_argument("--max-ground", type=int, default=max_ground_default,
                   help="ground size cap (default %d)" % max_ground_default)
    p.add_argument("--max-group-order", type=int, default=GROUP_ORDER_CAP,
                   help="group order cap (default %d)" % GROUP_ORDER_CAP)


def build_parser():
    ap = argparse.ArgumentParser(
        prog="hopfchrom",
        description="exact chromatic class functions of combinatorial structures")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("psi", help="quasisymmetric class function")
    _add_common(p, GROUND_CAP)

    p = sub.add_parser("orbital", help="orbit counts per composition")
    _add_common(p, GROUND_CAP)

    p = sub.add_parser("poly", help="class polynomial in the binomial basis")
    _add_common(p, GROUND_CAP)

    p = sub.add_parser("orbital-poly", help="orbit-count polynomial and its inequality report")
    _add_common(p, GROUND_CAP)

    p = sub.add_parser("complex", help="coloring complex, faces and flag f-vector")
    _add_common(p, GROUND_CAP)

    p = sub.add_parser("certify", help="embedding certificates on refinement pairs")
    _add_common(p, GROUND_CAP)
    p.add_argument("--pairs", choices=("covering", "comparable"), default="comparable")

    p = sub.add_parser("verify", help="full conformance report")
    _add_common(p, VERIFY_GROUND_CAP)
    p.add_argument("--colors", type=int,
                   help="oracle color count (default: job field, else ground size)")
    p.add_argument("--no-oracle", action="store_true", help="skip the brute-force oracle")

    p = sub.add_parser("oracle", help="brute-force proper colorings")
    _add_common(p, ORACLE_GROUND_CAP)
    p.add_argument("--colors", type=int, help="color count (default: job field, else ground size)")

    p = sub.add_parser("fixtures", help="bundled worked examples")
    p.add_argument("--run", action="store_true", help="recompute each fixture and compare")
    p.add_argument("--name", help="restrict to one fixture")
    p.add_argument("--output", help="write the fixture report here")
    return ap


def _write(result, args):
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            jobio.dump(result, fh)
    else:
        jobio.dump(result, sys.stdout)


def _job(args):
    if args.workers < 1:
        raise DomainError("workers must be at least 1, got %d" % args.workers)
    if args.workers > 1:
        warn("--workers is deprecated and ignored: every command runs "
             "serially", FutureWarning, stacklevel=2)
    jobio.check_colors(getattr(args, "colors", None))
    h, char, group, colors = jobio.read_job(args.input, group_cap=args.max_group_order)
    if char is None:
        raise DomainError("missing field 'character'")
    return h, char, group, colors


def cmd_psi(args):
    h, char, group, _ = _job(args)
    X = psi(h, char, group, max_ground=args.max_ground)
    result = {"schema": jobio.SCHEMA, "command": "psi", "kind": h.kind,
              "character": str(char), "group": jobio.group_to_json(group)}
    result.update(jobio.qsym_to_json(X))
    _write(result, args)
    return 0


def cmd_orbital(args):
    h, char, group, _ = _job(args)
    X = psi(h, char, group, max_ground=args.max_ground)
    orb = orbital_psi(X)
    result = {"schema": jobio.SCHEMA, "command": "orbital", "kind": h.kind,
              "character": str(char), "group": jobio.group_to_json(group),
              "degree": X.degree,
              "coefficients": {str(a): v for a, v in orb.items()}}
    _write(result, args)
    return 0


def cmd_poly(args):
    h, char, group, _ = _job(args)
    X = psi(h, char, group, max_ground=args.max_ground)
    p = psi_polynomial(X)
    result = {"schema": jobio.SCHEMA, "command": "poly", "kind": h.kind,
              "character": str(char), "group": jobio.group_to_json(group)}
    result.update(jobio.poly_to_json(p))
    _write(result, args)
    return 0


def cmd_orbital_poly(args):
    h, char, group, _ = _job(args)
    X = psi(h, char, group, max_ground=args.max_ground)
    fvec = orbital_polynomial(X)
    mono = binomial_to_monomial(fvec)
    result = {"schema": jobio.SCHEMA, "command": "orbital-poly", "kind": h.kind,
              "character": str(char), "group": jobio.group_to_json(group),
              "degree": X.degree,
              "f_vector": fvec,
              "monomial_basis": [str(c) for c in mono],
              "flawless": verify_flawless(fvec)}
    _write(result, args)
    return 0


def cmd_complex(args):
    h, char, group, _ = _job(args)
    phi = coloring_complex(h, char, max_ground=args.max_ground)
    fv = flag_f_vector(phi)
    result = {"schema": jobio.SCHEMA, "command": "complex", "kind": h.kind,
              "character": str(char), "ground": list(phi.ground),
              "dimension": phi.dimension,
              "faces": jobio.flags_to_json(phi),
              "flag_f_vector": {",".join(map(str, k)): v for k, v in fv.items()}}
    H = hilb(phi, group)
    result["group"] = jobio.group_to_json(group)
    result["hilb"] = jobio.qsym_to_json(H)
    _write(result, args)
    return 0


def cmd_certify(args):
    h, char, group, _ = _job(args)
    phi = coloring_complex(h, char, max_ground=args.max_ground)
    n = len(h.ground)
    certs = []
    for a, b in comparable_pairs(n, covering_only=(args.pairs == "covering")):
        certs.append(theta_certificate(phi, group, a, b))
    result = {"schema": jobio.SCHEMA, "command": "certify", "kind": h.kind,
              "character": str(char), "group": jobio.group_to_json(group),
              "pairs": [jobio.certificate_to_json(c) for c in certs],
              "ok": all(c.valid for c in certs)}
    _write(result, args)
    return 0 if result["ok"] else 1


def cmd_verify(args):
    h, char, group, colors = _job(args)
    k = args.colors if args.colors is not None else colors
    report = run_verification(h, char, group, k=k, max_ground=args.max_ground,
                              include_oracle=not args.no_oracle)
    report = {"schema": jobio.SCHEMA, "command": "verify", **report}
    _write(report, args)
    return 0 if report["ok"] else 1


def cmd_oracle(args):
    h, char, group, colors = _job(args)
    k = args.colors if args.colors is not None else colors
    if k is None:
        k = len(h.ground)
    cols = coloring_oracle(h, char, k, max_ground=args.max_ground)
    fixed = fixed_coloring_counts(cols, group)
    result = {"schema": jobio.SCHEMA, "command": "oracle", "kind": h.kind,
              "character": str(char), "colors": k,
              "total": len(cols),
              "by_type": {str(t): c for t, c in colorings_by_type(cols).items()},
              "fixed_by_class": [
                  {"rep": rep.cycle_string(), "size": size, "count": jobio._count(v)}
                  for rep, size, v in zip(group.class_reps, group.class_sizes,
                                          fixed.values)]}
    _write(result, args)
    return 0


def load_fixtures(name=None):
    """The bundled fixtures in file-name order, or the one named `name`.
    They are read as package resources, so a zipped install finds them."""
    # imported here: importlib.resources pulls in pathlib and zipfile, which
    # no other command needs at startup
    from importlib.resources import files
    out = []
    found = (files("hopfchrom") / "fixtures").iterdir()
    for entry in sorted((e for e in found if e.name.endswith(".json")), key=lambda e: e.name):
        fx = json.loads(entry.read_text(encoding="utf-8"))
        if name is None or fx["name"] == name:
            out.append(fx)
    if name is not None and not out:
        raise DomainError("no fixture named %r" % name)
    return out


def _subset_match(expected, actual, path=""):
    """Differences between an expected sub-document and the actual one."""
    diffs = []
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            return ["%s: expected an object" % path]
        for key, val in expected.items():
            if val == {"__absent__": True}:
                if key in actual:
                    diffs.append("%s.%s: expected absent, got %r" % (path, key, actual[key]))
            elif key not in actual:
                diffs.append("%s.%s: missing" % (path, key))
            else:
                diffs.extend(_subset_match(val, actual[key], "%s.%s" % (path, key)))
        return diffs
    if expected != actual:
        diffs.append("%s: expected %r, got %r" % (path, expected, actual))
    return diffs


def run_fixture(fx):
    """Recompute one fixture; returns (ok, diffs, result)."""
    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
        json.dump(fx["job"], fh)
        job_path = fh.name
    out_path = job_path + ".out"
    try:
        code = main([fx["command"], "--input", job_path, "--output", out_path]
                    + fx.get("args", []))
        with open(out_path) as fh:
            result = json.load(fh)
    finally:
        for p in (job_path, out_path):
            if os.path.exists(p):
                os.unlink(p)
    diffs = _subset_match(fx["expected"], result)
    if fx.get("expect_exit", 0) != code:
        diffs.append("exit: expected %d, got %d" % (fx.get("expect_exit", 0), code))
    return not diffs, diffs, result


def cmd_fixtures(args):
    fixtures = load_fixtures(args.name)
    if not args.run:
        listing = {"schema": jobio.SCHEMA, "command": "fixtures",
                   "fixtures": [{"name": f["name"], "description": f["description"],
                                 "expected_from": f["expected_from"]}
                                for f in fixtures]}
        _write(listing, args)
        return 0
    failed = 0
    for fx in fixtures:
        ok, diffs, _ = run_fixture(fx)
        print("%s %s" % ("PASS" if ok else "FAIL", fx["name"]))
        if fx.get("notes"):
            print("     note: %s" % fx["notes"])
        for d in diffs:
            print("     %s" % d)
            failed += 1
        if not ok:
            failed += 1
    return 0 if not failed else 1


COMMANDS = {
    "psi": cmd_psi,
    "orbital": cmd_orbital,
    "poly": cmd_poly,
    "orbital-poly": cmd_orbital_poly,
    "complex": cmd_complex,
    "certify": cmd_certify,
    "verify": cmd_verify,
    "oracle": cmd_oracle,
    "fixtures": cmd_fixtures,
}


@functools.cache
def _parser():
    """The argument parser, built on the first main call of a process."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except VerificationFailure as exc:
        jobio.dump({"schema": jobio.SCHEMA, "error": "verification",
                    "message": str(exc), "details": exc.details}, sys.stderr)
        return 1
    except DomainError as exc:
        jobio.dump({"schema": jobio.SCHEMA, "error": "domain",
                    "message": str(exc)}, sys.stderr)
        return 2
    except ResourceCapError as exc:
        jobio.dump({"schema": jobio.SCHEMA, "error": "resource_cap",
                    "message": str(exc)}, sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
