"""Command line front end.

Subcommands read one JSON job file and write one JSON result (stdout or
--output).  Exit codes: 0 success, 1 a verification check failed, 2 bad
input, 3 a resource cap was hit.  Output is deterministic: keys are
sorted and worker count never changes bytes.

Every job command is one row of COMMANDS: its help text, its default
ground cap, its result function and its extra options; build_parser
reads the table.  run_command does what the rows share: the --workers,
cap and colors checks, reading the job (which must name a character), the
color count (--colors, else the job's colors, else the ground size),
the schema, command and character of the result, writing it, and the
exit code, 1 exactly when the result's top-level "ok" is false (certify
and verify).  A command reads its job file through jobio.read_job; a
bundled fixture goes through the same run_command with its job dict and
an in-memory stream.  A result function looks up psi, coloring_complex
and the other computing functions as module globals when it runs, never
holding them in the table, so a tracer that rebinds those names sees
each call; results go out through the module attribute jobio.dump for
the same reason.  ERRORS maps each refusal to its "error" text and exit
code, for main and the fixture runner alike.
"""

import argparse
import contextlib
import functools
import io
import json
import sys

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


def _counted(fields):
    """A count command: the kind, the group and fields(X) of one psi call."""
    def result(args, h, char, group, k):
        X = psi(h, char, group, max_ground=args.max_ground)
        return {"kind": h.kind, "group": jobio.group_to_json(group), **fields(X)}
    return result


def _orbital(X):
    return {"degree": X.degree,
            "coefficients": {str(a): v for a, v in orbital_psi(X).items()}}


def _orbital_poly(X):
    fvec = orbital_polynomial(X)
    return {"degree": X.degree, "f_vector": fvec,
            "monomial_basis": [str(c) for c in binomial_to_monomial(fvec)],
            "flawless": verify_flawless(fvec)}


def _complex(args, h, char, group, k):
    phi = coloring_complex(h, char, max_ground=args.max_ground)
    fv = flag_f_vector(phi)
    return {"kind": h.kind, "ground": list(phi.ground), "dimension": phi.dimension,
            "faces": jobio.flags_to_json(phi),
            "flag_f_vector": {",".join(map(str, key)): v for key, v in fv.items()},
            "group": jobio.group_to_json(group),
            "hilb": jobio.qsym_to_json(hilb(phi, group))}


def _certify(args, h, char, group, k):
    phi = coloring_complex(h, char, max_ground=args.max_ground)
    pairs = comparable_pairs(len(h.ground), covering_only=(args.pairs == "covering"))
    certs = [theta_certificate(phi, group, a, b) for a, b in pairs]
    return {"kind": h.kind, "group": jobio.group_to_json(group),
            "pairs": [jobio.certificate_to_json(c) for c in certs],
            "ok": all(c.valid for c in certs)}


def _verify(args, h, char, group, k):
    return run_verification(h, char, group, k=k, max_ground=args.max_ground,
                            include_oracle=not args.no_oracle)


def _oracle(args, h, char, group, k):
    cols = coloring_oracle(h, char, k, max_ground=args.max_ground)
    fixed = fixed_coloring_counts(cols, group)
    return {"kind": h.kind, "colors": k, "total": len(cols),
            "by_type": {str(t): c for t, c in colorings_by_type(cols).items()},
            "fixed_by_class": [
                {"rep": rep.cycle_string(), "size": size, "count": jobio._count(v)}
                for rep, size, v in zip(group.class_reps, group.class_sizes, fixed.values)]}


# name: (help, default ground cap, result function, extra options).  A
# result function takes (args, structure, character, group, color count)
# and returns the result without its schema, command and character.
COMMANDS = {
    "psi": ("quasisymmetric class function", GROUND_CAP,
            _counted(jobio.qsym_to_json), {}),
    "orbital": ("orbit counts per composition", GROUND_CAP, _counted(_orbital), {}),
    "poly": ("class polynomial in the binomial basis", GROUND_CAP,
             _counted(lambda X: jobio.poly_to_json(psi_polynomial(X))), {}),
    "orbital-poly": ("orbit-count polynomial and its inequality report", GROUND_CAP,
                     _counted(_orbital_poly), {}),
    "complex": ("coloring complex, faces and flag f-vector", GROUND_CAP, _complex, {}),
    "certify": ("embedding certificates on refinement pairs", GROUND_CAP, _certify,
                {"--pairs": {"choices": ("covering", "comparable"), "default": "comparable"}}),
    "verify": ("full conformance report", VERIFY_GROUND_CAP, _verify,
               {"--colors": {"type": int, "help": "oracle color count (default: job "
                                                  "field, else ground size)"},
                "--no-oracle": {"action": "store_true",
                                "help": "skip the brute-force oracle"}}),
    "oracle": ("brute-force proper colorings", ORACLE_GROUND_CAP, _oracle,
               {"--colors": {"type": int, "help": "color count (default: job field, "
                                                  "else ground size)"}}),
}


def build_parser():
    ap = argparse.ArgumentParser(
        prog="hopfchrom",
        description="exact chromatic class functions of combinatorial structures")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (text, cap, _, options) in COMMANDS.items():
        p = sub.add_parser(name, help=text)
        p.add_argument("--input", required=True, help="job JSON file")
        p.add_argument("--output", help="write the result here instead of stdout")
        p.add_argument("--workers", type=int, default=1,
                       help="deprecated and ignored (at least 1): every command runs "
                            "serially")
        p.add_argument("--max-ground", type=int, default=cap,
                       help="ground size cap (default %d)" % cap)
        p.add_argument("--max-group-order", type=int, default=GROUP_ORDER_CAP,
                       help="group order cap (default %d)" % GROUP_ORDER_CAP)
        for flag, kwargs in options.items():
            p.add_argument(flag, **kwargs)

    p = sub.add_parser("fixtures", help="bundled worked examples")
    p.add_argument("--run", action="store_true", help="recompute each fixture and compare")
    p.add_argument("--name", help="restrict to one fixture")
    p.add_argument("--output", help="write the fixture report here")
    return ap


def _output(args):
    """The file named by --output, open for writing, or stdout, left open."""
    if not args.output:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(args.output, "w")
    except OSError as exc:
        raise DomainError("cannot write %s: %s" % (args.output, exc.strerror))


def run_command(args, job=None, stream=None):
    """Run the job command args.command of COMMANDS and write its result
    to stream, else to --output or stdout; the job is the file args.input,
    read by jobio.read_job, or the job dict `job`, read by jobio.load_job.
    The exit code is 1 exactly when the result's top-level "ok" is false."""
    if args.workers < 1:
        raise DomainError("workers must be at least 1, got %d" % args.workers)
    for option, cap in (("--max-ground", args.max_ground),
                        ("--max-group-order", args.max_group_order)):
        if cap < 1:
            raise DomainError("%s must be at least 1, got %d" % (option, cap))
    if args.workers > 1:
        print("FutureWarning: --workers is deprecated and ignored: every command "
              "runs serially", file=sys.stderr)
    flag = jobio.check_colors(getattr(args, "colors", None))
    caps = {"group_cap": args.max_group_order, "max_ground": args.max_ground}
    h, char, group, colors = (jobio.read_job(args.input, **caps) if job is None
                              else jobio.load_job(job, **caps))
    if char is None:
        raise DomainError("missing field 'character'")
    k = next(c for c in (flag, colors, len(h.ground)) if c is not None)
    result = COMMANDS[args.command][2](args, h, char, group, k)
    with _output(args) if stream is None else contextlib.nullcontext(stream) as fh:
        jobio.dump({"schema": jobio.SCHEMA, "command": args.command,
                    "character": str(char), **result}, fh)
    return 0 if result.get("ok", True) else 1


# error class: its "error" text and exit code.  The one place a refusal
# gets its exit code; a subclass (UnsupportedGroupError) takes its base's.
ERRORS = {VerificationFailure: ("verification", 1), DomainError: ("domain", 2),
          ResourceCapError: ("resource_cap", 3)}


def _refusal(exc):
    """The exit code and the stderr document of the refused command that
    raised exc, a member of an ERRORS class."""
    error, code = next(ERRORS[c] for c in type(exc).__mro__ if c in ERRORS)
    doc = {"schema": jobio.SCHEMA, "error": error, "message": str(exc)}
    if isinstance(exc, VerificationFailure):
        doc["details"] = exc.details
    return code, doc


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
    """Recompute one fixture in this process: run_command on its job dict
    with the command's default options, the written bytes kept in memory
    and read back; returns (ok, diffs, result).  The command must exit 0;
    a refused one gives the single diff "exit <code>: <message>" and its
    refusal document as the result."""
    args = _parser().parse_args([fx["command"], "--input", fx["name"]])
    out = io.StringIO()
    try:
        code = run_command(args, fx["job"], out)
    except tuple(ERRORS) as exc:
        code, result = _refusal(exc)
        return False, ["exit %d: %s" % (code, result["message"])], result
    result = json.loads(out.getvalue())
    diffs = _subset_match(fx["expected"], result)
    if code:
        diffs.append("exit: expected 0, got %d" % code)
    return not diffs, diffs, result


def cmd_fixtures(args):
    fixtures = load_fixtures(args.name)
    if not args.run:
        listing = {"schema": jobio.SCHEMA, "command": "fixtures",
                   "fixtures": [{"name": f["name"], "description": f["description"],
                                 "expected_from": f["expected_from"]}
                                for f in fixtures]}
        with _output(args) as fh:
            jobio.dump(listing, fh)
        return 0
    failed = 0
    with _output(args) as fh:
        for fx in fixtures:
            ok, diffs, _ = run_fixture(fx)
            print("%s %s" % ("PASS" if ok else "FAIL", fx["name"]), file=fh)
            if fx.get("notes"):
                print("     note: %s" % fx["notes"], file=fh)
            for d in diffs:
                print("     %s" % d, file=fh)
            failed += not ok
    return 1 if failed else 0


@functools.cache
def _parser():
    """The argument parser, built on the first main call of a process."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        if args.command == "fixtures":
            return cmd_fixtures(args)
        return run_command(args)
    except tuple(ERRORS) as exc:
        code, doc = _refusal(exc)
        jobio.dump(doc, sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
