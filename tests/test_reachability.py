"""No dead helpers: every function and method defined in src/hopfchrom
runs under some command, or ALLOWED names it with the reason it stays.

The commands are every VARIANTS entry of test_cli_golden on every
bundled fixture job, the refusal jobs of refusal_jobs and
``fixtures --run``, run in this process under sys.setprofile.  A
function counts by its code object, so one wrapped by classmethod,
staticmethod, property, cached_property or lru_cache counts when its
body runs; every cache is cleared first, so that no body is skipped
for a result an earlier test left behind.  Functions nested in a
function count too; lambdas, comprehensions and the methods dataclass
generates do not."""

import contextlib
import importlib
import inspect
import io
import json
import os
import pkgutil
import sys
import time
from functools import cached_property

import hopfchrom
from hopfchrom.cli import load_fixtures, main
from test_cli_golden import VARIANTS
from refusal_jobs import BAD_JOBS, HUGE_COORDINATE_JOBS, OVER_CAP_JOBS, write_jobs

LIBRARY = "documented library entry point"
PERFBENCH = "called by perfbench"
ERROR = "error path that no job reaches"

ALLOWED = {
    # documented library entry points: README "What you can compute" and
    # hopfchrom.__all__
    "complexes.BalancedRelativeComplex.__init__": LIBRARY + ": a complex from label chains",
    "compositions.Flag.__post_init__": LIBRARY + ": a face as a chain of label tuples",
    "compositions.Flag.__str__": LIBRARY + ": the flag text form",
    "compositions.Flag.kappa": LIBRARY + ": the member sizes of a flag",
    "compositions.IntComposition.parse": LIBRARY + ": the integer composition text form",
    "structures.Matroid.rank": LIBRARY + ": the rank of a matroid",
    "structures.automorphisms": LIBRARY + ": the automorphism group of a structure",
    "cyclotomic.Cyclo.__eq__": LIBRARY + ": a character value compares exactly",
    "cyclotomic.Cyclo.__hash__": LIBRARY + ": a character value hashes with its rational",
    "cyclotomic.Cyclo.__repr__": LIBRARY + ": a character value in a traceback",
    "cyclotomic.Cyclo.is_zero": LIBRARY + ": a character value tests for zero",
    # perfbench: jobgen builds jobs with these, spans reads identity_slice,
    # randgen's corpus calls is_identity
    "chromatic.ClassQSym.identity_slice": PERFBENCH,
    "groups.Permutation.is_identity": PERFBENCH + ": randgen.random_group drops the identity",
    "jobio.structure_to_json": PERFBENCH,
    "structures.loday_associahedron": PERFBENCH,
    # error paths: a failed check prints a Cyclo or a Fraction
    "complexes.BalancedRelativeComplex.text": ERROR + ": an invalid complex names its faces",
    "errors.VerificationFailure.__init__": ERROR + ": a failed verification",
    "jobio._exact": ERROR + ": a Fraction or Cyclo in failure details",
    "cyclotomic.Cyclo.is_rational": ERROR + ": a non-integer multiplicity",
    "cyclotomic.Cyclo.rational_value": ERROR + ": a non-integer multiplicity",
    "cyclotomic.Cyclo.__str__": ERROR + ": a character named by a failed check",
    # runs when hopfchrom.cli is imported, before any command
    "cli._counted": "builds the COMMANDS rows at import",
}
# randgen.corpus builds the corpus-verify jobs and the corpora of acceptance criterion 10
ALLOWED.update({"randgen." + name: PERFBENCH + ": the random corpus" for name in (
    "_ground", "_random_partition", "all_small_graphs", "corpus", "random_character",
    "random_double_poset", "random_graph", "random_group", "random_hypergraph",
    "random_instance", "random_matroid", "random_mixed_graph", "random_point_collection",
    "random_poset", "random_simplicial_complex")})


def _functions(obj):
    """The plain functions behind a module or class attribute."""
    if isinstance(obj, (classmethod, staticmethod)):
        obj = obj.__func__
    elif isinstance(obj, property):
        return [f for f in (obj.fget, obj.fset, obj.fdel) if f]
    elif isinstance(obj, cached_property):
        obj = obj.func
    if callable(obj) and hasattr(obj, "cache_clear"):
        obj.cache_clear()
        obj = inspect.unwrap(obj)
    return [obj] if inspect.isfunction(obj) else []


def defined_functions():
    """{code object: "module.qualname"} of every function and method
    written in a module of hopfchrom, nested functions included; clears
    every lru_cache on the way."""
    out = {}

    def add(name, code, filename):
        if code.co_filename == filename:
            out[code] = name
            for const in code.co_consts:
                if inspect.iscode(const) and not const.co_name.startswith("<"):
                    add("%s.<locals>.%s" % (name, const.co_name), const, filename)

    for info in pkgutil.iter_modules(hopfchrom.__path__):
        module = importlib.import_module("hopfchrom." + info.name)
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            members = list(vars(obj).values()) if inspect.isclass(obj) else [obj]
            for f in (f for m in members for f in _functions(m)):
                add("%s.%s" % (info.name, f.__qualname__), f.__code__, module.__file__)
    return out


def run_commands(tmp):
    """Run the command set once; returns the code objects called."""
    paths = []
    for i, fx in enumerate(load_fixtures()):
        paths.append(os.path.join(tmp, "fixture%02d.json" % i))
        with open(paths[-1], "w", encoding="utf-8") as fh:
            json.dump(fx["job"], fh)
    refused = [write_jobs(tmp, jobs, character)
               for jobs, character in ((BAD_JOBS, "zeta"), (OVER_CAP_JOBS, "zeta"),
                                       (HUGE_COORDINATE_JOBS, "vertex_generic"))]
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sink = io.StringIO()
    sys.setprofile(profile)
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            for argv in VARIANTS.values():
                for path in paths:
                    main(argv[:1] + ["--input", path] + argv[1:])
            for path in (p for jobs in refused for p in jobs.values()):
                assert main(["psi", "--input", path]) in (2, 3), path
            assert main(["fixtures", "--run"]) == 0
    finally:
        sys.setprofile(None)
    return called


def test_every_function_runs_under_a_command_or_is_allowed(tmp_path):
    start = time.perf_counter()
    defined = defined_functions()
    called = run_commands(str(tmp_path))
    never = {name for code, name in defined.items() if code not in called}
    assert sorted(never - set(ALLOWED)) == [], "functions no command reaches"
    assert sorted(set(ALLOWED) - set(defined.values())) == [], "allowed but not defined"
    assert sorted(set(ALLOWED) - never) == [], "allowed but reached by a command"
    assert time.perf_counter() - start < 15
