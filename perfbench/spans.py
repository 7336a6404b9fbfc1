"""Spans around the public functions of each hopfchrom module.

install() wraps every function in LAYERS and rebinds the wrapper under
every name that refers to the original in any loaded hopfchrom module,
so a call through a ``from ... import`` binding (``chromatic.psi`` used
by ``verify``, ``cli`` and ``complexes``) is traced like a call through
the defining module.  Each span records its layer, start, end, parent
span, job id and execution number; spans stay in memory and the worker
writes them out at the end.  Counters are taken at the same boundary,
from the arguments and the result of the call.
"""

import functools
import importlib
import sys
import time
from collections import Counter


def _compositions(counts, args, kwargs, result):
    counts["chromatic.compositions"] += len(result)


def _psi(counts, args, kwargs, result):
    counts["chromatic.fixed_tests"] += (sum(result.identity_slice().values())
                                        * result.group.order)


def _oracle(counts, args, kwargs, result):
    h = args[0]
    k = args[2] if len(args) > 2 else kwargs["k"]
    counts["chromatic.oracle_hits"] += len(result)
    counts["chromatic.oracle_candidates"] += k ** len(h.ground)


def _faces(counts, args, kwargs, result):
    counts["complexes.faces"] += len(result.faces)


def _hilb(counts, args, kwargs, result):
    counts["complexes.hilb_fixed_tests"] += len(args[0].faces) * result.group.order


def _certificate(counts, args, kwargs, result):
    counts["complexes.certificate_pairs"] += 1
    counts["complexes.certificates_valid"] += int(result.valid)
    counts["complexes.matrix_entries"] += result.n_source * result.n_target


def _calls(name):
    def count(counts, args, kwargs, result):
        counts[name] += 1
    return count


# (module, function, layer, counter, workloads expected to call it,
#  end-to-end metric the layer should move).  The time metric of a layer
# is its name plus "_s": the self time of its spans.
LAYERS = (
    ("chromatic", "proper_compositions", "chromatic.enumerate", _compositions,
     ("count", "corpus-verify", "complex-certify"),
     "count per-job latencies; predicted flat on the other two workloads"),
    ("chromatic", "psi", "chromatic.psi_count", _psi,
     ("count", "corpus-verify"), "c7_psi_s most, since D7 has 14 elements"),
    ("chromatic", "coloring_oracle", "chromatic.oracle", _oracle,
     ("corpus-verify",), "corpus-verify run_s"),
    ("chromatic", "fixed_coloring_counts", "chromatic.oracle_fixed", None,
     ("corpus-verify",), "corpus-verify run_s"),
    ("complexes", "check_balanced_convex", "complexes.convex", None,
     ("corpus-verify", "complex-certify"), "corpus-verify run_s"),
    ("complexes", "coloring_complex", "complexes.build", _faces,
     ("corpus-verify", "complex-certify"), "c6_complex_s and octa_certify_s"),
    ("complexes", "hilb", "complexes.hilb", _hilb,
     ("corpus-verify", "complex-certify"), "c6_complex_s"),
    ("complexes", "theta_certificate", "complexes.certificate", _certificate,
     ("corpus-verify", "complex-certify"),
     "octa_certify_s, and job_p90_s and run_s on corpus-verify"),
    ("complexes", "integer_matrix_rank", "complexes.rank", None,
     ("corpus-verify", "complex-certify"),
     "under 1% at n <= 6; heavy only at n = 7, which no workload reaches"),
    ("groups", "abelian_irreducibles", "groups.characters", _calls("groups.characters_calls"),
     ("corpus-verify",), "corpus-verify only; zero on the other two"),
    ("groups", "leq_char", "groups.leq_char", _calls("groups.leq_char_calls"),
     ("corpus-verify",), "corpus-verify only; zero on the other two"),
    ("jobio", "parse_group", "groups.closure", None,
     ("count", "corpus-verify", "complex-certify"), "every per-job latency a little"),
    ("jobio", "read_job", "jobio.read_job", None,
     ("count", "corpus-verify", "complex-certify"), "every per-job latency a little"),
    ("jobio", "dump", "jobio.dump", None,
     ("count", "corpus-verify", "complex-certify"), "octa_certify_s and c6_complex_s"),
    ("verify", "run_verification", "verify.self", None,
     ("corpus-verify",), "corpus-verify run_s"),
)

# Counter metrics reported per pass, each with the layer that feeds it;
# the two ratios are computed from their own pair of counters.
COUNTS = {
    "chromatic.compositions": "chromatic.enumerate",
    "chromatic.fixed_tests": "chromatic.psi_count",
    "complexes.faces": "complexes.build",
    "complexes.hilb_fixed_tests": "complexes.hilb",
    "complexes.certificate_pairs": "complexes.certificate",
    "complexes.matrix_entries": "complexes.certificate",
    "groups.characters_calls": "groups.characters",
    "groups.leq_char_calls": "groups.leq_char",
}
RATIOS = {
    "chromatic.oracle_hit_ratio": ("chromatic.oracle_hits", "chromatic.oracle_candidates",
                                   "chromatic.oracle"),
    "complexes.certificate_valid_ratio": ("complexes.certificates_valid",
                                          "complexes.certificate_pairs",
                                          "complexes.certificate"),
}


class Tracer:
    """In-memory span recorder; set job and execution before each job."""

    def __init__(self):
        self.spans = []  # [layer, start, end, parent index or None, job id, execution]
        self.counts = Counter()
        self.job = None
        self.execution = None
        self._stack = []

    def wrap(self, layer, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [layer, time.perf_counter(), None,
                    self._stack[-1] if self._stack else None, self.job, self.execution]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                counter(self.counts, args, kwargs, result)
            return result
        return traced


def install(tracer):
    """Wrap every function in LAYERS; a missing function raises."""
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "hopfchrom" or name.startswith("hopfchrom."))]
    for module, function, layer, counter, _, _ in LAYERS:
        original = getattr(importlib.import_module("hopfchrom." + module), function)
        wrapper = tracer.wrap(layer, original, counter)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)


def self_times(spans):
    """Per (execution, layer) self time: each span's duration minus the
    durations of its direct children."""
    child = [0.0] * len(spans)
    for layer, start, end, parent, job, execution in spans:
        if parent is not None:
            child[parent] += end - start
    out = Counter()
    for (layer, start, end, parent, job, execution), c in zip(spans, child):
        out[(execution, layer)] += end - start - c
    return out
