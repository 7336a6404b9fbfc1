"""Shared exception types.

cli.ERRORS is the one place that maps these onto exit codes, for every
command and for each bundled fixture that `fixtures --run` recomputes:
DomainError -> 2 (bad input), ResourceCapError -> 3 (a configured cap
was hit), VerificationFailure -> 1.  Everything else is a genuine bug
and is allowed to escape.
"""


class DomainError(ValueError):
    """Malformed or inconsistent input (bad JSON field, invalid structure,
    incompatible character, permutation that is not an automorphism, ...)."""


class UnsupportedGroupError(DomainError):
    """An operation that only works for abelian groups was asked about a
    nonabelian one. Deliberately loud, never a silent fallback."""


class ResourceCapError(RuntimeError):
    """A size cap (ground set, group order, color count) was exceeded.
    Caps can be raised explicitly; see the CLI flags."""


class VerificationFailure(AssertionError):
    """A verification run found a real mismatch. Carries a structured
    description of the first difference."""

    def __init__(self, message, details=None):
        super().__init__(message)
        self.details = details if details is not None else {}
