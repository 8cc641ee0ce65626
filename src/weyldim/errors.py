"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: InputError -> 1,
VerificationError -> 2, ConvergenceError -> 3.  A polynomial that
disagrees with enumeration past its threshold is a VerificationError;
nothing raises ConvergenceError today, and it is kept for a work budget
on an iterative procedure such as completion.
"""


class WeylDimError(Exception):
    """Base class for all package errors."""


class InputError(WeylDimError):
    """Malformed or out-of-contract input."""


class ZeroElementError(InputError):
    """An operation that needs a nonzero element received zero."""


class VerificationError(WeylDimError):
    """An internal cross-check (engine vs enumeration) failed."""


class ConvergenceError(WeylDimError):
    """An iterative procedure hit its budget without stabilizing."""
