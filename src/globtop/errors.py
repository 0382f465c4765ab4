"""Exception hierarchy for the globtop package.

Everything raised deliberately by this package derives from GlobtopError, so
callers can catch one type at the CLI boundary.  Validation problems are also
ValueErrors, numerical failures are not.  ``real`` is the one check that a
value is a number, shared by the config schema and the domain constructors.
"""

from __future__ import annotations

import math
import numbers


class GlobtopError(Exception):
    """Base class for all errors raised by this package."""


class InputDomainError(GlobtopError, ValueError):
    """An argument is outside the physical or mathematical domain."""


class ConfigError(GlobtopError, ValueError):
    """A config file, library file, or structured input is invalid."""


class MeshError(GlobtopError, ValueError):
    """A mesh cannot be built or fails its structural checks."""


class SolverError(GlobtopError):
    """A numerical solve failed (factorization, root find, convergence)."""


class FitError(GlobtopError):
    """A model fit is impossible or rank deficient."""


class ResponderError(GlobtopError):
    """A response evaluation failed; carries the 1-based run index."""

    def __init__(self, run: int, message: str):
        self.run = run
        super().__init__(f"run {run}: {message}")


class StageError(GlobtopError):
    """A study pipeline stage failed; wraps the original error."""

    def __init__(self, stage: str, original: Exception):
        self.stage = stage
        self.original = original
        super().__init__(f"stage {stage!r} failed: {original}")


def real(name: str, value, *, finite: bool = True, error: type = InputDomainError) -> float:
    """``value`` as a float if it is a real number, else raise ``error``.

    bool, str and None are not numbers here, although float() takes them.
    ``finite=False`` lets inf and NaN through to a caller that checks them.
    """
    try:
        if isinstance(value, numbers.Real) and not isinstance(value, bool):
            number = float(value)
            if not finite or math.isfinite(number):
                return number
    except OverflowError:
        pass
    kind = "finite number" if finite else "number"
    raise error(f"{name} must be a {kind}, got {value!r}")
