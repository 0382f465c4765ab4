"""Exception hierarchy for the globtop package.

Everything raised deliberately by this package derives from GlobtopError, so
callers can catch one type at the CLI boundary.  Validation problems are also
ValueErrors, numerical failures are not.  ``real`` is the one check that a
value is a number, shared by the config schema and the domain constructors.
``Record`` is the base of the package's immutable value classes; it lives
here because every module that defines one already imports this module.
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


class Record:
    """Immutable value class: what the package uses of a frozen dataclass.

    A subclass's fields are the names its own body annotates, in order, and
    a class attribute of the same name is that field's default.  Instances
    are built by position or by name, then ``__post_init__`` runs; it may
    normalize a field with ``object.__setattr__``.  Equality and hash go by
    the tuple of fields, the repr lists them, and assignment or deletion
    raises AttributeError.  Nothing is generated or executed per class, so
    defining one costs no ``dataclasses`` or ``inspect`` import.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(cls.__annotations__)
        cls._field_set = frozenset(cls._fields)
        cls._defaults = {name: cls.__dict__[name] for name in cls._fields if name in cls.__dict__}

    def __init__(self, *args, **kwargs):
        fields = self._fields
        values = self.__dict__
        values.update(zip(fields, args))
        values.update(kwargs)
        if len(args) + len(kwargs) != len(fields) or values.keys() != self._field_set:
            self._complete(len(args), kwargs)
        self.__post_init__()

    def _complete(self, n_args: int, kwargs: dict) -> None:
        """Fill defaults into a partial construction, or raise its TypeError."""
        name = type(self).__name__
        fields = self._fields
        if n_args > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments but {n_args} were given")
        for key in kwargs:
            if key not in self._field_set:
                raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
            if key in fields[:n_args]:
                raise TypeError(f"{name}() got multiple values for argument {key!r}")
        values = self.__dict__
        for key, default in self._defaults.items():
            values.setdefault(key, default)
        missing = [key for key in fields if key not in values]
        if missing:
            raise TypeError(f"{name}() missing required arguments: {', '.join(missing)}")

    def __post_init__(self) -> None:
        pass

    def _key(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{key}={getattr(self, key)!r}" for key in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, key, value):
        raise AttributeError(f"cannot assign to field {key!r}")

    def __delattr__(self, key):
        raise AttributeError(f"cannot delete field {key!r}")
