"""Exception hierarchy for the globtop package.

Everything raised deliberately by this package derives from GlobtopError, so
callers can catch one type at the CLI boundary.  Validation problems are also
ValueErrors, numerical failures are not.  ``real`` is the one check that a
value is a number, shared by the input schema and the domain constructors;
``finite_positive`` and ``finite_non_negative`` are the domain's range
checks on it.  The schema, ``resolve`` and its row validators, reads study
configs, their geometry blocks and material libraries alike.  ``Record`` is
the base of the package's immutable value classes, and its ``as_dict`` their
JSON form.
``read_text``, ``write_text`` and ``csv_text`` are the package's one way to
read an input file, to write an artifact to a path or a stream, and to turn
rows into CSV with each field quoted where it needs it.  They all live here
because every module that defines a value class, a schema table or an
artifact already imports this module.
"""

from __future__ import annotations

import io
import math
import os
from collections.abc import Mapping
from numbers import Real


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
        if type(value) is float or (isinstance(value, Real) and not isinstance(value, bool)):
            number = float(value)
            if not finite or math.isfinite(number):
                return number
    except OverflowError:
        pass
    kind = "finite number" if finite else "number"
    raise error(f"{name} must be a {kind}, got {value!r}")


def finite_positive(name: str, value) -> float:
    """``value`` as a float if it is a finite number above 0, else raise InputDomainError."""
    value = real(name, value)
    if value <= 0.0:
        raise InputDomainError(f"{name} must be finite and positive, got {value!r}")
    return value


def finite_non_negative(name: str, value) -> float:
    """``value`` as a float if it is a finite number not below 0, else raise InputDomainError."""
    value = real(name, value)
    if value < 0.0:
        raise InputDomainError(f"{name} must be finite and non-negative, got {value!r}")
    return value


def read_text(path, what: str) -> str:
    """The UTF-8 text of the input file ``path``; a ConfigError names ``what``."""
    try:
        with open(path, encoding="utf-8") as file:
            return file.read()
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or a NUL in the path
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc


# os.open's flags for writing a file from its start; O_BINARY, where it
# exists (Windows), keeps every line ending LF.
_WRITE_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_TRUNC | getattr(os, "O_BINARY", 0)


def write_text(target, text: str) -> None:
    """Write ``text`` to ``target``: a stream, or a path written as UTF-8.

    A path takes one os.open, os.write until every byte is written, and
    os.close; a text-mode open would add an fstat, an isatty ioctl and an
    lseek to each file, and translate line endings on Windows.
    """
    if hasattr(target, "write"):
        target.write(text)
        return
    data = memoryview(text.encode("utf-8"))
    fd = os.open(target, _WRITE_FLAGS, 0o666)
    try:
        while data:
            data = data[os.write(fd, data):]
    finally:
        os.close(fd)


def csv_text(header, rows) -> str:
    """The CSV text of ``header`` and ``rows``, each field quoted where it needs it.

    A numeric-only table is cheaper to join by hand: none of its fields can
    need quoting.
    """
    import csv  # here, so that a command writing no CSV does not load it

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


# The input schema.  A table is a tuple of rows (key, validator, default),
# the one check and default of its key in a config and on the command line.
# A validator takes the key's name and its raw value (the default when the
# key is absent) and returns the resolved value or raises a ConfigError
# naming it.  A row bounds what a command-line flag may give; other range
# checks are left to a domain constructor, whose error ``resolve`` names.

REQUIRED = object()
"""The default of a row whose key must be given."""


def resolve(table, build, path: str, raw, names: Mapping[str, str] | None = None):
    """``build(**resolved)`` for the mapping ``raw`` resolved against ``table``.

    ``path`` is the block's dotted path, "" at the top level; ``names`` may
    spell a key in the messages, as the command-line flag that gave it, say.
    """
    if not isinstance(raw, Mapping):
        raise ConfigError(f"{path or 'the top level'} must be an object, got {type(raw).__name__}")
    unknown = set(raw) - {key for key, _, _ in table}
    if unknown:
        raise ConfigError(f"{path or 'the top level'} has unknown keys: {sorted(unknown, key=str)}")
    resolved = {}
    for key, check, default in table:
        where = (names or {}).get(key) or (f"{path}.{key}" if path else key)
        value = raw.get(key, default)
        if value is REQUIRED:
            raise ConfigError(f"{where} is required")
        resolved[key] = _named(where, check, where, value)
    return _named(path, build, **resolved)


def _named(path: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``, a range error raised as a ConfigError naming ``path``."""
    try:
        return build(*args, **kwargs)
    except InputDomainError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def unchecked(path: str, raw):
    """Any value, for a row whose domain constructor checks it."""
    return raw


def number(path: str, raw, finite: bool = True, positive: bool = False) -> float:
    value = real(path, raw, finite=finite, error=ConfigError)
    if positive and not value > 0.0:  # NaN is not positive either
        raise ConfigError(f"{path} must be positive, got {raw!r}")
    return value


def integer(minimum: int, path: str, raw, maximum: int) -> int:
    if not number(path, raw).is_integer() or raw < minimum:
        raise ConfigError(f"{path} must be an integer of at least {minimum}, got {raw!r}")
    if raw > maximum:
        raise ConfigError(f"{path} must be an integer of at most {maximum}, got {raw!r}")
    return int(raw)


def numbers(n: int, path: str, raw) -> tuple[float, ...]:
    if not isinstance(raw, (list, tuple)) or len(raw) != n:
        raise ConfigError(f"{path} must be a list of {n} values")
    return tuple(number(f"{path}[{i}]", v) for i, v in enumerate(raw))


def choice(options: tuple[str, ...], path: str, raw) -> str:
    if raw not in options:
        raise ConfigError(f"{path} must be one of {', '.join(options)}, got {raw!r}")
    return raw


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

    def as_dict(self) -> dict:
        """The fields by name, the JSON form of a value class."""
        values = self.__dict__
        return {key: values[key] for key in self._fields}

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
