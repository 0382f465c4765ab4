"""Candidate encapsulant materials and the material library file format.

Library files are JSON:

    {"materials": [{"name": ..., "youngs_modulus_gpa": ..., "poisson_ratio": ...}, ...]}

Every key shown is required, and any other key is an error.  The modulus
is stored in GPa as the float of the value read, so serialize/load
round-trips are field-exact; physics code uses the youngs_modulus_pa
property.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from collections.abc import Iterator

from .errors import REQUIRED, ConfigError, InputDomainError, Record, read_text, real, resolve, unchecked
from .units import GPA_PA

_NORM_RE = re.compile(r"[^a-z0-9]+")


def _normalize(name: str) -> str:
    return _NORM_RE.sub("", name.lower())


class Material(Record):
    """Isotropic elastic encapsulant candidate."""

    name: str
    youngs_modulus_gpa: float
    poisson_ratio: float

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name.strip():
            raise InputDomainError("material name must be a non-empty string")
        if self.name.encode("utf-8", "ignore").decode("utf-8") != self.name:
            raise InputDomainError(f"material name {self.name!r} cannot be encoded as UTF-8")
        e = real(f"{self.name}: youngs_modulus_gpa", self.youngs_modulus_gpa)
        if e <= 0.0:
            raise InputDomainError(
                f"{self.name}: youngs_modulus_gpa must be positive, got {e!r}"
            )
        nu = real(f"{self.name}: poisson_ratio", self.poisson_ratio)
        if not 0.0 <= nu < 0.5:
            raise InputDomainError(
                f"{self.name}: poisson_ratio must lie in [0, 0.5), got {nu!r}"
            )
        object.__setattr__(self, "youngs_modulus_gpa", e)
        object.__setattr__(self, "poisson_ratio", nu)

    @property
    def youngs_modulus_pa(self) -> float:
        return self.youngs_modulus_gpa * GPA_PA


class MaterialLibrary(Record):
    """Ordered collection of materials with case-insensitive name lookup."""

    materials: tuple[Material, ...]

    def __post_init__(self) -> None:
        if not self.materials:
            raise ConfigError("material library must contain at least one material")
        seen: dict[str, str] = {}
        for m in self.materials:
            key = _normalize(m.name)
            if key in seen:
                raise ConfigError(
                    f"duplicate material name: {m.name!r} collides with {seen[key]!r}"
                )
            seen[key] = m.name

    def __iter__(self) -> Iterator[Material]:
        return iter(self.materials)

    def __len__(self) -> int:
        return len(self.materials)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(m.name for m in self.materials)

    def get(self, name: str) -> Material:
        """Look up a material by name.

        Matching ignores case, spaces, and punctuation, and falls back to a
        unique normalized prefix, so "CarbonEpoxy" finds "Carbon epoxy resin".
        """
        key = _normalize(name)
        by_key = {_normalize(m.name): m for m in self.materials}
        if key in by_key:
            return by_key[key]
        if key:
            prefixed = [m for k, m in by_key.items() if k.startswith(key)]
            if len(prefixed) == 1:
                return prefixed[0]
        raise KeyError(
            f"unknown material {name!r}; available: {', '.join(self.names)}"
        )

    def sorted_by_modulus(self) -> tuple[Material, ...]:
        return tuple(sorted(self.materials, key=lambda m: m.youngs_modulus_gpa))


# The library file's schema; Material checks each entry's values.
_MATERIAL = tuple((key, unchecked, REQUIRED) for key in Material._fields)


def _materials(path: str, raw) -> tuple[Material, ...]:
    if not isinstance(raw, list):
        raise ConfigError(f"{path} must be a list")
    return tuple(resolve(_MATERIAL, Material, f"{path}[{i}]", entry) for i, entry in enumerate(raw))


_LIBRARY = (("materials", _materials, REQUIRED),)


def library_block(path: str, raw) -> MaterialLibrary:
    """The library that the mapping ``raw``, at dotted path ``path``, describes."""
    return resolve(_LIBRARY, MaterialLibrary, path, raw)


def load_library(text: str, path: str = "") -> MaterialLibrary:
    """Parse a material library from JSON text; an error names ``path``, the file's."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path or 'material library'} is not valid JSON: {exc}") from exc
    return library_block(path, doc)


def load_library_file(path: str | Path) -> MaterialLibrary:
    """Load a material library from a JSON file."""
    return load_library(read_text(path, "material library"), str(path))


def serialize_library(library: MaterialLibrary) -> str:
    """Serialize a library to JSON text; load_library inverts this exactly."""
    doc = {"materials": [m.as_dict() for m in library]}
    return json.dumps(doc, indent=2) + "\n"


def default_library() -> MaterialLibrary:
    """The three bundled candidate encapsulants, softest first."""
    return load_library((Path(__file__).parent / "data" / "materials.json").read_text("utf-8"))
