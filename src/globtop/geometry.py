"""Spherical-cap geometry of a glob-top encapsulant dome.

A dome dispensed over a die is modelled as a spherical cap sitting on a
circular base of half-width b with apex rise h.  The sphere radius a and the
half-opening angle alpha follow from the two chord relations

    b = a * sin(alpha)        h = a * (1 - cos(alpha))

which invert in closed form to a = (b**2 + h**2) / (2 h), alpha = asin(b / a).
All lengths are in micrometres, angles in radians unless a name says deg.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Mapping

from .errors import ConfigError, InputDomainError, Record, number, real, resolve


class ThinShellWarning(UserWarning):
    """The shell is thick enough that thin-shell results degrade."""


THINNESS_LIMIT = 0.1
"""Thickness-to-radius ratio above which ThinShellWarning is issued."""


def _require_finite_positive(name: str, value: float) -> float:
    value = real(name, value)
    if value <= 0.0:
        raise InputDomainError(f"{name} must be finite and positive, got {value!r}")
    return value


class CapGeometry(Record):
    """Spherical cap described redundantly by (b, h) and (a, alpha).

    The four fields must be consistent; the constructor re-derives the chord
    relations and rejects mismatches beyond floating-point noise.  Build
    instances through solve_cap or from_radius_angle rather than by hand.
    """

    base_half_width_um: float
    rise_um: float
    radius_um: float
    base_angle_rad: float

    def __post_init__(self) -> None:
        b = _require_finite_positive("base_half_width_um", self.base_half_width_um)
        h = _require_finite_positive("rise_um", self.rise_um)
        a = _require_finite_positive("radius_um", self.radius_um)
        alpha = float(self.base_angle_rad)
        if not math.isfinite(alpha) or not 0.0 < alpha <= math.pi / 2 + 1e-12:
            raise InputDomainError(
                f"base_angle_rad must lie in (0, pi/2], got {alpha!r}"
            )
        if h > b * (1.0 + 1e-12):
            raise InputDomainError(
                f"rise_um={h} exceeds base_half_width_um={b}; "
                "caps taller than a hemisphere are not supported"
            )
        if not math.isclose(b, a * math.sin(alpha), rel_tol=1e-9):
            raise InputDomainError("inconsistent cap: b != a*sin(alpha)")
        # 1 - cos(alpha) cancels badly for shallow caps; 2 sin^2(alpha/2)
        # is the same quantity without the cancellation.
        if not math.isclose(h, a * 2.0 * math.sin(alpha / 2.0) ** 2, rel_tol=1e-9):
            raise InputDomainError("inconsistent cap: h != a*(1 - cos(alpha))")

    @property
    def base_angle_deg(self) -> float:
        return math.degrees(self.base_angle_rad)

    def as_dict(self) -> dict:
        return {
            "base_half_width_um": self.base_half_width_um,
            "rise_um": self.rise_um,
            "radius_um": self.radius_um,
            "base_angle_deg": self.base_angle_deg,
        }


def _spelled(names: Mapping[str, str] | None, *keys: str) -> tuple[str, ...]:
    """Each of ``keys`` as ``names`` spells it, if it does."""
    return tuple((names or {}).get(key, key) for key in keys)


def solve_cap(
    base_half_width_um: float, rise_um: float, names: Mapping[str, str] | None = None
) -> CapGeometry:
    """Solve the cap from base half-width and apex rise.

    Args:
        base_half_width_um: half-width b of the circular footprint, um.
        rise_um: apex height h above the base plane, um; 0 < h <= b.
        names: spells the keys in the messages, as ``cap_from_config`` takes it.

    Returns:
        The consistent CapGeometry.

    Raises:
        InputDomainError: on non-positive, non-finite, or h > b inputs.
    """
    b_name, h_name = _spelled(names, "base_half_width_um", "rise_um")
    b = _require_finite_positive(b_name, base_half_width_um)
    h = _require_finite_positive(h_name, rise_um)
    if h > b:
        raise InputDomainError(
            f"{h_name}={h} exceeds {b_name}={b}; "
            "caps taller than a hemisphere are not supported"
        )
    a = (b * b + h * h) / (2.0 * h)
    # atan2 rather than asin(b / a): asin loses half the digits when h
    # approaches b (alpha near 90 degrees), and the factored form of the
    # horizontal leg a - h = (b - h)(b + h) / 2h avoids the cancellation
    # that computing it by subtraction would reintroduce.
    alpha = math.atan2(b, (b - h) * (b + h) / (2.0 * h))
    return CapGeometry(
        base_half_width_um=b, rise_um=h, radius_um=a, base_angle_rad=alpha
    )


def from_radius_angle(
    radius_um: float, base_angle_deg: float, names: Mapping[str, str] | None = None
) -> CapGeometry:
    """Build the cap from sphere radius and base angle in degrees.

    ``names`` spells the keys in the messages, as ``cap_from_config`` takes it.
    """
    a_name, alpha_name = _spelled(names, "radius_um", "base_angle_deg")
    a = _require_finite_positive(a_name, radius_um)
    alpha = math.radians(real(alpha_name, base_angle_deg))
    if not 0.0 < alpha <= math.pi / 2:
        raise InputDomainError(
            f"{alpha_name} must lie in (0, 90], got {base_angle_deg!r}"
        )
    return CapGeometry(
        base_half_width_um=a * math.sin(alpha),
        rise_um=a * 2.0 * math.sin(alpha / 2.0) ** 2,
        radius_um=a,
        base_angle_rad=alpha,
    )


_FORMS = (
    (("base_half_width_um", "rise_um"), solve_cap),
    (("radius_um", "base_angle_deg"), from_radius_angle),
)


def _positive(path: str, raw) -> float | None:
    """An absent key's None, or a finite, positive number."""
    return None if raw is None else number(path, raw, positive=True)


CAP_ROWS = tuple((key, _positive, None) for pair, _ in _FORMS for key in pair)


def cap_from_config(block: Mapping, names: Mapping[str, str] | None = None) -> CapGeometry:
    """Build a cap from a config mapping.

    Exactly one of the two forms must be present:
    {"base_half_width_um": b, "rise_um": h} or
    {"radius_um": a, "base_angle_deg": alpha}.  ``names`` spells the keys in
    the messages of a malformed block, as ``errors.resolve`` takes it.
    """
    values = resolve(CAP_ROWS, dict, "geometry", block, names)  # no other keys, and each positive
    spelled = ["/".join(_spelled(names, *pair)) for pair, _ in _FORMS]
    given = [(pair, build) for pair, build in _FORMS if any(key in block for key in pair)]
    if len(given) != 1:
        raise ConfigError(
            f"geometry: give either {spelled[0]} or {spelled[1]}"
            + (", not both" if given else f", got keys {sorted(block)}")
        )
    [(pair, build)] = given
    if not all(key in block for key in pair):
        first, second = _spelled(names, *pair)
        raise ConfigError(f"geometry: {first} and {second} must be given together")
    return build(*(values[key] for key in pair), names=names)


REFERENCE_CAP = {"radius_um": 3010.0, "base_angle_deg": 23.5}
"""Default dome, as a geometry config block: a 3010 um sphere with a 23.5 deg
base angle, the rounded form of the 1200 x 250 um reference footprint."""

REFERENCE_GEOMETRY = cap_from_config(REFERENCE_CAP)


def thinness_ratio(geometry: CapGeometry, thickness_um: float) -> float:
    """Return t/a and warn with ThinShellWarning when it exceeds 0.1.

    The membrane and bending models here are thin-shell theories; above
    roughly t/a = 0.1 their error grows and results should be treated as
    indicative only, so this is a warning rather than an error.
    """
    t = _require_finite_positive("thickness_um", thickness_um)
    ratio = t / geometry.radius_um
    if ratio > THINNESS_LIMIT:
        warnings.warn(
            f"thickness/radius = {ratio:.4f} exceeds {THINNESS_LIMIT}; "
            "thin-shell assumptions degrade",
            ThinShellWarning,
            stacklevel=2,
        )
    return ratio
