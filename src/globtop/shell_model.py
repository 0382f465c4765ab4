"""Closed-form membrane deflection of a pressurized spherical cap.

The dome is treated as a thin spherical membrane shell of uniform thickness t,
radius a, and half-opening angle alpha, simply supported at its base ring and
loaded by a uniform external pressure P.  With the load carried by membrane
action alone, the displacement field along the meridian angle phi (phi = 0 at
the apex, phi = alpha at the rim) is

    v(phi) = C (1 + nu) [ 1/(1 + cos(alpha)) - 1/(1 + cos(phi))
                          + ln( (1 + cos(phi)) / (1 + cos(alpha)) ) ] sin(phi)

    w(phi) = v(phi) cot(phi) - C [ (1 + nu)/(1 + cos(phi)) - cos(phi) ]

with the load factor C = a**2 P / (E t).  Sign conventions: w is the
deflection normal to the shell surface, positive in the direction the external
pressure pushes (toward the center of curvature); v is tangent to the
meridian, positive toward the rim.  v vanishes at both the apex and the rim.

At the apex cot(phi) diverges while v goes to zero linearly; the product has
the finite limit

    w(0) = C * K(nu, alpha)
    K = (1 + nu) [ 1/(1 + cos(alpha)) - 1/2 + ln( 2/(1 + cos(alpha)) ) ]
        + 1 - (1 + nu)/2

which is where the peak deflection occurs for this load case.  K is
dimensionless, so w(0) scales exactly as a**2 P / (E t): linear in pressure,
inverse in stiffness and thickness.

Units follow the package convention, lengths in um and P, E in Pa, which
makes C and therefore v and w come out in um with no conversion factors.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from functools import partial

from .errors import InputDomainError, Record, finite_non_negative, integer, write_text
from .geometry import CapGeometry, thinness_ratio
from .materials import Material

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing
if TYPE_CHECKING:
    from pathlib import Path
    from typing import IO

_PHI_SLACK = 1e-12
# The most points a deflection or thickness profile samples, from the study
# config, ``deflect --profile-points`` or the library.  Profiles are held in
# tuples and written as text, so a count without a bound allocates until
# MemoryError; 10,001 points is finer than any plot or table needs.
MAX_PROFILE_POINTS = 10_001
# The config's profile_points row, shared by deflect's flag and thickness_profile.
PROFILE_POINTS_ROW = ("profile_points", partial(integer, 2, maximum=MAX_PROFILE_POINTS), 101)


class ShellCase(Record):
    """One fully specified load case: geometry, thickness, material, pressure.

    Construction runs the thinness check, so a case outside the thin-shell
    regime raises ThinShellWarning once, at definition time.
    """

    geometry: CapGeometry
    thickness_um: float
    material: Material
    pressure_pa: float

    def __post_init__(self) -> None:
        finite_non_negative("pressure_pa", self.pressure_pa)
        thinness_ratio(self.geometry, self.thickness_um)

    @property
    def load_factor_um(self) -> float:
        """C = a**2 P / (E t) in um; inf where E t underflows to 0."""
        a = self.geometry.radius_um
        stiffness = self.material.youngs_modulus_pa * self.thickness_um
        return (a * a * self.pressure_pa) / stiffness if stiffness > 0.0 else math.inf


def apex_coefficient(poisson_ratio: float, base_angle_rad: float) -> float:
    """Dimensionless apex deflection coefficient K(nu, alpha)."""
    nu = float(poisson_ratio)
    if not math.isfinite(nu) or not 0.0 <= nu < 0.5:
        raise InputDomainError(f"poisson_ratio must lie in [0, 0.5), got {nu!r}")
    alpha = float(base_angle_rad)
    if not math.isfinite(alpha) or not 0.0 < alpha <= math.pi / 2 + _PHI_SLACK:
        raise InputDomainError(f"base_angle_rad must lie in (0, pi/2], got {alpha!r}")
    c = math.cos(alpha)
    return (1.0 + nu) * (1.0 / (1.0 + c) - 0.5 + math.log(2.0 / (1.0 + c))) + 1.0 - (
        1.0 + nu
    ) / 2.0


def _check_phi(case: ShellCase, phi_rad: float) -> float:
    phi = float(phi_rad)
    alpha = case.geometry.base_angle_rad
    if not math.isfinite(phi) or phi < -_PHI_SLACK or phi > alpha * (1.0 + 1e-9) + _PHI_SLACK:
        raise InputDomainError(
            f"phi_rad={phi!r} outside the cap range [0, {alpha}]"
        )
    return min(max(phi, 0.0), alpha)


def meridional_v(case: ShellCase, phi_rad: float) -> float:
    """Meridional (tangential) displacement v at angle phi, in um."""
    phi = _check_phi(case, phi_rad)
    if phi == 0.0:
        return 0.0
    nu = case.material.poisson_ratio
    ca = math.cos(case.geometry.base_angle_rad)
    cp = math.cos(phi)
    bracket = 1.0 / (1.0 + ca) - 1.0 / (1.0 + cp) + math.log((1.0 + cp) / (1.0 + ca))
    return case.load_factor_um * (1.0 + nu) * bracket * math.sin(phi)


def radial_w(case: ShellCase, phi_rad: float) -> float:
    """Normal deflection w at angle phi, in um, positive toward the load.

    phi = 0 is evaluated with the closed-form apex limit; elsewhere the
    direct formula is used (it is numerically stable down to tiny phi).
    """
    phi = _check_phi(case, phi_rad)
    nu = case.material.poisson_ratio
    if phi == 0.0:
        return case.load_factor_um * apex_coefficient(
            nu, case.geometry.base_angle_rad
        )
    cp = math.cos(phi)
    v = meridional_v(case, phi)
    return v * cp / math.sin(phi) - case.load_factor_um * (
        (1.0 + nu) / (1.0 + cp) - cp
    )


def apex_deflection(case: ShellCase) -> float:
    """Peak deflection magnitude |w(0)| in um, the screening response; an
    apex that is not finite means the inputs are out of range."""
    w = abs(radial_w(case, 0.0))
    if not math.isfinite(w):
        raise InputDomainError(f"apex deflection is {w!r} um: the inputs are out of range")
    return w


class DeflectionProfile(Record):
    """Sampled (phi, v, w) along the meridian from apex to rim."""

    case: ShellCase
    phi_rad: tuple[float, ...]
    v_um: tuple[float, ...]
    w_um: tuple[float, ...]

    @property
    def apex_w(self) -> float:
        return self.w_um[0]

    def rows(self) -> Iterable[tuple[float, float, float]]:
        for p, v, w in zip(self.phi_rad, self.v_um, self.w_um):
            yield math.degrees(p), v, w

    def write_csv(self, target: str | Path | IO[str]) -> None:
        """Write phi_deg, v_um, w_um rows at full precision."""
        lines = ["phi_deg,v_um,w_um\n"]
        lines += [f"{p:.12g},{v:.12g},{w:.12g}\n" for p, v, w in self.rows()]
        write_text(target, "".join(lines))


def sample_count(name: str, n) -> int:
    """A profile's sample count ``n``, 2 to ``MAX_PROFILE_POINTS``, as an int;
    an InputDomainError names ``name``."""
    count = int(n)
    if count < 2:
        raise InputDomainError(f"{name} must be at least 2, got {n!r}")
    if count > MAX_PROFILE_POINTS:
        raise InputDomainError(f"{name} must be at most {MAX_PROFILE_POINTS}, got {n!r}")
    return count


def profile(case: ShellCase, n_samples: int) -> DeflectionProfile:
    """Sample v and w at n_samples uniform angles over [0, alpha]."""
    n = sample_count("n_samples", n_samples)
    alpha = case.geometry.base_angle_rad
    phis = tuple(alpha * i / (n - 1) for i in range(n))
    vs = tuple(meridional_v(case, p) for p in phis)
    ws = tuple(radial_w(case, p) for p in phis)
    return DeflectionProfile(case=case, phi_rad=phis, v_um=vs, w_um=ws)
