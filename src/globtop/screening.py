"""Material verdicts and minimum encapsulant thickness under a deflection cap.

The screening question is: for each candidate material, how thick must the
glob top be so that the worst-case apex deflection stays below the allowed
limit, and does that thickness fit the package?  Because the closed-form apex
deflection is a**2 P K / (E t), the minimum feasible thickness at the worst
pressure is explicit:

    t_min = a**2 P_max K(nu, alpha) / (E * limit)

A material passes when t_min fits within the dispensable thickness cap,
fails when it clearly does not, and is marginal inside a +/-5 percent band
around the cap, where process scatter decides.

Three response sources are supported: the closed-form model, the shell FEM
(t_min found by root bracketing on the solved apex deflection), and a fitted
screening model from an external response column (t_min from inverting the
linear fit).  Keeping the sources separate in the output is deliberate: the
gap between an analytical t_min and a fitted one is part of the answer.
"""

from __future__ import annotations

import math
import sys
from functools import partial

from .errors import ConfigError, InputDomainError, Record, SolverError, choice, integer, number, numbers, real
from .geometry import CapGeometry
from .materials import Material, MaterialLibrary
from .shell_model import MAX_PROFILE_POINTS, PROFILE_POINTS_ROW, ShellCase, apex_coefficient, apex_deflection
from .units import ATM_PA, atm_to_pa

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing
if TYPE_CHECKING:
    from .fem import FemSolution, ShellMesh
    from .stats import ScreeningFit

SOURCES = ("analytical", "fem", "external")

_CLASSES = {"pass": 0, "marginal": 1, "fail": 2}
# Tolerance of the FEM thickness root in log t.  The 256-element apex
# carries roundoff of about 1e-8 of itself, so a closer root means nothing.
_ROOT_XTOL = 1e-8
# scipy.optimize.brentq's smallest and default relative tolerance.
_RTOL = 4 * sys.float_info.epsilon


class ScreeningCriteria(Record):
    """Feasibility thresholds for the package under study."""

    deflection_limit_um: float = 5.0
    max_pressure_atm: float = 100.0
    max_thickness_um: float = 250.0
    thickness_range_um: tuple[float, float] = (150.0, 250.0)
    pressure_range_atm: tuple[float, float] = (80.0, 100.0)
    marginal_band: float = 0.05

    def __post_init__(self) -> None:
        limit = real("deflection_limit_um", self.deflection_limit_um, finite=False)
        if math.isnan(limit) or limit <= 0.0:
            raise InputDomainError(
                f"deflection_limit_um must be positive (inf allowed), got {limit!r}"
            )
        object.__setattr__(self, "deflection_limit_um", limit)
        for name in ("max_pressure_atm", "max_thickness_um"):
            v = real(name, getattr(self, name))
            if v <= 0.0:
                raise InputDomainError(f"{name} must be finite and positive, got {v!r}")
            object.__setattr__(self, name, v)
        for name in ("thickness_range_um", "pressure_range_atm"):
            lo, hi = (real(name, v) for v in getattr(self, name))
            if not 0.0 < lo < hi:
                raise InputDomainError(f"{name} must be an increasing positive pair")
            object.__setattr__(self, name, (lo, hi))
        band = real("marginal_band", self.marginal_band)
        if not 0.0 <= band < 1.0:
            raise InputDomainError(f"marginal_band must lie in [0, 1), got {band!r}")
        object.__setattr__(self, "marginal_band", band)


# The config's criteria rows; the three that are optimize's flags bound them.
CRITERIA_ROWS = tuple((key, check, getattr(ScreeningCriteria, key)) for key, check in (
    ("deflection_limit_um", partial(number, finite=False, positive=True)),
    ("max_pressure_atm", partial(number, positive=True)),
    ("max_thickness_um", partial(number, positive=True)),
    ("thickness_range_um", partial(numbers, 2)),
    ("pressure_range_atm", partial(numbers, 2)),
    ("marginal_band", number),
))

def min_thickness(
    material: Material,
    geometry: CapGeometry,
    pressure_pa: float,
    deflection_limit_um: float,
) -> float:
    """Closed-form minimum thickness, um, holding the apex at the limit.

    Zero pressure needs no encapsulant stiffness at all, so 0.0 is returned;
    an infinite limit likewise.
    """
    p = float(pressure_pa)
    if not math.isfinite(p) or p < 0.0:
        raise InputDomainError(f"pressure_pa must be finite and non-negative, got {p!r}")
    limit = float(deflection_limit_um)
    if math.isnan(limit) or limit <= 0.0:
        raise InputDomainError(f"deflection_limit_um must be positive, got {limit!r}")
    if p == 0.0 or math.isinf(limit):
        return 0.0
    a = geometry.radius_um
    k = apex_coefficient(material.poisson_ratio, geometry.base_angle_rad)
    return a * a * p * k / (material.youngs_modulus_pa * limit)


def desirability(
    deflection_um: float, lower_target_um: float = 0.0, upper_bound_um: float = 5.0
) -> float:
    """Smaller-is-better score in [0, 1], linear between target and bound."""
    lo = float(lower_target_um)
    hi = float(upper_bound_um)
    if not (math.isfinite(lo) and math.isfinite(hi)) or not lo < hi:
        raise InputDomainError(
            f"need lower_target_um < upper_bound_um, got {lo!r}, {hi!r}"
        )
    w = float(deflection_um)
    if math.isnan(w):
        raise InputDomainError("deflection_um is NaN")
    if w <= lo:
        return 1.0
    if w >= hi:
        return 0.0
    return (hi - w) / (hi - lo)


class Verdict(Record):
    """Feasibility verdict for one material under one response source."""

    material_name: str
    source: str
    min_feasible_thickness_um: float
    worst_case_deflection_um: float
    classification: str

    def as_dict(self) -> dict:
        t_min = self.min_feasible_thickness_um
        return {
            "material": self.material_name,
            "source": self.source,
            # JSON has no Infinity literal, so an unbounded thickness is
            # serialized as the string "inf".
            "min_feasible_thickness_um": t_min if math.isfinite(t_min) else "inf",
            "worst_case_deflection_um": self.worst_case_deflection_um,
            "classification": self.classification,
        }


def classify(t_min_um: float, criteria: ScreeningCriteria) -> str:
    """pass / marginal / fail against the thickness cap with the +/- band."""
    cap = criteria.max_thickness_um
    band = criteria.marginal_band
    if t_min_um <= cap * (1.0 - band):
        return "pass"
    if t_min_um <= cap * (1.0 + band):
        return "marginal"
    return "fail"


# The finest FEM mesh, in elements, beyond which roundoff outweighs the
# discretization error.  Over 200 inputs drawn from the range of the
# benchmark's fem_ladder workload, every 64-512 ladder contracted, with
# observed orders 1.65-2.50 where the 32-256 ladders give 1.98-2.01; 45 of
# the 128-1024 ladders did not contract.  Defined here, not in ``fem``, so
# that the config schema checks it without loading numpy, as are the default
# mesh and the rim supports, the first of which is the default.
FEM_MAX_ELEMENTS = 512
FEM_ELEMENTS = 256
BOUNDARY_CONDITIONS = ("clamped", "pinned")
FEM_ROWS = (  # a study config's fem block, and the flags of ``globtop fem``
    ("n_elements", partial(integer, 4, maximum=FEM_MAX_ELEMENTS), FEM_ELEMENTS),
    ("bc", partial(choice, BOUNDARY_CONDITIONS), BOUNDARY_CONDITIONS[0]),
)


def mesh_cap(geometry: CapGeometry, n_elements: int) -> ShellMesh:
    """``fem.mesh_cap``, with ``fem`` imported on first use.

    ``fem`` loads numpy, about a tenth of a second of a cold CLI start that
    the closed-form commands never need.
    """
    from . import fem

    return fem._mesh_cap(geometry, n_elements)


def solve_case(
    mesh: ShellMesh,
    thickness_um: float,
    material: Material,
    pressure_pa: float,
    bc: str = "clamped",
) -> FemSolution:
    """``fem.solve_case``, with ``fem`` imported on first use."""
    from . import fem

    return fem._solve_case(mesh, thickness_um, material, pressure_pa, bc)


def brentq(
    f, a: float, b: float, xtol: float = 2e-12, maxiter: int = 100
) -> tuple[float, bool]:
    """Root of ``f`` in [a, b] by Brent's method: ``(root, converged)``.

    A step-for-step port of scipy's ``brentq.c``, with its defaults and its
    ``rtol``, so each point evaluated and the root are scipy's bits; it
    spares the FEM screen loading ``scipy.optimize``.  The ends may come in
    either order.  A zero at an end is returned at once; ends of the same
    sign are a ValueError, as in scipy.  ``f`` must not return NaN.
    ``converged`` is False when ``maxiter`` steps leave the bracket wider
    than ``xtol + _RTOL*|root|``.
    """
    xpre, xcur = float(a), float(b)
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0.0:
        return xpre, True
    if fcur == 0.0:
        return xcur, True
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur, True
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
    return xcur, False


def _fem_min_thickness(
    material: Material,
    geometry: CapGeometry,
    mesh: ShellMesh,
    pressure_pa: float,
    limit_um: float,
    bc: str,
) -> float:
    """Thickness at which the FEM apex deflection equals the limit.

    The apex falls about as 1/t where membrane action carries the load and
    as 1/t**3 where bending does, so g = log(w / limit) is nearly linear in
    u = log t.  The closed form seeds u; the bracket grows geometrically, up
    to the sphere radius; ``brentq``, this module's port of scipy's, closes
    it to ``_ROOT_XTOL`` in u.  Each u is solved once: ``brentq`` starts by
    evaluating the bracket ends, which the bracketing has already solved.
    A root find that has not converged after its 100 iterations is a
    ``SolverError`` naming the bracket in um.
    """
    if pressure_pa == 0.0 or math.isinf(limit_um):
        return 0.0
    solved: dict[float, float] = {}

    def excess(u: float) -> float:
        g = solved.get(u)
        if g is None:
            # exp(u_max) may round above the radius, which a solve rejects.
            t = min(math.exp(u), geometry.radius_um)
            w = solve_case(mesh, t, material, pressure_pa, bc).apex_deflection_um
            g = solved[u] = math.log(w / limit_um)
        return g

    u_max = math.log(geometry.radius_um)
    a = min(math.log(min_thickness(material, geometry, pressure_pa, limit_um)), u_max)
    g_a = excess(a)
    if g_a == 0.0:
        return math.exp(a)
    # Where w falls at least as fast as 1/t, the root lies within |g_a| of a.
    step = g_a
    while True:
        b = min(a + step, u_max)
        g_b = excess(b)
        if g_b == 0.0:
            return math.exp(b)
        if (g_b > 0.0) != (g_a > 0.0):
            break
        if b == u_max:
            raise SolverError(
                f"{material.name}: no feasible thickness up to the sphere radius "
                f"{geometry.radius_um:g} um at this pressure"
            )
        a, g_a = b, g_b
        step *= 2.0
    lo, hi = min(a, b), max(a, b)
    u, converged = brentq(excess, lo, hi, xtol=_ROOT_XTOL)
    if not converged:
        raise SolverError(
            f"{material.name}: thickness root find did not converge in "
            f"[{math.exp(lo):g}, {math.exp(hi):g}] um after 100 iterations"
        )
    return math.exp(u)


def _fit_min_thickness(fit: ScreeningFit, name: str, criteria: ScreeningCriteria) -> float:
    """Invert the fitted linear model for the thickness hitting the limit.

    The fit is linear, so the answer is exact; a non-negative thickness
    slope means thickness does not reduce deflection in the fitted model,
    in which case the result is 0 if even the thinnest setting is feasible
    and infinity otherwise.
    """
    limit = criteria.deflection_limit_um
    slope = fit.thickness_slope_per_um
    if slope >= 0.0:
        w_thinnest = fit.predict(name, 0.0, criteria.max_pressure_atm)
        return 0.0 if w_thinnest <= limit else math.inf
    t_min = fit.thickness_mean_um + (
        limit
        - fit.material_mean(name)
        - fit.pressure_slope_per_atm * (criteria.max_pressure_atm - fit.pressure_mean_atm)
    ) / slope
    return max(t_min, 0.0)


def screen(
    library: MaterialLibrary,
    geometry: CapGeometry,
    criteria: ScreeningCriteria,
    source: str = "analytical",
    *,
    fit: ScreeningFit | None = None,
    atm_pa: float = ATM_PA,
    fem_bc: str = "clamped",
    fem_mesh: ShellMesh | None = None,
) -> tuple[Verdict, ...]:
    """Screen every library material under one response source.

    Verdicts are sorted by minimum feasible thickness, best material first,
    with the material name breaking exact ties deterministically.  The
    external source needs the ``fit`` of the external response column, and
    the fem source ``fem_mesh``, a mesh of ``geometry``.
    """
    if source not in SOURCES:
        raise ConfigError(f"source must be one of {SOURCES}, got {source!r}")
    if source == "external" and fit is None:
        raise ConfigError("external screening requires a fitted screening model")
    if source == "fem" and fem_mesh is None:
        raise ConfigError("fem screening requires a mesh of the geometry")
    p_max = atm_to_pa(criteria.max_pressure_atm, atm_pa)
    limit = criteria.deflection_limit_um
    verdicts = []
    for mat in library:
        if source == "analytical":
            t_min = min_thickness(mat, geometry, p_max, limit)
            worst = apex_deflection(
                ShellCase(geometry, criteria.max_thickness_um, mat, p_max)
            )
        elif source == "fem":
            t_min = _fem_min_thickness(mat, geometry, fem_mesh, p_max, limit, fem_bc)
            worst = solve_case(fem_mesh, criteria.max_thickness_um, mat, p_max, fem_bc).apex_deflection_um
        else:
            t_min = _fit_min_thickness(fit, mat.name, criteria)
            worst = fit.predict(
                mat.name, criteria.max_thickness_um, criteria.max_pressure_atm
            )
        verdicts.append(
            Verdict(
                material_name=mat.name,
                source=source,
                min_feasible_thickness_um=t_min,
                worst_case_deflection_um=worst,
                classification=classify(t_min, criteria),
            )
        )
    verdicts.sort(key=lambda v: (v.min_feasible_thickness_um, v.material_name))
    return tuple(verdicts)


class ThicknessProfile(Record):
    """Deflection and desirability versus thickness for one material."""

    material_name: str
    pressure_atm: float
    thickness_um: tuple[float, ...]
    deflection_um: tuple[float, ...]
    desirability: tuple[float, ...]

    def rows(self):
        return zip(self.thickness_um, self.deflection_um, self.desirability)

    def to_csv_text(self) -> str:
        lines = ["thickness_um,deflection_um,desirability\n"]
        lines += [f"{t:.12g},{w:.12g},{d:.12g}\n" for t, w, d in self.rows()]
        return "".join(lines)


def thickness_profile(
    material: Material,
    geometry: CapGeometry,
    criteria: ScreeningCriteria,
    n_points: int = PROFILE_POINTS_ROW[2],
    pressure_atm: float | None = None,
    atm_pa: float = ATM_PA,
) -> ThicknessProfile:
    """Sweep the closed-form apex deflection over the thickness range.

    Each point is ``apex_deflection`` of its ``ShellCase``, computed in the
    same order with K(nu, alpha) taken once.  Cases are built only at the
    two ends, for their checks and thin-shell warnings: t/a grows with t.
    """
    n = int(n_points)
    if n < 2:
        raise InputDomainError(f"n_points must be at least 2, got {n_points!r}")
    if n > MAX_PROFILE_POINTS:
        raise InputDomainError(f"n_points must be at most {MAX_PROFILE_POINTS}, got {n_points!r}")
    p_atm = criteria.max_pressure_atm if pressure_atm is None else float(pressure_atm)
    p_pa = atm_to_pa(p_atm, atm_pa)
    lo, hi = criteria.thickness_range_um
    ts = tuple(lo + (hi - lo) * i / (n - 1) for i in range(n))
    for t in (ts[0], ts[-1]):
        ShellCase(geometry, t, material, p_pa)
    a = geometry.radius_um
    load = a * a * p_pa
    e_mod = material.youngs_modulus_pa
    k = apex_coefficient(material.poisson_ratio, geometry.base_angle_rad)
    ws = tuple(abs(load / (e_mod * t) * k) for t in ts)
    ds = tuple(
        desirability(w, 0.0, criteria.deflection_limit_um) for w in ws
    )
    return ThicknessProfile(
        material_name=material.name,
        pressure_atm=p_atm,
        thickness_um=ts,
        deflection_um=ws,
        desirability=ds,
    )
