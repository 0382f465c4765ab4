"""Output checks made apart from globtop.

Every expected value here is derived by the benchmark itself: the closed-form
apex and minimum thickness from the formula for K, the variance
decomposition of an orthogonal L9 plan from level means and contrasts, the
rim reaction from P * pi * b**2, and the Richardson ladder from its own
differences.  The FEM is tied to absolute values twice: on the reference
case it must match a 40-digit solve of the same discrete problem, and on
every case its apex must lie within a measured band around the closed form.
The remaining FEM checks are metamorphic: they call the solver again with
scaled inputs and compare the solver with itself.

Each check returns a list of problems; an empty list means the output is
correct.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from pathlib import Path

ATM_PA = 101325.0
GPA_PA = 1.0e9
N_PER_PA_UM2 = 1.0e-12
REFERENCE_RANKING = ("Carbon epoxy resin", "Polyimide")  # first, last

# Relative tolerances.  The closed form is evaluated in a different order
# than the program does, which costs a few ulp.  FEM apex values move by up
# to ~1e-8 under a 1-ulp change of the stiffness (condition ~1e10 at 256
# elements), so scaling E is checked at 1e-6; scaling P scales the load
# vector alone and is checked at 1e-9.
CLOSED_FORM_RTOL = 1e-11
STATS_RTOL = 1e-9
FEM_E_RTOL = 1e-6
FEM_P_RTOL = 1e-9
RIM_RTOL = 1e-6
LADDER_ORDER = (1.5, 2.5)
# The reference case -- carbon epoxy resin (70 GPa, 0.4), 150 um, 100 atm on
# the default cap (radius 3010 um, base angle 23.5 deg) at 256 elements --
# solved in 40-digit arithmetic (mpmath assembly and banded Cholesky on the
# float64 mesh).  Double-precision roundoff at 256 elements is near 1.3e-8 of
# the apex, as the stiffness condition grows as N**4; 2e-8 covers it.
ORACLE_APEX_256 = {"clamped": 4.312941877775889, "pinned": 4.376790424342237}
ORACLE_RTOL = 2e-8
# FEM apex / closed-form apex at 256 elements.  The closed form leaves out
# the rim's bending boundary layer, so the ratio depends on the cap, the
# thickness, nu and the rim condition, not on E or P.  On a grid over the
# corners of the drawn ranges (b 1150-1400 um, h 200-300 um, t 130-260 um,
# nu 0.32-0.44) and the default cap it measured 0.679-1.418 clamped and
# 1.079-1.455 pinned; the bands leave 5-9% on each side.
FEM_TO_CLOSED_FORM = {"clamped": (0.62, 1.50), "pinned": (1.00, 1.55)}
FACTORS = ("material", "thickness_um", "pressure_atm")


def cap_from_chord(b_um: float, h_um: float) -> tuple[float, float]:
    """Sphere radius and half-opening angle of a cap with footprint b, rise h."""
    alpha = 2.0 * math.atan2(h_um, b_um)
    return b_um / math.sin(alpha), alpha


def k_coefficient(nu: float, alpha: float) -> float:
    c = math.cos(alpha)
    return (1.0 + nu) * (1.0 / (1.0 + c) - 0.5 + math.log(2.0 / (1.0 + c))) + 1.0 - (1.0 + nu) / 2.0


def apex_um(geom: dict, mat: dict, t_um: float, p_atm: float) -> float:
    """Closed-form apex deflection a**2 P K / (E t)."""
    a, alpha = geom["a"], geom["alpha"]
    p = p_atm * ATM_PA
    return a * a * p * k_coefficient(mat["nu"], alpha) / (mat["e_gpa"] * GPA_PA * t_um)


def t_min_um(geom: dict, mat: dict, p_atm: float, limit_um: float) -> float:
    """Closed-form minimum thickness a**2 P_max K / (E limit)."""
    a, alpha = geom["a"], geom["alpha"]
    return a * a * p_atm * ATM_PA * k_coefficient(mat["nu"], alpha) / (mat["e_gpa"] * GPA_PA * limit_um)


def classify(t_um: float, cap_um: float, band: float) -> str:
    if t_um <= cap_um * (1.0 - band):
        return "pass"
    if t_um <= cap_um * (1.0 + band):
        return "marginal"
    return "fail"


def close(x: float, y: float, rtol: float, atol: float = 0.0) -> bool:
    return abs(x - y) <= max(rtol * max(abs(x), abs(y)), atol)


def dir_digest(path: Path) -> dict[str, str]:
    """sha256 of every file in a study directory, by name."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(path.iterdir())
        if p.is_file()
    }


# -- the L9 plan and its statistics -------------------------------------------


def check_plan(spec: dict, rows: list[dict]) -> list[str]:
    """Rows of (material, thickness, pressure, codes) form the planned L9."""
    problems = []
    if len(rows) != 9:
        return [f"plan has {len(rows)} runs, expected 9"]
    by_modulus = sorted(spec["materials"], key=lambda m: m["e_gpa"])
    codes = []
    for r in rows:
        cm, ct, cp = (int(c) for c in r["codes"])
        codes.append((cm, ct, cp))
        if r["material"] != by_modulus[cm + 1]["name"]:
            problems.append(f"plan run {r['run']}: material {r['material']!r} for code {cm}")
        if float(r["thickness_um"]) != spec["t_levels"][ct + 1]:
            problems.append(f"plan run {r['run']}: thickness {r['thickness_um']} for code {ct}")
        if float(r["pressure_atm"]) != spec["p_levels"][cp + 1]:
            problems.append(f"plan run {r['run']}: pressure {r['pressure_atm']} for code {cp}")
    for i in range(3):
        for j in range(i + 1, 3):
            pairs = {(c[i], c[j]) for c in codes}
            if len(pairs) != 9:
                problems.append(f"plan columns {i} and {j} are not orthogonal")
    return problems


def decompose(rows: list[dict], y: list[float]) -> dict:
    """Sums of squares of the additive L9 model, from first principles."""
    grand = math.fsum(y) / 9.0
    total = math.fsum((v - grand) ** 2 for v in y)
    names = sorted({r["material"] for r in rows})
    means = {n: math.fsum(v for v, r in zip(y, rows) if r["material"] == n) / 3.0 for n in names}
    ss = {"material": 3.0 * math.fsum((m - grand) ** 2 for m in means.values())}
    slopes = {}
    for name in FACTORS[1:]:
        x = [float(r[name]) for r in rows]
        xm = math.fsum(x) / 9.0
        xc = [v - xm for v in x]
        sxx = math.fsum(v * v for v in xc)
        sxy = math.fsum(a * b for a, b in zip(xc, y))
        slopes[name] = (sxy / sxx, xm)
        ss[name] = sxy * sxy / sxx
    ss["residual"] = total - ss["material"] - ss["thickness_um"] - ss["pressure_atm"]
    return {"grand": grand, "total": total, "ss": ss, "means": means, "slopes": slopes}


def check_stats(source: str, dec: dict, anova: dict, effects: list[dict]) -> list[str]:
    problems = []
    total = dec["total"]
    atol = STATS_RTOL * total
    rows = {r["source"]: r for r in anova["rows"]}
    model, error, ctotal = rows.get("Model"), rows.get("Error"), rows.get("C. Total")
    if model is None or error is None or ctotal is None:
        return [f"{source}: anova rows are {sorted(rows)}"]
    if not close(model["ss"] + error["ss"], total, STATS_RTOL, atol):
        problems.append(f"{source}: model + error SS {model['ss'] + error['ss']!r} != sum (y - mean)^2 {total!r}")
    if not close(ctotal["ss"], total, STATS_RTOL, atol):
        problems.append(f"{source}: corrected total SS {ctotal['ss']!r} != {total!r}")
    if not close(error["ss"], dec["ss"]["residual"], STATS_RTOL, atol):
        problems.append(f"{source}: error SS {error['ss']!r} != {dec['ss']['residual']!r}")
    if model["df"] + error["df"] != 8 or ctotal["df"] != 8:
        problems.append(f"{source}: degrees of freedom {model['df']} + {error['df']} / {ctotal['df']}, expected 8")
    p_values = [model["p"]] + [e["p"] for e in effects]
    if not all(p is not None and 0.0 <= p <= 1.0 for p in p_values):
        problems.append(f"{source}: p values {p_values} outside [0, 1]")
    by_name = {e["source"]: e for e in effects}
    if sorted(by_name) != sorted(FACTORS) or len(effects) != 3:
        return problems + [f"{source}: effects are {sorted(by_name)}"]
    mse = dec["ss"]["residual"] / 4.0
    for name, e in by_name.items():
        if not close(e["ss"], dec["ss"][name], STATS_RTOL, atol):
            problems.append(f"{source}: {name} SS {e['ss']!r} != {dec['ss'][name]!r}")
        if mse > atol and not close(e["f"], (dec["ss"][name] / e["df"]) / mse, 1e-6):
            problems.append(f"{source}: {name} F {e['f']!r} != {(dec['ss'][name] / e['df']) / mse!r}")
    t, p = by_name["thickness_um"], by_name["pressure_atm"]
    if t["df"] == p["df"] and (t["f"] - p["f"]) * (t["p"] - p["p"]) > 0.0:
        problems.append(f"{source}: larger F has larger p ({t['f']}, {t['p']}) vs ({p['f']}, {p['p']})")
    return problems


def fit_t_min(dec: dict, name: str, spec: dict) -> float:
    """Thickness at which the fitted additive model reaches the limit."""
    crit = spec["criteria"]
    slope_t, t_mean = dec["slopes"]["thickness_um"]
    slope_p, p_mean = dec["slopes"]["pressure_atm"]
    limit = crit["deflection_limit_um"]
    mean = dec["means"][name]
    if slope_t >= 0.0:
        w = mean - slope_t * t_mean + slope_p * (crit["max_pressure_atm"] - p_mean)
        return 0.0 if w <= limit else math.inf
    t = t_mean + (limit - mean - slope_p * (crit["max_pressure_atm"] - p_mean)) / slope_t
    return max(t, 0.0)


# -- a study directory ----------------------------------------------------------


def _read_csv(path: Path) -> list[dict]:
    return list(csv.DictReader(io.StringIO(path.read_text(encoding="utf-8"))))


def _load(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def check_verdict_order(source: str, verdicts: list[dict]) -> list[str]:
    keys = [(_num(v["min_feasible_thickness_um"]), v["material"]) for v in verdicts]
    return [] if keys == sorted(keys) else [f"{source}: verdicts not sorted by t_min"]


def _num(v) -> float:
    return math.inf if v == "inf" else float(v)


def check_equal_nu(source: str, spec: dict, verdicts: list[dict]) -> list[str]:
    """At equal Poisson ratio a stiffer material needs less thickness."""
    t_min = {v["material"]: _num(v["min_feasible_thickness_um"]) for v in verdicts}
    problems = []
    mats = spec["materials"]
    for m1 in mats:
        for m2 in mats:
            if m1["nu"] == m2["nu"] and m1["e_gpa"] < m2["e_gpa"]:
                if not t_min[m2["name"]] < t_min[m1["name"]]:
                    problems.append(
                        f"{source}: t_min {t_min[m2['name']]} of {m2['name']} (E {m2['e_gpa']}) "
                        f"not below {t_min[m1['name']]} of {m1['name']} (E {m1['e_gpa']})"
                    )
    return problems


def check_study(spec: dict, out: Path) -> list[str]:
    """Check every artifact of one study directory against the spec."""
    report = _load(out / "report.json")
    verdicts = _load(out / "verdicts.json")
    problems = check_plan(spec, report["plan"])
    plan = report["plan"]
    geom = spec["geometry"]
    mats = {m["name"]: m for m in spec["materials"]}
    crit = spec["criteria"]
    p_max = crit["max_pressure_atm"]

    expected_apex = [apex_um(geom, mats[r["material"]], r["thickness_um"], r["pressure_atm"]) for r in plan]
    if sorted(report["responses"]) != sorted(spec["sources"]) or sorted(verdicts) != sorted(spec["sources"]):
        problems.append(f"sources in report {sorted(report['responses'])}, expected {sorted(spec['sources'])}")
        return problems

    for source in spec["sources"]:
        y = [r["response_um"] for r in report["responses"][source]]
        if source == "analytical":
            for run, (got, want) in enumerate(zip(y, expected_apex), start=1):
                if not close(got, want, CLOSED_FORM_RTOL):
                    problems.append(f"analytical run {run}: apex {got!r}, closed form {want!r}")
            for row, want in zip(_read_csv(out / "responses_analytical.csv"), expected_apex):
                if abs(float(row["response_um"]) - want) > 0.005 + 1e-9:
                    problems.append(f"responses_analytical.csv run {row['run']}: {row['response_um']} vs {want:.6f}")
        elif source == "external" and y != list(spec["external"]):
            problems.append("external responses differ from the config column")

        dec = decompose(plan, y)
        problems += check_stats(
            source, dec, _load(out / f"anova_{source}.json"), _load(out / f"effects_{source}.json")
        )
        problems += check_verdict_order(source, verdicts[source])
        for v in verdicts[source]:
            name, got = v["material"], _num(v["min_feasible_thickness_um"])
            if source == "analytical":
                want = t_min_um(geom, mats[name], p_max, crit["deflection_limit_um"])
                worst = apex_um(geom, mats[name], crit["max_thickness_um"], p_max)
                if not close(v["worst_case_deflection_um"], worst, CLOSED_FORM_RTOL):
                    problems.append(f"analytical {name}: worst case {v['worst_case_deflection_um']!r} vs {worst!r}")
            elif source == "external":
                want = fit_t_min(dec, name, spec)
            else:
                want = got  # the FEM root is checked by check_fem_study
            if not (got == want or close(got, want, STATS_RTOL)):
                problems.append(f"{source} {name}: t_min {got!r}, expected {want!r}")
            if v["classification"] != classify(want, crit["max_thickness_um"], crit["marginal_band"]):
                problems.append(f"{source} {name}: classified {v['classification']!r} at t_min {want!r}")
        if source != "external":
            problems += check_equal_nu(source, spec, verdicts[source])
        if spec.get("reference"):
            ranked = [v["material"] for v in verdicts[source]]
            if (ranked[0], ranked[-1]) != REFERENCE_RANKING:
                problems.append(f"{source}: reference ranking {ranked}, paper ranks {REFERENCE_RANKING}")

    if spec.get("external") is not None and "analytical" in spec["sources"]:
        for row, sim, calc in zip(_read_csv(out / "comparison.csv"), spec["external"], expected_apex):
            if abs(float(row["ratio"]) - calc / sim) > 5e-5 + 1e-12:
                problems.append(f"comparison run {row['run']}: ratio {row['ratio']} vs {calc / sim:.6f}")
            if abs(calc / sim - 1.0) > 1e-4 and (float(row["error_pct"]) > 0.0) != (calc > sim):
                problems.append(f"comparison run {row['run']}: error sign {row['error_pct']} with calc {calc:.4f}, sim {sim}")
    return problems


# -- FEM, through metamorphic calls into the solver -----------------------------


def rim_load_n(p_pa: float, b_um: float) -> float:
    return p_pa * math.pi * b_um * b_um * N_PER_PA_UM2


def check_closed_form_band(label: str, w_fem: float, geom: dict, mat: dict, t_um: float, p_atm: float, bc: str) -> list[str]:
    """A 256-element FEM apex lies within the measured band around the closed form."""
    ratio = w_fem / apex_um(geom, mat, t_um, p_atm)
    lo, hi = FEM_TO_CLOSED_FORM[bc]
    return [] if lo <= ratio <= hi else [f"{label}: {bc} apex {w_fem!r} is {ratio:.4f} x the closed form, outside [{lo}, {hi}]"]


def check_fem_oracle(gt, mesh) -> list[str]:
    """The reference case on the default cap's 256-element mesh, both rims."""
    material = gt.Material("Carbon epoxy resin", 70.0, 0.4)
    problems = []
    for bc, want in ORACLE_APEX_256.items():
        got = gt.solve_case(mesh, 150.0, material, 100.0 * ATM_PA, bc).apex_deflection_um
        if not close(got, want, ORACLE_RTOL):
            problems.append(f"fem reference {bc} apex {got!r}, 40-digit solve {want!r}")
    return problems


def check_fem_case(gt, geom: dict, mesh, mat: dict, t_um: float, p_atm: float, bc: str, compare_bc: bool) -> list[str]:
    """Rim equilibrium, the closed-form band, linearity in P and 1/E, and,
    with ``compare_bc``, pinned above clamped.

    Freeing the rim rotation raises the apex only while the apex sits inside
    the first lobe of the rim's bending boundary layer.  On deeper or
    thinner caps, with the meridian longer than about 2.3 bending lengths
    sqrt(a t) / (3 (1 - nu^2))**0.25, the clamped apex is the larger one at
    every mesh size, so the comparison is made on the paper's cap only.
    """
    material = gt.Material(mat["name"], mat["e_gpa"], mat["nu"])
    stiffer = gt.Material(mat["name"], mat["e_gpa"] * 1.7, mat["nu"])
    p_pa = p_atm * ATM_PA
    base = gt.solve_case(mesh, t_um, material, p_pa, bc)
    problems = []
    want = rim_load_n(p_pa, geom["b"])
    if not close(base.rim_reaction_vertical_n, want, RIM_RTOL):
        problems.append(f"fem rim reaction {base.rim_reaction_vertical_n!r} N, P*pi*b^2 = {want!r} N")
    w = base.apex_deflection_um
    if not (math.isfinite(w) and w > 0.0):
        return problems + [f"fem apex {w!r}"]
    problems += check_closed_form_band("fem", w, geom, mat, t_um, p_atm, bc)
    w_p = gt.solve_case(mesh, t_um, material, 1.7 * p_pa, bc).apex_deflection_um
    if not close(w_p, 1.7 * w, FEM_P_RTOL):
        problems.append(f"fem apex not linear in P: {w_p!r} at 1.7 P vs {w!r}")
    w_e = gt.solve_case(mesh, t_um, stiffer, p_pa, bc).apex_deflection_um
    if not close(1.7 * w_e, w, FEM_E_RTOL):
        problems.append(f"fem apex not linear in 1/E: {w_e!r} at 1.7 E vs {w!r}")
    if not compare_bc:
        return problems
    other = "clamped" if bc == "pinned" else "pinned"
    w_o = gt.solve_case(mesh, t_um, material, p_pa, other).apex_deflection_um
    pinned, clamped = (w, w_o) if bc == "pinned" else (w_o, w)
    if not pinned > clamped:
        problems.append(f"fem pinned apex {pinned!r} not above clamped {clamped!r}")
    return problems


def check_fem_study(gt, spec: dict, out: Path) -> list[str]:
    """The FEM source of a study: every response within the closed-form band,
    one plan row re-solved, each root, and on the reference study the
    40-digit reference case."""
    report = _load(out / "report.json")
    verdicts = _load(out / "verdicts.json")
    geom = spec["geometry"]
    geometry = gt.cap_from_config(geom["block"])
    mesh = gt.mesh_cap(geometry, spec["fem_elements"])
    mats = {m["name"]: m for m in spec["materials"]}
    bc = spec["fem_bc"]
    row = report["plan"][0]
    problems = check_fem_case(
        gt, geom, mesh, mats[row["material"]], row["thickness_um"], row["pressure_atm"], bc, spec["reference"]
    )
    mat0 = mats[row["material"]]
    again = gt.solve_case(
        mesh, row["thickness_um"], gt.Material(mat0["name"], mat0["e_gpa"], mat0["nu"]), row["pressure_atm"] * ATM_PA, bc
    ).apex_deflection_um
    if again != report["responses"]["fem"][0]["response_um"]:
        problems.append(f"fem run 1: study response {report['responses']['fem'][0]['response_um']!r}, solver {again!r}")
    for run, r in enumerate(report["responses"]["fem"], start=1):
        p = report["plan"][run - 1]
        problems += check_closed_form_band(
            f"fem run {run}", r["response_um"], geom, mats[p["material"]], p["thickness_um"], p["pressure_atm"], bc
        )
    if spec["reference"]:
        problems += check_fem_oracle(gt, mesh)
    crit = spec["criteria"]
    limit = crit["deflection_limit_um"]
    for v in verdicts["fem"]:
        m = mats[v["material"]]
        t = _num(v["min_feasible_thickness_um"])
        w = gt.solve_case(mesh, t, gt.Material(m["name"], m["e_gpa"], m["nu"]), crit["max_pressure_atm"] * ATM_PA, bc).apex_deflection_um
        if not close(w, limit, 1e-6):
            problems.append(f"fem {m['name']}: apex {w!r} at t_min {t!r}, limit {limit!r}")
    return problems


def check_ladder(levels, apex, orders, contraction: bool, extrapolated: float) -> list[str]:
    """A refinement ladder contracts and converges at close to second order."""
    problems = []
    if tuple(levels) != (32, 64, 128, 256):
        problems.append(f"ladder levels {tuple(levels)}")
    if not all(math.isfinite(w) and w > 0.0 for w in apex):
        return problems + [f"ladder apex values {apex}"]
    diffs = [b - a for a, b in zip(apex, apex[1:])]
    shrinking = all(abs(d2) < abs(d1) for d1, d2 in zip(diffs, diffs[1:]))
    if not (shrinking and contraction):
        problems.append(f"ladder does not contract: diffs {diffs}, flag {contraction}")
        return problems
    mine = [math.log2(abs(d1) / abs(d2)) for d1, d2 in zip(diffs, diffs[1:])]
    if len(orders) != len(mine) or not all(close(a, b, 1e-12) for a, b in zip(orders, mine)):
        problems.append(f"ladder orders {list(orders)}, from its differences {mine}")
    if not LADDER_ORDER[0] <= mine[-1] <= LADDER_ORDER[1]:
        problems.append(f"ladder last order {mine[-1]:.3f} outside {LADDER_ORDER}")
    want = apex[-1] + diffs[-1] / (2.0 ** mine[-1] - 1.0)
    if not close(extrapolated, want, 1e-12):
        problems.append(f"ladder extrapolation {extrapolated!r}, expected {want!r}")
    return problems
