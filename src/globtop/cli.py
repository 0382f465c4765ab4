"""Command line interface.

Subcommands mirror the library layers: geometry, deflect, plan, study,
anova, optimize, fem.  Exit codes: 0 success, 1 invalid input or usage,
2 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .errors import ConfigError, GlobtopError, InputDomainError, MeshError, StageError, number, resolve
from .geometry import CAP_ROWS, REFERENCE_GEOMETRY, CapGeometry, cap_from_config
from .materials import MaterialLibrary, default_library, load_library_file
from .shell_model import PROFILE_POINTS_ROW, ShellCase, apex_deflection, profile
from .units import ATM_PA, ATM_PA_ROW, atm_to_pa

# doe, fem (numpy), report, screening and stats are imported by the
# subcommands that use them, so the closed-form commands start without numpy
# and deflect and geometry without the plan and screening modules.

class _UsageError(Exception):
    def __init__(self, parser: argparse.ArgumentParser, message: str):
        self.parser = parser
        self.message = message
        super().__init__(message)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: A003 - argparse API
        raise _UsageError(self, message)


# A study config key's flag is "--" and the key with dashes, but for these.
_SPELLED = {
    "base_half_width_um": "--b-um",
    "rise_um": "--h-um",
    "base_angle_deg": "--angle-deg",
    "deflection_limit_um": "--limit-um",
}


def _flag(key: str) -> str:
    return _SPELLED.get(key) or "--" + key.replace("_", "-")


def _build_parser() -> _Parser:
    # A config key's flag defaults to None, for ``_resolve`` to see what is given.
    parser = _Parser(prog="globtop", description=__doc__)
    parser.add_argument("--version", action="version", version=f"globtop {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(p, key, **kwargs):
        p.add_argument(_flag(key), dest=key, **kwargs)

    def add_cap(p):
        for key, _, _ in CAP_ROWS:
            add(p, key, type=float, help=f"the cap's {key}")

    def add_library(p):
        p.add_argument("--materials", help="material library JSON (default: bundled)")

    def add_common(p):
        add_library(p)
        p.add_argument("--material", help="material name from the library")
        add(p, "atm_pa", type=float, help=f"pascals per atmosphere (default {ATM_PA:g})")
        add_cap(p)

    p_geo = sub.add_parser("geometry", help="solve the cap geometry")
    add_cap(p_geo)
    p_geo.add_argument("--format", choices=("text", "json"), default="text")

    p_def = sub.add_parser("deflect", help="closed-form deflection of one case")
    add_common(p_def)
    p_def.add_argument("--thickness-um", type=float, required=True)
    p_def.add_argument("--pressure-atm", type=float, required=True)
    add(p_def, "profile_points", type=int,
        help=f"samples of the profile CSV (default {PROFILE_POINTS_ROW[2]})")
    p_def.add_argument("--out", help="write a (phi, v, w) profile CSV here")
    p_def.add_argument("--format", choices=("text", "json"), default="text")

    p_plan = sub.add_parser("plan", help="emit the 9-run screening plan")
    add_library(p_plan)
    add(p_plan, "thickness_levels_um", type=float, nargs=3, metavar="T")
    add(p_plan, "pressure_levels_atm", type=float, nargs=3, metavar="P")
    p_plan.add_argument("--out", help="write CSV here instead of stdout")

    p_study = sub.add_parser("study", help="run the full screening study")
    p_study.add_argument("--config", required=True, help="study config JSON")
    p_study.add_argument("--out", required=True, help="output directory")

    p_anova = sub.add_parser("anova", help="variance decomposition of a response CSV")
    p_anova.add_argument("--responses", required=True, help="responses CSV path")
    p_anova.add_argument("--format", choices=("text", "csv", "json"), default="text")

    p_opt = sub.add_parser("optimize", help="minimum feasible thickness per material")
    add_common(p_opt)
    for key in ("deflection_limit_um", "max_pressure_atm", "max_thickness_um"):
        add(p_opt, key, type=float, help=f"the criteria's {key}")
    p_opt.add_argument("--format", choices=("text", "json"), default="text")

    p_fem = sub.add_parser("fem", help="finite element solve of one case")
    add_common(p_fem)
    p_fem.add_argument("--thickness-um", type=float, required=True)
    p_fem.add_argument("--pressure-atm", type=float, required=True)
    add(p_fem, "n_elements", type=int)
    add(p_fem, "bc", help="rim support, as a study config's fem.bc")
    p_fem.add_argument("--converge", action="store_true",
                       help="run a mesh refinement ladder instead of one solve")
    p_fem.add_argument("--out", help="output file for the nodal solution CSV")

    return parser


def _flags(args, table) -> tuple[dict, dict]:
    """The values that ``args`` gives for ``table``'s keys, and each key's flag."""
    keys = [key for key, _, _ in table]
    given = {key: getattr(args, key) for key in keys if getattr(args, key, None) is not None}
    return given, {key: _flag(key) for key in keys}


def _resolve(args, table, build=dict):
    """``build`` of ``table``'s keys: the flags given, checked by the rows, or the rows' defaults."""
    return resolve(table, build, "", *_flags(args, table))


def _geometry_from(args) -> CapGeometry:
    block, names = _flags(args, CAP_ROWS)
    return cap_from_config(block, names) if block else REFERENCE_GEOMETRY


def _load_case(args) -> tuple[float, float]:
    """--thickness-um > 0 and --pressure-atm >= 0, the sign rule of the plan's levels."""
    if number("--pressure-atm", args.pressure_atm) < 0.0:
        raise ConfigError(f"--pressure-atm must be non-negative, got {args.pressure_atm!r}")
    return number("--thickness-um", args.thickness_um, positive=True), args.pressure_atm


def _library_from(args):
    if getattr(args, "materials", None):
        return load_library_file(args.materials)
    return default_library()


def _material_from(args):
    library = _library_from(args)
    if not args.material:
        raise InputDomainError("--material is required for this command")
    try:
        return library.get(args.material)
    except KeyError as exc:
        raise InputDomainError(str(exc.args[0])) from exc


def _cmd_geometry(args) -> int:
    geom = _geometry_from(args)
    if args.format == "json":
        print(json.dumps(geom.as_dict(), indent=2, sort_keys=True))
    else:
        print(f"base_half_width_um = {geom.base_half_width_um:.6f}")
        print(f"rise_um            = {geom.rise_um:.6f}")
        print(f"radius_um          = {geom.radius_um:.6f}")
        print(f"base_angle_deg     = {geom.base_angle_deg:.6f}")
    return 0


def _cmd_deflect(args) -> int:
    options = _resolve(args, (ATM_PA_ROW, PROFILE_POINTS_ROW))
    if args.profile_points is not None and not args.out:
        raise InputDomainError("--profile-points needs --out for the CSV")
    thickness, pressure = _load_case(args)
    p_pa = atm_to_pa(pressure, options["atm_pa"])
    case = ShellCase(_geometry_from(args), thickness, _material_from(args), p_pa)
    apex = apex_deflection(case)
    if args.out:
        profile(case, options["profile_points"]).write_csv(args.out)
    if args.format == "json":
        print(json.dumps({
            "material": case.material.name,
            "thickness_um": case.thickness_um,
            "pressure_atm": args.pressure_atm,
            "apex_deflection_um": apex,
        }, indent=2, sort_keys=True))
    else:
        print(f"{case.material.name}: t = {case.thickness_um:g} um, "
              f"P = {args.pressure_atm:g} atm -> apex deflection {apex:.4f} um")
    return 0


def _cmd_plan(args) -> int:
    from .doe import LEVEL_ROWS, default_plan, plan_to_csv

    library = _library_from(args)
    levels = _resolve(args, LEVEL_ROWS)
    plan = default_plan(library, levels["thickness_levels_um"], levels["pressure_levels_atm"])
    plan_to_csv(plan, args.out or sys.stdout)
    return 0


def _cmd_study(args) -> int:
    from pathlib import Path

    from .report import parse_config_file, run_study

    config = parse_config_file(args.config)
    report = run_study(config, args.out)
    out = Path(args.out)
    print(f"study complete: {len(report.analyses)} source(s), "
          f"artifacts in {out}")
    print(f"config hash: {config.config_hash}")
    for analysis in report.analyses:
        best = analysis.verdicts[0]
        print(f"[{analysis.source}] best material: {best.material_name} "
              f"({best.classification}, t_min = {best.min_feasible_thickness_um:.1f} um)")
    return 0


def _cmd_anova(args) -> int:
    from .doe import read_responses_csv
    from .stats import analysis_json, anova_table, effect_tests, effects_to_csv_text, fit_screening_model

    results = read_responses_csv(args.responses)
    fit = fit_screening_model(results)
    table = anova_table(fit)
    effects = effect_tests(fit)
    if args.format == "json":
        print(json.dumps(analysis_json(fit, table, effects), indent=2, sort_keys=True))
    elif args.format == "csv":
        sys.stdout.write(table.to_csv_text())
        sys.stdout.write(effects_to_csv_text(effects))
    else:
        print(f"grand mean: {fit.grand_mean:.4f} um")
        for name, mean in zip(fit.material_names, fit.material_means):
            print(f"  mean[{name}] = {mean:.4f} um")
        print(f"thickness slope: {fit.thickness_slope_per_um:.6f} um/um")
        print(f"pressure slope:  {fit.pressure_slope_per_atm:.6f} um/atm")
        print()
        print("source        df          ss          ms           f        p")
        for row in table.rows:
            ms = f"{row.ms:12.4f}" if row.ms is not None else " " * 12
            f_val = f"{row.f:12.4f}" if row.f is not None else " " * 12
            p_val = f"{row.p:8.4f}" if row.p is not None else " " * 8
            print(f"{row.source:<12}{row.df:>4}{row.ss:>12.4f}{ms}{f_val}{p_val}")
        print()
        print("effect          df          ss           f        p")
        for e in effects:
            print(f"{e.source:<14}{e.df:>4}{e.ss:>12.4f}{e.f:>12.4f}{e.p:>9.4f}")
    return 0


def _cmd_optimize(args) -> int:
    from .screening import CRITERIA_ROWS, ScreeningCriteria, screen

    geom = _geometry_from(args)
    if args.material:
        library = MaterialLibrary(materials=(_material_from(args),))
    else:
        library = _library_from(args)
    criteria = _resolve(args, CRITERIA_ROWS, ScreeningCriteria)
    atm_pa = _resolve(args, (ATM_PA_ROW,))["atm_pa"]
    verdicts = screen(library, geom, criteria, "analytical", atm_pa=atm_pa)
    if args.format == "json":
        print(json.dumps([
            {"material": v.material_name, "min_feasible_thickness_um": v.min_feasible_thickness_um,
             "classification": v.classification}
            for v in verdicts
        ], indent=2, sort_keys=True))
    else:
        for v in verdicts:
            print(f"{v.material_name}: t_min = {v.min_feasible_thickness_um:.4f} um "
                  f"({v.classification}, cap {criteria.max_thickness_um:g} um)")
    return 0


def _cmd_fem(args) -> int:
    from .screening import FEM_ROWS

    if args.converge and args.out:
        raise InputDomainError("--out writes one solve's nodal CSV; --converge writes none")
    options = _resolve(args, (*FEM_ROWS, ATM_PA_ROW))
    n_elements, bc = options["n_elements"], options["bc"]
    if args.converge and (n_elements < 32 or n_elements % 8):
        raise InputDomainError(
            f"--n-elements must be a multiple of 8 and at least 32 with --converge, got {n_elements}"
        )
    thickness, pressure = _load_case(args)
    from .fem import converge, mesh_cap, solve_case

    geom = _geometry_from(args)
    material = _material_from(args)
    p_pa = atm_to_pa(pressure, options["atm_pa"])
    if args.converge:
        report = converge(geom, thickness, material, p_pa, bc=bc, n_start=n_elements // 8)
        for n, apex in zip(report.levels, report.apex_um):
            print(f"n = {n:5d}: apex = {apex:.6f} um")
        order = report.observed_order
        print(f"observed order: {order:.2f}" if order is not None else "observed order: n/a")
        print(f"extrapolated apex: {report.extrapolated_um:.6f} um")
        if not report.contraction:
            print("warning: ladder is not contracting monotonically", file=sys.stderr)
        return 0
    mesh = mesh_cap(geom, n_elements)
    sol = solve_case(mesh, thickness, material, p_pa, bc)
    print(f"{material.name}: t = {args.thickness_um:g} um, P = {args.pressure_atm:g} atm, "
          f"{bc} rim, {n_elements} elements")
    print(f"apex deflection   = {sol.apex_deflection_um:.6f} um")
    print(f"rim reaction      = {sol.rim_reaction_vertical_n:.6e} N "
          f"(applied {sol.applied_vertical_load_n:.6e} N, "
          f"residual {sol.equilibrium_residual:.2e})")
    print(f"condition estimate = {sol.condition_estimate:.2e}")
    if args.out:
        sol.write_csv(args.out)
    return 0


_HANDLERS = {
    "geometry": _cmd_geometry,
    "deflect": _cmd_deflect,
    "plan": _cmd_plan,
    "study": _cmd_study,
    "anova": _cmd_anova,
    "optimize": _cmd_optimize,
    "fem": _cmd_fem,
}


def _exit_code(exc: Exception) -> int:
    if isinstance(exc, StageError):
        return _exit_code(exc.original)
    # A path that cannot be read or written, or a missing LAPACK, is an input
    # or install problem, in a stage or outside one.
    if isinstance(exc, (ConfigError, InputDomainError, MeshError, OSError, ImportError)):
        return 1
    return 2


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        exc.parser.print_usage(sys.stderr)
        print(f"error: {exc.message}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help / --version
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except (GlobtopError, OSError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code(exc)


if __name__ == "__main__":
    raise SystemExit(main())
