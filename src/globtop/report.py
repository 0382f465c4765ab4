"""Study configuration, the end-to-end pipeline, and report artifacts.

A study runs the screening plan against one or more response sources,
compares simulated against calculated columns, decomposes the variance per
source, screens the materials, and writes every artifact into one output
directory.  Outputs are deterministic: identical resolved configs give
byte-identical files, and report.json embeds the sha256 hash of the
resolved config so a report can be tied back to its inputs.

If a stage fails, a STALE marker naming the stage is left in the output
directory so partially written artifacts are never mistaken for a complete
study.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING, Mapping, Sequence

from . import __version__
from .doe import (
    ExperimentPlan,
    RunResult,
    default_plan,
    plan_to_csv,
    realize_responses,
    results_to_csv,
)
from .errors import ConfigError, InputDomainError, StageError, real
from .geometry import CapGeometry, cap_from_config
from .materials import MaterialLibrary, default_library, load_library, load_library_file
from .screening import (
    FEM_MAX_ELEMENTS,
    ScreeningCriteria,
    SOURCES,
    Verdict,
    mesh_cap,
    screen,
    solve_case,
    thickness_profile,
)
from .shell_model import MAX_PROFILE_POINTS, apex_deflection
from .stats import (
    AnovaTable,
    EffectTest,
    ScreeningFit,
    anova_table,
    effect_tests,
    effects_to_csv_text,
    effects_to_json,
    fit_screening_model,
)
from .units import ATM_PA

if TYPE_CHECKING:
    from .fem import ShellMesh


@dataclass(frozen=True)
class StudyConfig:
    """Fully resolved study inputs plus the hash of their canonical form."""

    geometry: CapGeometry
    library: MaterialLibrary
    thickness_levels_um: tuple[float, float, float]
    pressure_levels_atm: tuple[float, float, float]
    criteria: ScreeningCriteria
    sources: tuple[str, ...]
    external_simulated_um: tuple[float, ...] | None
    external_calculated_um: tuple[float, ...] | None
    fem_elements: int
    fem_bc: str
    atm_pa: float
    profile_points: int
    config_hash: str


# The config schema.  Each block is a table of rows (key, validator, default).
# A validator takes the key's dotted path and its raw value (the default when
# the key is absent) and returns the resolved value or raises a ConfigError
# naming the path.  Where a domain constructor checks a value's range, the
# row checks only the JSON type and _block names the key in the range error.


def _block(table, raw, path: str = "") -> dict:
    """Resolve the mapping ``raw`` against ``table``: key -> resolved value."""
    if not isinstance(raw, Mapping):
        raise ConfigError(f"{path or 'config'} must be an object, got {type(raw).__name__}")
    unknown = set(raw) - {key for key, _, _ in table}
    if unknown:
        raise ConfigError(f"{path or 'config'} has unknown keys: {sorted(unknown, key=str)}")
    resolved = {}
    for key, check, default in table:
        where = f"{path}.{key}" if path else key
        try:
            resolved[key] = check(where, raw.get(key, default))
        except InputDomainError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
    return resolved


def _number(path: str, raw, finite: bool = True, positive: bool = False) -> float:
    value = real(path, raw, finite=finite, error=ConfigError)
    if positive and value <= 0.0:
        raise ConfigError(f"{path} must be positive, got {raw!r}")
    return value


def _integer(minimum: int, path: str, raw, maximum: int | None = None) -> int:
    if not _number(path, raw).is_integer() or raw < minimum:
        raise ConfigError(f"{path} must be an integer of at least {minimum}, got {raw!r}")
    if maximum is not None and raw > maximum:
        raise ConfigError(f"{path} must be an integer of at most {maximum}, got {raw!r}")
    return int(raw)


def _numbers(n: int, path: str, raw) -> tuple[float, ...]:
    if not isinstance(raw, (list, tuple)) or len(raw) != n:
        raise ConfigError(f"{path} must be a list of {n} values")
    return tuple(_number(f"{path}[{i}]", v) for i, v in enumerate(raw))


def _levels(path: str, raw) -> tuple[float, float, float]:
    levels = _numbers(3, path, raw)
    if not levels[0] < levels[1] < levels[2]:
        raise ConfigError(f"{path} must be strictly increasing")
    return levels


def _column(path: str, raw) -> tuple[float, ...] | None:
    return None if raw is None else _numbers(9, path, raw)


def _bc(path: str, raw) -> str:
    if raw not in ("clamped", "pinned"):
        raise ConfigError(f"{path} must be clamped or pinned, got {raw!r}")
    return raw


def _sources(path: str, raw) -> tuple[str, ...]:
    if not isinstance(raw, (list, tuple)) or not raw:
        raise ConfigError(f"{path} must be a non-empty list")
    for s in raw:
        if s not in SOURCES:
            raise ConfigError(f"unknown source {s!r}; valid sources are {SOURCES}")
    if len(set(raw)) != len(raw):
        raise ConfigError(f"{path} must not repeat")
    return tuple(raw)


def _library(base_dir: Path | None, path: str, raw) -> MaterialLibrary:
    if raw is None:
        library = default_library()
    elif isinstance(raw, str):
        library = load_library_file(Path(base_dir or ".") / raw)
    elif isinstance(raw, Mapping):
        library = load_library(json.dumps(raw))
    else:
        raise ConfigError(f"{path} must be a path or an inline library object")
    if len(library) != 3:
        raise ConfigError(
            f"{path} must hold exactly 3 materials, one per plan level, got {len(library)}"
        )
    return library


_CRITERIA = (
    ("deflection_limit_um", partial(_number, finite=False), ScreeningCriteria.deflection_limit_um),
    ("max_pressure_atm", _number, ScreeningCriteria.max_pressure_atm),
    ("max_thickness_um", _number, ScreeningCriteria.max_thickness_um),
    ("thickness_range_um", partial(_numbers, 2), ScreeningCriteria.thickness_range_um),
    ("pressure_range_atm", partial(_numbers, 2), ScreeningCriteria.pressure_range_atm),
    ("marginal_band", _number, ScreeningCriteria.marginal_band),
)
_EXTERNAL = (("simulated_um", _column, None), ("calculated_um", _column, None))
_FEM = (
    ("n_elements", partial(_integer, 4, maximum=FEM_MAX_ELEMENTS), 256),
    ("bc", _bc, "clamped"),
)


def _study_table(base_dir: Path | None) -> tuple:
    return (
        ("geometry", lambda _, raw: cap_from_config(raw),
         {"radius_um": 3010.0, "base_angle_deg": 23.5}),
        ("materials", partial(_library, base_dir), None),
        ("thickness_levels_um", _levels, (150.0, 200.0, 250.0)),
        ("pressure_levels_atm", _levels, (80.0, 90.0, 100.0)),
        ("criteria", lambda path, raw: ScreeningCriteria(**_block(_CRITERIA, raw, path)), {}),
        ("sources", _sources, ("analytical",)),
        ("external", lambda path, raw: _block(_EXTERNAL, raw, path), {}),
        ("fem", lambda path, raw: _block(_FEM, raw, path), {}),
        ("atm_pa", partial(_number, positive=True), ATM_PA),
        ("profile_points", partial(_integer, 2, maximum=MAX_PROFILE_POINTS), 101),
    )


def _jsonable(value):
    """The hashed JSON form of a resolved domain object."""
    if isinstance(value, MaterialLibrary):
        return list(value)
    if isinstance(value, ScreeningCriteria):
        return asdict(value)
    return value.as_dict()


def parse_config(doc: Mapping, base_dir: Path | None = None) -> StudyConfig:
    """Validate and resolve a config mapping into a StudyConfig."""
    resolved = _block(_study_table(base_dir), doc)
    external, fem = resolved["external"], resolved["fem"]
    if "external" in resolved["sources"] and external["simulated_um"] is None:
        raise ConfigError('source "external" requires external.simulated_um')
    canonical = json.dumps(resolved, sort_keys=True, separators=(",", ":"), default=_jsonable)
    return StudyConfig(
        geometry=resolved["geometry"],
        library=resolved["materials"],
        thickness_levels_um=resolved["thickness_levels_um"],
        pressure_levels_atm=resolved["pressure_levels_atm"],
        criteria=resolved["criteria"],
        sources=resolved["sources"],
        external_simulated_um=external["simulated_um"],
        external_calculated_um=external["calculated_um"],
        fem_elements=fem["n_elements"],
        fem_bc=fem["bc"],
        atm_pa=resolved["atm_pa"],
        profile_points=resolved["profile_points"],
        config_hash=hashlib.sha256(canonical.encode("utf-8")).hexdigest(),
    )


def parse_config_file(path: str | Path) -> StudyConfig:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    return parse_config(doc, base_dir=path.parent)


@dataclass(frozen=True)
class ComparisonRow:
    run: int
    simulated_um: float
    calculated_um: float
    ratio: float
    error_pct: float


def compare_columns(
    simulated: Sequence[float], calculated: Sequence[float]
) -> tuple[ComparisonRow, ...]:
    """Row-wise comparison of a calculated column against a simulated one.

    The percent error is (calculated / simulated - 1) * 100, so a positive
    error means the calculation overshoots the simulation.
    """
    if len(simulated) != len(calculated):
        raise ConfigError("comparison columns must have equal length")
    rows = []
    for i, (w_s, w_c) in enumerate(zip(simulated, calculated), start=1):
        if w_s == 0.0:
            raise ConfigError(f"run {i}: simulated response is zero, ratio undefined")
        ratio = w_c / w_s
        rows.append(
            ComparisonRow(
                run=i,
                simulated_um=float(w_s),
                calculated_um=float(w_c),
                ratio=float(ratio),
                error_pct=float((ratio - 1.0) * 100.0),
            )
        )
    return tuple(rows)


@dataclass(frozen=True)
class SourceAnalysis:
    source: str
    results: tuple[RunResult, ...]
    fit: ScreeningFit
    anova: AnovaTable
    effects: tuple[EffectTest, ...]
    verdicts: tuple[Verdict, ...]


@dataclass(frozen=True)
class StudyReport:
    """Everything a study produced, before serialization."""

    config: StudyConfig
    plan: ExperimentPlan
    analyses: tuple[SourceAnalysis, ...]
    comparison: tuple[ComparisonRow, ...] | None
    comparison_sources: tuple[str, str] | None

    def analysis(self, source: str) -> SourceAnalysis:
        for a in self.analyses:
            if a.source == source:
                return a
        raise KeyError(source)


def _slug(name: str) -> str:
    out = "".join(c if c.isalnum() else "_" for c in name.lower())
    while "__" in out:
        out = out.replace("__", "_")
    return out.strip("_")


def _responses(
    config: StudyConfig, plan: ExperimentPlan, source: str, mesh: ShellMesh | None
):
    if source == "analytical":
        return realize_responses(
            plan,
            apex_deflection,
            geometry=config.geometry,
            atm_pa=config.atm_pa,
            source="analytical",
        )
    if source == "fem":
        def fem_apex(case) -> float:
            sol = solve_case(
                mesh, case.thickness_um, case.material, case.pressure_pa, config.fem_bc
            )
            return sol.apex_deflection_um

        return realize_responses(
            plan, fem_apex, geometry=config.geometry, atm_pa=config.atm_pa, source="fem"
        )
    return realize_responses(plan, config.external_simulated_um, source="external")


def _comparison_sources(config: StudyConfig) -> tuple[str, str] | None:
    """The (simulated, calculated) columns a study compares, if it has both.

    A given external column wins over the source that would stand in for it.
    """
    sim = "external" if config.external_simulated_um is not None else "fem"
    calc = "external_calculated" if config.external_calculated_um is not None else "analytical"
    available = {"external", "external_calculated", *config.sources}
    return (sim, calc) if {sim, calc} <= available else None


def _artifact_names(sources, slugs, comparison) -> set[str]:
    """The files a study writes; with "*" for the names, the patterns of all."""
    names = {"plan.csv", "verdicts.csv", "verdicts.json", "report.json"}
    names |= {"comparison.csv"} if comparison else set()
    for s in sources:
        names |= {f"responses_{s}.csv", f"anova_{s}.csv", f"anova_{s}.json"}
        names |= {f"effects_{s}.csv", f"effects_{s}.json"}
    return names | {f"profile_{slug}.{ext}" for slug in slugs for ext in ("csv", "svg")}


def run_study(config: StudyConfig, out_dir: str | Path) -> StudyReport:
    """Run every stage and write all artifacts into ``out_dir``.

    Before the first stage, artifacts of an earlier study in ``out_dir``
    that this one will not write are removed; other files are left alone.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stale = out / "STALE"

    def stage(name: str, fn):
        try:
            return fn()
        except Exception as exc:
            stale.write_text(f"incomplete study: stage {name} failed\n", encoding="utf-8")
            raise StageError(name, exc) from exc

    stale.unlink(missing_ok=True)
    pair = _comparison_sources(config)
    keep = _artifact_names(config.sources, [_slug(m.name) for m in config.library], pair)
    for pattern in _artifact_names(["*"], ["*"], True):
        for path in out.glob(pattern):
            if path.name not in keep and path.is_file():
                path.unlink()

    plan = stage("plan", lambda: default_plan(
        config.library, config.thickness_levels_um, config.pressure_levels_atm
    ))
    stage("plan", lambda: plan_to_csv(plan, out / "plan.csv"))

    # One mesh serves the fem responses and the fem screen, and lives as long
    # as this study.
    mesh = None
    if "fem" in config.sources:
        mesh = stage("responses:fem", lambda: mesh_cap(config.geometry, config.fem_elements))
    responses: dict[str, tuple[RunResult, ...]] = {}
    for source in config.sources:
        responses[source] = stage(
            f"responses:{source}", lambda s=source: _responses(config, plan, s, mesh)
        )
        stage(
            f"responses:{source}",
            lambda s=source: results_to_csv(responses[s], out / f"responses_{s}.csv"),
        )

    comparison = None
    if pair is not None:
        columns = {s: tuple(r.response_um for r in rs) for s, rs in responses.items()}
        columns.update(
            external=config.external_simulated_um,
            external_calculated=config.external_calculated_um,
        )
        comparison = stage("comparison", lambda: compare_columns(*(columns[s] for s in pair)))
        stage("comparison", lambda: _write_comparison(comparison, out / "comparison.csv"))

    analyses = []
    for source in config.sources:
        fit = stage(f"stats:{source}", lambda s=source: fit_screening_model(responses[s]))
        table = stage(f"stats:{source}", lambda f=fit: anova_table(f))
        effects = stage(f"stats:{source}", lambda f=fit: effect_tests(f))
        verdicts = stage(
            f"screening:{source}",
            lambda s=source, f=fit: screen(
                config.library,
                config.geometry,
                config.criteria,
                s,
                fit=f,
                atm_pa=config.atm_pa,
                fem_bc=config.fem_bc,
                fem_mesh=mesh,
            ),
        )
        analyses.append(
            SourceAnalysis(
                source=source,
                results=responses[source],
                fit=fit,
                anova=table,
                effects=effects,
                verdicts=verdicts,
            )
        )
        stage(
            f"stats:{source}",
            lambda s=source, t=table, e=effects: _write_stats(out, s, t, e),
        )

    stage("screening", lambda: _write_verdicts(out, analyses))

    stage("profiles", lambda: _write_profiles(out, config))

    report = StudyReport(
        config=config,
        plan=plan,
        analyses=tuple(analyses),
        comparison=comparison,
        comparison_sources=pair,
    )
    stage("report", lambda: _write_report_json(out / "report.json", report))
    return report


def _write_comparison(rows: Sequence[ComparisonRow], path: Path) -> None:
    lines = ["run,simulated_um,calculated_um,ratio,error_pct\n"]
    lines += [
        f"{r.run},{r.simulated_um:.2f},{r.calculated_um:.2f},{r.ratio:.4f},{r.error_pct:.2f}\n"
        for r in rows
    ]
    path.write_text("".join(lines), encoding="utf-8")


def _write_stats(
    out: Path, source: str, table: AnovaTable, effects: Sequence[EffectTest]
) -> None:
    (out / f"anova_{source}.csv").write_text(table.to_csv_text(), encoding="utf-8")
    _dump_json(out / f"anova_{source}.json", table.to_json_dict())
    (out / f"effects_{source}.csv").write_text(
        effects_to_csv_text(effects), encoding="utf-8"
    )
    _dump_json(out / f"effects_{source}.json", effects_to_json(effects))


def _write_verdicts(out: Path, analyses: Sequence[SourceAnalysis]) -> None:
    lines = ["material,source,min_feasible_thickness_um,worst_case_deflection_um,classification\n"]
    doc = {}
    for analysis in analyses:
        doc[analysis.source] = [v.as_dict() for v in analysis.verdicts]
        for v in analysis.verdicts:
            t_min = "inf" if math.isinf(v.min_feasible_thickness_um) else f"{v.min_feasible_thickness_um:.4f}"
            lines.append(
                f"{v.material_name},{v.source},{t_min},"
                f"{v.worst_case_deflection_um:.2f},{v.classification}\n"
            )
    (out / "verdicts.csv").write_text("".join(lines), encoding="utf-8")
    _dump_json(out / "verdicts.json", doc)


def _write_profiles(out: Path, config: StudyConfig) -> None:
    from .svgplot import Series, line_plot

    for mat in config.library:
        prof = thickness_profile(
            mat,
            config.geometry,
            config.criteria,
            n_points=config.profile_points,
            atm_pa=config.atm_pa,
        )
        slug = _slug(mat.name)
        (out / f"profile_{slug}.csv").write_text(prof.to_csv_text(), encoding="utf-8")
        svg = line_plot(
            [Series(label=mat.name, x=prof.thickness_um, y=prof.deflection_um)],
            title=f"Apex deflection vs thickness, {mat.name}, {prof.pressure_atm:g} atm",
            x_label="thickness (um)",
            y_label="apex deflection (um)",
            h_line=config.criteria.deflection_limit_um
            if math.isfinite(config.criteria.deflection_limit_um)
            else None,
            h_line_label="limit",
        )
        (out / f"profile_{slug}.svg").write_text(svg, encoding="utf-8")


def _dump_json(path: Path, doc) -> None:
    path.write_text(
        json.dumps(doc, indent=2, sort_keys=True, allow_nan=True) + "\n",
        encoding="utf-8",
    )


def _write_report_json(path: Path, report: StudyReport) -> None:
    config = report.config
    doc = {
        "provenance": {
            "package_version": __version__,
            "config_hash": config.config_hash,
        },
        "geometry": config.geometry.as_dict(),
        "criteria": {
            "deflection_limit_um": config.criteria.deflection_limit_um,
            "max_pressure_atm": config.criteria.max_pressure_atm,
            "max_thickness_um": config.criteria.max_thickness_um,
            "marginal_band": config.criteria.marginal_band,
        },
        "plan": [
            {
                "run": r.run,
                "material": r.material.name,
                "thickness_um": r.thickness_um,
                "pressure_atm": r.pressure_atm,
                "codes": list(r.codes),
            }
            for r in report.plan.runs
        ],
        "responses": {
            a.source: [
                {"run": r.run, "response_um": r.response_um} for r in a.results
            ]
            for a in report.analyses
        },
        "stats": {
            a.source: {
                "fit": a.fit.to_json_dict(),
                "anova": a.anova.to_json_dict(),
                "effects": effects_to_json(a.effects),
            }
            for a in report.analyses
        },
        "verdicts": {
            a.source: [v.as_dict() for v in a.verdicts] for a in report.analyses
        },
        "comparison": None
        if report.comparison is None
        else {
            "simulated_source": report.comparison_sources[0],
            "calculated_source": report.comparison_sources[1],
            "rows": [
                {
                    "run": r.run,
                    "simulated_um": r.simulated_um,
                    "calculated_um": r.calculated_um,
                    "ratio": r.ratio,
                    "error_pct": r.error_pct,
                }
                for r in report.comparison
            ],
        },
    }
    _dump_json(path, doc)
