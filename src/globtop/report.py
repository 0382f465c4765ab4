"""Study configuration, the end-to-end pipeline, and report artifacts.

A study runs the screening plan against one or more response sources,
compares simulated against calculated columns, decomposes the variance per
source, screens the materials, and writes every artifact into one output
directory.  Outputs are deterministic: identical resolved configs give
byte-identical files, and report.json embeds the sha256 hash of the
resolved config so a report can be tied back to its inputs.

The stages compute every artifact's text first, and one last stage writes
them all.  A failed compute stage therefore writes nothing, and an earlier
study in the directory stays whole; only a failed write leaves a STALE
marker.  ``anova_<source>.json``, ``effects_<source>.json`` and
``verdicts.json`` are sections of report.json, cut from the same document.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
from collections.abc import Mapping, Sequence
from contextlib import contextmanager, suppress
from functools import partial
from pathlib import Path

from . import __version__
from .doe import (
    LEVEL_ROWS,
    ExperimentPlan,
    RunResult,
    default_plan,
    plan_to_csv,
    realize_responses,
    results_to_csv,
)
from .errors import ConfigError, Record, StageError, csv_text, numbers, read_text, resolve
from .geometry import REFERENCE_CAP, CapGeometry, cap_from_config
from .materials import MaterialLibrary, default_library, library_block, load_library_file
from .screening import (
    CRITERIA_ROWS,
    FEM_ROWS,
    ScreeningCriteria,
    SOURCES,
    Verdict,
    mesh_cap,
    screen,
    solve_case,
    thickness_profile,
)
from .shell_model import PROFILE_POINTS_ROW, apex_deflection
from .stats import (
    AnovaTable,
    EffectTest,
    ScreeningFit,
    analysis_json,
    anova_table,
    effect_tests,
    effects_to_csv_text,
    fit_screening_model,
)
from .units import ATM_PA_ROW

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing
if TYPE_CHECKING:
    from .fem import ShellMesh


class StudyConfig(Record):
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


# The study config's schema, in the tables of ``errors.resolve``.


def _column(path: str, raw) -> tuple[float, ...] | None:
    return None if raw is None else numbers(9, path, raw)


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
    else:
        library = library_block(path, raw)
    if len(library) != 3:
        raise ConfigError(
            f"{path} must hold exactly 3 materials, one per plan level, got {len(library)}"
        )
    return library


_EXTERNAL = (("simulated_um", _column, None), ("calculated_um", _column, None))


def _study_table(base_dir: Path | None) -> tuple:
    return (
        ("geometry", lambda _, raw: cap_from_config(raw), REFERENCE_CAP),
        ("materials", partial(_library, base_dir), None),
        *LEVEL_ROWS,
        ("criteria", partial(resolve, CRITERIA_ROWS, ScreeningCriteria), {}),
        ("sources", _sources, ("analytical",)),
        ("external", partial(resolve, _EXTERNAL, dict), {}),
        ("fem", partial(resolve, FEM_ROWS, dict), {}),
        ATM_PA_ROW,
        PROFILE_POINTS_ROW,
    )


def _jsonable(value):
    """The hashed JSON form of a resolved domain object."""
    if isinstance(value, MaterialLibrary):
        return list(value)
    return value.as_dict()


def parse_config(doc: Mapping, base_dir: Path | None = None) -> StudyConfig:
    """Validate and resolve a config mapping into a StudyConfig."""
    resolved = resolve(_study_table(base_dir), dict, "", doc)
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
        doc = json.loads(read_text(path, "config"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    return parse_config(doc, base_dir=path.parent)


class ComparisonRow(Record):
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


class SourceAnalysis(Record):
    source: str
    results: tuple[RunResult, ...]
    fit: ScreeningFit
    anova: AnovaTable
    effects: tuple[EffectTest, ...]
    verdicts: tuple[Verdict, ...]


class StudyReport(Record):
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
    def fem_apex(case) -> float:
        sol = solve_case(
            mesh, case.thickness_um, case.material, case.pressure_pa, config.fem_bc
        )
        return sol.apex_deflection_um

    responder = {
        "analytical": apex_deflection,
        "fem": fem_apex,
        "external": config.external_simulated_um,
    }[source]
    return realize_responses(
        plan, responder, geometry=config.geometry, atm_pa=config.atm_pa, source=source
    )


def _comparison_sources(config: StudyConfig) -> tuple[str, str] | None:
    """The (simulated, calculated) columns a study compares, if it has both.

    A given external column wins over the source that would stand in for it.
    """
    sim = "external" if config.external_simulated_um is not None else "fem"
    calc = "external_calculated" if config.external_calculated_um is not None else "analytical"
    available = {"external", "external_calculated", *config.sources}
    return (sim, calc) if {sim, calc} <= available else None


# The names of every artifact a study can write.  A rerun removes an earlier
# study's files that match one of them and that it does not write itself.
_ARTIFACT_PATTERNS = (
    "plan.csv", "responses_*.csv", "comparison.csv", "anova_*.csv", "anova_*.json",
    "effects_*.csv", "effects_*.json", "verdicts.csv", "verdicts.json",
    "profile_*.csv", "profile_*.svg", "report.json",
)


@contextmanager
def _stage(name: str):
    """Raise any exception of the block as a StageError naming ``name``."""
    try:
        yield
    except Exception as exc:
        raise StageError(name, exc) from exc


def run_study(config: StudyConfig, out_dir: str | Path) -> StudyReport:
    """Compute every artifact of the study, then write them into ``out_dir``.

    A failed compute stage raises a StageError naming it and writes nothing;
    ``_write_artifacts`` does the write.
    """
    files: dict[str, str] = {}  # artifact name -> text
    with _stage("plan"):
        plan = default_plan(config.library, config.thickness_levels_um, config.pressure_levels_atm)
        files["plan.csv"] = _csv(plan_to_csv, plan)

    # One mesh serves the fem responses and the fem screen, and lives as long
    # as this study; one element pass builds its parts for every Poisson ratio.
    mesh = None
    if "fem" in config.sources:
        with _stage("responses:fem"):
            from .fem import _build_unit_systems

            mesh = mesh_cap(config.geometry, config.fem_elements)
            nus = dict.fromkeys(m.poisson_ratio for m in config.library)
            _build_unit_systems([(mesh, nu) for nu in nus])
    responses: dict[str, tuple[RunResult, ...]] = {}
    for source in config.sources:
        with _stage(f"responses:{source}"):
            responses[source] = _responses(config, plan, source, mesh)
            files[f"responses_{source}.csv"] = _csv(results_to_csv, responses[source])

    comparison, pair = None, _comparison_sources(config)
    if pair is not None:
        columns = {s: tuple(r.response_um for r in rs) for s, rs in responses.items()}
        columns.update(
            external=config.external_simulated_um,
            external_calculated=config.external_calculated_um,
        )
        with _stage("comparison"):
            comparison = compare_columns(*(columns[s] for s in pair))
            rows = [
                [r.run, f"{r.simulated_um:.2f}", f"{r.calculated_um:.2f}", f"{r.ratio:.4f}", f"{r.error_pct:.2f}"]
                for r in comparison
            ]
            files["comparison.csv"] = csv_text(ComparisonRow._fields, rows)

    analyses = []
    for source in config.sources:
        with _stage(f"stats:{source}"):
            fit = fit_screening_model(responses[source])
            anova = anova_table(fit)
            effects = effect_tests(fit)
            files[f"anova_{source}.csv"] = anova.to_csv_text()
            files[f"effects_{source}.csv"] = effects_to_csv_text(effects)
        with _stage(f"screening:{source}"):
            verdicts = screen(
                config.library,
                config.geometry,
                config.criteria,
                source,
                fit=fit,
                atm_pa=config.atm_pa,
                fem_bc=config.fem_bc,
                fem_mesh=mesh,
                fem_responses=responses.get("fem", ()),
            )
        analyses.append(
            SourceAnalysis(
                source=source,
                results=responses[source],
                fit=fit,
                anova=anova,
                effects=effects,
                verdicts=verdicts,
            )
        )

    with _stage("screening"):
        rows = []
        for v in (v for a in analyses for v in a.verdicts):
            t_min = "inf" if math.isinf(v.min_feasible_thickness_um) else f"{v.min_feasible_thickness_um:.4f}"
            rows.append([v.material_name, v.source, t_min, f"{v.worst_case_deflection_um:.2f}", v.classification])
        files["verdicts.csv"] = csv_text(
            ("material", "source", "min_feasible_thickness_um", "worst_case_deflection_um", "classification"), rows
        )

    with _stage("profiles"):
        from .svgplot import Series, line_plot

        limit = config.criteria.deflection_limit_um
        for mat in config.library:
            prof = thickness_profile(
                mat, config.geometry, config.criteria, n_points=config.profile_points, atm_pa=config.atm_pa
            )
            slug = _slug(mat.name)
            files[f"profile_{slug}.csv"] = prof.to_csv_text()
            files[f"profile_{slug}.svg"] = line_plot(
                [Series(label=mat.name, x=prof.thickness_um, y=prof.deflection_um)],
                title=f"Apex deflection vs thickness, {mat.name}, {prof.pressure_atm:g} atm",
                x_label="thickness (um)",
                y_label="apex deflection (um)",
                h_line=limit if math.isfinite(limit) else None,
                h_line_label="limit",
            )

    report = StudyReport(
        config=config,
        plan=plan,
        analyses=tuple(analyses),
        comparison=comparison,
        comparison_sources=pair,
    )
    with _stage("report"):
        # The per-source JSON files and verdicts.json are sections of report.json.
        doc = _report_doc(report)
        for source, stats in doc["stats"].items():
            files[f"anova_{source}.json"] = _json_text(stats["anova"])
            files[f"effects_{source}.json"] = _json_text(stats["effects"])
        files["verdicts.json"] = _json_text(doc["verdicts"])
        files["report.json"] = _json_text(doc)
    _write_artifacts(Path(out_dir), files)
    return report


def _write_artifacts(out: Path, files: dict[str, str]) -> None:
    """Write ``files`` (name -> text) into ``out`` as one study.

    In an existing ``out``, an earlier study's artifacts that are not in
    ``files`` are removed first, and other files are left alone; a directory
    made here holds neither.  If any of this fails, a STALE marker is left
    in ``out`` where it can be written, and a StageError names the write.
    """
    stale = out / "STALE"
    try:
        try:
            out.mkdir(parents=True)
        except FileExistsError:
            stale.unlink(missing_ok=True)
            from fnmatch import fnmatchcase  # only a rerun scans its directory

            with os.scandir(out) as entries:
                stale_artifacts = [
                    entry.path
                    for entry in entries
                    if entry.name not in files
                    and any(fnmatchcase(entry.name, pattern) for pattern in _ARTIFACT_PATTERNS)
                    and entry.is_file()
                ]
            for path in stale_artifacts:
                os.unlink(path)
        for name, text in files.items():
            (out / name).write_text(text, encoding="utf-8")
    except Exception as exc:
        with suppress(OSError):
            stale.write_text("incomplete study: stage write failed\n", encoding="utf-8")
        raise StageError("write", exc) from exc


def _csv(write, rows) -> str:
    """The text that ``write`` (plan_to_csv or results_to_csv) gives ``rows``."""
    buf = io.StringIO()
    write(rows, buf)
    return buf.getvalue()


def _json_text(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=True) + "\n"


def _report_doc(report: StudyReport) -> dict:
    config = report.config
    return {
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
        "stats": {a.source: analysis_json(a.fit, a.anova, a.effects) for a in report.analyses},
        "verdicts": {
            a.source: [v.as_dict() for v in a.verdicts] for a in report.analyses
        },
        "comparison": None
        if report.comparison is None
        else {
            "simulated_source": report.comparison_sources[0],
            "calculated_source": report.comparison_sources[1],
            "rows": [r.as_dict() for r in report.comparison],
        },
    }
