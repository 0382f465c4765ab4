"""The three-factor, three-level orthogonal screening plan (L9).

The plan crosses an encapsulant material factor with thickness and pressure
factors using the 9-run orthogonal array: every pair of columns contains each
ordered level pair exactly once, so main effects are estimated independently.
Level codes are -1, 0, +1 (low, mid, high); for the material column the
levels are ordered by ascending Young's modulus.

The row order of L9_CODES is part of the package contract.  Run numbers in
every artifact refer to these rows, so the order is pinned and tested rather
than derived from a generator.
"""

from __future__ import annotations

import csv
import io
import math
from collections.abc import Callable, Sequence
from functools import partial

from .errors import ConfigError, InputDomainError, Record, ResponderError, csv_text, numbers, read_text, write_text
from .geometry import CapGeometry
from .materials import Material, MaterialLibrary
from .shell_model import ShellCase
from .units import ATM_PA, atm_to_pa

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing
if TYPE_CHECKING:
    from pathlib import Path
    from typing import IO

    # A column of 9 responses in run order, or a callable giving one per run.
    Responder = Callable[[ShellCase], float] | Sequence[float]

L9_CODES: tuple[tuple[int, int, int], ...] = (
    (-1, +1, +1),
    (+1, -1, +1),
    (-1, 0, 0),
    (0, +1, -1),
    (-1, -1, -1),
    (0, -1, 0),
    (+1, 0, -1),
    (0, 0, +1),
    (+1, +1, 0),
)

# Every ordered pair of the level codes -1, 0, +1.
_LEVEL_PAIRS = {(a, b) for a in (-1, 0, 1) for b in (-1, 0, 1)}


def is_orthogonal(codes: Sequence[Sequence[int]]) -> bool:
    """True if the 9x3 code matrix is a valid 3-level orthogonal array: each
    column pair holds all 9 level pairs, so each exactly once, and then each
    column holds each level 3 times."""
    if len(codes) != 9 or any(len(row) != 3 for row in codes):
        return False
    return all({(row[i], row[j]) for row in codes} == _LEVEL_PAIRS for i, j in ((0, 1), (0, 2), (1, 2)))


def audit_orthogonality(codes: Sequence[Sequence[int]]) -> None:
    """Raise ConfigError unless the code matrix is orthogonal and balanced."""
    if not is_orthogonal(codes):
        raise ConfigError(
            "code matrix is not a balanced 3-level orthogonal array "
            "(9 rows, each column pair covering all 9 level pairs exactly once)"
        )


class RunSpec(Record):
    """One planned run: level codes plus the realized factor settings."""

    run: int
    codes: tuple[int, int, int]
    material: Material
    thickness_um: float
    pressure_atm: float


class ExperimentPlan(Record):
    """A realized L9 plan; orthogonality is re-audited on construction."""

    runs: tuple[RunSpec, ...]

    def __post_init__(self) -> None:
        audit_orthogonality([r.codes for r in self.runs])
        if [r.run for r in self.runs] != list(range(1, 10)):
            raise ConfigError("plan runs must be numbered 1..9 in order")


THICKNESS_LEVELS_UM = (150.0, 200.0, 250.0)
PRESSURE_LEVELS_ATM = (80.0, 90.0, 100.0)


def plan_levels(name: str, levels, positive: bool) -> tuple[float, float, float]:
    """Three increasing levels, > 0 if ``positive`` (thickness), else >= 0
    (pressure: a case may carry no load).  A ConfigError names ``name``."""
    low, mid, high = numbers(3, name, levels)
    if not (0.0 < low if positive else 0.0 <= low) or not low < mid < high:
        sign = "positive" if positive else "non-negative"
        raise ConfigError(f"{name} must be strictly increasing and {sign}, got {list(levels)}")
    return low, mid, high


# The config's level rows, and the flags of ``globtop plan``.
LEVEL_ROWS = (
    ("thickness_levels_um", partial(plan_levels, positive=True), THICKNESS_LEVELS_UM),
    ("pressure_levels_atm", partial(plan_levels, positive=False), PRESSURE_LEVELS_ATM),
)


def default_plan(
    library: MaterialLibrary,
    thickness_levels_um: Sequence[float] = THICKNESS_LEVELS_UM,
    pressure_levels_atm: Sequence[float] = PRESSURE_LEVELS_ATM,
) -> ExperimentPlan:
    """The L9 screening plan over a 3-material library and two level triples."""
    if len(library) != 3:
        raise ConfigError(f"material factor needs a 3-entry library, got {len(library)}")
    materials = library.sorted_by_modulus()
    thickness = plan_levels("thickness_levels_um", thickness_levels_um, True)
    pressure = plan_levels("pressure_levels_atm", pressure_levels_atm, False)
    return ExperimentPlan(runs=tuple(
        RunSpec(run, (cm, ct, cp), materials[cm + 1], thickness[ct + 1], pressure[cp + 1])
        for run, (cm, ct, cp) in enumerate(L9_CODES, start=1)
    ))


class RunResult(Record):
    """A run with its scalar deflection response attached."""

    run: int
    material_name: str
    thickness_um: float
    pressure_atm: float
    response_um: float
    source: str


def realize_responses(
    plan: ExperimentPlan,
    responder: Responder,
    *,
    geometry: CapGeometry | None = None,
    atm_pa: float = ATM_PA,
    source: str = "analytical",
) -> tuple[RunResult, ...]:
    """Attach a response column to a plan.

    ``responder`` is either a sequence of 9 deflections in um (an external
    column, in run order) or a callable taking the run's ShellCase and
    returning the deflection in um; callables require ``geometry``.  Any
    exception inside a callable is re-raised as ResponderError naming the
    1-based run that failed, except an InputDomainError, which is re-raised
    as one naming the run.
    """
    if callable(responder):
        if geometry is None:
            raise ConfigError("a callable responder requires geometry")
        results = []
        for spec in plan.runs:
            case = ShellCase(
                geometry=geometry,
                thickness_um=spec.thickness_um,
                material=spec.material,
                pressure_pa=atm_to_pa(spec.pressure_atm, atm_pa),
            )
            try:
                value = float(responder(case))
            except ResponderError:
                raise
            except InputDomainError as exc:  # out-of-range inputs stay an input error
                raise InputDomainError(f"run {spec.run}: {exc}") from exc
            except Exception as exc:
                raise ResponderError(spec.run, f"responder failed: {exc}") from exc
            if not math.isfinite(value):
                raise ResponderError(spec.run, f"responder returned {value!r}")
            results.append(_result(spec, value, source))
        return tuple(results)

    column = [float(v) for v in responder]
    if len(column) != 9:
        raise ConfigError(
            f"an external response column needs 9 values in run order, got {len(column)}"
        )
    for i, v in enumerate(column, start=1):
        if not math.isfinite(v):
            raise ResponderError(i, f"external response is {v!r}")
    return tuple(_result(spec, v, source) for spec, v in zip(plan.runs, column))


def _result(spec: RunSpec, value: float, source: str) -> RunResult:
    return RunResult(
        run=spec.run,
        material_name=spec.material.name,
        thickness_um=spec.thickness_um,
        pressure_atm=spec.pressure_atm,
        response_um=value,
        source=source,
    )


_PLAN_HEADER = [
    "run",
    "material",
    "thickness_um",
    "pressure_atm",
    "code_material",
    "code_thickness",
    "code_pressure",
]
_RESPONSE_HEADER = ["run", "material", "thickness_um", "pressure_atm", "response_um", "source"]


def plan_to_csv(plan: ExperimentPlan, target: str | Path | IO[str]) -> None:
    """Write the plan with realized settings and level codes."""
    rows = [
        [r.run, r.material.name, f"{r.thickness_um:g}", f"{r.pressure_atm:g}", *r.codes]
        for r in plan.runs
    ]
    write_text(target, csv_text(_PLAN_HEADER, rows))


def results_to_csv(results: Sequence[RunResult], target: str | Path | IO[str]) -> None:
    """Write a response table; deflections are printed at 2 decimals."""
    rows = [
        [
            r.run,
            r.material_name,
            f"{r.thickness_um:g}",
            f"{r.pressure_atm:g}",
            f"{r.response_um:.2f}",
            r.source,
        ]
        for r in results
    ]
    write_text(target, csv_text(_RESPONSE_HEADER, rows))


def read_responses_csv(path: str | Path) -> tuple[RunResult, ...]:
    """Read a response table written by results_to_csv (or a compatible file)."""
    reader = csv.DictReader(io.StringIO(read_text(path, "responses file")))
    required = set(_RESPONSE_HEADER) - {"source"}
    if reader.fieldnames is None or not required <= set(reader.fieldnames):
        raise ConfigError(
            f"{path}: responses CSV must have columns {sorted(required)}"
        )
    out = []
    for lineno, row in enumerate(reader, start=2):
        try:
            out.append(
                RunResult(
                    run=int(row["run"]),
                    material_name=row["material"],
                    thickness_um=float(row["thickness_um"]),
                    pressure_atm=float(row["pressure_atm"]),
                    response_um=float(row["response_um"]),
                    source=row.get("source") or "external",
                )
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{path}:{lineno}: bad row: {exc}") from exc
    return tuple(out)
