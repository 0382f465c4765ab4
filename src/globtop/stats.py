"""Variance decomposition and F tests for the 9-run screening study.

Two entry points:

* anova_from_components builds a Model / Error / Total table from already
  summed squares, the form used when a response column comes from an outside
  simulator and only its pooled decomposition is being checked.

* fit_screening_model fits the additive screening model to 9 run results,
  decomposes the corrected total sum of squares by factor (the design is
  orthogonal, so the factor sums add exactly), and effect_tests turns that
  into per-factor F statistics against the 4-df residual.

F tail probabilities use the regularized incomplete beta function implemented
here with a modified Lentz continued fraction, switching to the symmetric
expansion when x exceeds (a+1)/(a+b+2).  Accuracy is a few ulp over the df
range that matters here; the test suite checks it against direct numerical
integration of the F density.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from .errors import FitError, InputDomainError, Record, SolverError, csv_text
from .doe import RunResult, audit_orthogonality

_CF_EPS = 1e-15
_CF_TINY = 1e-300
_CF_MAXIT = 300


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _CF_TINY:
        d = _CF_TINY
    d = 1.0 / d
    h = d
    for m in range(1, _CF_MAXIT + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _CF_TINY:
            d = _CF_TINY
        c = 1.0 + aa / c
        if abs(c) < _CF_TINY:
            c = _CF_TINY
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _CF_TINY:
            d = _CF_TINY
        c = 1.0 + aa / c
        if abs(c) < _CF_TINY:
            c = _CF_TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _CF_EPS:
            return h
    raise SolverError(
        f"incomplete beta continued fraction did not converge for a={a}, b={b}, x={x}"
    )


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if not (math.isfinite(a) and a > 0.0 and math.isfinite(b) and b > 0.0):
        raise InputDomainError(f"beta parameters must be positive, got a={a!r}, b={b!r}")
    if not 0.0 <= x <= 1.0:
        raise InputDomainError(f"x must lie in [0, 1], got {x!r}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_bt = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    bt = math.exp(ln_bt)
    if x < (a + 1.0) / (a + b + 2.0):
        return bt * _beta_cf(a, b, x) / a
    return 1.0 - bt * _beta_cf(b, a, 1.0 - x) / b


def _check_df(name: str, df: float) -> float:
    df = float(df)
    if not math.isfinite(df) or df < 1.0:
        raise InputDomainError(f"{name} must be >= 1, got {df!r}")
    return df


def _check_f(f: float, df_num: float, df_den: float) -> tuple[float, float, float]:
    """The arguments of an F tail, checked: f >= 0 and both df >= 1."""
    d1 = _check_df("df_num", df_num)
    d2 = _check_df("df_den", df_den)
    f = float(f)
    if math.isnan(f) or f < 0.0:
        raise InputDomainError(f"f must be non-negative, got {f!r}")
    return f, d1, d2


def f_upper_tail(f: float, df_num: float, df_den: float) -> float:
    """P(F > f) for an F(df_num, df_den) variate; the ANOVA p-value."""
    f, d1, d2 = _check_f(f, df_num, df_den)
    if f == 0.0:
        return 1.0
    if math.isinf(f):
        return 0.0
    x = d2 / (d2 + d1 * f)
    return regularized_incomplete_beta(d2 / 2.0, d1 / 2.0, x)


def f_lower_tail(f: float, df_num: float, df_den: float) -> float:
    """P(F <= f), computed from the complementary beta argument."""
    f, d1, d2 = _check_f(f, df_num, df_den)
    if f == 0.0:
        return 0.0
    if math.isinf(f):
        return 1.0
    x = d1 * f / (d2 + d1 * f)
    return regularized_incomplete_beta(d1 / 2.0, d2 / 2.0, x)


class AnovaRow(Record):
    source: str
    df: int
    ss: float
    ms: float | None = None
    f: float | None = None
    p: float | None = None


class AnovaTable(Record):
    """Model / Error / Total decomposition with the usual blank cells."""

    rows: tuple[AnovaRow, ...]
    ss_total_uncorrected: float | None = None

    def row(self, source: str) -> AnovaRow:
        for r in self.rows:
            if r.source == source:
                return r
        raise KeyError(source)

    def to_csv_text(self) -> str:
        rows = [
            [r.source, r.df, _fmt4(r.ss), _fmt4(r.ms), _fmt4(r.f), _fmt4(r.p)] for r in self.rows
        ]
        if self.ss_total_uncorrected is not None:
            rows.append(["Total (uncorrected)", 9, _fmt4(self.ss_total_uncorrected), "", "", ""])
        return csv_text(AnovaRow._fields, rows)


def _fmt4(value: float | None) -> str:
    if value is None:
        return ""
    if math.isinf(value):
        return "inf"
    return f"{value:.4f}"


def _check_ss(name: str, ss: float) -> float:
    ss = float(ss)
    if not math.isfinite(ss) or ss < 0.0:
        raise InputDomainError(f"{name} must be finite and non-negative, got {ss!r}")
    return ss


def _f_ratio(ms: float, mse: float) -> float:
    """The F ratio ms / mse.  A zero error mean square is degenerate: F is
    then 0 (p = 1) for a zero ms, and infinite (p = 0) otherwise."""
    if mse == 0.0:
        return 0.0 if ms == 0.0 else math.inf
    return ms / mse


def anova_from_components(
    ss_model: float, df_model: int, ss_error: float, df_error: int
) -> AnovaTable:
    """Build the pooled table from model and error sums of squares; the
    model F follows ``_f_ratio``."""
    ssm = _check_ss("ss_model", ss_model)
    sse = _check_ss("ss_error", ss_error)
    dfm = int(_check_df("df_model", df_model))
    dfe = int(_check_df("df_error", df_error))
    msm = ssm / dfm
    mse = sse / dfe
    f = _f_ratio(msm, mse)
    p = f_upper_tail(f, dfm, dfe)
    return AnovaTable(
        rows=(
            AnovaRow("Model", dfm, ssm, msm, f, p),
            AnovaRow("Error", dfe, sse, mse),
            AnovaRow("Total", dfm + dfe, ssm + sse),
        )
    )


class ScreeningFit(Record):
    """Additive screening model fitted to one 9-run response column.

    The model is response = material level mean + thickness and pressure
    linear terms in centered units.  Material means are reported directly;
    the slopes are per um and per atm.  Factor sums of squares add exactly
    to the corrected total because the design is orthogonal.
    """

    source: str
    material_names: tuple[str, ...]
    material_means: tuple[float, ...]
    grand_mean: float
    thickness_mean_um: float
    pressure_mean_atm: float
    thickness_slope_per_um: float
    pressure_slope_per_atm: float
    ss_material: float
    ss_thickness: float
    ss_pressure: float
    ss_residual: float
    ss_total_corrected: float
    ss_total_uncorrected: float
    responses: tuple[float, ...]
    fitted: tuple[float, ...]

    # The plan fixes the degrees of freedom: class constants, not fields.
    df_material = 2
    df_thickness = 1
    df_pressure = 1
    df_residual = 4

    @property
    def mse(self) -> float:
        return self.ss_residual / self.df_residual

    @property
    def residuals(self) -> tuple[float, ...]:
        return tuple(y - f for y, f in zip(self.responses, self.fitted))

    def material_mean(self, name: str) -> float:
        try:
            return self.material_means[self.material_names.index(name)]
        except ValueError:
            raise KeyError(
                f"material {name!r} not in fit; have {self.material_names}"
            ) from None

    def predict(self, material_name: str, thickness_um: float, pressure_atm: float) -> float:
        """Model deflection in um at an arbitrary setting."""
        return (
            self.material_mean(material_name)
            + self.thickness_slope_per_um * (thickness_um - self.thickness_mean_um)
            + self.pressure_slope_per_atm * (pressure_atm - self.pressure_mean_atm)
        )


def _levels_and_codes(name: str, values: Sequence) -> tuple[list, list[int]]:
    levels = sorted(set(values))
    if len(levels) != 3:
        raise FitError(
            f"factor {name!r} must take exactly 3 distinct levels, got {len(levels)}"
        )
    codes = [levels.index(v) - 1 for v in values]
    for level in (-1, 0, 1):
        if codes.count(level) != 3:
            raise FitError(f"factor {name!r} is unbalanced across its levels")
    return levels, codes


def fit_screening_model(results: Sequence[RunResult]) -> ScreeningFit:
    """Fit the additive model to exactly 9 orthogonally planned results."""
    if len(results) != 9:
        raise FitError(f"screening fit needs exactly 9 results, got {len(results)}")
    names = [r.material_name for r in results]
    thicknesses = [float(r.thickness_um) for r in results]
    pressures = [float(r.pressure_atm) for r in results]
    y = [float(r.response_um) for r in results]
    if not all(math.isfinite(v) for v in y):
        raise FitError("responses contain non-finite values")

    mat_levels, mat_codes = _levels_and_codes("material", names)
    _, t_codes = _levels_and_codes("thickness_um", thicknesses)
    _, p_codes = _levels_and_codes("pressure_atm", pressures)
    try:
        audit_orthogonality(list(zip(mat_codes, t_codes, p_codes)))
    except Exception as exc:
        raise FitError(f"results do not form an orthogonal plan: {exc}") from exc

    # The audited plan is balanced and orthogonal, so least squares decouples:
    # each material coefficient is its level mean and each slope is its own
    # contrast sum(x_c * y) / sum(x_c**2).  Every sum is exact (fsum), so the
    # fit does not depend on the order of the results.  Values near the ends
    # of the float range leave it: a sum, a square or inf - inf raises, a
    # product overflows to inf silently, and the squares of levels that lie
    # too close together underflow to 0.
    source = results[0].source
    try:
        t_mean = math.fsum(thicknesses) / 9.0
        p_mean = math.fsum(pressures) / 9.0
        t_c = [v - t_mean for v in thicknesses]
        p_c = [v - p_mean for v in pressures]
        grand = math.fsum(y) / 9.0
        means = {
            name: math.fsum(v for v, n in zip(y, names) if n == name) / 3.0
            for name in mat_levels
        }
        t_ss = math.fsum(x * x for x in t_c)
        p_ss = math.fsum(x * x for x in p_c)
        slope_t = math.fsum(x * v for x, v in zip(t_c, y)) / t_ss
        slope_p = math.fsum(x * v for x, v in zip(p_c, y)) / p_ss
        fitted = [means[n] + slope_t * tc + slope_p * pc for n, tc, pc in zip(names, t_c, p_c)]

        fit = ScreeningFit(
            source=source,
            material_names=tuple(mat_levels),
            material_means=tuple(means[n] for n in mat_levels),
            grand_mean=grand,
            thickness_mean_um=t_mean,
            pressure_mean_atm=p_mean,
            thickness_slope_per_um=slope_t,
            pressure_slope_per_atm=slope_p,
            ss_material=sum(3.0 * (m - grand) ** 2 for m in means.values()),
            ss_thickness=slope_t**2 * t_ss,
            ss_pressure=slope_p**2 * p_ss,
            ss_residual=math.fsum((v - f) * (v - f) for v, f in zip(y, fitted)),
            ss_total_corrected=math.fsum((v - grand) * (v - grand) for v in y),
            ss_total_uncorrected=math.fsum(v * v for v in y),
            responses=tuple(y),
            fitted=tuple(fitted),
        )
        sums = (fit.ss_material, fit.ss_thickness, fit.ss_pressure, fit.ss_residual,
                fit.ss_total_corrected, fit.ss_total_uncorrected)
    except ZeroDivisionError as exc:
        raise InputDomainError(
            f"{source} thickness or pressure levels are too close together: their squares underflow"
        ) from exc
    except (OverflowError, ValueError):
        sums = (math.inf,)
    if not all(map(math.isfinite, sums)):
        raise InputDomainError(f"{source} responses are out of range: their sums of squares overflow")
    return fit


class EffectTest(Record):
    """One factor's F test against the 4-df residual."""

    source: str
    n_params: int
    df: int
    ss: float
    f: float
    p: float
    degenerate: bool = False


def effect_tests(fit: ScreeningFit) -> tuple[EffectTest, EffectTest, EffectTest]:
    """Per-factor F tests, in the fixed order material, thickness, pressure.

    With a zero residual mean square the ratios are degenerate, as
    ``_f_ratio`` says, and flagged.
    """
    mse = fit.mse
    out = []
    for source, n_params, df, ss in (
        ("material", 2, fit.df_material, fit.ss_material),
        ("thickness_um", 1, fit.df_thickness, fit.ss_thickness),
        ("pressure_atm", 1, fit.df_pressure, fit.ss_pressure),
    ):
        f = _f_ratio(ss / df, mse)
        p = f_upper_tail(f, df, fit.df_residual)
        out.append(EffectTest(source, n_params, df, ss, f, p, mse == 0.0))
    return tuple(out)


def anova_table(fit: ScreeningFit) -> AnovaTable:
    """Pooled Model / Error / C. Total table for a fitted screening model."""
    ss_model = fit.ss_material + fit.ss_thickness + fit.ss_pressure
    df_model = fit.df_material + fit.df_thickness + fit.df_pressure
    table = anova_from_components(ss_model, df_model, fit.ss_residual, fit.df_residual)
    rows = list(table.rows)
    rows[2] = AnovaRow("C. Total", df_model + fit.df_residual, fit.ss_total_corrected)
    return AnovaTable(rows=tuple(rows), ss_total_uncorrected=fit.ss_total_uncorrected)


def effects_to_csv_text(effects: Sequence[EffectTest]) -> str:
    rows = [
        [e.source, e.n_params, e.df, _fmt4(e.ss), _fmt4(e.f), _fmt4(e.p), int(e.degenerate)]
        for e in effects
    ]
    return csv_text(EffectTest._fields, rows)


def analysis_json(fit: ScreeningFit, anova: AnovaTable, effects: Sequence[EffectTest]) -> dict:
    """One source's {fit, anova, effects} document: ``anova --format json``
    prints it, and a study's report.json holds it under ``stats``.  ``anova``
    is ``anova_table(fit)``, which carries the uncorrected total."""
    return {
        "fit": {
            "source": fit.source,
            "grand_mean_um": fit.grand_mean,
            "material_means_um": dict(zip(fit.material_names, fit.material_means)),
            "thickness_slope_um_per_um": fit.thickness_slope_per_um,
            "pressure_slope_um_per_atm": fit.pressure_slope_per_atm,
            "ss": {
                "material": fit.ss_material,
                "thickness": fit.ss_thickness,
                "pressure": fit.ss_pressure,
                "residual": fit.ss_residual,
                "total_corrected": fit.ss_total_corrected,
                "total_uncorrected": fit.ss_total_uncorrected,
            },
        },
        "anova": {
            "rows": [_json_row(r) for r in anova.rows],
            "ss_total_uncorrected": anova.ss_total_uncorrected,
        },
        "effects": [_json_row(e) for e in effects],
    }


def _json_row(row: AnovaRow | EffectTest) -> dict:
    """``row.as_dict()``, with a degenerate infinite F as the string "inf":
    JSON has no Infinity literal."""
    doc = row.as_dict()
    if doc["f"] == math.inf:
        doc["f"] = "inf"
    return doc
