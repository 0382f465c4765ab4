"""Screening toolkit for glob-top encapsulants on pressure-molded packages.

The package answers a packaging question: which encapsulant material, and how
thick, keeps the dome over a MEMS die from deflecting more than the die can
tolerate while the package is overmolded at tens of atmospheres.  It combines
a closed-form thin-shell deflection model, an axisymmetric shell finite
element solver, a 9-run orthogonal screening plan with variance
decomposition, and constraint-based thickness selection, wired together
behind a config-driven study pipeline and CLI.
"""

__version__ = "0.1.0"

from importlib import import_module

# Public name -> module that defines it.  A module is imported when one of its
# names is first read (PEP 562), so ``import globtop`` loads none of them, and
# only code that reads a ``fem`` name loads numpy and scipy.
_EXPORTS = {
    "errors": (
        "ConfigError", "FitError", "GlobtopError", "InputDomainError", "MeshError",
        "ResponderError", "SolverError", "StageError",
    ),
    "geometry": (
        "CapGeometry", "REFERENCE_GEOMETRY", "ThinShellWarning", "cap_from_config",
        "from_radius_angle", "solve_cap", "thinness_ratio",
    ),
    "materials": (
        "Material", "MaterialLibrary", "default_library", "load_library",
        "load_library_file", "serialize_library",
    ),
    "shell_model": (
        "DeflectionProfile", "ShellCase", "apex_coefficient", "apex_deflection",
        "meridional_v", "profile", "radial_w",
    ),
    "doe": (
        "ExperimentPlan", "Factor", "L9_CODES", "RunResult", "RunSpec",
        "audit_orthogonality", "build_l9", "default_plan", "is_orthogonal",
        "material_factor", "plan_to_csv", "read_responses_csv", "realize_responses",
        "results_to_csv",
    ),
    "stats": (
        "AnovaTable", "EffectTest", "ScreeningFit", "anova_from_components", "anova_table",
        "effect_tests", "f_lower_tail", "f_upper_tail", "fit_screening_model",
        "regularized_incomplete_beta",
    ),
    "fem": ("ConvergenceReport", "FemSolution", "ShellMesh", "converge", "mesh_cap", "solve_case"),
    "screening": (
        "ScreeningCriteria", "Verdict", "classify", "desirability", "min_thickness",
        "screen", "thickness_profile",
    ),
    "report": (
        "StudyConfig", "StudyReport", "compare_columns", "parse_config",
        "parse_config_file", "run_study",
    ),
    "units": ("ATM_PA", "atm_to_pa", "gpa_to_pa", "pa_to_atm"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *sorted(_MODULE_OF)]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
