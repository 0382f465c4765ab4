import math
import random

import pytest

import globtop as gt
from globtop import shell_model
from globtop.errors import ConfigError, InputDomainError

from .conftest import replaced
from .oracles import bisect_root

T_MIN_ANALYTICAL = {
    "Carbon epoxy resin": 102.18316433123631,
    "Parylene C": 259.25413204735565,
    "Polyimide": 1007.0784439811266,
}
T_MIN_FEM_96 = {
    "Carbon epoxy resin": 134.95726577993895,
    "Parylene C": 238.35060379692476,
    "Polyimide": 435.1381096045389,
}
T_MIN_EXTERNAL = {
    "Carbon epoxy resin": 141.46094698502634,
    "Parylene C": 154.04694455685961,
    "Polyimide": 371.73209227033584,
}


@pytest.fixture(scope="module")
def criteria():
    return gt.ScreeningCriteria()


class TestCriteria:
    def test_defaults(self, criteria):
        assert criteria.deflection_limit_um == 5.0
        assert criteria.max_pressure_atm == 100.0
        assert criteria.max_thickness_um == 250.0
        assert criteria.thickness_range_um == (150.0, 250.0)
        assert criteria.pressure_range_atm == (80.0, 100.0)
        assert criteria.marginal_band == 0.05

    def test_infinite_limit_allowed(self):
        gt.ScreeningCriteria(deflection_limit_um=math.inf)

    @pytest.mark.parametrize(
        "kw",
        [
            {"deflection_limit_um": 0.0},
            {"deflection_limit_um": -5.0},
            {"deflection_limit_um": float("nan")},
            {"max_pressure_atm": 0.0},
            {"max_thickness_um": -1.0},
            {"thickness_range_um": (250.0, 150.0)},
            {"pressure_range_atm": (0.0, 100.0)},
            {"marginal_band": 1.0},
            {"marginal_band": -0.1},
            {"deflection_limit_um": "5"},
            {"max_pressure_atm": True},
            {"max_thickness_um": None},
            {"thickness_range_um": ("150", 250.0)},
            {"marginal_band": "0.1"},
        ],
    )
    def test_invalid_settings(self, kw):
        with pytest.raises(InputDomainError):
            gt.ScreeningCriteria(**kw)

    def test_settings_are_stored_as_floats(self):
        criteria = gt.ScreeningCriteria(deflection_limit_um=5, pressure_range_atm=(80, 100))
        assert type(criteria.deflection_limit_um) is float
        assert all(type(p) is float for p in criteria.pressure_range_atm)


class TestMinThickness:
    def test_frozen_values(self, library, reference_cap):
        p = gt.atm_to_pa(100.0)
        for name, expected in T_MIN_ANALYTICAL.items():
            got = gt.min_thickness(library.get(name), reference_cap, p, 5.0)
            assert got == pytest.approx(expected, rel=1e-13)

    @pytest.mark.filterwarnings("ignore::globtop.ThinShellWarning")
    def test_deflection_at_minimum_thickness_hits_the_limit(
        self, library, reference_cap
    ):
        p = gt.atm_to_pa(100.0)
        for name in T_MIN_ANALYTICAL:
            t_min = gt.min_thickness(library.get(name), reference_cap, p, 5.0)
            case = gt.ShellCase(reference_cap, t_min, library.get(name), p)
            assert gt.apex_deflection(case) == pytest.approx(5.0, rel=1e-12)

    @pytest.mark.filterwarnings("ignore::globtop.ThinShellWarning")
    def test_matches_bisection_of_the_deflection_curve(self, cer, reference_cap):
        p = gt.atm_to_pa(100.0)

        def excess(t):
            return gt.apex_deflection(gt.ShellCase(reference_cap, t, cer, p)) - 5.0

        root = bisect_root(excess, 1.0, 5000.0, tol=1e-13)
        closed = gt.min_thickness(cer, reference_cap, p, 5.0)
        assert closed == pytest.approx(root, rel=1e-9)

    def test_zero_pressure_needs_no_thickness(self, cer, reference_cap):
        assert gt.min_thickness(cer, reference_cap, 0.0, 5.0) == 0.0

    def test_infinite_limit_needs_no_thickness(self, cer, reference_cap):
        assert gt.min_thickness(cer, reference_cap, 1.0e7, math.inf) == 0.0

    def test_scales_inversely_with_the_limit(self, cer, reference_cap):
        p = gt.atm_to_pa(100.0)
        t5 = gt.min_thickness(cer, reference_cap, p, 5.0)
        t10 = gt.min_thickness(cer, reference_cap, p, 10.0)
        assert t10 == pytest.approx(0.5 * t5, rel=1e-14)

    @pytest.mark.parametrize("p,limit", [(-1.0, 5.0), (float("nan"), 5.0), (1e6, 0.0)])
    def test_domain(self, cer, reference_cap, p, limit):
        with pytest.raises(InputDomainError):
            gt.min_thickness(cer, reference_cap, p, limit)


class TestDesirability:
    def test_clips_below_target(self):
        assert gt.desirability(-1.0) == 1.0
        assert gt.desirability(0.0) == 1.0

    def test_clips_above_bound(self):
        assert gt.desirability(5.0) == 0.0
        assert gt.desirability(100.0) == 0.0

    def test_linear_in_between(self):
        assert gt.desirability(2.5) == 0.5
        assert gt.desirability(1.0) == pytest.approx(0.8, rel=1e-15)
        assert gt.desirability(3.0, 1.0, 5.0) == 0.5

    def test_nan_rejected(self):
        with pytest.raises(InputDomainError):
            gt.desirability(float("nan"))

    def test_degenerate_window_rejected(self):
        with pytest.raises(InputDomainError):
            gt.desirability(1.0, 5.0, 5.0)


class TestClassify:
    def test_band_edges(self, criteria):
        assert gt.classify(237.5, criteria) == "pass"
        assert gt.classify(237.5000001, criteria) == "marginal"
        assert gt.classify(262.5, criteria) == "marginal"
        assert gt.classify(262.5000001, criteria) == "fail"
        assert gt.classify(math.inf, criteria) == "fail"
        assert gt.classify(0.0, criteria) == "pass"


_ROOT_SHAPES = {
    # A FEM-like excess: log of a deflection falling as 1/t to 1/t**3.
    "log-deflection": lambda u, c: math.log(
        (math.exp(c - u) + 0.2 * math.exp(3 * (c - u))) / 1.2
    ),
    "cubic": lambda x, c: (x - c) ** 3 + 0.1 * (x - c),
    "tanh": lambda x, c: math.tanh(x - c) + 0.01 * (x - c) ** 3,
    "wiggly": lambda x, c: x - c + 0.3 * math.sin(7 * (x - c)),
}


def _recorded(f, c):
    points = []

    def g(x):
        points.append(x)
        return f(x, c)

    return g, points


class TestBrentq:
    """``screening.brentq`` is scipy's Brent method to the bit."""

    # A coarse xtol reaches the steps that the tolerance itself decides.
    @pytest.mark.parametrize("log_xtol", [(-11.7, -4.0), (-3.0, 0.0)], ids=["fine", "coarse"])
    @pytest.mark.parametrize("maxiter", [2, 100])
    @pytest.mark.parametrize("reverse", [False, True], ids=["lo-hi", "hi-lo"])
    @pytest.mark.parametrize("shape", sorted(_ROOT_SHAPES))
    def test_matches_scipy(self, shape, reverse, maxiter, log_xtol):
        from scipy import optimize

        from globtop import screening

        f = _ROOT_SHAPES[shape]
        rng = random.Random(f"{shape}-{reverse}-{maxiter}-{log_xtol}")
        for _ in range(100):
            c = rng.uniform(-3.0, 3.0)
            a, b = c - rng.uniform(0.01, 5.0), c + rng.uniform(0.01, 5.0)
            if reverse:
                a, b = b, a
            xtol = 10.0 ** rng.uniform(*log_xtol)
            ours, our_points = _recorded(f, c)
            theirs, their_points = _recorded(f, c)
            root, converged = screening.brentq(ours, a, b, xtol=xtol, maxiter=maxiter)
            expected, info = optimize.brentq(
                theirs, a, b, xtol=xtol, maxiter=maxiter, full_output=True, disp=False
            )
            assert (root, converged) == (expected, info.converged)
            assert our_points == their_points

    @pytest.mark.parametrize("end", [0, 1], ids=["zero-at-a", "zero-at-b"])
    def test_a_zero_at_an_end_is_the_root(self, end):
        from scipy import optimize

        from globtop import screening

        ends = [-1.5, 2.0]
        ends[end] = 0.5
        f = _ROOT_SHAPES["cubic"]
        ours, our_points = _recorded(f, 0.5)
        theirs, their_points = _recorded(f, 0.5)
        assert screening.brentq(ours, *ends) == (0.5, True)
        assert optimize.brentq(theirs, *ends) == 0.5
        assert our_points == their_points == [ends[0], ends[1]]

    def test_ends_of_the_same_sign_are_a_value_error(self):
        from globtop import screening

        with pytest.raises(ValueError, match="different signs"):
            screening.brentq(lambda x: x * x + 1.0, -1.0, 1.0)


class TestScreenAnalytical:
    def test_verdicts(self, library, reference_cap, criteria):
        verdicts = gt.screen(library, reference_cap, criteria, "analytical")
        assert [v.material_name for v in verdicts] == [
            "Carbon epoxy resin",
            "Parylene C",
            "Polyimide",
        ]
        assert [v.classification for v in verdicts] == ["pass", "marginal", "fail"]
        for v in verdicts:
            assert v.min_feasible_thickness_um == pytest.approx(
                T_MIN_ANALYTICAL[v.material_name], rel=1e-13
            )
            assert v.source == "analytical"

    def test_worst_case_is_thickest_setting_at_peak_pressure(
        self, library, reference_cap, criteria
    ):
        verdicts = gt.screen(library, reference_cap, criteria, "analytical")
        p = gt.atm_to_pa(100.0)
        for v in verdicts:
            case = gt.ShellCase(reference_cap, 250.0, library.get(v.material_name), p)
            assert v.worst_case_deflection_um == gt.apex_deflection(case)

    def test_tied_thicknesses_sort_by_name(self, reference_cap, criteria):
        lib = gt.MaterialLibrary(
            materials=(
                gt.Material("late twin", 70.0, 0.4),
                gt.Material("early twin", 70.0, 0.4),
            )
        )
        verdicts = gt.screen(lib, reference_cap, criteria, "analytical")
        assert [v.material_name for v in verdicts] == ["early twin", "late twin"]


class TestScreenFem:
    def test_verdicts(self, library, reference_cap, criteria):
        mesh = gt.mesh_cap(reference_cap, 96)
        verdicts = gt.screen(library, reference_cap, criteria, "fem", fem_mesh=mesh)
        assert [v.classification for v in verdicts] == ["pass", "marginal", "fail"]
        for v in verdicts:
            assert v.min_feasible_thickness_um == pytest.approx(
                T_MIN_FEM_96[v.material_name], rel=1e-6
            )

    def test_fem_thickness_lands_near_the_closed_form(
        self, library, reference_cap, criteria
    ):
        mesh = gt.mesh_cap(reference_cap, 96)
        verdicts = {
            v.material_name: v.min_feasible_thickness_um
            for v in gt.screen(library, reference_cap, criteria, "fem", fem_mesh=mesh)
        }
        for name in ("Carbon epoxy resin", "Parylene C"):
            ratio = verdicts[name] / T_MIN_ANALYTICAL[name]
            assert 0.5 <= ratio <= 2.0
        # The membrane closed form needs a Polyimide shell so thick that the
        # thinness assumption is gone; bending support then carries a large
        # share of the load, so the element model settles well below it.
        assert verdicts["Polyimide"] < T_MIN_ANALYTICAL["Polyimide"]
        assert verdicts["Polyimide"] > 0.3 * T_MIN_ANALYTICAL["Polyimide"]
        ordered = sorted(verdicts, key=verdicts.get)
        assert ordered == ["Carbon epoxy resin", "Parylene C", "Polyimide"]

    def test_requires_a_mesh(self, library, reference_cap, criteria):
        with pytest.raises(gt.ConfigError, match="requires a mesh"):
            gt.screen(library, reference_cap, criteria, "fem")

    def test_builds_stiffness_parts_once_per_poisson_ratio(
        self, monkeypatch, library, reference_cap, criteria
    ):
        from globtop import fem

        builds = []
        original = fem._element_parts

        def counted(mesh, nu):
            builds.append(nu)
            return original(mesh, nu)

        monkeypatch.setattr(fem, "_element_parts", counted)
        gt.screen(
            library, reference_cap, criteria, "fem", fem_mesh=gt.mesh_cap(reference_cap, 16)
        )
        # Parylene C and carbon epoxy resin share nu = 0.4.
        assert sorted(builds) == [0.35, 0.4]

    def test_root_find_solve_count(self, monkeypatch, library, reference_cap, criteria):
        from globtop import screening

        solves = []
        original = screening.solve_case

        def counted(*args):
            solves.append(args)
            return original(*args)

        monkeypatch.setattr(screening, "solve_case", counted)
        gt.screen(
            library, reference_cap, criteria, "fem", fem_mesh=gt.mesh_cap(reference_cap, 96)
        )
        # One worst-case solve per material; the rest are the root finds.
        assert len(solves) - len(library) <= 30

    def test_root_find_never_solves_a_thickness_twice(
        self, monkeypatch, library, reference_cap, criteria
    ):
        from globtop import screening

        solves, evals = [], []
        solve, brentq = screening.solve_case, screening.brentq

        def recorded_solve(mesh, t, material, *args):
            solves.append((material.name, t))
            return solve(mesh, t, material, *args)

        def recorded_brentq(f, a, b, **kwargs):
            evals.append(a)
            return brentq(f, a, b, **kwargs)

        monkeypatch.setattr(screening, "solve_case", recorded_solve)
        monkeypatch.setattr(screening, "brentq", recorded_brentq)
        mesh = gt.mesh_cap(reference_cap, 16)
        p = gt.atm_to_pa(criteria.max_pressure_atm)
        for material in library:
            screening._fem_min_thickness(
                material, reference_cap, mesh, p, criteria.deflection_limit_um, "clamped"
            )
        assert len(evals) == len(library)
        assert len(solves) == len(set(solves))

    def test_unconverged_root_find_raises(self, monkeypatch, cer, reference_cap, criteria):
        from globtop import screening

        brentq = screening.brentq

        def capped(f, a, b, **kwargs):
            return brentq(f, a, b, maxiter=2, **kwargs)

        monkeypatch.setattr(screening, "brentq", capped)
        library = gt.MaterialLibrary([cer])
        with pytest.raises(
            gt.SolverError, match=r"did not converge in \[[0-9.e+]+, [0-9.e+]+\] um after"
        ):
            gt.screen(
                library, reference_cap, criteria, "fem", fem_mesh=gt.mesh_cap(reference_cap, 16)
            )

    def test_no_feasible_thickness_up_to_the_sphere_radius(self, cer, reference_cap):
        # The bracket's last end, exp(log(radius)), rounds above this radius,
        # where a solve would reject the thickness.
        a = reference_cap.radius_um
        assert math.exp(math.log(a)) > a
        library = gt.MaterialLibrary([cer])
        criteria = gt.ScreeningCriteria(deflection_limit_um=1e-6)
        with pytest.raises(gt.SolverError, match="no feasible thickness up to the sphere radius"):
            gt.screen(
                library, reference_cap, criteria, "fem", fem_mesh=gt.mesh_cap(reference_cap, 16)
            )

    def test_fem_minimum_actually_hits_the_limit(self, cer, reference_cap, criteria):
        from globtop.fem import mesh_cap, solve_case

        t_min = T_MIN_FEM_96["Carbon epoxy resin"]
        sol = solve_case(
            mesh_cap(reference_cap, 96), t_min, cer, gt.atm_to_pa(100.0), "clamped"
        )
        assert sol.apex_deflection_um == pytest.approx(5.0, abs=1e-6)


class TestScreenExternal:
    def test_verdicts(self, library, reference_cap, criteria, external_fit):
        verdicts = gt.screen(
            library, reference_cap, criteria, "external", fit=external_fit
        )
        assert [v.material_name for v in verdicts] == [
            "Carbon epoxy resin",
            "Parylene C",
            "Polyimide",
        ]
        assert [v.classification for v in verdicts] == ["pass", "pass", "fail"]
        for v in verdicts:
            assert v.min_feasible_thickness_um == pytest.approx(
                T_MIN_EXTERNAL[v.material_name], rel=1e-9
            )

    def test_sources_disagree_on_the_middle_material(
        self, library, reference_cap, criteria, external_fit
    ):
        # The closed form leaves the mid-stiffness material marginal at the
        # thickness cap; the model fitted to the external column clears it.
        # Both verdicts are reported rather than merged.
        analytical = gt.screen(library, reference_cap, criteria, "analytical")
        external = gt.screen(
            library, reference_cap, criteria, "external", fit=external_fit
        )
        a = {v.material_name: v.classification for v in analytical}
        e = {v.material_name: v.classification for v in external}
        assert a["Parylene C"] == "marginal"
        assert e["Parylene C"] == "pass"
        assert a["Carbon epoxy resin"] == e["Carbon epoxy resin"] == "pass"
        assert a["Polyimide"] == e["Polyimide"] == "fail"

    def test_external_requires_fit(self, library, reference_cap, criteria):
        with pytest.raises(ConfigError, match="fit"):
            gt.screen(library, reference_cap, criteria, "external")

    def test_unknown_source(self, library, reference_cap, criteria):
        with pytest.raises(ConfigError, match="source"):
            gt.screen(library, reference_cap, criteria, "guesswork")

    def test_non_negative_slope_with_feasible_thin_end(
        self, library, reference_cap, criteria, external_fit
    ):
        flat = replaced(external_fit, thickness_slope_per_um=0.1)
        verdicts = gt.screen(library, reference_cap, criteria, "external", fit=flat)
        assert all(v.min_feasible_thickness_um == 0.0 for v in verdicts)
        assert all(v.classification == "pass" for v in verdicts)

    def test_non_negative_slope_with_no_feasible_thickness(
        self, library, reference_cap, criteria, external_fit
    ):
        hopeless = replaced(
            external_fit,
            thickness_slope_per_um=0.0,
            material_means=(1000.0, 1000.0, 1000.0),
        )
        verdicts = gt.screen(library, reference_cap, criteria, "external", fit=hopeless)
        assert all(v.min_feasible_thickness_um == math.inf for v in verdicts)
        assert all(v.classification == "fail" for v in verdicts)
        doc = verdicts[0].as_dict()
        assert doc["min_feasible_thickness_um"] == "inf"

    def test_verdict_dict_keeps_finite_thickness_numeric(
        self, library, reference_cap, criteria
    ):
        verdict = gt.screen(library, reference_cap, criteria, "analytical")[0]
        doc = verdict.as_dict()
        assert doc["min_feasible_thickness_um"] == pytest.approx(
            T_MIN_ANALYTICAL["Carbon epoxy resin"], rel=1e-13
        )
        assert doc["material"] == "Carbon epoxy resin"
        assert doc["classification"] == "pass"


class TestThicknessProfile:
    def test_sweep_values(self, cer, reference_cap, criteria):
        prof = gt.thickness_profile(cer, reference_cap, criteria, n_points=5)
        assert prof.thickness_um == (150.0, 175.0, 200.0, 225.0, 250.0)
        p = gt.atm_to_pa(100.0)
        for t, w, d in prof.rows():
            case = gt.ShellCase(reference_cap, t, cer, p)
            assert w == gt.apex_deflection(case)
            assert d == gt.desirability(w, 0.0, 5.0)

    @pytest.mark.filterwarnings("ignore::globtop.ThinShellWarning")
    def test_every_point_is_the_apex_deflection_of_its_case(self, library, reference_cap):
        criteria = gt.ScreeningCriteria(thickness_range_um=(0.37, 1234.5))
        p = gt.atm_to_pa(87.3)
        for material in library:
            prof = gt.thickness_profile(material, reference_cap, criteria, pressure_atm=87.3)
            assert len(prof.thickness_um) == 101
            for t, w in zip(prof.thickness_um, prof.deflection_um):
                assert w == gt.apex_deflection(gt.ShellCase(reference_cap, t, material, p))

    def test_a_range_past_the_thin_shell_limit_warns(self, cer, reference_cap):
        criteria = gt.ScreeningCriteria(thickness_range_um=(150.0, 400.0))
        with pytest.warns(gt.ThinShellWarning, match="thickness/radius = 0.1329"):
            gt.thickness_profile(cer, reference_cap, criteria)

    def test_deflection_decreases_with_thickness(self, polyimide, reference_cap, criteria):
        prof = gt.thickness_profile(polyimide, reference_cap, criteria, n_points=21)
        ws = prof.deflection_um
        assert all(hi > lo for hi, lo in zip(ws, ws[1:]))

    def test_custom_pressure(self, cer, reference_cap, criteria):
        full = gt.thickness_profile(cer, reference_cap, criteria)
        reduced = gt.thickness_profile(
            cer, reference_cap, criteria, pressure_atm=80.0
        )
        assert reduced.pressure_atm == 80.0
        assert reduced.deflection_um[0] == pytest.approx(
            full.deflection_um[0] * 0.8, rel=1e-13
        )

    def test_csv_layout(self, cer, reference_cap, criteria):
        text = gt.thickness_profile(cer, reference_cap, criteria, n_points=3).to_csv_text()
        lines = text.splitlines()
        assert lines[0] == "thickness_um,deflection_um,desirability"
        assert len(lines) == 4
        assert lines[1].startswith("150,")

    def test_too_few_points(self, cer, reference_cap, criteria):
        with pytest.raises(InputDomainError):
            gt.thickness_profile(cer, reference_cap, criteria, n_points=1)

    def test_points_up_to_the_bound(self, cer, reference_cap, criteria):
        top = shell_model.MAX_PROFILE_POINTS
        prof = gt.thickness_profile(cer, reference_cap, criteria, n_points=top)
        assert len(prof.thickness_um) == top
        with pytest.raises(InputDomainError, match=f"n_points must be at most {top}"):
            gt.thickness_profile(cer, reference_cap, criteria, n_points=top + 1)
