import io

import pytest

import globtop as gt
from globtop.errors import ConfigError, ResponderError

from .conftest import PLAN_ROWS, SIMULATED_UM, replaced

EXPECTED_CODES = (
    (-1, 1, 1),
    (1, -1, 1),
    (-1, 0, 0),
    (0, 1, -1),
    (-1, -1, -1),
    (0, -1, 0),
    (1, 0, -1),
    (0, 0, 1),
    (1, 1, 0),
)


class TestCodeMatrix:
    def test_pinned_row_order(self):
        assert gt.L9_CODES == EXPECTED_CODES

    def test_brute_force_orthogonality(self):
        # Independent audit, not via is_orthogonal: level balance per
        # column and full pair coverage per column pair.
        for col in range(3):
            column = [row[col] for row in gt.L9_CODES]
            for level in (-1, 0, 1):
                assert column.count(level) == 3
        for i in range(3):
            for j in range(i + 1, 3):
                pairs = [(row[i], row[j]) for row in gt.L9_CODES]
                assert len(set(pairs)) == 9

    def test_is_orthogonal_accepts_the_plan(self):
        assert gt.is_orthogonal(gt.L9_CODES)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda rows: rows[:8] + [rows[0]],          # duplicated row
            lambda rows: rows[:8],                      # short matrix
            lambda rows: [[-r for r in row] for row in rows[:4]] + rows[4:],
            lambda rows: [row[:2] for row in rows],     # column dropped
            lambda rows: [[0, 0, 0]] * 9,               # constant columns
        ],
    )
    def test_broken_matrices_rejected(self, mutate):
        rows = [list(r) for r in gt.L9_CODES]
        bad = mutate(rows)
        assert not gt.is_orthogonal(bad)
        with pytest.raises(ConfigError):
            gt.audit_orthogonality(bad)

    def test_single_cell_swap_detected(self):
        rows = [list(r) for r in gt.L9_CODES]
        rows[3][1] = -1
        assert not gt.is_orthogonal(rows)


class TestFactor:
    def test_levels_must_be_three(self):
        with pytest.raises(ConfigError):
            gt.Factor("thickness_um", (150.0, 250.0), "continuous")

    def test_duplicate_levels_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            gt.Factor("thickness_um", (150.0, 150.0, 250.0), "continuous")

    def test_continuous_levels_must_increase(self):
        with pytest.raises(ConfigError, match="increasing"):
            gt.Factor("thickness_um", (250.0, 200.0, 150.0), "continuous")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            gt.Factor("thickness_um", (1.0, 2.0, 3.0), "fuzzy")

    def test_material_factor_orders_by_modulus(self, library):
        factor = gt.material_factor(library)
        assert factor.kind == "categorical"
        assert [m.name for m in factor.levels] == [
            "Polyimide",
            "Parylene C",
            "Carbon epoxy resin",
        ]

    def test_material_factor_needs_three_entries(self):
        lib = gt.MaterialLibrary(
            materials=(gt.Material("a", 1.0, 0.3), gt.Material("b", 2.0, 0.3))
        )
        with pytest.raises(ConfigError):
            gt.material_factor(lib)


class TestPlan:
    def test_realized_settings_in_run_order(self, plan):
        got = [
            (r.material.name, r.thickness_um, r.pressure_atm) for r in plan.runs
        ]
        assert got == list(PLAN_ROWS)

    def test_codes_map_onto_sorted_levels(self, plan, library):
        by_modulus = library.sorted_by_modulus()
        t_levels = (150.0, 200.0, 250.0)
        p_levels = (80.0, 90.0, 100.0)
        for spec in plan.runs:
            cm, ct, cp = spec.codes
            assert spec.material == by_modulus[cm + 1]
            assert spec.thickness_um == t_levels[ct + 1]
            assert spec.pressure_atm == p_levels[cp + 1]

    @pytest.mark.parametrize(
        "thickness, pressure, message",
        [
            ((150.0, 200.0, 250.0), (0.0, 10.0, 20.0), None),
            ((0.0, 100.0, 200.0), (80.0, 90.0, 100.0), "thickness_levels_um must be"),
            ((-10.0, 0.0, 10.0), (80.0, 90.0, 100.0), "thickness_levels_um must be"),
            ((150.0, 200.0, 250.0), (-1.0, 0.0, 1.0), "pressure_levels_atm must be"),
        ],
    )
    def test_thickness_levels_are_positive_and_pressure_levels_non_negative(
        self, library, thickness, pressure, message
    ):
        if message is None:
            assert gt.default_plan(library, thickness, pressure).runs[0].pressure_atm == 20.0
        else:
            with pytest.raises(ConfigError, match=message):
                gt.default_plan(library, thickness, pressure)

    def test_runs_numbered_one_to_nine(self, plan):
        assert [r.run for r in plan.runs] == list(range(1, 10))

    def test_build_rejects_swapped_factor_kinds(self, library):
        cont = gt.Factor("thickness_um", (150.0, 200.0, 250.0), "continuous")
        with pytest.raises(ConfigError):
            gt.build_l9(cont, cont, cont)

    def test_plan_revalidates_run_numbering(self, plan):
        shuffled = plan.runs[1:] + plan.runs[:1]
        with pytest.raises(ConfigError, match="numbered"):
            gt.ExperimentPlan(factors=plan.factors, runs=shuffled)

    def test_plan_revalidates_orthogonality(self, plan):
        runs = list(plan.runs)
        runs[0] = replaced(runs[0], codes=(0, 1, 1))
        with pytest.raises(ConfigError):
            gt.ExperimentPlan(factors=plan.factors, runs=tuple(runs))


class TestRealizeResponses:
    def test_analytical_column(self, plan, reference_cap, library):
        results = gt.realize_responses(
            plan, gt.apex_deflection, geometry=reference_cap
        )
        assert len(results) == 9
        for res, spec in zip(results, plan.runs):
            case = gt.ShellCase(
                reference_cap,
                spec.thickness_um,
                library.get(res.material_name),
                gt.atm_to_pa(spec.pressure_atm),
            )
            assert res.response_um == gt.apex_deflection(case)
            assert res.source == "analytical"
            assert res.run == spec.run

    def test_callable_needs_geometry(self, plan):
        with pytest.raises(ConfigError, match="geometry"):
            gt.realize_responses(plan, gt.apex_deflection)

    def test_callable_failure_names_the_run(self, plan, reference_cap):
        calls = []

        def flaky(case):
            calls.append(case.thickness_um)
            if len(calls) == 4:
                raise RuntimeError("boom")
            return 1.0

        with pytest.raises(ResponderError, match="run 4") as err:
            gt.realize_responses(plan, flaky, geometry=reference_cap)
        assert err.value.run == 4

    def test_callable_nan_rejected(self, plan, reference_cap):
        with pytest.raises(ResponderError, match="run 1"):
            gt.realize_responses(
                plan, lambda case: float("nan"), geometry=reference_cap
            )

    def test_external_column(self, plan):
        results = gt.realize_responses(plan, SIMULATED_UM, source="external")
        assert [r.response_um for r in results] == list(SIMULATED_UM)
        assert {r.source for r in results} == {"external"}

    def test_external_column_wrong_length(self, plan):
        with pytest.raises(ConfigError, match="9"):
            gt.realize_responses(plan, (1.0, 2.0, 3.0))

    def test_external_column_non_finite_entry(self, plan):
        column = list(SIMULATED_UM)
        column[6] = float("inf")
        with pytest.raises(ResponderError, match="run 7"):
            gt.realize_responses(plan, column)

    def test_custom_atmosphere_scale(self, plan, reference_cap):
        seen = []
        gt.realize_responses(
            plan,
            lambda case: seen.append(case.pressure_pa) or 1.0,
            geometry=reference_cap,
            atm_pa=100000.0,
        )
        assert seen[0] == 100.0 * 100000.0


class TestCsv:
    def test_plan_csv_layout(self, plan):
        buf = io.StringIO()
        gt.plan_to_csv(plan, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == (
            "run,material,thickness_um,pressure_atm,"
            "code_material,code_thickness,code_pressure"
        )
        assert lines[1] == "1,Polyimide,250,100,-1,1,1"
        assert lines[5] == "5,Polyimide,150,80,-1,-1,-1"
        assert len(lines) == 10

    def test_results_csv_rounds_to_two_decimals(self, external_results):
        buf = io.StringIO()
        gt.results_to_csv(external_results, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "run,material,thickness_um,pressure_atm,response_um,source"
        assert lines[1] == "1,Polyimide,250,100,12.59,external"
        assert lines[9] == "9,Carbon epoxy resin,250,90,1.16,external"

    def test_round_trip_through_file(self, external_results, tmp_path):
        path = tmp_path / "responses.csv"
        gt.results_to_csv(external_results, path)
        back = gt.read_responses_csv(path)
        assert [r.response_um for r in back] == [
            round(r.response_um, 2) for r in external_results
        ]
        assert [r.material_name for r in back] == [
            r.material_name for r in external_results
        ]

    def test_read_missing_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("run,material\n1,Polyimide\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="columns"):
            gt.read_responses_csv(path)

    def test_read_bad_cell_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "run,material,thickness_um,pressure_atm,response_um\n"
            "1,Polyimide,250,100,12.59\n"
            "2,Polyimide,250,100,oops\n",
            encoding="utf-8",
        )
        with pytest.raises(ConfigError, match=r":3: bad row"):
            gt.read_responses_csv(path)

    def test_read_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            gt.read_responses_csv(tmp_path / "absent.csv")
