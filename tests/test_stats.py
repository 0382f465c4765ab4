import math
import random

import pytest

import globtop as gt
from globtop.errors import FitError, InputDomainError
from globtop.stats import analysis_json, effects_to_csv_text

from .conftest import PLAN_ROWS, SIMULATED_UM, replaced
from .oracles import f_upper_tail_quad

# Pooled decomposition of the reference simulated column, as published:
# model on 4 df against a 5 df error term.
POOLED = dict(ss_model=1443.2734, df_model=4, ss_error=240.2443, df_error=5)


class TestIncompleteBeta:
    def test_uniform_case_is_identity(self):
        for x in (0.0, 0.1, 0.37, 0.5, 0.93, 1.0):
            assert gt.regularized_incomplete_beta(1.0, 1.0, x) == pytest.approx(
                x, abs=1e-15
            )

    def test_endpoints_exact(self):
        assert gt.regularized_incomplete_beta(3.2, 1.7, 0.0) == 0.0
        assert gt.regularized_incomplete_beta(3.2, 1.7, 1.0) == 1.0

    @pytest.mark.parametrize("a,b", [(0.5, 0.5), (1.0, 3.0), (2.5, 2.5), (10.0, 4.0)])
    @pytest.mark.parametrize("x", [0.05, 0.3, 0.5, 0.8, 0.99])
    def test_reflection_symmetry(self, a, b, x):
        left = gt.regularized_incomplete_beta(a, b, x)
        right = 1.0 - gt.regularized_incomplete_beta(b, a, 1.0 - x)
        assert left == pytest.approx(right, abs=2e-14)

    def test_monotone_in_x(self):
        xs = [i / 50.0 for i in range(51)]
        vals = [gt.regularized_incomplete_beta(2.5, 1.5, x) for x in xs]
        assert all(lo <= hi for lo, hi in zip(vals, vals[1:]))

    @pytest.mark.parametrize("a,b", [(0.0, 1.0), (-1.0, 2.0), (1.0, float("nan"))])
    def test_bad_parameters(self, a, b):
        with pytest.raises(InputDomainError):
            gt.regularized_incomplete_beta(a, b, 0.5)

    @pytest.mark.parametrize("x", [-0.1, 1.1, float("nan")])
    def test_bad_argument(self, x):
        with pytest.raises(InputDomainError):
            gt.regularized_incomplete_beta(2.0, 2.0, x)


class TestFTail:
    @pytest.mark.parametrize(
        "f,d1,d2",
        [
            (0.5977, 1, 5),
            (2.5641, 1, 5),
            (7.2233, 2, 5),
            (7.5094, 4, 5),
            (0.1, 1, 1),
            (3.0, 2, 8),
            (12.0, 6, 3),
            (0.9, 10, 10),
            (25.0, 1, 30),
        ],
    )
    def test_matches_quadrature_of_density(self, f, d1, d2):
        got = gt.f_upper_tail(f, d1, d2)
        want = f_upper_tail_quad(f, d1, d2)
        assert got == pytest.approx(want, rel=1e-10, abs=1e-12)

    def test_random_triples_against_quadrature(self):
        rng = random.Random(91245)
        for _ in range(30):
            d1 = rng.randint(1, 12)
            d2 = rng.randint(1, 12)
            f = rng.uniform(0.01, 20.0)
            assert gt.f_upper_tail(f, d1, d2) == pytest.approx(
                f_upper_tail_quad(f, d1, d2), rel=1e-9, abs=1e-12
            )

    def test_tails_are_complementary(self):
        for f, d1, d2 in ((0.7, 2, 5), (3.3, 4, 4), (10.0, 1, 7)):
            total = gt.f_upper_tail(f, d1, d2) + gt.f_lower_tail(f, d1, d2)
            assert total == pytest.approx(1.0, abs=1e-13)

    def test_equal_df_median_is_one(self):
        for d in (1, 3, 5, 8):
            assert gt.f_upper_tail(1.0, d, d) == pytest.approx(0.5, abs=1e-14)

    def test_limits(self):
        assert gt.f_upper_tail(0.0, 3, 5) == 1.0
        assert gt.f_upper_tail(math.inf, 3, 5) == 0.0
        assert gt.f_lower_tail(0.0, 3, 5) == 0.0
        assert gt.f_lower_tail(math.inf, 3, 5) == 1.0

    def test_monotone_decreasing_in_f(self):
        fs = [0.1 * i for i in range(1, 80)]
        ps = [gt.f_upper_tail(f, 2, 5) for f in fs]
        assert all(hi >= lo for hi, lo in zip(ps, ps[1:]))

    @pytest.mark.parametrize("df", [0, 0.5, -1, float("nan")])
    def test_df_domain(self, df):
        with pytest.raises(InputDomainError):
            gt.f_upper_tail(1.0, df, 5)
        with pytest.raises(InputDomainError):
            gt.f_upper_tail(1.0, 5, df)

    def test_negative_f_rejected(self):
        with pytest.raises(InputDomainError):
            gt.f_upper_tail(-0.1, 2, 5)


class TestPooledTable:
    def test_published_decomposition_reproduces(self):
        table = gt.anova_from_components(**POOLED)
        model = table.row("Model")
        error = table.row("Error")
        total = table.row("Total")
        assert model.ms == pytest.approx(360.818, abs=5e-4)
        assert error.ms == pytest.approx(48.049, abs=5e-4)
        assert model.f == pytest.approx(7.5094, abs=5e-5)
        assert model.p == pytest.approx(0.0242, abs=5e-4)
        assert total.ss == pytest.approx(1683.5177, abs=1e-10)
        assert total.df == 9

    def test_csv_text_golden(self):
        assert gt.anova_from_components(**POOLED).to_csv_text() == (
            "source,df,ss,ms,f,p\n"
            "Model,4,1443.2734,360.8184,7.5094,0.0242\n"
            "Error,5,240.2443,48.0489,,\n"
            "Total,9,1683.5177,,,\n"
        )

    def test_zero_everything_degenerates_to_f_zero(self):
        model = gt.anova_from_components(0.0, 4, 0.0, 5).row("Model")
        assert model.f == 0.0
        assert model.p == 1.0

    def test_zero_error_with_signal_degenerates_to_f_inf(self):
        model = gt.anova_from_components(5.0, 4, 0.0, 5).row("Model")
        assert model.f == math.inf
        assert model.p == 0.0
        assert "inf" in gt.anova_from_components(5.0, 4, 0.0, 5).to_csv_text()

    def test_negative_ss_rejected(self):
        with pytest.raises(InputDomainError):
            gt.anova_from_components(-1.0, 4, 1.0, 5)

    def test_unknown_row_lookup(self):
        with pytest.raises(KeyError):
            gt.anova_from_components(**POOLED).row("Bogus")


class TestScreeningFit:
    def test_grand_mean_and_group_means(self, external_fit):
        assert external_fit.grand_mean == pytest.approx(sum(SIMULATED_UM) / 9, rel=1e-14)
        assert external_fit.material_names == (
            "Carbon epoxy resin",
            "Parylene C",
            "Polyimide",
        )
        for name, mean in zip(external_fit.material_names, external_fit.material_means):
            group = [
                y
                for (mat, _, _), y in zip(PLAN_ROWS, SIMULATED_UM)
                if mat == name
            ]
            assert len(group) == 3
            assert mean == pytest.approx(sum(group) / 3, rel=1e-13)

    def test_slopes_match_direct_orthogonal_regression(self, external_fit):
        # In an orthogonal plan each slope reduces to sum(x_c y) / sum(x_c^2)
        # over its own centered column, so recompute both from scratch.
        t_c = [t - 200.0 for (_, t, _) in PLAN_ROWS]
        p_c = [p - 90.0 for (_, _, p) in PLAN_ROWS]
        b_t = sum(x * y for x, y in zip(t_c, SIMULATED_UM)) / sum(x * x for x in t_c)
        b_p = sum(x * y for x, y in zip(p_c, SIMULATED_UM)) / sum(x * x for x in p_c)
        assert external_fit.thickness_slope_per_um == pytest.approx(b_t, rel=1e-11)
        assert external_fit.pressure_slope_per_atm == pytest.approx(b_p, rel=1e-11)
        assert b_t == pytest.approx(-0.0823666666666667, rel=1e-12)
        assert b_p == pytest.approx(-0.2425, rel=1e-12)

    def test_sum_of_squares_decomposition(self, external_fit):
        f = external_fit
        assert f.ss_material == pytest.approx(682.2940222222222, rel=1e-11)
        assert f.ss_thickness == pytest.approx(101.76401666666667, rel=1e-11)
        assert f.ss_pressure == pytest.approx(35.28375, rel=1e-11)
        assert f.ss_residual == pytest.approx(98.3559, rel=1e-9)
        assert f.ss_total_corrected == pytest.approx(917.6976888888889, rel=1e-11)
        assert f.ss_total_uncorrected == pytest.approx(1691.2792, rel=1e-12)

    def test_factor_sums_add_to_corrected_total(self, external_fit):
        f = external_fit
        parts = f.ss_material + f.ss_thickness + f.ss_pressure + f.ss_residual
        assert parts == pytest.approx(f.ss_total_corrected, rel=1e-12)

    def test_corrected_total_relates_to_uncorrected(self, external_fit):
        f = external_fit
        assert f.ss_total_corrected == pytest.approx(
            f.ss_total_uncorrected - 9.0 * f.grand_mean**2, rel=1e-11
        )

    def test_fitted_values_come_from_predict(self, external_fit):
        for (mat, t, p), fitted in zip(PLAN_ROWS, external_fit.fitted):
            assert external_fit.predict(mat, t, p) == pytest.approx(fitted, rel=1e-12)

    def test_residuals_sum_to_zero(self, external_fit):
        assert sum(external_fit.residuals) == pytest.approx(0.0, abs=1e-10)

    def test_mse(self, external_fit):
        assert external_fit.mse == external_fit.ss_residual / 4

    def test_material_mean_lookup(self, external_fit):
        assert external_fit.material_mean("Polyimide") == pytest.approx(21.57, rel=1e-12)
        with pytest.raises(KeyError, match="Polyimide"):
            external_fit.material_mean("Teflon")

    def test_exactly_additive_column_recovers_the_generator(self, plan):
        base = {"Polyimide": 30.0, "Parylene C": 20.0, "Carbon epoxy resin": 10.0}
        column = [
            base[mat] + 0.02 * (t - 200.0) + 0.1 * (p - 90.0)
            for (mat, t, p) in PLAN_ROWS
        ]
        fit = gt.fit_screening_model(gt.realize_responses(plan, column))
        assert fit.thickness_slope_per_um == pytest.approx(0.02, rel=1e-10)
        assert fit.pressure_slope_per_atm == pytest.approx(0.1, rel=1e-10)
        assert fit.material_mean("Polyimide") == pytest.approx(30.0, rel=1e-12)
        assert fit.ss_residual < 1e-18

    def test_responses_whose_squares_overflow_are_out_of_range(self, plan):
        column = [1e300 * (1.0 + i) for i in range(9)]
        with pytest.raises(InputDomainError, match="sums of squares overflow"):
            gt.fit_screening_model(gt.realize_responses(plan, column))

    # Products overflow to inf without raising: equal responses square to
    # inf, and a thickness contrast times 1e307 is inf - inf in its sum.
    @pytest.mark.parametrize("response", [1e200, 1e307])
    def test_responses_whose_products_overflow_are_out_of_range(self, plan, response):
        with pytest.raises(InputDomainError, match="sums of squares overflow"):
            gt.fit_screening_model(gt.realize_responses(plan, [response] * 9))

    def test_levels_whose_squares_underflow_are_out_of_range(self, library):
        plan = gt.default_plan(library, (1e-200, 2e-200, 3e-200))
        with pytest.raises(InputDomainError, match="levels are too close together"):
            gt.fit_screening_model(gt.realize_responses(plan, SIMULATED_UM))

    def test_order_of_the_results_does_not_change_a_bit(self, library):
        # Exact sums do not depend on the order of their terms; rounded ones do.
        rng = random.Random(11)
        plan = gt.default_plan(
            library,
            sorted(rng.uniform(100.0, 300.0) for _ in range(3)),
            sorted(rng.uniform(60.0, 110.0) for _ in range(3)),
        )
        results = list(gt.realize_responses(plan, [rng.uniform(1.0, 40.0) for _ in range(9)]))
        fields = [
            name for name in gt.ScreeningFit._fields if name not in ("responses", "fitted")
        ]
        want = gt.fit_screening_model(results)
        for _ in range(50):
            rng.shuffle(results)
            got = gt.fit_screening_model(results)
            assert {n: getattr(got, n) for n in fields} == {n: getattr(want, n) for n in fields}


class TestFitValidation:
    def test_needs_nine_results(self, external_results):
        with pytest.raises(FitError, match="9"):
            gt.fit_screening_model(external_results[:8])

    def test_non_finite_response(self, external_results):
        bad = list(external_results)
        bad[3] = replaced(bad[3], response_um=math.nan)
        with pytest.raises(FitError, match="finite"):
            gt.fit_screening_model(bad)

    def test_four_thickness_levels(self, external_results):
        bad = list(external_results)
        bad[0] = replaced(bad[0], thickness_um=240.0)
        with pytest.raises(FitError, match="thickness_um"):
            gt.fit_screening_model(bad)

    def test_unbalanced_material_column(self, external_results):
        bad = list(external_results)
        bad[0] = replaced(bad[0], material_name="Parylene C")
        with pytest.raises(FitError, match="unbalanced"):
            gt.fit_screening_model(bad)

    def test_balanced_but_non_orthogonal(self, external_results):
        bad = list(external_results)
        bad[0] = replaced(bad[0], thickness_um=150.0)
        bad[1] = replaced(bad[1], thickness_um=250.0)
        with pytest.raises(FitError, match="orthogonal"):
            gt.fit_screening_model(bad)


class TestEffectTests:
    def test_order_and_shape(self, external_fit):
        tests = gt.effect_tests(external_fit)
        assert [(t.source, t.n_params, t.df) for t in tests] == [
            ("material", 2, 2),
            ("thickness_um", 1, 1),
            ("pressure_atm", 1, 1),
        ]

    def test_statistics(self, external_fit):
        mat, thick, press = gt.effect_tests(external_fit)
        assert mat.f == pytest.approx(13.87398259224353, rel=1e-10)
        assert mat.p == pytest.approx(0.015874066374706317, rel=1e-9)
        assert thick.f == pytest.approx(4.138603445921061, rel=1e-10)
        assert thick.p == pytest.approx(0.11165796599310066, rel=1e-9)
        assert press.f == pytest.approx(1.434941879439871, rel=1e-10)
        assert press.p == pytest.approx(0.2970857025076239, rel=1e-9)
        assert not any(t.degenerate for t in (mat, thick, press))

    def test_f_is_ms_over_mse(self, external_fit):
        for t in gt.effect_tests(external_fit):
            assert t.f == pytest.approx((t.ss / t.df) / external_fit.mse, rel=1e-13)

    def test_p_against_quadrature(self, external_fit):
        for t in gt.effect_tests(external_fit):
            assert t.p == pytest.approx(
                f_upper_tail_quad(t.f, t.df, 4), rel=1e-9, abs=1e-12
            )

    def test_modulus_is_the_most_sensitive_factor(self, external_fit):
        tests = gt.effect_tests(external_fit)
        by_p = min(tests, key=lambda t: t.p)
        assert by_p.source == "material"

    def test_degenerate_zero_residual(self, external_fit):
        frozen = replaced(external_fit, ss_residual=0.0)
        mat, thick, press = gt.effect_tests(frozen)
        assert mat.degenerate and thick.degenerate and press.degenerate
        assert mat.f == math.inf and mat.p == 0.0

    def test_degenerate_zero_signal_and_zero_residual(self, external_fit):
        frozen = replaced(
            external_fit, ss_residual=0.0, ss_material=0.0
        )
        mat = gt.effect_tests(frozen)[0]
        assert mat.degenerate
        assert mat.f == 0.0
        assert mat.p == 1.0

    def test_csv_golden(self, external_fit):
        assert effects_to_csv_text(gt.effect_tests(external_fit)) == (
            "source,n_params,df,ss,f,p,degenerate\n"
            "material,2,2,682.2940,13.8740,0.0159,0\n"
            "thickness_um,1,1,101.7640,4.1386,0.1117,0\n"
            "pressure_atm,1,1,35.2837,1.4349,0.2971,0\n"
        )

    def test_json_shape(self, external_fit):
        table, effects = gt.anova_table(external_fit), gt.effect_tests(external_fit)
        docs = analysis_json(external_fit, table, effects)["effects"]
        assert [d["source"] for d in docs] == ["material", "thickness_um", "pressure_atm"]
        assert all(set(d) == {"source", "n_params", "df", "ss", "f", "p", "degenerate"} for d in docs)


class TestFitAnovaTable:
    def test_pooled_rows(self, external_fit):
        table = gt.anova_table(external_fit)
        model = table.row("Model")
        assert model.df == 4
        assert model.ss == pytest.approx(
            external_fit.ss_material
            + external_fit.ss_thickness
            + external_fit.ss_pressure,
            rel=1e-13,
        )
        assert table.row("Error").ss == external_fit.ss_residual
        c_total = table.row("C. Total")
        assert c_total.df == 8
        assert c_total.ss == external_fit.ss_total_corrected

    def test_csv_appends_uncorrected_total(self, external_fit):
        text = gt.anova_table(external_fit).to_csv_text()
        assert text == (
            "source,df,ss,ms,f,p\n"
            "Model,4,819.3418,204.8354,8.3304,0.0320\n"
            "Error,4,98.3559,24.5890,,\n"
            "C. Total,8,917.6977,,,\n"
            "Total (uncorrected),9,1691.2792,,,\n"
        )


class TestPublishedEffectRows:
    """The published per-factor table regenerates from its own SS, df, MSE."""

    MSE = 240.2443 / 5

    @pytest.mark.parametrize(
        "ss,df,f_printed,p_printed",
        [
            (694.1383, 2, 7.2233, 0.0335),
            (28.7176, 1, 0.5977, 0.4744),
            (123.2013, 1, 2.5641, 0.1702),
        ],
    )
    def test_f_and_p_reproduce(self, ss, df, f_printed, p_printed):
        f = (ss / df) / self.MSE
        assert f == pytest.approx(f_printed, abs=5e-5)
        assert gt.f_upper_tail(f, df, 5) == pytest.approx(p_printed, abs=5e-5)
