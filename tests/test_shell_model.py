import io
import math
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import globtop as gt
from globtop import shell_model
from globtop.errors import InputDomainError

from .oracles import mp_apex_coefficient, mp_load_factor, mp_radial_w, sphere_membrane_apex

# Reference load case used for the frozen point values below: stiffest
# library material, 250 um coat, 100 atm, preset geometry.
K_NU_04 = 0.3895810180992154
K_NU_035 = 0.41138169602424335
V_AT_12_DEG_UM = 0.0724934354881302
W_AT_RIM_UM = 0.9797848851948074
APEX_CER_250_100 = 2.043663286624726
APEX_POLY_150_80 = 26.855425172830046
APEX_PARC_200_100 = 6.481353301183891


@pytest.fixture(scope="module")
def stiff_case(reference_cap, cer):
    return gt.ShellCase(reference_cap, 250.0, cer, gt.atm_to_pa(100.0))


class TestApexCoefficient:
    def test_frozen_values_at_preset_angle(self, reference_cap):
        alpha = reference_cap.base_angle_rad
        assert gt.apex_coefficient(0.4, alpha) == K_NU_04
        assert gt.apex_coefficient(0.35, alpha) == K_NU_035

    @pytest.mark.parametrize("nu", [0.0, 0.2, 0.35, 0.4, 0.49])
    @pytest.mark.parametrize("alpha_deg", [5.0, 23.5, 45.0, 70.0, 90.0])
    def test_matches_high_precision_oracle(self, nu, alpha_deg):
        alpha = math.radians(alpha_deg)
        got = gt.apex_coefficient(nu, alpha)
        want = float(mp_apex_coefficient(nu, alpha))
        assert got == pytest.approx(want, rel=1e-12)

    # With 1/(1 + cos a) = 1/2 + a**2/8 + a**4/48 + ... and
    # ln(2/(1 + cos a)) = a**2/4 + a**4/96 + ..., whose terms are all positive,
    # K = (1 - nu)/2 + (1 + nu)(3 a**2/8 + a**4/32 + 7 a**6/1920 + ...).  The
    # remainder after the a**2 term is therefore positive and, for a <= 1,
    # below twice the a**4 term; 8 eps covers K's roundoff.
    @pytest.mark.parametrize("nu", [0.0, 0.35, 0.4, 0.49])
    @pytest.mark.parametrize("alpha", [0.1, 0.03, 0.01, 0.003])
    def test_tends_to_the_sphere_at_second_order(self, nu, alpha):
        remainder = gt.apex_coefficient(nu, alpha) - (1 - nu) / 2 - 3 * (1 + nu) * alpha**2 / 8
        assert -8 * sys.float_info.epsilon < remainder
        assert remainder < (1 + nu) * alpha**4 / 16 + 8 * sys.float_info.epsilon

    @pytest.mark.parametrize("alpha_deg", [0.5, 2.0, 5.0])
    def test_a_shallow_cap_deflects_as_the_sphere(self, polyimide, alpha_deg):
        # w(0) / sphere = 2K / (1 - nu) = 1 + 3(1 + nu) a**2 / (4(1 - nu)) + a**4 terms,
        # which are (1 + nu) a**4 / (16 (1 - nu)), a**2 / 12 of the a**2 term.
        a_um, t_um, p_pa = 3010.0, 150.0, gt.atm_to_pa(80.0)
        nu, alpha = polyimide.poisson_ratio, math.radians(alpha_deg)
        case = gt.ShellCase(gt.from_radius_angle(a_um, alpha_deg), t_um, polyimide, p_pa)
        sphere = float(sphere_membrane_apex(polyimide.youngs_modulus_pa, nu, t_um, p_pa, a_um))
        second = 3 * (1 + nu) * alpha**2 / (4 * (1 - nu))
        assert gt.apex_deflection(case) / sphere - 1 == pytest.approx(second, rel=alpha**2 / 6)

    @pytest.mark.parametrize("nu", [-0.1, 0.5, 0.6, float("nan")])
    def test_poisson_domain(self, nu):
        with pytest.raises(InputDomainError):
            gt.apex_coefficient(nu, 0.4)

    @pytest.mark.parametrize("alpha", [0.0, -0.1, math.pi / 2 + 0.01, float("nan")])
    def test_angle_domain(self, alpha):
        with pytest.raises(InputDomainError):
            gt.apex_coefficient(0.3, alpha)


class TestPointValues:
    def test_load_factor(self, stiff_case):
        want = float(mp_load_factor(70.0e9, 250.0, gt.atm_to_pa(100.0), 3010.0))
        assert stiff_case.load_factor_um == pytest.approx(want, rel=1e-15)

    def test_meridional_at_12_degrees(self, stiff_case):
        assert gt.meridional_v(stiff_case, math.radians(12.0)) == V_AT_12_DEG_UM

    def test_normal_deflection_at_rim(self, stiff_case, reference_cap):
        w = gt.radial_w(stiff_case, reference_cap.base_angle_rad)
        assert w == W_AT_RIM_UM
        assert w > 0.0

    def test_apex_deflections(self, reference_cap, library):
        cases = [
            ("Carbon epoxy resin", 250.0, 100.0, APEX_CER_250_100),
            ("Polyimide", 150.0, 80.0, APEX_POLY_150_80),
            ("Parylene C", 200.0, 100.0, APEX_PARC_200_100),
        ]
        for name, t_um, p_atm, expected in cases:
            case = gt.ShellCase(
                reference_cap, t_um, library.get(name), gt.atm_to_pa(p_atm)
            )
            assert gt.apex_deflection(case) == expected

    def test_apex_equals_load_factor_times_coefficient(self, stiff_case):
        k = gt.apex_coefficient(
            stiff_case.material.poisson_ratio, stiff_case.geometry.base_angle_rad
        )
        assert gt.radial_w(stiff_case, 0.0) == stiff_case.load_factor_um * k


class TestMeridionalBoundary:
    def test_vanishes_at_apex(self, stiff_case):
        assert gt.meridional_v(stiff_case, 0.0) == 0.0

    def test_vanishes_at_rim(self, stiff_case, reference_cap):
        assert gt.meridional_v(stiff_case, reference_cap.base_angle_rad) == 0.0

    def test_positive_in_the_interior(self, stiff_case, reference_cap):
        alpha = reference_cap.base_angle_rad
        for frac in (0.1, 0.3, 0.5, 0.7, 0.9):
            assert gt.meridional_v(stiff_case, frac * alpha) > 0.0


class TestApexContinuity:
    """The closed-form phi = 0 limit must join the direct formula smoothly."""

    @pytest.mark.parametrize("phi", [1e-8, 1e-6, 1e-5])
    def test_small_angle_agrees_with_limit(self, stiff_case, phi):
        w0 = gt.radial_w(stiff_case, 0.0)
        assert gt.radial_w(stiff_case, phi) == pytest.approx(w0, rel=1e-6)

    def test_limit_is_not_reached_by_cancellation(self, stiff_case):
        # The direct formula at a tiny angle still carries several good
        # digits; the apex branch should sit inside that agreement.
        w0 = gt.radial_w(stiff_case, 0.0)
        w_tiny = gt.radial_w(stiff_case, 1e-4)
        assert abs(w_tiny - w0) / w0 < 1e-4


class TestScalingLaws:
    """w and v scale as a**2 P / (E t); factor-of-two scalings are exact."""

    def test_doubling_pressure_doubles_deflection(self, reference_cap, cer):
        base = gt.ShellCase(reference_cap, 250.0, cer, 1.0e6)
        doubled = gt.ShellCase(reference_cap, 250.0, cer, 2.0e6)
        alpha = reference_cap.base_angle_rad
        for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
            phi = frac * alpha
            assert gt.radial_w(doubled, phi) == 2.0 * gt.radial_w(base, phi)
            assert gt.meridional_v(doubled, phi) == 2.0 * gt.meridional_v(base, phi)

    def test_doubling_thickness_halves_deflection(self, reference_cap, cer):
        base = gt.ShellCase(reference_cap, 125.0, cer, 1.0e6)
        doubled = gt.ShellCase(reference_cap, 250.0, cer, 1.0e6)
        assert gt.apex_deflection(doubled) == 0.5 * gt.apex_deflection(base)

    def test_doubling_modulus_halves_deflection(self, reference_cap):
        soft = gt.Material("soft", 35.0, 0.4)
        stiff = gt.Material("stiff", 70.0, 0.4)
        w_soft = gt.apex_deflection(gt.ShellCase(reference_cap, 250.0, soft, 1.0e6))
        w_stiff = gt.apex_deflection(gt.ShellCase(reference_cap, 250.0, stiff, 1.0e6))
        assert w_stiff == 0.5 * w_soft

    @settings(max_examples=60, deadline=None)
    @given(scale=st.floats(min_value=1e-3, max_value=1e3))
    def test_general_pressure_linearity(self, reference_cap, cer, scale):
        base = gt.ShellCase(reference_cap, 250.0, cer, 1.0e6)
        scaled = gt.ShellCase(reference_cap, 250.0, cer, 1.0e6 * scale)
        assert gt.apex_deflection(scaled) == pytest.approx(
            scale * gt.apex_deflection(base), rel=1e-12
        )

    def test_zero_pressure_means_zero_field(self, reference_cap, cer):
        case = gt.ShellCase(reference_cap, 250.0, cer, 0.0)
        alpha = reference_cap.base_angle_rad
        assert gt.apex_deflection(case) == 0.0
        assert gt.radial_w(case, 0.5 * alpha) == 0.0
        assert gt.meridional_v(case, 0.5 * alpha) == 0.0


class TestOracleGrid:
    def test_random_cases_match_50_digit_arithmetic(self):
        rng = random.Random(20260822)
        checked = 0
        for _ in range(25):
            a_um = rng.uniform(500.0, 20000.0)
            alpha = math.radians(rng.uniform(5.0, 90.0))
            geom = gt.from_radius_angle(a_um, math.degrees(alpha))
            t_um = a_um * rng.uniform(0.002, 0.05)
            e_gpa = rng.uniform(1.0, 300.0)
            nu = rng.uniform(0.0, 0.49)
            p_pa = rng.uniform(1.0e3, 2.0e7)
            mat = gt.Material("probe", e_gpa, nu)
            case = gt.ShellCase(geom, t_um, mat, p_pa)
            for frac in (0.0, 0.37, 1.0):
                phi = frac * alpha
                got = gt.radial_w(case, phi)
                want = float(
                    mp_radial_w(e_gpa * 1e9, nu, t_um, p_pa, a_um, alpha, phi)
                )
                assert got == pytest.approx(want, rel=1e-9, abs=1e-30)
                checked += 1
        assert checked == 75


class TestDomain:
    def test_negative_pressure_rejected(self, reference_cap, cer):
        with pytest.raises(InputDomainError):
            gt.ShellCase(reference_cap, 250.0, cer, -1.0)

    def test_nan_pressure_rejected(self, reference_cap, cer):
        with pytest.raises(InputDomainError):
            gt.ShellCase(reference_cap, 250.0, cer, float("nan"))

    @pytest.mark.parametrize("phi", [-1e-3, float("nan"), float("inf")])
    def test_angle_outside_cap_rejected(self, stiff_case, phi):
        with pytest.raises(InputDomainError):
            gt.radial_w(stiff_case, phi)

    def test_angle_past_rim_rejected(self, stiff_case, reference_cap):
        with pytest.raises(InputDomainError):
            gt.meridional_v(stiff_case, reference_cap.base_angle_rad + 1e-3)

    def test_tiny_negative_angle_clamps_to_apex(self, stiff_case):
        assert gt.radial_w(stiff_case, -1e-13) == gt.radial_w(stiff_case, 0.0)

    def test_rim_roundoff_clamps_to_rim(self, stiff_case, reference_cap):
        alpha = reference_cap.base_angle_rad
        nudged = alpha * (1.0 + 1e-16) + 1e-13
        assert gt.radial_w(stiff_case, nudged) == gt.radial_w(stiff_case, alpha)


class TestProfile:
    def test_shape_and_endpoints(self, stiff_case, reference_cap):
        prof = gt.profile(stiff_case, 101)
        assert len(prof.phi_rad) == len(prof.v_um) == len(prof.w_um) == 101
        assert prof.phi_rad[0] == 0.0
        assert prof.phi_rad[-1] == reference_cap.base_angle_rad
        assert prof.apex_w == gt.radial_w(stiff_case, 0.0)
        assert prof.v_um[0] == 0.0
        assert prof.v_um[-1] == 0.0

    def test_apex_is_the_peak_and_w_stays_positive(self, stiff_case):
        prof = gt.profile(stiff_case, 201)
        assert all(w > 0.0 for w in prof.w_um)
        assert max(prof.w_um) == prof.apex_w
        assert all(a >= b for a, b in zip(prof.w_um, prof.w_um[1:]))

    def test_two_point_profile_is_just_the_endpoints(self, stiff_case):
        prof = gt.profile(stiff_case, 2)
        assert prof.w_um == (
            gt.radial_w(stiff_case, 0.0),
            gt.radial_w(stiff_case, stiff_case.geometry.base_angle_rad),
        )

    @pytest.mark.parametrize("n", [0, 1, -3])
    def test_too_few_samples_rejected(self, stiff_case, n):
        with pytest.raises(InputDomainError):
            gt.profile(stiff_case, n)

    def test_more_samples_than_the_bound_rejected(self, stiff_case, monkeypatch):
        # Rejected before any sample is taken.
        monkeypatch.setattr(shell_model, "meridional_v", None)
        with pytest.raises(InputDomainError, match="n_samples must be at most 10001"):
            gt.profile(stiff_case, shell_model.MAX_PROFILE_POINTS + 1)

    def test_csv_round_trip(self, stiff_case):
        prof = gt.profile(stiff_case, 11)
        buf = io.StringIO()
        prof.write_csv(buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "phi_deg,v_um,w_um"
        assert len(lines) == 12
        for line, (p_deg, v, w) in zip(lines[1:], prof.rows()):
            cp, cv, cw = (float(x) for x in line.split(","))
            assert cp == pytest.approx(p_deg, rel=1e-11, abs=1e-15)
            assert cv == pytest.approx(v, rel=1e-11, abs=1e-15)
            assert cw == pytest.approx(w, rel=1e-11)

    def test_csv_to_path(self, stiff_case, tmp_path):
        path = tmp_path / "profile.csv"
        gt.profile(stiff_case, 5).write_csv(path)
        assert path.read_text(encoding="utf-8").startswith("phi_deg,v_um,w_um\n")
