import math
import warnings

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import globtop as gt
from globtop.errors import ConfigError, InputDomainError


def test_exact_solve_of_reference_footprint():
    g = gt.solve_cap(1200.0, 250.0)
    assert math.isclose(g.radius_um, 3005.0, rel_tol=1e-9)
    # Independent 50-digit evaluation of asin(b/a).
    alpha_deg = float(mpmath.degrees(mpmath.asin(mpmath.mpf(1200) / 3005)))
    assert math.isclose(g.base_angle_deg, alpha_deg, rel_tol=1e-12)
    assert math.isclose(g.base_angle_deg, 23.536577864041288, rel_tol=1e-12)


def test_solve_cap_brackets_rounded_reference():
    g = gt.solve_cap(1200.0, 250.0)
    assert 2990.0 <= g.radius_um <= 3020.0
    assert 23.3 <= g.base_angle_deg <= 23.7


def test_reference_preset_values():
    g = gt.REFERENCE_GEOMETRY
    assert g.radius_um == 3010.0
    assert math.isclose(g.base_angle_deg, 23.5, rel_tol=1e-12)
    assert math.isclose(g.base_half_width_um, 3010.0 * math.sin(math.radians(23.5)), rel_tol=1e-12)


def test_hemisphere_is_a_fixed_point():
    g = gt.solve_cap(1000.0, 1000.0)
    assert math.isclose(g.radius_um, 1000.0, rel_tol=1e-12)
    assert math.isclose(g.base_angle_rad, math.pi / 2, rel_tol=1e-12)


def test_shallow_cap():
    g = gt.solve_cap(2000.0, 100.0)
    assert math.isclose(g.radius_um, 20050.0, rel_tol=1e-12)
    assert math.isclose(g.base_angle_rad, math.asin(2000.0 / 20050.0), rel_tol=1e-12)


@given(
    b=st.floats(min_value=1e-2, max_value=1e6),
    ratio=st.floats(min_value=1e-6, max_value=1.0),
)
@settings(max_examples=200)
def test_round_trip_identities(b, ratio):
    h = b * ratio
    g = gt.solve_cap(b, h)
    assert math.isclose(g.radius_um * math.sin(g.base_angle_rad), b, rel_tol=1e-12)
    rise = g.radius_um * 2.0 * math.sin(g.base_angle_rad / 2.0) ** 2
    assert math.isclose(rise, h, rel_tol=1e-12)
    assert 0.0 < g.base_angle_rad <= math.pi / 2


def test_radius_shrinks_as_rise_grows():
    radii = [gt.solve_cap(1200.0, h).radius_um for h in (50.0, 150.0, 250.0, 600.0, 1200.0)]
    assert all(a > b for a, b in zip(radii, radii[1:]))


@pytest.mark.parametrize(
    "b,h",
    [
        (0.0, 100.0),
        (-5.0, 100.0),
        (100.0, 0.0),
        (100.0, -1.0),
        (float("nan"), 100.0),
        (100.0, float("inf")),
        (100.0, 150.0),  # taller than a hemisphere
    ],
)
def test_solve_cap_rejects_bad_inputs(b, h):
    with pytest.raises(InputDomainError):
        gt.solve_cap(b, h)


@pytest.mark.parametrize("angle", [0.0, -10.0, 90.5, float("nan")])
def test_from_radius_angle_rejects_bad_angles(angle):
    with pytest.raises(InputDomainError):
        gt.from_radius_angle(3010.0, angle)


def test_inconsistent_fields_rejected():
    with pytest.raises(InputDomainError):
        gt.CapGeometry(
            base_half_width_um=1200.0,
            rise_um=250.0,
            radius_um=3005.0,
            base_angle_rad=0.2,
        )


class TestThinness:
    def test_reference_dome_is_thin(self, reference_cap):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ratio = gt.thinness_ratio(reference_cap, 250.0)
        assert math.isclose(ratio, 0.0831, abs_tol=5e-5)

    def test_thick_shell_warns(self, exact_cap):
        with pytest.warns(gt.ThinShellWarning):
            ratio = gt.thinness_ratio(exact_cap, 350.0)
        assert math.isclose(ratio, 0.1165, abs_tol=5e-5)

    def test_rejects_nonpositive_thickness(self, reference_cap):
        with pytest.raises(InputDomainError):
            gt.thinness_ratio(reference_cap, 0.0)


class TestConfigBlock:
    def test_chord_form(self):
        g = gt.cap_from_config({"base_half_width_um": 1200, "rise_um": 250})
        assert math.isclose(g.radius_um, 3005.0, rel_tol=1e-9)

    def test_polar_form(self):
        g = gt.cap_from_config({"radius_um": 3010, "base_angle_deg": 23.5})
        assert g.radius_um == 3010.0

    @pytest.mark.parametrize(
        "block",
        [
            {},
            {"base_half_width_um": 1200},
            {"radius_um": 3010},
            {
                "base_half_width_um": 1200,
                "rise_um": 250,
                "radius_um": 3010,
                "base_angle_deg": 23.5,
            },
            {"base_half_width_um": 1200, "rise_um": 250, "extra": 1},
            {"radius_um": 3010, "rise_um": 250},
        ],
    )
    def test_rejects_wrong_key_sets(self, block):
        with pytest.raises(ConfigError):
            gt.cap_from_config(block)

    def test_messages_spell_the_keys_as_named(self):
        names = {"radius_um": "--radius-um", "base_angle_deg": "--angle-deg"}
        with pytest.raises(ConfigError, match="^geometry: --radius-um and --angle-deg must"):
            gt.cap_from_config({"radius_um": 3010}, names)
        with pytest.raises(ConfigError, match="^geometry: radius_um and base_angle_deg must"):
            gt.cap_from_config({"radius_um": 3010})

    def test_rejects_non_mapping(self):
        with pytest.raises(ConfigError):
            gt.cap_from_config([1200, 250])
