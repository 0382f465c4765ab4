import json

import pytest

import globtop as gt
from globtop.errors import ConfigError, InputDomainError


def test_default_library_contents(library):
    assert library.names == ("Polyimide", "Parylene C", "Carbon epoxy resin")
    by_name = {m.name: m for m in library}
    assert by_name["Polyimide"].youngs_modulus_gpa == 7.5
    assert by_name["Polyimide"].poisson_ratio == 0.35
    assert by_name["Parylene C"].youngs_modulus_gpa == 27.59
    assert by_name["Parylene C"].poisson_ratio == 0.4
    assert by_name["Carbon epoxy resin"].youngs_modulus_gpa == 70.0
    assert by_name["Carbon epoxy resin"].poisson_ratio == 0.4


def test_modulus_unit_conversion(cer):
    assert cer.youngs_modulus_pa == 70.0e9


def test_sorted_by_modulus(library):
    names = [m.name for m in library.sorted_by_modulus()]
    assert names == ["Polyimide", "Parylene C", "Carbon epoxy resin"]


@pytest.mark.parametrize(
    "query,expected",
    [
        ("Polyimide", "Polyimide"),
        ("POLYIMIDE", "Polyimide"),
        ("parylene c", "Parylene C"),
        ("ParyleneC", "Parylene C"),
        ("Parylene", "Parylene C"),
        ("CarbonEpoxy", "Carbon epoxy resin"),
        ("carbon epoxy resin", "Carbon epoxy resin"),
    ],
)
def test_lookup_normalization(library, query, expected):
    assert library.get(query).name == expected


def test_lookup_unknown_lists_names(library):
    with pytest.raises(KeyError, match="Polyimide"):
        library.get("unobtainium")


def test_lookup_ambiguous_prefix_fails():
    lib = gt.MaterialLibrary(
        materials=(
            gt.Material("Poly A", 1.0, 0.3),
            gt.Material("Poly B", 2.0, 0.3),
        )
    )
    with pytest.raises(KeyError):
        lib.get("Poly")


class TestMaterialValidation:
    def test_poisson_half_rejected(self):
        with pytest.raises(InputDomainError, match="poisson_ratio"):
            gt.Material("x", 10.0, 0.5)

    @pytest.mark.parametrize("nu", [-0.01, 0.75, float("nan"), "0.3", True, None])
    def test_poisson_out_of_range(self, nu):
        with pytest.raises(InputDomainError):
            gt.Material("x", 10.0, nu)

    @pytest.mark.parametrize("e", [0.0, -7.5, float("nan"), float("inf"), "3", True, None])
    def test_modulus_must_be_positive_finite(self, e):
        with pytest.raises(InputDomainError):
            gt.Material("x", e, 0.3)

    def test_values_are_stored_as_floats(self):
        m = gt.Material("x", 3, 0)
        assert type(m.youngs_modulus_gpa) is float
        assert type(m.poisson_ratio) is float

    def test_name_must_be_nonempty(self):
        with pytest.raises(InputDomainError):
            gt.Material("  ", 10.0, 0.3)

    def test_name_must_encode_as_utf8(self):
        # A lone surrogate, as the JSON string "Poly\ud800" reads.
        with pytest.raises(InputDomainError, match="UTF-8"):
            gt.Material("Poly\ud800", 10.0, 0.3)
        assert gt.Material("Polyimid\u00e9 \u2014 \U0001f600", 10.0, 0.3).name.endswith("\U0001f600")


class TestLibraryValidation:
    def test_duplicate_names_collide_after_normalization(self):
        with pytest.raises(ConfigError, match="duplicate"):
            gt.MaterialLibrary(
                materials=(
                    gt.Material("Parylene C", 27.59, 0.4),
                    gt.Material("parylene-c", 30.0, 0.4),
                )
            )

    def test_empty_library_rejected(self):
        with pytest.raises(ConfigError):
            gt.MaterialLibrary(materials=())


class TestLoadLibrary:
    def test_malformed_json(self):
        with pytest.raises(ConfigError, match="JSON"):
            gt.load_library("{not json")

    def test_missing_materials_key(self):
        with pytest.raises(ConfigError):
            gt.load_library('{"stuff": []}')

    def test_materials_not_a_list(self):
        with pytest.raises(ConfigError):
            gt.load_library('{"materials": {"name": "x"}}')

    def test_entry_missing_field(self):
        doc = {"materials": [{"name": "x", "poisson_ratio": 0.3}]}
        with pytest.raises(ConfigError, match=r"materials\[0\]"):
            gt.load_library(json.dumps(doc))

    def test_entry_unknown_field(self):
        doc = {
            "materials": [
                {"name": "x", "youngs_modulus_gpa": 1.0, "poisson_ratio": 0.3, "color": "red"}
            ]
        }
        with pytest.raises(ConfigError, match="unknown"):
            gt.load_library(json.dumps(doc))

    def test_entry_bad_value_reports_index(self):
        doc = {
            "materials": [
                {"name": "ok", "youngs_modulus_gpa": 1.0, "poisson_ratio": 0.3},
                {"name": "bad", "youngs_modulus_gpa": -1.0, "poisson_ratio": 0.3},
            ]
        }
        with pytest.raises(ConfigError, match=r"materials\[1\]"):
            gt.load_library(json.dumps(doc))

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            gt.load_library_file(tmp_path / "nope.json")


def test_serialize_round_trip_is_field_exact(library):
    text = gt.serialize_library(library)
    again = gt.load_library(text)
    assert again == library


def test_round_trip_preserves_awkward_decimals():
    lib = gt.MaterialLibrary(materials=(gt.Material("x", 27.59, 0.4),))
    again = gt.load_library(gt.serialize_library(lib))
    assert again.materials[0].youngs_modulus_gpa == 27.59


def test_load_from_file(tmp_path, library):
    path = tmp_path / "lib.json"
    path.write_text(gt.serialize_library(library), encoding="utf-8")
    assert gt.load_library_file(path) == library
