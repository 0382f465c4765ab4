import contextlib
import csv
import fnmatch
import io
import itertools
import json
import os
from pathlib import Path
from xml.etree import ElementTree

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import globtop as gt
from globtop.errors import ConfigError, StageError
from globtop.report import (
    _ARTIFACT_PATTERNS,
    compare_columns,
    parse_config,
    parse_config_file,
    run_study,
)
from globtop.svgplot import line_plot

from .conftest import CALCULATED_UM, SIMULATED_UM, replaced

FULL_CONFIG = {
    "sources": ["analytical", "fem", "external"],
    "external": {
        "simulated_um": list(SIMULATED_UM),
        "calculated_um": list(CALCULATED_UM),
    },
    "fem": {"n_elements": 48},
    "profile_points": 11,
}

FULL_ARTIFACTS = {
    "plan.csv",
    "responses_analytical.csv",
    "responses_fem.csv",
    "responses_external.csv",
    "comparison.csv",
    "anova_analytical.csv",
    "anova_analytical.json",
    "effects_analytical.csv",
    "effects_analytical.json",
    "anova_fem.csv",
    "anova_fem.json",
    "effects_fem.csv",
    "effects_fem.json",
    "anova_external.csv",
    "anova_external.json",
    "effects_external.csv",
    "effects_external.json",
    "verdicts.csv",
    "verdicts.json",
    "profile_polyimide.csv",
    "profile_polyimide.svg",
    "profile_parylene_c.csv",
    "profile_parylene_c.svg",
    "profile_carbon_epoxy_resin.csv",
    "profile_carbon_epoxy_resin.svg",
    "report.json",
}


def _library_doc(*moduli_gpa):
    return {
        "materials": [
            {"name": f"m{i}", "youngs_modulus_gpa": e, "poisson_ratio": 0.3}
            for i, e in enumerate(moduli_gpa)
        ]
    }


# Any JSON value, for the schema fuzz test.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=10) | st.dictionaries(st.text(), inner, max_size=5),
    max_leaves=20,
)
CONFIG_KEYS = [
    (key,)
    for key in (
        "geometry",
        "materials",
        "thickness_levels_um",
        "pressure_levels_atm",
        "criteria",
        "sources",
        "external",
        "fem",
        "atm_pa",
        "profile_points",
    )
] + [
    (block, key)
    for block, keys in (
        (
            "criteria",
            (
                "deflection_limit_um",
                "max_pressure_atm",
                "max_thickness_um",
                "thickness_range_um",
                "pressure_range_atm",
                "marginal_band",
            ),
        ),
        ("fem", ("n_elements", "bc")),
        ("external", ("simulated_um", "calculated_um")),
    )
    for key in keys
]


@pytest.fixture(scope="module")
def full_study(tmp_path_factory):
    out = tmp_path_factory.mktemp("study")
    config = parse_config(FULL_CONFIG)
    report = run_study(config, out)
    return config, report, out


# Names that CSV must quote and SVG must escape.
AWKWARD_NAMES = ("Polyimide, <PI-2611> & co", 'Parylene "C"', "Carbon epoxy resin")


@pytest.fixture(scope="module")
def awkward_study(tmp_path_factory):
    out = tmp_path_factory.mktemp("awkward")
    library = gt.default_library()
    materials = [dict(m.as_dict(), name=name) for m, name in zip(library, AWKWARD_NAMES)]
    doc = {"materials": {"materials": materials}, "sources": ["analytical", "fem"],
           "fem": {"n_elements": 16}, "profile_points": 5}
    run_study(parse_config(doc), out)
    return out


class TestParseConfig:
    def test_empty_config_resolves_to_defaults(self):
        config = parse_config({})
        assert config.geometry == gt.REFERENCE_GEOMETRY
        assert config.library == gt.default_library()
        assert config.thickness_levels_um == (150.0, 200.0, 250.0)
        assert config.pressure_levels_atm == (80.0, 90.0, 100.0)
        assert config.sources == ("analytical",)
        assert config.external_simulated_um is None
        assert config.fem_elements == 256
        assert config.fem_bc == "clamped"
        assert config.atm_pa == gt.ATM_PA
        assert config.profile_points == 101
        assert len(config.config_hash) == 64
        assert set(config.config_hash) <= set("0123456789abcdef")

    def test_hash_ignores_spelling_of_defaults(self):
        explicit = parse_config(
            {"sources": ["analytical"], "profile_points": 101, "atm_pa": 101325.0}
        )
        assert explicit.config_hash == parse_config({}).config_hash

    def test_hash_is_pinned(self):
        # A change to the canonical JSON changes every report's provenance;
        # these digests must move only on purpose.
        assert parse_config({}).config_hash == (
            "cd5779d816a359de12a90c0ed3a0378052b4316c2e34a0051e9c57068f3332cc"
        )
        assert parse_config(FULL_CONFIG).config_hash == (
            "11575e8d74174bf0b2224b3605665372d044fdecbd77424228dedb2ef53ad3ac"
        )

    def test_hash_tracks_content(self):
        base = parse_config({})
        changed = parse_config({"profile_points": 51})
        assert changed.config_hash != base.config_hash

    def test_inline_materials(self):
        doc = {
            "materials": {
                "materials": [
                    {"name": "a", "youngs_modulus_gpa": 1.0, "poisson_ratio": 0.3},
                    {"name": "b", "youngs_modulus_gpa": 2.0, "poisson_ratio": 0.3},
                    {"name": "c", "youngs_modulus_gpa": 3.0, "poisson_ratio": 0.3},
                ]
            }
        }
        config = parse_config(doc)
        assert config.library.names == ("a", "b", "c")

    def test_materials_path_resolved_against_base_dir(self, tmp_path, library):
        (tmp_path / "lib.json").write_text(
            gt.serialize_library(library), encoding="utf-8"
        )
        config = parse_config({"materials": "lib.json"}, base_dir=tmp_path)
        assert config.library == library

    def test_geometry_block(self):
        config = parse_config({"geometry": {"base_half_width_um": 1200.0, "rise_um": 250.0}})
        assert config.geometry.radius_um == 3005.0

    def test_criteria_block(self):
        config = parse_config({"criteria": {"deflection_limit_um": 2.0}})
        assert config.criteria.deflection_limit_um == 2.0
        assert config.criteria.max_thickness_um == 250.0

    @pytest.mark.parametrize(
        "doc,hint",
        [
            ({"bogus": 1}, "unknown"),
            ({"criteria": {"bogus": 1}}, "unknown"),
            ({"fem": {"bogus": 1}}, "unknown"),
            ({"external": {"bogus": []}}, "unknown"),
            ({"sources": []}, "non-empty"),
            ({"sources": ["analytical", "analytical"]}, "repeat"),
            ({"sources": ["psychic"]}, "unknown source"),
            ({"sources": ["external"]}, "simulated_um"),
            ({"thickness_levels_um": [150.0, 200.0]}, "3 values"),
            ({"pressure_levels_atm": [100.0, 90.0, 80.0]}, "increasing"),
            ({"external": {"simulated_um": [1.0] * 8}}, "9 values"),
            ({"criteria": {"deflection_limit_um": -1.0}}, "criteria"),
            ({"fem": {"n_elements": 2}}, "n_elements"),
            ({"fem": {"bc": "glued"}}, "bc"),
            ({"atm_pa": 0.0}, "atm_pa"),
            ({"profile_points": 1}, "profile_points"),
            ({"materials": 7}, "materials"),
            (
                {
                    "sources": ["analytical", "external"],
                    "external": {"simulated_um": ["x"] + [1.0] * 8},
                },
                "external.simulated_um",
            ),
            ({"fem": {"n_elements": "abc"}}, "fem.n_elements"),
            ({"fem": {"n_elements": 48.5}}, "fem.n_elements"),
            ({"atm_pa": "abc"}, "atm_pa"),
            ({"atm_pa": [1]}, "atm_pa"),
            ({"criteria": {"thickness_range_um": ["a", "b"]}}, "thickness_range_um"),
            ({"geometry": {"radius_um": "x", "base_angle_deg": 23.5}}, "radius_um"),
            ({"criteria": {"max_pressure_atm": None}}, "max_pressure_atm"),
            ({"geometry": None}, "geometry"),
            ({"criteria": {"deflection_limit_um": "5"}}, "deflection_limit_um"),
            ({"criteria": {"marginal_band": "0.1"}}, "marginal_band"),
            ({"profile_points": 2.7}, "profile_points"),
            ({"thickness_levels_um": [True, 2, 3]}, "thickness_levels_um"),
            ({"materials": _library_doc(1.0, 2.0)}, "exactly 3 materials"),
            ({"materials": _library_doc("3", 2.0, 3.0)}, "youngs_modulus_gpa"),
            ({"materials": _library_doc(True, 2.0, 3.0)}, "youngs_modulus_gpa"),
            ({"fem": {"n_elements": 513}}, "fem.n_elements must be an integer of at most 512"),
            ({"profile_points": 10_002}, "profile_points must be an integer of at most 10001"),
            (
                {"materials": {**_library_doc(1.0, 2.0, 3.0), "colour": "red"}},
                r"materials has unknown keys: \['colour'\]",
            ),
            ({"materials": {"materials": [{"name": "a"}]}}, r"materials\.materials\[0\]\.youngs"),
            ({"thickness_levels_um": [0, 100, 200]}, "thickness_levels_um must be .* and positive"),
            ({"pressure_levels_atm": [-10, 0, 10]}, "pressure_levels_atm must be .* non-negative"),
        ],
    )
    def test_rejections(self, doc, hint):
        with pytest.raises(ConfigError, match=hint):
            parse_config(doc)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(CONFIG_KEYS), JSON_VALUES)
    def test_any_json_value_parses_or_raises_config_error(self, key, value):
        doc = {key[0]: value} if len(key) == 1 else {key[0]: {key[1]: value}}
        with contextlib.suppress(ConfigError):
            parse_config(doc)

    def test_int_valued_criteria_hash_as_floats(self):
        doc = {"criteria": {"deflection_limit_um": 5}}
        assert parse_config(doc).config_hash == parse_config({}).config_hash

    def test_readme_example_parses(self, tmp_path, library):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("## Study configuration", 1)[1]
        doc = json.loads(section.split("```json", 1)[1].split("```", 1)[0])
        (tmp_path / doc["materials"]).write_text(
            gt.serialize_library(library), encoding="utf-8"
        )
        config = parse_config(doc, base_dir=tmp_path)
        assert config.geometry.radius_um == 3005.0
        assert config.sources == ("analytical", "fem", "external")

    def test_config_file_round_trip(self, tmp_path):
        path = tmp_path / "study.json"
        path.write_text(json.dumps(FULL_CONFIG), encoding="utf-8")
        config = parse_config_file(path)
        assert config.config_hash == parse_config(FULL_CONFIG).config_hash

    def test_config_file_bad_json(self, tmp_path):
        path = tmp_path / "study.json"
        path.write_text("{nope", encoding="utf-8")
        with pytest.raises(ConfigError, match="JSON"):
            parse_config_file(path)

    def test_config_file_missing(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            parse_config_file(tmp_path / "absent.json")


class TestCompareColumns:
    def test_reference_columns(self):
        rows = compare_columns(SIMULATED_UM, CALCULATED_UM)
        assert len(rows) == 9
        first = rows[0]
        assert first.run == 1
        assert first.ratio == pytest.approx(15.58 / 12.59, rel=1e-15)
        assert first.error_pct == pytest.approx((15.58 / 12.59 - 1.0) * 100.0, rel=1e-13)
        assert first.error_pct > 0.0  # the calculation overshoots run 1

    def test_row_wise_signs(self):
        rows = compare_columns(SIMULATED_UM, CALCULATED_UM)
        signs = [r.error_pct > 0 for r in rows]
        assert signs == [True, False, False, True, False, True, False, False, True]

    def test_length_mismatch(self):
        with pytest.raises(ConfigError, match="length"):
            compare_columns((1.0, 2.0), (1.0,))

    def test_zero_simulated_rejected(self):
        with pytest.raises(ConfigError, match="run 2"):
            compare_columns((1.0, 0.0, 3.0), (1.0, 2.0, 3.0))


class TestRunStudy:
    def test_artifact_set(self, full_study):
        _, _, out = full_study
        assert {p.name for p in out.iterdir()} == FULL_ARTIFACTS

    def test_no_stale_marker_after_success(self, full_study):
        _, _, out = full_study
        assert not (out / "STALE").exists()

    def test_report_object_structure(self, full_study):
        config, report, _ = full_study
        assert [a.source for a in report.analyses] == list(config.sources)
        assert report.comparison_sources == ("external", "external_calculated")
        assert len(report.comparison) == 9
        with pytest.raises(KeyError):
            report.analysis("bogus")

    def test_comparison_csv_golden_rows(self, full_study):
        _, _, out = full_study
        lines = (out / "comparison.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "run,simulated_um,calculated_um,ratio,error_pct"
        assert lines[1] == "1,12.59,15.58,1.2375,23.75"
        assert lines[7] == "7,1.70,1.54,0.9059,-9.41"
        assert len(lines) == 10

    def test_report_json_provenance(self, full_study):
        config, _, out = full_study
        doc = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert doc["provenance"]["config_hash"] == config.config_hash
        assert doc["provenance"]["package_version"] == gt.__version__
        assert set(doc["responses"]) == {"analytical", "fem", "external"}
        assert doc["comparison"]["simulated_source"] == "external"
        assert len(doc["plan"]) == 9
        assert doc["verdicts"]["external"][0]["classification"] in (
            "pass",
            "marginal",
            "fail",
        )

    def test_verdicts_csv_covers_all_sources(self, full_study):
        _, _, out = full_study
        lines = (out / "verdicts.csv").read_text(encoding="utf-8").splitlines()
        assert len(lines) == 1 + 3 * 3
        assert lines[0].startswith("material,source,")

    def test_responses_csv_sources(self, full_study):
        _, _, out = full_study
        for source in ("analytical", "fem", "external"):
            lines = (
                (out / f"responses_{source}.csv").read_text(encoding="utf-8").splitlines()
            )
            assert len(lines) == 10
            assert lines[1].endswith(source)

    def test_profile_svg_is_a_plot(self, full_study):
        _, _, out = full_study
        svg = (out / "profile_polyimide.svg").read_text(encoding="utf-8")
        assert svg.startswith("<svg ")
        assert "Polyimide" in svg
        assert "limit" in svg

    @pytest.mark.parametrize(
        "name, column",
        [("plan.csv", 1), ("responses_analytical.csv", 1), ("responses_fem.csv", 1), ("verdicts.csv", 0)],
    )
    def test_csv_quotes_the_material_names(self, awkward_study, name, column):
        header, *rows = csv.reader(io.StringIO((awkward_study / name).read_text(encoding="utf-8")))
        assert rows
        assert all(len(row) == len(header) for row in rows)
        assert {row[column] for row in rows} == set(AWKWARD_NAMES)

    def test_every_svg_parses(self, awkward_study):
        titles = [
            ElementTree.parse(path).getroot().find("{http://www.w3.org/2000/svg}text").text
            for path in awkward_study.glob("*.svg")
        ]
        assert len(titles) == 3
        assert any("Polyimide, <PI-2611> & co" in title for title in titles)

    def test_rerun_is_byte_identical(self, full_study, tmp_path):
        _, _, out = full_study
        again = tmp_path / "again"
        run_study(parse_config(FULL_CONFIG), again)
        for name in sorted(FULL_ARTIFACTS):
            assert (again / name).read_bytes() == (out / name).read_bytes(), name

    def test_analytical_only_study_skips_comparison(self, tmp_path):
        config = parse_config({"profile_points": 5})
        report = run_study(config, tmp_path / "solo")
        assert report.comparison is None
        names = {p.name for p in (tmp_path / "solo").iterdir()}
        assert "comparison.csv" not in names
        assert "responses_analytical.csv" in names

    def test_fem_against_analytical_comparison(self, tmp_path):
        config = parse_config(
            {"sources": ["analytical", "fem"], "fem": {"n_elements": 32}, "profile_points": 5}
        )
        report = run_study(config, tmp_path / "pair")
        assert report.comparison_sources == ("fem", "analytical")
        # Membrane theory carries no bending stiffening, so the two columns
        # differ but stay within a factor of 2 on every run.
        for row in report.comparison:
            assert 0.5 < row.ratio < 2.0

    def test_a_fem_study_builds_one_mesh(self, monkeypatch, tmp_path):
        import numpy as np

        from globtop import fem, report, screening

        meshes, passes = [], []
        element_parts = fem._element_parts

        def counted_mesh(*args):
            meshes.append(args)
            return fem.mesh_cap(*args)

        def counted_parts(meshes, nu):
            passes.append(sorted(set(np.atleast_1d(nu).tolist())))
            return element_parts(meshes, nu)

        monkeypatch.setattr(report, "mesh_cap", counted_mesh)
        monkeypatch.setattr(screening, "mesh_cap", counted_mesh)
        monkeypatch.setattr(fem, "_element_parts", counted_parts)
        config = parse_config(
            {"sources": ["analytical", "fem"], "fem": {"n_elements": 16}, "profile_points": 5}
        )
        run_study(config, tmp_path)
        assert meshes == [(config.geometry, 16)]
        # One element pass, for both ratios: Parylene C and carbon epoxy
        # resin share nu = 0.4.
        assert passes == [[0.35, 0.4]]

    def test_the_fem_screen_solves_at_most_three_times_per_root(self, monkeypatch, tmp_path):
        # The root finds start from the study's own responses; each material
        # also has its worst-case solve at the thickness cap.  Every FEM apex
        # of the study comes through the entry: the root find's with its
        # slope, the three responses and the worst case of a material
        # without.
        from globtop import fem

        solved = []
        solve = fem.solve_apex

        def recorded(mesh, t, material, *args, **kwargs):
            solved.append((material.name, kwargs.get("slope", False)))
            return solve(mesh, t, material, *args, **kwargs)

        monkeypatch.setattr(fem, "solve_apex", recorded)
        config = parse_config({"sources": ["analytical", "fem"], "profile_points": 5})
        run_study(config, tmp_path)
        assert config.fem_elements == 256
        names = sorted(m.name for m in config.library)
        assert sorted({name for name, _ in solved}) == names
        for name in names:
            assert solved.count((name, False)) == 3 + 1
            assert 1 <= solved.count((name, True)) <= 3

    # A response or worst case whose (mesh, rim, nu, t) the study has
    # already solved is that solve scaled by P/E.  Over the 160 studies of
    # the benchmark's study_fem seeds 0-39, 680 of the 1,920 responses and
    # worst cases were scaled, and the largest gap to their own solves was
    # 3.1e-8 of the apex.  Each of the two solves lies within APEX_REL_256
    # = 2e-8 of the exact discrete answer (tests/test_fem.py), so the gap is
    # bounded by 4e-8.
    SCALED_REL = 4e-8

    @pytest.mark.parametrize("bc", ["clamped", "pinned"])
    def test_scaled_fem_apexes_match_their_solves(self, monkeypatch, tmp_path, bc):
        from globtop import fem

        calls, solves = [], []
        entry, solve = fem.solve_apex, fem._solve

        def recorded(*args, **kwargs):
            calls.append(kwargs.get("slope", False))
            return entry(*args, **kwargs)

        def counted(*args):
            solves.append(args)
            return solve(*args)

        monkeypatch.setattr(fem, "solve_apex", recorded)
        monkeypatch.setattr(fem, "_solve", counted)
        config = parse_config({"sources": ["analytical", "fem"], "fem": {"bc": bc}, "profile_points": 5})
        study = run_study(config, tmp_path)
        monkeypatch.undo()
        # Parylene C and carbon epoxy resin share nu = 0.4, and the 250 um
        # cap is a plan level: of the 9 responses and 3 worst cases, 3 and 3
        # are scaled.  Every slope is solved.
        roots = calls.count(True)
        assert (calls.count(False), len(solves) - roots) == (12, 6)

        analysis = study.analysis("fem")
        p_max = gt.atm_to_pa(config.criteria.max_pressure_atm)
        cases = [
            (r.thickness_um, r.material_name, gt.atm_to_pa(r.pressure_atm), r.response_um)
            for r in analysis.results
        ]
        cases += [
            (config.criteria.max_thickness_um, v.material_name, p_max, v.worst_case_deflection_um)
            for v in analysis.verdicts
        ]
        mesh = fem.mesh_cap(config.geometry, config.fem_elements)
        solved = [
            fem.solve_case(mesh, t, config.library.get(name), p, bc).apex_deflection_um
            for t, name, p, _ in cases
        ]
        # The first run is always solved, so it has the bits of a solve.
        assert cases[0][3] == solved[0]
        for (_, _, _, got), want in zip(cases, solved):
            assert abs(got - want) <= self.SCALED_REL * want

    def test_failing_compute_stage_writes_nothing(self, tmp_path):
        out = tmp_path / "kept"
        run_study(parse_config({"profile_points": 5}), out)
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        # parse_config rejects a 2-material library, so it is put in by hand.
        two = gt.MaterialLibrary(
            materials=(gt.Material("a", 1.0, 0.3), gt.Material("b", 2.0, 0.3))
        )
        config = replaced(parse_config(FULL_CONFIG), library=two)
        with pytest.raises(StageError) as err:
            run_study(config, out)
        assert err.value.stage == "plan"
        # The earlier study stays whole, and no STALE marker is left.
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        with pytest.raises(StageError):
            run_study(config, tmp_path / "never")
        assert not (tmp_path / "never").exists()

    def test_failing_write_leaves_stale_marker(self, tmp_path):
        out = tmp_path / "blocked"
        (out / "report.json").mkdir(parents=True)
        with pytest.raises(StageError) as err:
            run_study(parse_config({"profile_points": 5}), out)
        assert err.value.stage == "write"
        assert isinstance(err.value.original, IsADirectoryError)
        assert (out / "STALE").read_text(encoding="utf-8") == "incomplete study: stage write failed\n"
        (out / "report.json").rmdir()
        run_study(parse_config({"profile_points": 5}), out)
        assert not (out / "STALE").exists()

    def test_a_write_failure_of_any_kind_is_a_stage_error(self, monkeypatch, tmp_path):
        # Every artifact and the STALE marker go through the package's one
        # writer, errors.write_text, which report binds by name.
        from globtop import errors, report

        assert report.write_text is errors.write_text
        write_text = errors.write_text

        def refuse_the_report(target, text):
            if os.path.basename(target) == "report.json":
                raise RuntimeError("refused")
            return write_text(target, text)

        monkeypatch.setattr(report, "write_text", refuse_the_report)
        with pytest.raises(StageError) as err:
            run_study(parse_config({"profile_points": 5}), tmp_path)
        assert err.value.stage == "write"
        assert isinstance(err.value.original, RuntimeError)
        assert (tmp_path / "STALE").is_file()

    @pytest.mark.parametrize(
        "sources",
        [s for n in (1, 2, 3) for s in itertools.combinations(("analytical", "fem", "external"), n)],
        ids="+".join,
    )
    def test_every_artifact_matches_a_leftover_pattern(self, tmp_path, sources):
        doc = {"sources": list(sources), "fem": {"n_elements": 16}, "profile_points": 5}
        if "external" in sources:
            doc["external"] = {"simulated_um": list(SIMULATED_UM)}
        alone = tmp_path / "alone"
        run_study(parse_config(doc), alone)
        names = {p.name for p in alone.iterdir()}
        for name in names:
            assert any(fnmatch.fnmatchcase(name, p) for p in _ARTIFACT_PATTERNS), name
        # So a rerun into a full study's directory leaves just this study.
        rerun = tmp_path / "rerun"
        run_study(parse_config({**FULL_CONFIG, "fem": {"n_elements": 16}}), rerun)
        run_study(parse_config(doc), rerun)
        assert {p.name for p in rerun.iterdir()} == names

    def test_duplicate_json_files_are_report_sections(self, full_study):
        config, _, out = full_study

        def read(name):
            return json.loads((out / name).read_text(encoding="utf-8"))

        doc = read("report.json")
        assert read("verdicts.json") == doc["verdicts"]
        for source in config.sources:
            assert read(f"anova_{source}.json") == doc["stats"][source]["anova"]
            assert read(f"effects_{source}.json") == doc["stats"][source]["effects"]

    def test_rerun_with_fewer_sources_removes_their_artifacts(self, tmp_path):
        out = tmp_path / "rerun"
        out.mkdir()
        (out / "notes.txt").write_text("kept\n", encoding="utf-8")
        run_study(
            parse_config(
                {
                    "sources": ["analytical", "external"],
                    "external": {"simulated_um": list(SIMULATED_UM)},
                    "profile_points": 5,
                }
            ),
            out,
        )
        assert {"comparison.csv", "responses_external.csv"} <= {p.name for p in out.iterdir()}
        run_study(parse_config({"profile_points": 5}), out)
        assert {p.name for p in out.iterdir()} == {
            "notes.txt",
            "plan.csv",
            "responses_analytical.csv",
            "anova_analytical.csv",
            "anova_analytical.json",
            "effects_analytical.csv",
            "effects_analytical.json",
            "verdicts.csv",
            "verdicts.json",
            "profile_polyimide.csv",
            "profile_polyimide.svg",
            "profile_parylene_c.csv",
            "profile_parylene_c.svg",
            "profile_carbon_epoxy_resin.csv",
            "profile_carbon_epoxy_resin.svg",
            "report.json",
        }

    def test_a_new_directory_is_written_without_the_clean_up_scan(self, tmp_path, monkeypatch):
        # A directory the write makes holds no earlier study to clean up; a
        # rerun reads the directory once.
        scans = []
        scandir = os.scandir
        monkeypatch.setattr(os, "scandir", lambda path: scans.append(path) or scandir(path))
        run_study(parse_config({"profile_points": 5}), tmp_path / "new" / "study")
        assert scans == []
        run_study(parse_config({"profile_points": 5}), tmp_path / "new" / "study")
        assert scans == [tmp_path / "new" / "study"]

    def test_successful_rerun_clears_stale_marker(self, tmp_path):
        out = tmp_path / "recover"
        out.mkdir()
        (out / "STALE").write_text("incomplete study: stage plan failed\n", encoding="utf-8")
        run_study(parse_config({"profile_points": 5}), out)
        assert not (out / "STALE").exists()


class TestSvgPlot:
    def test_deterministic_output(self):
        series = ((0.0, 1.0, 2.0), (1.0, 4.0, 9.0), "curve")
        a = line_plot(*series, "title", "x", "y", h_line=5.0, h_line_label="cap")
        b = line_plot(*series, "title", "x", "y", h_line=5.0, h_line_label="cap")
        assert a == b
        assert a.startswith("<svg ")
        assert "cap" in a
        assert "curve" in a

    def test_requires_finite_points(self):
        with pytest.raises(ValueError):
            line_plot((), (), "empty", "t", "x", "y")
