import json
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import globtop as gt
from globtop.cli import _exit_code, main
from globtop.errors import ConfigError, SolverError, StageError

from .conftest import SIMULATED_UM


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTopLevel:
    def test_version(self, capsys):
        code, out, _ = run_cli(capsys, "--version")
        assert code == 0
        assert out.strip() == f"globtop {gt.__version__}"

    def test_help(self, capsys):
        assert run_cli(capsys, "--help")[0] == 0

    def test_missing_subcommand(self, capsys):
        code, _, err = run_cli(capsys)
        assert code == 1
        assert "error:" in err

    def test_unknown_subcommand(self, capsys):
        code, _, err = run_cli(capsys, "transmogrify")
        assert code == 1
        assert "error:" in err

    def test_unknown_flag(self, capsys):
        code, _, err = run_cli(capsys, "geometry", "--sideways")
        assert code == 1
        assert "error:" in err

    def test_exit_code_mapping(self):
        assert _exit_code(ConfigError("x")) == 1
        assert _exit_code(SolverError("x")) == 2
        assert _exit_code(StageError("plan", ConfigError("x"))) == 1
        assert _exit_code(StageError("plan", RuntimeError("x"))) == 2
        assert _exit_code(StageError("report", IsADirectoryError("x"))) == 1

    def test_installed_entry_point(self):
        exe = shutil.which("globtop")
        if exe is None:
            pytest.skip("console script not on PATH")
        proc = subprocess.run(
            [exe, "--version"], capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0
        assert "globtop" in proc.stdout


_LOADED_NUMPY_OR_SCIPY = (
    "print(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy')))"
)
_CLOSED_FORM_RUNS = """
import contextlib, io, json, pathlib, sys, tempfile
from globtop import cli
d = pathlib.Path(tempfile.mkdtemp())
(d / "study.json").write_text(json.dumps({"profile_points": 5}))
runs = [
    ["geometry"],
    ["deflect", "--material", "Polyimide", "--thickness-um", "150", "--pressure-atm", "80"],
    ["plan"],
    ["optimize"],
    ["study", "--config", str(d / "study.json"), "--out", str(d / "out")],
    ["anova", "--responses", str(d / "out" / "responses_analytical.csv")],
]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in runs]
assert codes == [0] * len(runs), codes
"""


@pytest.mark.parametrize(
    "script",
    ["import sys, globtop", "import sys, globtop.cli", _CLOSED_FORM_RUNS],
    ids=["package", "cli", "closed-form-commands"],
)
def test_closed_form_paths_leave_numpy_and_scipy_out(script):
    src = str(Path(gt.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", f"{script}\n{_LOADED_NUMPY_OR_SCIPY}"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "argv, out",
    [
        (["deflect", "--material", "Polyimide", "--thickness-um", "150",
          "--pressure-atm", "80", "--profile-points", "5"], "missing/x.csv"),
        (["fem", "--material", "Polyimide", "--thickness-um", "150",
          "--pressure-atm", "80", "--n-elements", "8"], "missing/x.csv"),
        (["plan"], "missing/x.csv"),
        (["study", "--config", "CONFIG"], "a_file/x"),
        # The directory exists, but stage 'report' cannot write report.json.
        (["study", "--config", "CONFIG"], "out"),
    ],
    ids=["deflect", "fem", "plan", "study", "study-report"],
)
def test_unwritable_output_path_is_an_input_error(capsys, tmp_path, argv, out):
    (tmp_path / "a_file").write_text("", encoding="utf-8")
    (tmp_path / "out" / "report.json").mkdir(parents=True)
    config = tmp_path / "study.json"
    config.write_text(json.dumps({"profile_points": 5}), encoding="utf-8")
    argv = [str(config) if a == "CONFIG" else a for a in argv]
    code, _, err = run_cli(capsys, *argv, "--out", str(tmp_path / out))
    assert code == 1
    assert err.startswith("error: ")
    assert len(err.splitlines()) == 1


class TestGeometry:
    def test_solve_from_chord(self, capsys):
        code, out, _ = run_cli(capsys, "geometry", "--b-um", "1200", "--h-um", "250")
        assert code == 0
        assert "3005.000000" in out
        assert "23.536578" in out

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "geometry", "--b-um", "1200", "--h-um", "250", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["radius_um"] == 3005.0

    def test_default_is_the_preset(self, capsys):
        code, out, _ = run_cli(capsys, "geometry")
        assert code == 0
        assert "3010.000000" in out
        assert "23.500000" in out

    def test_conflicting_forms(self, capsys):
        code, _, err = run_cli(
            capsys, "geometry", "--b-um", "1200", "--h-um", "250", "--radius-um", "3005"
        )
        assert code == 1
        assert "not both" in err

    def test_incomplete_pair(self, capsys):
        code, _, err = run_cli(capsys, "geometry", "--b-um", "1200")
        assert code == 1
        assert "together" in err

    def test_impossible_cap(self, capsys):
        code, _, err = run_cli(capsys, "geometry", "--b-um", "100", "--h-um", "500")
        assert code == 1
        assert "error:" in err


class TestDeflect:
    def test_text_output(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "deflect",
            "--material", "Carbon epoxy resin",
            "--thickness-um", "250",
            "--pressure-atm", "100",
        )
        assert code == 0
        assert "Carbon epoxy resin" in out
        assert "2.0437 um" in out

    def test_json_output(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "deflect",
            "--material", "Polyimide",
            "--thickness-um", "150",
            "--pressure-atm", "80",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["apex_deflection_um"] == pytest.approx(26.855425172830046, rel=1e-12)

    def test_profile_csv(self, capsys, tmp_path):
        out_file = tmp_path / "profile.csv"
        code, _, _ = run_cli(
            capsys,
            "deflect",
            "--material", "Parylene C",
            "--thickness-um", "200",
            "--pressure-atm", "100",
            "--profile-points", "11",
            "--out", str(out_file),
        )
        assert code == 0
        lines = out_file.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "phi_deg,v_um,w_um"
        assert len(lines) == 12

    def test_profile_needs_out(self, capsys):
        code, _, err = run_cli(
            capsys,
            "deflect",
            "--material", "Parylene C",
            "--thickness-um", "200",
            "--pressure-atm", "100",
            "--profile-points", "11",
        )
        assert code == 1
        assert "--out" in err

    def test_material_required(self, capsys):
        code, _, err = run_cli(
            capsys, "deflect", "--thickness-um", "200", "--pressure-atm", "100"
        )
        assert code == 1
        assert "--material" in err

    def test_unknown_material(self, capsys):
        code, _, err = run_cli(
            capsys,
            "deflect",
            "--material", "adamantium",
            "--thickness-um", "200",
            "--pressure-atm", "100",
        )
        assert code == 1
        assert "Polyimide" in err


class TestPlan:
    def test_stdout(self, capsys):
        code, out, _ = run_cli(capsys, "plan")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 10
        assert lines[0].startswith("run,material,")
        assert lines[1] == "1,Polyimide,250,100,-1,1,1"

    def test_to_file(self, capsys, tmp_path):
        path = tmp_path / "plan.csv"
        code, out, _ = run_cli(capsys, "plan", "--out", str(path))
        assert code == 0
        assert out == ""
        assert len(path.read_text(encoding="utf-8").splitlines()) == 10

    def test_custom_levels(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "plan",
            "--thickness-levels-um", "100", "200", "300",
            "--pressure-levels-atm", "10", "20", "30",
        )
        assert code == 0
        assert "1,Polyimide,300,30,-1,1,1" in out


class TestAnova:
    @pytest.fixture()
    def responses_file(self, tmp_path, external_results):
        path = tmp_path / "responses.csv"
        gt.results_to_csv(external_results, path)
        return path

    def test_text(self, capsys, responses_file):
        code, out, _ = run_cli(capsys, "anova", "--responses", str(responses_file))
        assert code == 0
        assert "grand mean: 9.2711 um" in out
        assert "Model" in out
        assert "material" in out

    def test_csv(self, capsys, responses_file):
        code, out, _ = run_cli(
            capsys, "anova", "--responses", str(responses_file), "--format", "csv"
        )
        assert code == 0
        assert out.startswith("source,df,ss,ms,f,p\n")
        assert "material,2,2," in out

    def test_json(self, capsys, responses_file):
        code, out, _ = run_cli(
            capsys, "anova", "--responses", str(responses_file), "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"fit", "anova", "effects"}
        assert doc["fit"]["grand_mean_um"] == pytest.approx(sum(SIMULATED_UM) / 9, rel=1e-12)

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "anova", "--responses", str(tmp_path / "nope.csv")
        )
        assert code == 1
        assert "error:" in err


class TestOptimize:
    def test_all_materials(self, capsys):
        code, out, _ = run_cli(capsys, "optimize")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("Carbon epoxy resin: t_min = 102.1832 um (pass")
        assert lines[1].startswith("Parylene C: t_min = 259.2541 um (marginal")
        assert lines[2].startswith("Polyimide: t_min = 1007.0784 um (fail")

    def test_single_material_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "optimize", "--material", "Polyimide", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert len(doc) == 1
        assert doc[0]["classification"] == "fail"
        assert doc[0]["min_feasible_thickness_um"] == pytest.approx(
            1007.0784439811266, rel=1e-12
        )

    def test_custom_limit(self, capsys):
        code, out, _ = run_cli(
            capsys, "optimize", "--material", "Parylene C", "--limit-um", "10"
        )
        assert code == 0
        assert "129.6271" in out


class TestFem:
    def test_single_solve(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "fem",
            "--material", "Carbon epoxy resin",
            "--thickness-um", "150",
            "--pressure-atm", "100",
            "--n-elements", "24",
        )
        assert code == 0
        assert "apex deflection" in out
        assert "rim reaction" in out

    def test_solution_csv(self, capsys, tmp_path):
        path = tmp_path / "solution.csv"
        code, _, _ = run_cli(
            capsys,
            "fem",
            "--material", "Carbon epoxy resin",
            "--thickness-um", "150",
            "--pressure-atm", "100",
            "--n-elements", "24",
            "--out", str(path),
        )
        assert code == 0
        assert path.read_text(encoding="utf-8").startswith("phi_deg,u_um,w_um,rotation_rad")

    def test_convergence_ladder(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "fem",
            "--material", "Carbon epoxy resin",
            "--thickness-um", "150",
            "--pressure-atm", "100",
            "--n-elements", "64",
            "--converge",
        )
        assert code == 0
        assert "observed order" in out
        assert "extrapolated apex" in out

    @pytest.mark.parametrize("extra", [(), ("--converge",)], ids=["solve", "converge"])
    def test_thickness_above_the_sphere_radius(self, capsys, extra):
        # Rejected before assembly, where t**3 would overflow.
        code, out, err = run_cli(
            capsys,
            "fem",
            "--material", "Carbon epoxy resin",
            "--thickness-um", "1e120",
            "--pressure-atm", "100",
            *extra,
        )
        assert code == 1
        assert out == ""
        assert err.splitlines() == [
            "error: thickness_um 1e+120 exceeds the sphere radius 3010 um of the mesh"
        ]

    def test_a_radius_whose_stiffness_overflows(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(
                capsys,
                "fem",
                "--material", "Carbon epoxy resin",
                "--thickness-um", "1",
                "--pressure-atm", "100",
                "--radius-um", "1e200",
                "--angle-deg", "30",
            )
        assert code == 1
        assert out == ""
        assert err.splitlines() == [
            "error: stiffness of the mesh overflows: radius 1e+200 um is out of range"
        ]

    def test_bad_support_flag(self, capsys):
        code, _, err = run_cli(
            capsys,
            "fem",
            "--material", "Carbon epoxy resin",
            "--thickness-um", "150",
            "--pressure-atm", "100",
            "--bc", "taped",
        )
        assert code == 1
        assert "error:" in err


class TestStudy:
    def test_end_to_end(self, capsys, tmp_path):
        config = tmp_path / "study.json"
        config.write_text(json.dumps({"profile_points": 5}), encoding="utf-8")
        out_dir = tmp_path / "out"
        code, out, _ = run_cli(
            capsys, "study", "--config", str(config), "--out", str(out_dir)
        )
        assert code == 0
        assert "config hash:" in out
        assert "best material: Carbon epoxy resin" in out
        assert (out_dir / "report.json").exists()

    def test_invalid_config(self, capsys, tmp_path):
        config = tmp_path / "study.json"
        config.write_text(json.dumps({"sources": ["psychic"]}), encoding="utf-8")
        code, _, err = run_cli(
            capsys, "study", "--config", str(config), "--out", str(tmp_path / "out")
        )
        assert code == 1
        assert "error:" in err
