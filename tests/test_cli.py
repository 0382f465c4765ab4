import ast
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

from .conftest import HIDE_NUMPY_LAPACK, SIMULATED_UM


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
        assert _exit_code(StageError("responses:fem", ImportError("x"))) == 1

    def test_installed_entry_point(self):
        exe = shutil.which("globtop")
        if exe is None:
            pytest.skip("console script not on PATH")
        proc = subprocess.run(
            [exe, "--version"], capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0
        assert "globtop" in proc.stdout


def _print_loaded(*packages):
    """A script line printing the loaded modules of the top-level ``packages``."""
    return f"print(sorted(m for m in sys.modules if m.split('.')[0] in {packages!r}))"


# Scripts that need a work directory take it as sys.argv[1] (_run_python's ``work``).
_CLOSED_FORM_RUNS = """
import contextlib, io, json, pathlib, sys
from globtop import cli
d = pathlib.Path(sys.argv[1])
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


def _run_python(script, *flags, work=None, **env):
    """Run ``script`` under ``python *flags -c``.

    ``work`` becomes the script's sys.argv[1], and ``env`` adds environment variables.
    """
    src = str(Path(gt.__file__).resolve().parents[1])
    argv = [] if work is None else [str(work)]
    return subprocess.run(
        [sys.executable, *flags, "-c", script, *argv],
        env=dict(os.environ, PYTHONPATH=src, **env), capture_output=True, text=True, timeout=60,
    )


@pytest.mark.parametrize(
    "script",
    ["import sys, globtop", "import sys, globtop.cli", _CLOSED_FORM_RUNS],
    ids=["package", "cli", "closed-form-commands"],
)
def test_closed_form_paths_leave_numpy_and_scipy_out(script, tmp_path):
    # Nor dataclasses and inspect: the value classes are Records.
    proc = _run_python(
        f"{script}\n{_print_loaded('numpy', 'scipy', 'dataclasses', 'inspect')}", work=tmp_path
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_commands_that_write_no_quoted_csv_leave_csv_out(tmp_path):
    # errors.csv_text imports csv when it is called; the profile CSV of
    # deflect --out is numeric and joined without it.
    proc = _run_python(
        "import contextlib, io, pathlib, sys\nfrom globtop import cli\n"
        "out = str(pathlib.Path(sys.argv[1]) / 'profile.csv')\n"
        "runs = [['geometry'], ['optimize'], ['deflect', '--material', 'Polyimide', '--thickness-um', '150',"
        " '--pressure-atm', '80', '--out', out]]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert [cli.main(argv) for argv in runs] == [0, 0, 0]\n"
        "assert pathlib.Path(out).is_file()\n"
        "print('csv' in sys.modules)",
        work=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_deflect_loads_neither_plan_nor_screening_nor_importlib_resources():
    # Nor typing, which the value modules import only for type checkers.  -S
    # keeps site's .pth files from importing importlib.resources and typing first.
    proc = _run_python(
        "import contextlib, io, sys\nfrom globtop import cli\n"
        "argv = ['deflect', '--material', 'Polyimide', '--thickness-um', '150', '--pressure-atm', '80']\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(argv) == 0\n"
        "print(sorted(m for m in ('globtop.doe', 'globtop.screening', 'importlib.resources',"
        " 'typing') if m in sys.modules))",
        "-S",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


_FEM_ARGV = """
import json, pathlib, sys
d = pathlib.Path(sys.argv[1])
(d / "study.json").write_text(
    json.dumps({"sources": ["analytical", "fem"], "fem": {"n_elements": 16}, "profile_points": 5})
)
fem = ["fem", "--material", "Polyimide", "--thickness-um", "150", "--pressure-atm", "80"]
study = ["study", "--config", str(d / "study.json"), "--out", str(d / "out")]
"""


def _loaded_after(runs, work):
    """numpy, scipy and dataclasses modules loaded once ``cli.main`` has run each argv in ``runs``."""
    proc = _run_python(
        f"{_FEM_ARGV}\nimport contextlib, io\nfrom globtop import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [cli.main(argv) for argv in {runs}]\n"
        f"assert set(codes) == {{0}}, codes\n{_print_loaded('numpy', 'scipy', 'dataclasses')}",
        work=work,
    )
    assert proc.returncode == 0, proc.stderr
    return set(ast.literal_eval(proc.stdout))


def test_fem_loads_lapack_without_the_scipy_linalg_package(tmp_path):
    # fem takes dpbtrf and dpbtrs from the LAPACK numpy already links, so
    # it loads no scipy module at all, let alone the scipy.linalg package.
    loaded = _loaded_after("[fem, fem + ['--converge']]", tmp_path)
    assert "numpy" in loaded
    assert "dataclasses" not in loaded  # fem's value classes are Records
    assert not {m for m in loaded if m.split(".")[0] == "scipy"}
    assert "numpy.f2py" not in loaded


def test_fem_study_loads_neither_scipy_optimize_nor_scipy_linalg(tmp_path):
    # The study's thickness root find is screening's own Newton method.
    loaded = _loaded_after("[study]", tmp_path)
    assert "numpy" in loaded
    assert not {m for m in loaded if m.split(".")[0] == "scipy"}
    assert "numpy.f2py" not in loaded


# Runs the fem commands and the FEM study, and prints their stdout and the
# study's files, the output directory left out of the stdout.
_FEM_OUTPUTS = """
import contextlib, hashlib, io, json
import globtop.fem
from globtop import cli
buf = io.StringIO()
with contextlib.redirect_stdout(buf):
    codes = [cli.main(argv) for argv in (fem, fem + ["--converge"], fem + ["--bc", "pinned"], study)]
assert set(codes) == {0}, codes
files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in (d / "out").iterdir()}
print(json.dumps({
    "lapack": type(globtop.fem._PBTRF).__name__,
    "stdout": buf.getvalue().replace(str(d), "DIR"),
    "files": files,
}))
"""


def _fem_outputs(work, prelude=""):
    work.mkdir()
    proc = _run_python(f"{_FEM_ARGV}\n{prelude}\n{_FEM_OUTPUTS}", work=work)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_fem_output_does_not_depend_on_the_lapack_source(tmp_path):
    # numpy's LAPACK, bound as Python functions, by default and with scipy
    # hidden; with numpy's symbols hidden, scipy's f2py extension.  All three print the same bytes
    # and write the same files, each run into its own empty directory.
    default = _fem_outputs(tmp_path / "default")
    without_scipy = _fem_outputs(tmp_path / "no_scipy", "sys.modules['scipy'] = None")
    fallback = _fem_outputs(tmp_path / "fallback", HIDE_NUMPY_LAPACK)
    assert default["lapack"] == without_scipy["lapack"] == "function"
    assert fallback["lapack"] == "fortran"
    assert len(default["files"]) == 21
    assert "apex deflection" in default["stdout"]
    assert "extrapolated apex" in default["stdout"]
    assert without_scipy == default
    assert dict(fallback, lapack="function") == default


@pytest.mark.parametrize(
    "script", [_CLOSED_FORM_RUNS, f"{_FEM_ARGV}\n{_FEM_OUTPUTS}"], ids=["closed-form", "fem"]
)
def test_the_scripts_leave_the_temp_directory_as_they_found_it(script, tmp_path):
    temp = tmp_path / "temp"
    temp.mkdir()
    proc = _run_python(script, work=tmp_path, TMPDIR=str(temp))
    assert proc.returncode == 0, proc.stderr
    assert list(temp.iterdir()) == []


@pytest.mark.parametrize("command", ["fem", "study"])
def test_without_either_lapack_fem_is_an_error_line(command, tmp_path):
    proc = _run_python(
        f"{_FEM_ARGV}\n{HIDE_NUMPY_LAPACK}\nsys.modules['scipy'] = None\n"
        f"from globtop import cli\nraise SystemExit(cli.main({command}))",
        work=tmp_path,
    )
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")
    assert len(proc.stderr.splitlines()) == 1
    assert "numpy's LAPACK does not export" in proc.stderr
    assert "scipy" in proc.stderr


@pytest.mark.parametrize(
    "argv, out",
    [
        (["deflect", "--material", "Polyimide", "--thickness-um", "150",
          "--pressure-atm", "80", "--profile-points", "5"], "missing/x.csv"),
        (["fem", "--material", "Polyimide", "--thickness-um", "150",
          "--pressure-atm", "80", "--n-elements", "8"], "missing/x.csv"),
        (["plan"], "missing/x.csv"),
        (["study", "--config", "CONFIG"], "a_file/x"),
        # The directory exists, but the write stage cannot write report.json.
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


@pytest.mark.parametrize("command", ["study", "plan", "optimize"])
def test_a_material_name_utf8_cannot_encode_is_an_input_error(capsys, tmp_path, command):
    # The JSON escape \ud800 reads as a lone surrogate, which UTF-8 cannot encode.
    library = tmp_path / "lib.json"
    names = ["Poly\ud800", "b", "c"]
    library.write_text(json.dumps({"materials": [
        {"name": name, "youngs_modulus_gpa": e, "poisson_ratio": 0.3}
        for name, e in zip(names, (1.0, 2.0, 3.0))
    ]}), encoding="utf-8")
    config = tmp_path / "study.json"
    config.write_text(json.dumps({"materials": "lib.json", "profile_points": 5}), encoding="utf-8")
    out = tmp_path / "out"
    argv = {
        "study": ["study", "--config", str(config), "--out", str(out)],
        "plan": ["plan", "--materials", str(library), "--out", str(out)],
        "optimize": ["optimize", "--materials", str(library)],
    }[command]
    code, stdout, err = run_cli(capsys, *argv)
    assert code == 1
    assert stdout == ""
    assert err.startswith("error: ")
    assert len(err.splitlines()) == 1
    assert "cannot be encoded as UTF-8" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["lib.json", "study.json"]


@pytest.mark.parametrize("command", ["study", "anova"])
def test_an_input_file_that_is_not_utf8_is_an_input_error(capsys, tmp_path, command):
    bad = tmp_path / "bad"
    bad.write_bytes(b'{"profile_points": 5}\xff\n')
    argv = {
        "study": ["study", "--config", str(bad), "--out", str(tmp_path / "out")],
        "anova": ["anova", "--responses", str(bad)],
    }[command]
    code, stdout, err = run_cli(capsys, *argv)
    assert code == 1
    assert stdout == ""
    assert err.startswith("error: cannot read ")
    assert len(err.splitlines()) == 1
    assert "can't decode byte 0xff" in err
    assert [p.name for p in tmp_path.iterdir()] == ["bad"]


_FEM_CASE = ["fem", "--material", "Polyimide", "--thickness-um", "150", "--pressure-atm", "80"]


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

    @pytest.mark.parametrize(
        "argv, message",
        [
            ([*_FEM_CASE, "--angle-deg", "20"], "--radius-um and --angle-deg must be given together"),
            ([*_FEM_CASE, "--h-um", "250", "--angle-deg", "20"], "give either --b-um/--h-um or"),
            # Not only the geometry flags: every rejected flag is named.
            (["deflect", *_FEM_CASE[1:], "--atm-pa", "0"], "--atm-pa must be positive, got 0.0"),
            (["deflect", *_FEM_CASE[1:], "--atm-pa", "-1"], "--atm-pa must be positive, got -1.0"),
            (["optimize", "--atm-pa", "0"], "--atm-pa must be positive, got 0.0"),
            ([*_FEM_CASE, "--atm-pa", "0"], "--atm-pa must be positive, got 0.0"),
            ([*_FEM_CASE, "--atm-pa", "nan"], "--atm-pa must be a finite number"),
            ([*_FEM_CASE, "--bc", "taped"], "--bc must be one of clamped, pinned, got 'taped'"),
            (["plan", "--thickness-levels-um", "-10", "0", "10"], "--thickness-levels-um must be"),
            (["plan", "--pressure-levels-atm", "-1", "0", "1"], "--pressure-levels-atm must be"),
            # The criteria flags, bounded by the config's criteria rows.
            (["optimize", "--limit-um", "-1"], "--limit-um must be positive, got -1.0"),
            (["optimize", "--limit-um", "nan"], "--limit-um must be positive, got nan"),
            (["optimize", "--max-pressure-atm", "0"], "--max-pressure-atm must be positive, got 0.0"),
            (["optimize", "--max-thickness-um", "-1"], "--max-thickness-um must be positive, got -1.0"),
            ([*_FEM_CASE, "--n-elements", "0"], "--n-elements must be an integer of at least 4, got 0"),
            (["deflect", *_FEM_CASE[1:], "--profile-points", "1", "--out", "p.csv"],
             "--profile-points must be an integer of at least 2, got 1"),
            (["deflect", *_FEM_CASE[1:], "--profile-points", "-3", "--out", "p.csv"],
             "--profile-points must be an integer of at least 2, got -3"),
            # A ladder ends at --n-elements, from an eighth of it.
            ([*_FEM_CASE, "--n-elements", "16", "--converge"],
             "--n-elements must be a multiple of 8 and at least 32 with --converge, got 16"),
            ([*_FEM_CASE, "--n-elements", "2", "--converge"],
             "--n-elements must be an integer of at least 4, got 2"),
            ([*_FEM_CASE, "--n-elements", "300", "--converge"],
             "--n-elements must be a multiple of 8 and at least 32 with --converge, got 300"),
            (["deflect", *_FEM_CASE[1:], "--pressure-atm", "-1"],
             "--pressure-atm must be non-negative, got -1.0"),
            (["deflect", *_FEM_CASE[1:], "--thickness-um", "0"], "--thickness-um must be positive, got 0.0"),
            ([*_FEM_CASE, "--pressure-atm", "-1"], "--pressure-atm must be non-negative, got -1.0"),
            ([*_FEM_CASE, "--thickness-um", "0"], "--thickness-um must be positive, got 0.0"),
            # The geometry flags, bounded by the cap's rows.
            (["geometry", "--b-um", "-1", "--h-um", "1"], "--b-um must be positive, got -1.0"),
            (["geometry", "--b-um", "1200", "--h-um", "0"], "--h-um must be positive, got 0.0"),
            (["geometry", "--radius-um", "inf", "--angle-deg", "20"], "--radius-um must be a finite number"),
            ([*_FEM_CASE, "--radius-um", "3010", "--angle-deg", "-5"], "--angle-deg must be positive, got -5.0"),
            (["deflect", *_FEM_CASE[1:], "--b-um", "nan", "--h-um", "250"], "--b-um must be a finite number"),
            # The cross-key checks of each form.
            (["geometry", "--b-um", "1", "--h-um", "5"], "--h-um=5.0 exceeds --b-um=1.0"),
            (["geometry", "--radius-um", "100", "--angle-deg", "95"], "--angle-deg must lie in (0, 90], got 95.0"),
            # A ladder writes no nodal CSV.
            ([*_FEM_CASE, "--converge", "--out", "conv.csv"],
             "--out writes one solve's nodal CSV; --converge writes none"),
        ],
    )
    def test_form_errors_name_the_flags(self, capsys, tmp_path, monkeypatch, argv, message):
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert message in err
        assert list(tmp_path.iterdir()) == []

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

    def test_out_alone_writes_the_default_profile(self, capsys, tmp_path):
        out_file = tmp_path / "profile.csv"
        code, out, _ = run_cli(capsys, "deflect", *_FEM_CASE[1:], "--out", str(out_file))
        assert code == 0
        assert "apex deflection 26.8554 um" in out
        lines = out_file.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "phi_deg,v_um,w_um"
        assert len(lines) == 1 + 101

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

    def test_more_profile_points_than_the_bound(self, capsys, tmp_path):
        out_file = tmp_path / "profile.csv"
        code, _, err = run_cli(
            capsys,
            "deflect",
            "--material", "Parylene C",
            "--thickness-um", "200",
            "--pressure-atm", "100",
            "--profile-points", "10002",
            "--out", str(out_file),
        )
        assert code == 1
        assert err == "error: --profile-points must be an integer of at most 10001, got 10002\n"
        assert not out_file.exists()

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

    @pytest.mark.parametrize("radius", ["1e103", "1e104"])
    def test_a_radius_whose_load_overflows(self, capsys, radius):
        # The unit parts are finite here; the scaled load P f_1 is not.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(
                capsys,
                "fem",
                "--material", "Carbon epoxy resin",
                "--thickness-um", "1",
                "--pressure-atm", "100",
                "--radius-um", radius,
                "--angle-deg", "30",
            )
        assert code == 1
        assert out == ""
        assert err.splitlines() == [
            f"error: load overflows at pressure 1.01325e+07 Pa and radius {float(radius):g} um:"
            " the inputs are out of range"
        ]

    @pytest.mark.parametrize("extra", [(), ("--converge",)], ids=["solve", "converge"])
    def test_more_elements_than_the_ceiling(self, capsys, monkeypatch, extra):
        # Rejected before a mesh is built.
        monkeypatch.setattr("globtop.fem.mesh_cap", None)
        code, out, err = run_cli(
            capsys,
            "fem",
            "--material", "Carbon epoxy resin",
            "--thickness-um", "150",
            "--pressure-atm", "100",
            "--n-elements", "2048",
            *extra,
        )
        assert code == 1
        assert out == ""
        assert err.splitlines() == ["error: --n-elements must be an integer of at most 512, got 2048"]

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
