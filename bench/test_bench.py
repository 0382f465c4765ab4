"""Fast tests of the benchmark itself.

    python3 -m pytest -q bench

Each workload runs for a fraction of a second with every check on; the
traced run's counts must repeat exactly whatever the run length; the checks
must reject tampered artifacts; and the benchmark must refuse to run where
the globtop sources are missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
COUNTS = [m["name"] for m in BENCH["per_layer"] if m["unit"] == "count"]


def run(workload: str, seed: int = 1, trace: int = 0, seconds: float = 0.2, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=300, cwd=cwd,
    )


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


# study_analytical is runnable but not in BENCHMARK.json; its checks still run here.
@pytest.mark.parametrize("workload", sorted({w["name"] for w in BENCH["workloads"]} | {"study_analytical"}))
def test_short_run_passes_every_check(workload):
    res = result(run(workload))
    assert res["correct"] is True
    assert res["failed"] == 0
    assert res["attempted"] >= 2
    assert set(res["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}
    assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("workload", ["study_fem", "fem_ladder", "study_analytical"])
def test_traced_counts_repeat_exactly(workload):
    short = result(run(workload, seed=0, trace=1, seconds=0.1))
    longer = result(run(workload, seed=0, trace=1, seconds=4.0))
    assert set(short["metrics"]) == {m["name"] for m in BENCH["per_layer"]}
    assert longer["attempted"] > short["attempted"]
    assert {k: short["metrics"][k]["value"] for k in COUNTS} == {k: longer["metrics"][k]["value"] for k in COUNTS}


def traced_op(wl, i: int) -> dict:
    wl.setup()
    tracer = Tracer()
    tracer.install(wl.modules())
    try:
        tracer.begin_op()
        wl.op(i, wl.inputs[i], wl.work / "study")
        tracer.end_op()
    finally:
        tracer.uninstall()
    assert tracer.absent == []
    return tracer.layer_metrics()


def test_reference_fem_study_counts(tmp_path):
    m = traced_op(workloads.StudyFem(0, tmp_path), 0)
    assert m["fem.solve_case_calls"] == 65
    assert m["screening.fem_solves"] == 56
    assert m["screening.root_evals"] == 47


def test_reference_ladder_counts(tmp_path):
    m = traced_op(workloads.FemLadder(0, tmp_path), 0)
    assert m["fem.solve_case_calls"] == 4
    assert m["fem.mesh_cap_calls"] == 4


def test_missing_hooks_are_absent_not_errors():
    tracer = Tracer()
    tracer.install({"fem": types.ModuleType("fem")})
    assert "fem.solve_case" in tracer.absent
    assert "report.run_study" in tracer.absent
    assert tracer.layer_metrics()["fem.solve_case_calls"] == 0.0


def test_checks_reject_tampered_study(tmp_path):
    wl = workloads.StudyAnalytical(0, tmp_path)
    wl.setup()
    spec, out = wl.inputs[0], tmp_path / "study"
    wl.op(0, spec, out)
    assert checks.check_study(spec, out) == []

    def tamper(name, edit):
        path = out / name
        original = path.read_text(encoding="utf-8")
        doc = json.loads(original)
        edit(doc)
        path.write_text(json.dumps(doc), encoding="utf-8")
        problems = checks.check_study(spec, out)
        path.write_text(original, encoding="utf-8")
        return problems

    def swap_ss(effects):
        effects[1]["ss"], effects[2]["ss"] = effects[2]["ss"], effects[1]["ss"]

    assert tamper("effects_analytical.json", swap_ss)
    assert tamper("anova_external.json", lambda d: d["rows"][1].update(ss=d["rows"][1]["ss"] * 1.001))
    assert tamper("report.json", lambda d: d["responses"]["analytical"][4].update(response_um=d["responses"]["analytical"][4]["response_um"] * (1 + 1e-9)))
    assert tamper("verdicts.json", lambda d: d["analytical"].reverse())
    assert checks.check_study(spec, out) == []


def test_raised_operation_counts_as_failed(tmp_path):
    import run

    class Raising:
        inputs, work = [0, 1], tmp_path

        def writes_study(self, i):
            return False

        def op(self, i, inp, out):
            if i:
                raise RuntimeError("planted")

        def check(self, i, inp, result, out):
            return []

    latencies, attempted, failed = run.measure(Raising(), 0.0, None)
    assert (attempted, failed, len(latencies)) == (2, 1, 1)


def test_fem_checks_are_absolute(tmp_path):
    wl = workloads.FemLadder(0, tmp_path)
    wl.setup()
    mesh = wl.gt.mesh_cap(wl.args[0][0], workloads.FEM_ELEMENTS)
    assert checks.check_fem_oracle(wl.gt, mesh) == []
    case = wl.inputs[0]
    assert checks.check_closed_form_band("fem", 4.3129, case["geometry"], case["material"], 150.0, 100.0, "clamped") == []
    for scale in (0.4, 2.0):  # the reference apex is 1.27 x the closed form
        wrong_e = dict(case["material"], e_gpa=case["material"]["e_gpa"] * scale)
        assert checks.check_closed_form_band("fem", 4.3129, case["geometry"], wrong_e, 150.0, 100.0, "clamped")


def test_ladder_check_rejects_roundoff_ladder():
    # An apex sequence whose last step grows, as roundoff makes it past 1024 elements.
    apex = (4.31, 4.3127, 4.31292, 4.31295)
    assert checks.check_ladder((32, 64, 128, 256), apex, (), False, apex[-1])


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("study_analytical", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
