"""The four workloads: their inputs, drawn from a seed, their operation, and
the checks of each operation's output.

A workload's inputs form one round.  A run repeats whole rounds, so every
run performs the same operations in the same proportions whatever its
length, and each operation does close to the same amount of work.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import checks

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# The paper's materials, as bundled with globtop, softest first.
PAPER_MATERIALS = (
    {"name": "Polyimide", "e_gpa": 7.5, "nu": 0.35},
    {"name": "Parylene C", "e_gpa": 27.59, "nu": 0.4},
    {"name": "Carbon epoxy resin", "e_gpa": 70.0, "nu": 0.4},
)
# The paper's simulated apex deflections (um) for the 9 runs of its plan.
PAPER_EXTERNAL_UM = (12.59, 4.95, 18.94, 2.60, 33.18, 2.93, 1.70, 5.39, 1.16)
PAPER_CRITERIA = {"deflection_limit_um": 5.0, "max_pressure_atm": 100.0, "max_thickness_um": 250.0, "marginal_band": 0.05}
FEM_ELEMENTS = 256


def _geometry_from_chord(b: float, h: float) -> dict:
    a, alpha = checks.cap_from_chord(b, h)
    return {"block": {"base_half_width_um": b, "rise_um": h}, "a": a, "alpha": alpha, "b": b}


def reference_geometry() -> dict:
    a, alpha = 3010.0, math.radians(23.5)
    return {"block": {"radius_um": 3010.0, "base_angle_deg": 23.5}, "a": a, "alpha": alpha, "b": a * math.sin(alpha)}


def reference_spec(sources, external: bool) -> dict:
    """The paper's study: bundled materials, default cap, levels and criteria."""
    return {
        "reference": True,
        "geometry": reference_geometry(),
        "materials": [dict(m) for m in PAPER_MATERIALS],
        "t_levels": [150.0, 200.0, 250.0],
        "p_levels": [80.0, 90.0, 100.0],
        "criteria": dict(PAPER_CRITERIA),
        "sources": list(sources),
        "external": list(PAPER_EXTERNAL_UM) if external else None,
        "fem_elements": FEM_ELEMENTS,
        "fem_bc": "clamped",
    }


def _u(rng: random.Random, lo: float, hi: float, digits: int = 1) -> float:
    return round(rng.uniform(lo, hi), digits)


def draw_materials(rng: random.Random) -> list[dict]:
    """Three materials near the paper's; the two stiffer ones share nu."""
    nu = _u(rng, 0.36, 0.44, 3)
    return [
        {"name": "Polyimide", "e_gpa": _u(rng, 6.0, 9.0, 2), "nu": _u(rng, 0.32, 0.38, 3)},
        {"name": "Parylene C", "e_gpa": _u(rng, 22.0, 33.0, 2), "nu": nu},
        {"name": "Carbon epoxy resin", "e_gpa": _u(rng, 56.0, 84.0, 2), "nu": nu},
    ]


def draw_spec(rng: random.Random, sources, external: bool) -> dict:
    """A study near the paper's, inside the thin-shell range (t/a < 0.1)."""
    t0, ts = _u(rng, 130.0, 160.0), _u(rng, 40.0, 50.0)
    p0, ps = _u(rng, 70.0, 85.0), _u(rng, 5.0, 10.0)
    t_levels = [t0, round(t0 + ts, 1), round(t0 + 2 * ts, 1)]
    p_levels = [p0, round(p0 + ps, 1), round(p0 + 2 * ps, 1)]
    spec = {
        "reference": False,
        "geometry": _geometry_from_chord(_u(rng, 1150.0, 1400.0), _u(rng, 200.0, 260.0)),
        "materials": draw_materials(rng),
        "t_levels": t_levels,
        "p_levels": p_levels,
        "criteria": {
            "deflection_limit_um": _u(rng, 4.0, 6.0, 2),
            "max_pressure_atm": p_levels[2],
            "max_thickness_um": _u(rng, 220.0, 260.0),
            "marginal_band": 0.05,
        },
        "sources": list(sources),
        "external": [round(v * rng.uniform(0.8, 1.25), 2) for v in PAPER_EXTERNAL_UM] if external else None,
        "fem_elements": FEM_ELEMENTS,
        "fem_bc": rng.choice(("clamped", "pinned")),
    }
    return spec


def config_doc(spec: dict) -> dict:
    """The study config a user would write for ``spec``."""
    doc = {"sources": spec["sources"]}
    if spec["external"] is not None:
        doc["external"] = {"simulated_um": spec["external"]}
    if spec["reference"]:
        return doc
    crit = spec["criteria"]
    doc.update(
        geometry=spec["geometry"]["block"],
        materials={
            "materials": [
                {"name": m["name"], "youngs_modulus_gpa": m["e_gpa"], "poisson_ratio": m["nu"]}
                for m in spec["materials"]
            ]
        },
        thickness_levels_um=spec["t_levels"],
        pressure_levels_atm=spec["p_levels"],
        criteria={
            **crit,
            "thickness_range_um": [spec["t_levels"][0], spec["t_levels"][2]],
            "pressure_range_atm": [spec["p_levels"][0], spec["p_levels"][2]],
        },
        fem={"n_elements": spec["fem_elements"], "bc": spec["fem_bc"]},
    )
    return doc


class Workload:
    """One round of inputs, the timed operation, and its checks."""

    in_process = True

    def __init__(self, seed: int, work: Path) -> None:
        self.work = work
        self.inputs = self.make_inputs(random.Random(seed))

    def make_inputs(self, rng: random.Random) -> list:
        raise NotImplementedError

    def setup(self) -> None:
        """Import globtop; untimed, and part of set-up time."""
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        import globtop

        if Path(globtop.__file__).resolve().parent != SRC / "globtop":
            raise RuntimeError(f"imported globtop from {globtop.__file__}, not from {SRC}")
        self.gt = globtop

    def modules(self) -> dict:
        import globtop.fem
        import globtop.report
        import globtop.screening
        import globtop.svgplot

        return {"report": globtop.report, "screening": globtop.screening, "fem": globtop.fem, "svgplot": globtop.svgplot}

    def writes_study(self, i: int) -> bool:
        """Whether operation ``i`` writes a study directory, given as ``out``."""
        return False

    def op(self, i: int, inp, out: Path | None):
        raise NotImplementedError

    def check(self, i: int, inp, result, out: Path | None) -> list[str]:
        raise NotImplementedError


class StudyWorkload(Workload):
    """parse_config + run_study on the reference study and drawn ones."""

    n_inputs = 8
    sources: tuple[str, ...] = ()
    external = False

    def make_inputs(self, rng):
        drawn = [draw_spec(rng, self.sources, self.external) for _ in range(self.n_inputs - 1)]
        return [reference_spec(self.sources, self.external)] + drawn

    def setup(self):
        super().setup()
        from globtop import report

        self.report = report
        self.docs = [config_doc(spec) for spec in self.inputs]

    def writes_study(self, i):
        return True

    def op(self, i, spec, out):
        config = self.report.parse_config(self.docs[i])
        self.report.run_study(config, out)

    def check(self, i, spec, result, out):
        return checks.check_study(spec, out)


class StudyAnalytical(StudyWorkload):
    sources = ("analytical", "external")
    external = True


class StudyFem(StudyWorkload):
    n_inputs = 4
    sources = ("analytical", "fem")

    def check(self, i, spec, result, out):
        return checks.check_study(spec, out) + checks.check_fem_study(self.gt, spec, out)


class FemLadder(Workload):
    """converge() on the default 32-64-128-256 ladder."""

    n_inputs = 8

    def make_inputs(self, rng):
        ref = {"geometry": reference_geometry(), "material": dict(PAPER_MATERIALS[2]), "t": 150.0, "p_atm": 100.0, "bc": "clamped"}
        drawn = [
            {
                "geometry": _geometry_from_chord(_u(rng, 1150.0, 1400.0), _u(rng, 200.0, 300.0)),
                "material": rng.choice(draw_materials(rng)),
                "t": _u(rng, 130.0, 250.0),
                "p_atm": _u(rng, 70.0, 100.0),
                "bc": rng.choice(("clamped", "pinned")),
            }
            for _ in range(self.n_inputs - 1)
        ]
        return [ref] + drawn

    def setup(self):
        super().setup()
        from globtop import fem

        gt = self.gt
        self.fem = fem
        self.args = [
            (
                gt.cap_from_config(c["geometry"]["block"]),
                c["t"],
                gt.Material(c["material"]["name"], c["material"]["e_gpa"], c["material"]["nu"]),
                c["p_atm"] * checks.ATM_PA,
                c["bc"],
            )
            for c in self.inputs
        ]

    def op(self, i, case, out):
        return self.fem.converge(*self.args[i])

    def check(self, i, case, rep, out):
        problems = checks.check_ladder(rep.levels, rep.apex_um, rep.observed_orders, rep.contraction, rep.extrapolated_um)
        geometry, t, _, _, bc = self.args[i]
        mesh = self.gt.mesh_cap(geometry, FEM_ELEMENTS)
        problems += checks.check_fem_case(self.gt, case["geometry"], mesh, case["material"], t, case["p_atm"], bc, i == 0)
        finest = self.gt.solve_case(mesh, *self.args[i][1:]).apex_deflection_um
        if finest != rep.apex_um[-1]:
            problems.append(f"ladder finest apex {rep.apex_um[-1]!r}, a 256-element solve gives {finest!r}")
        if i == 0:
            problems += checks.check_fem_oracle(self.gt, mesh)
        return problems


# -- the cold command line -----------------------------------------------------

_NUM = r"([-+0-9.eE]+)"


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class CliCold(Workload):
    """A fresh ``python -m globtop.cli`` process per operation."""

    in_process = False
    traced_entry: list[str] | None = None  # set by the traced run

    def make_inputs(self, rng):
        geom = _geometry_from_chord(_u(rng, 1150.0, 1400.0), _u(rng, 200.0, 260.0))
        mats = draw_materials(rng)
        self.geom, self.mats = geom, mats
        self.t, self.p_atm = _u(rng, 130.0, 250.0), _u(rng, 70.0, 100.0)
        self.limit, self.cap = _u(rng, 4.0, 6.0, 2), _u(rng, 220.0, 260.0)
        self.fem_mat, self.bc = rng.choice(mats), rng.choice(("clamped", "pinned"))
        self.study = draw_spec(rng, ("analytical",), external=False)
        self.study.update(geometry=geom, materials=mats)
        return ["deflect", "optimize", "plan", "fem", "study"]

    def setup(self):
        self.work.mkdir(parents=True, exist_ok=True)
        self.lib_path = self.work / "materials.json"
        self.lib_path.write_text(json.dumps(config_doc(self.study)["materials"]), encoding="utf-8")
        self.config_path = self.work / "study.json"
        self.config_path.write_text(json.dumps(config_doc(self.study)), encoding="utf-8")
        self.env = cli_env()
        b, h = self.geom["block"]["base_half_width_um"], self.geom["block"]["rise_um"]
        cap = ["--materials", str(self.lib_path), "--b-um", repr(b), "--h-um", repr(h)]
        t, p = repr(self.t), repr(self.p_atm)
        self.argv = {
            "deflect": ["deflect", *cap, "--material", self.fem_mat["name"], "--thickness-um", t, "--pressure-atm", p, "--format", "json"],
            "optimize": ["optimize", *cap, "--limit-um", repr(self.limit), "--max-pressure-atm", p, "--max-thickness-um", repr(self.cap), "--format", "json"],
            "plan": ["plan", "--materials", str(self.lib_path),
                     "--thickness-levels-um", *map(repr, self.study["t_levels"]),
                     "--pressure-levels-atm", *map(repr, self.study["p_levels"])],
            "fem": ["fem", *cap, "--material", self.fem_mat["name"], "--thickness-um", t, "--pressure-atm", p, "--bc", self.bc],
            "study": ["study", "--config", str(self.config_path), "--out"],
        }

    def writes_study(self, i):
        return self.inputs[i] == "study"

    def op(self, i, command, out):
        entry = self.traced_entry or ["-m", "globtop.cli"]
        argv = self.argv[command] + ([str(out)] if out is not None else [])
        return subprocess.run(
            [sys.executable, *entry, *argv],
            env=self.env, cwd=self.work, capture_output=True, text=True, timeout=120,
        )

    def check(self, i, command, proc, out):
        if proc.returncode != 0:
            return [f"{command}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}"]
        text = proc.stdout
        if command == "deflect":
            got = json.loads(text)["apex_deflection_um"]
            want = checks.apex_um(self.geom, self.fem_mat, self.t, self.p_atm)
            return [] if checks.close(got, want, checks.CLOSED_FORM_RTOL) else [f"deflect: apex {got!r}, closed form {want!r}"]
        if command == "optimize":
            rows = json.loads(text)
            t_min = {m["name"]: checks.t_min_um(self.geom, m, self.p_atm, self.limit) for m in self.mats}
            problems = []
            if [r["material"] for r in rows] != sorted(t_min, key=t_min.get):
                problems.append(f"optimize: order {[r['material'] for r in rows]}")
            for r in rows:
                name, want = r["material"], t_min[r["material"]]
                if not checks.close(r["min_feasible_thickness_um"], want, checks.CLOSED_FORM_RTOL):
                    problems.append(f"optimize {name}: t_min {r['min_feasible_thickness_um']!r}, closed form {want!r}")
                if r["classification"] != checks.classify(want, self.cap, 0.05):
                    problems.append(f"optimize {name}: classified {r['classification']!r}")
            return problems
        if command == "plan":
            rows = list(csv.DictReader(io.StringIO(text)))
            plan = [
                {"run": r["run"], "material": r["material"], "thickness_um": float(r["thickness_um"]), "pressure_atm": float(r["pressure_atm"]),
                 "codes": (r["code_material"], r["code_thickness"], r["code_pressure"])}
                for r in rows
            ]
            return checks.check_plan(self.study, plan)
        if command == "fem":
            reaction = re.search(rf"rim reaction\s+= {_NUM} N \(applied {_NUM} N, residual {_NUM}\)", text)
            apex = re.search(rf"apex deflection\s+= {_NUM} um", text)
            if not (reaction and apex):
                return [f"fem: unparsed output {text!r}"]
            want = checks.rim_load_n(self.p_atm * checks.ATM_PA, self.geom["b"])
            problems = []
            for label, value in (("rim reaction", reaction.group(1)), ("applied load", reaction.group(2))):
                if not checks.close(float(value), want, 1e-5):
                    problems.append(f"fem: {label} {value} N, P*pi*b^2 = {want!r} N")
            return problems + checks.check_closed_form_band("fem", float(apex.group(1)), self.geom, self.fem_mat, self.t, self.p_atm, self.bc)
        problems = checks.check_study(self.study, out)
        if "best material" not in text:
            problems.append(f"study: output {text!r}")
        return problems


WORKLOADS = {
    "study_analytical": StudyAnalytical,
    "study_fem": StudyFem,
    "fem_ladder": FemLadder,
    "cli_cold": CliCold,
}
