"""Spans around calls into globtop's modules, for the traced run.

The tracer replaces module attributes at the places where globtop looks
them up (``report.solve_case``, ``screening.brentq``, ``fem.cholesky_banded``
and so on) with wrappers that record a span: name, start, end and parent.
Spans are only recorded inside an operation, so the benchmark's own checks,
which call the same functions, add nothing.  Each operation's spans are
folded into per-name totals when it ends; the spans of the first few
operations are kept in memory as a sample and written out when the run ends.

An attribute that the code no longer has is reported as absent, not as an
error, so the tracer keeps working as the modules change.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path

# (module, attribute, span name).  The same function is wrapped at every
# module that imported it by name, under one span name.
HOOKS = (
    ("report", "parse_config", "report.parse_config"),
    ("report", "run_study", "report.run_study"),
    ("report", "default_plan", "doe.default_plan"),
    ("report", "realize_responses", "doe.realize_responses"),
    ("report", "fit_screening_model", "stats.fit"),
    ("report", "anova_table", "stats.anova"),
    ("report", "effect_tests", "stats.effects"),
    ("report", "thickness_profile", "screening.thickness_profile"),
    ("report", "apex_deflection", "shell_model.apex_deflection"),
    ("report", "solve_case", "fem.solve_case"),
    ("report", "mesh_cap", "fem.mesh_cap"),
    ("svgplot", "line_plot", "svgplot.line_plot"),
    ("screening", "apex_deflection", "shell_model.apex_deflection"),
    ("screening", "solve_case", "fem.solve_case"),
    ("screening", "mesh_cap", "fem.mesh_cap"),
    ("fem", "solve_case", "fem.solve_case"),
    ("fem", "mesh_cap", "fem.mesh_cap"),
    ("fem", "converge", "fem.converge"),
    ("fem", "assemble_system", "fem.assemble_system"),
    ("fem", "cholesky_banded", "fem.factor"),
    ("fem", "cho_solve_banded", "fem.back_solve"),
)

# Per-layer metrics: name -> (kind, span name).  "ms" is the total span time
# per operation, "self_ms" the span time less its child spans, "calls" the
# number of spans per operation.
LAYER_METRICS = {
    "report.parse_config_ms": ("ms", "report.parse_config"),
    "report.run_study_ms": ("ms", "report.run_study"),
    "report.self_ms": ("self_ms", "report.run_study"),
    "svgplot.line_plot_ms": ("ms", "svgplot.line_plot"),
    "stats.fit_ms": ("ms", "stats.fit"),
    "stats.anova_ms": ("ms", "stats.anova"),
    "stats.effects_ms": ("ms", "stats.effects"),
    "doe.default_plan_ms": ("ms", "doe.default_plan"),
    "doe.realize_responses_ms": ("self_ms", "doe.realize_responses"),
    "shell_model.apex_deflection_calls": ("calls", "shell_model.apex_deflection"),
    "shell_model.apex_deflection_ms": ("ms", "shell_model.apex_deflection"),
    "screening.screen_analytical_ms": ("ms", "screening.screen_analytical"),
    "screening.screen_external_ms": ("ms", "screening.screen_external"),
    "screening.thickness_profile_ms": ("ms", "screening.thickness_profile"),
    "screening.screen_fem_ms": ("ms", "screening.screen_fem"),
    "screening.fem_solves": ("calls", "screening.fem_solve"),
    "screening.root_evals": ("calls", "screening.root_eval"),
    "fem.solve_case_calls": ("calls", "fem.solve_case"),
    "fem.mesh_cap_calls": ("calls", "fem.mesh_cap"),
    "fem.solve_case_ms": ("ms", "fem.solve_case"),
    "fem.solve_case_self_ms": ("self_ms", "fem.solve_case"),
    "fem.assemble_system_ms": ("ms", "fem.assemble_system"),
    "fem.factor_ms": ("ms", "fem.factor"),
    "fem.back_solve_ms": ("ms", "fem.back_solve"),
    "fem.mesh_cap_ms": ("ms", "fem.mesh_cap"),
    "fem.converge_ms": ("ms", "fem.converge"),
}


class Tracer:
    def __init__(self, keep_ops: int = 16) -> None:
        self.active = False
        self.ops = 0
        self.absent: list[str] = []
        self.sample: list[list] = []
        self.keep_ops = keep_ops
        self._spans: list[list] = []  # [name, start, end, parent]
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)

    # -- spans --------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self._spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(len(self._spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self._spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str, fn, *args, **kwargs):
        if not self.active:
            return fn(*args, **kwargs)
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def begin_op(self) -> None:
        self._spans, self._stack = [], []
        self.active = True

    def end_op(self) -> None:
        self.active = False
        spans = self._spans
        child_s = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_s[parent] += end - start
        for i, (name, start, end, _) in enumerate(spans):
            self.total_s[name] += end - start
            self.self_s[name] += end - start - child_s[i]
            self.calls[name] += 1
        if self.ops < self.keep_ops:
            self.sample.append([[n, round(s, 9), round(e, 9), p] for n, s, e, p in spans])
        self.ops += 1

    def count(self, name: str, value: float) -> None:
        self.counters[name] += value

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, module, attr: str, wrapper_for) -> bool:
        orig = getattr(module, attr, None)
        if orig is None:
            self.absent.append(f"{module.__name__}.{attr}")
            return False
        setattr(module, attr, wrapper_for(orig))
        self._undo.append((module, attr, orig))
        return True

    def install(self, modules: dict) -> None:
        """Wrap every hook in ``modules`` (short name -> module object)."""
        for mod_name, attr, span_name in HOOKS:
            module = modules.get(mod_name)
            if module is None:
                self.absent.append(f"{mod_name}.{attr}")
                continue
            self._wrap(module, attr, lambda orig, n=span_name: self._plain(n, orig))
        report, screening = modules.get("report"), modules.get("screening")
        if report is not None:
            self._wrap(report, "screen", self._screen)
        if screening is not None:
            self._wrap(screening, "brentq", self._root_find)
            # FEM solves made while screening, counted apart from the study's.
            self._wrap(screening, "solve_case", lambda orig: self._plain("screening.fem_solve", orig))

    def uninstall(self) -> None:
        for module, attr, orig in reversed(self._undo):
            setattr(module, attr, orig)
        self._undo.clear()

    def _plain(self, name: str, orig):
        def wrapper(*args, **kwargs):
            return self.span(name, orig, *args, **kwargs)

        return wrapper

    def _screen(self, orig):
        def wrapper(*args, **kwargs):
            source = kwargs.get("source", args[3] if len(args) > 3 else "analytical")
            return self.span(f"screening.screen_{source}", orig, *args, **kwargs)

        return wrapper

    def _root_find(self, orig):
        def wrapper(f, *args, **kwargs):
            def counted(x, *fargs):
                return self.span("screening.root_eval", f, x, *fargs)

            return orig(counted, *args, **kwargs)

        return wrapper

    # -- results ------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        ops = max(self.ops, 1)
        out = {}
        for metric, (kind, span) in LAYER_METRICS.items():
            if kind == "ms":
                out[metric] = 1e3 * self.total_s.get(span, 0.0) / ops
            elif kind == "self_ms":
                out[metric] = 1e3 * self.self_s.get(span, 0.0) / ops
            else:
                out[metric] = self.calls.get(span, 0) / ops
        for name, value in self.counters.items():
            out[name] = value / ops
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {"absent": self.absent, "ops": self.ops, "span_fields": ["name", "start_s", "end_s", "parent"], "ops_sample": self.sample}
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
