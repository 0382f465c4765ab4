import importlib.util
from pathlib import Path

import pytest

import globtop as gt


def test_every_public_name_is_its_module_attribute():
    for name in gt.__all__:
        if name == "__version__":
            continue
        module = importlib.import_module(f"globtop.{gt._MODULE_OF[name]}")
        assert getattr(gt, name) is getattr(module, name), name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from globtop import *", namespace)
    assert set(gt.__all__) <= set(namespace)
    assert namespace["solve_case"] is gt.solve_case


def test_dir_lists_every_public_name():
    assert set(gt.__all__) <= set(dir(gt))


def test_unknown_attribute_names_itself():
    with pytest.raises(AttributeError, match="no attribute 'solve_cases'"):
        gt.solve_cases


def test_every_attribute_the_benchmark_tracer_wraps_exists():
    # bench/spans.py wraps these module attributes for its traced runs, and
    # its tests assert that none is absent; a removed one fails here first.
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    # Tracer.install wraps the last three by hand, outside HOOKS.
    hooks = [(module, attr) for module, attr, _ in spans.HOOKS]
    hooks += [("report", "screen"), ("screening", "brentq"), ("screening", "solve_case")]
    missing = [
        f"{module}.{attr}"
        for module, attr in hooks
        if not callable(getattr(importlib.import_module(f"globtop.{module}"), attr, None))
    ]
    assert missing == []
