import importlib

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
