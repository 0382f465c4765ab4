import pytest

import globtop as gt
from globtop.errors import Record


class Point(Record):
    x: float
    y: float
    label: str = "origin"
    tags: tuple = ()


class Pair(Record):
    x: float
    y: float
    label: str = "origin"
    tags: tuple = ()


class Scaled(Record):
    value: float
    scale: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", float(self.value) * self.scale)


class TestConstruction:
    def test_fields_are_the_annotations_in_order(self):
        assert Point._fields == ("x", "y", "label", "tags")
        assert Scaled._fields == ("value", "scale")

    def test_by_position_and_by_name_agree(self):
        assert Point(1.0, 2.0, "a", ("t",)) == Point(tags=("t",), label="a", y=2.0, x=1.0)
        assert Point(1.0, y=2.0).y == 2.0

    def test_defaults_apply(self):
        p = Point(1.0, 2.0)
        assert (p.label, p.tags) == ("origin", ())
        assert Point(1.0, 2.0, tags=(3,)) == Point(1.0, 2.0, "origin", (3,))

    def test_post_init_runs_after_the_fields_are_set(self):
        assert Scaled(2).value == 2.0
        assert Scaled(2, scale=3.0).value == 6.0

    @pytest.mark.parametrize(
        "args, kwargs, message",
        [
            ((1.0,), {}, "missing required arguments: y"),
            ((), {"label": "a"}, "missing required arguments: x, y"),
            ((1.0, 2.0), {"z": 3.0}, "unexpected keyword argument 'z'"),
            # As many values as fields, one of them under an unknown name.
            ((1.0, 2.0, "a"), {"z": 3.0}, "unexpected keyword argument 'z'"),
            ((1.0, 2.0, "a"), {"x": 3.0}, "multiple values for argument 'x'"),
            ((1.0, 2.0, "a", (), 5), {}, "takes 4 arguments but 5 were given"),
        ],
        ids=["missing", "missing-two", "unknown", "unknown-for-missing", "repeated", "too-many"],
    )
    def test_a_bad_call_is_a_type_error(self, args, kwargs, message):
        with pytest.raises(TypeError, match=message):
            Point(*args, **kwargs)


class TestValueSemantics:
    def test_assignment_and_deletion_raise(self):
        p = Point(1.0, 2.0)
        with pytest.raises(AttributeError, match="cannot assign to field 'x'"):
            p.x = 5.0
        with pytest.raises(AttributeError, match="cannot assign"):
            p.other = 5.0
        with pytest.raises(AttributeError, match="cannot delete field 'y'"):
            del p.y
        assert (p.x, p.y) == (1.0, 2.0)

    def test_equality_and_hash_go_by_fields(self):
        a, b = Point(1.0, 2.0), Point(1.0, 2.0)
        assert a is not b
        assert a == b and hash(a) == hash(b)
        assert len({a, b, Point(1.0, 2.0, "b")}) == 2
        assert a != Point(1.0, 2.5)

    def test_another_type_is_not_implemented(self):
        a = Point(1.0, 2.0)
        assert a.__eq__((1.0, 2.0, "origin", ())) is NotImplemented
        # Same fields, same values, another class: unequal, as a dataclass is.
        assert a.__eq__(Pair(1.0, 2.0)) is NotImplemented
        assert a != Pair(1.0, 2.0)

    def test_repr_lists_every_field(self):
        assert repr(Point(1.0, 2.0)) == "Point(x=1.0, y=2.0, label='origin', tags=())"


class TestPackageRecords:
    def test_materials_hash_by_value(self):
        a = gt.Material("Polyimide", 7.5, 0.35)
        assert a == gt.Material(name="Polyimide", youngs_modulus_gpa=7.5, poisson_ratio=0.35)
        assert len({a, gt.Material("Polyimide", 7.5, 0.35)}) == 1

    def test_post_init_normalizes_as_before(self):
        criteria = gt.ScreeningCriteria(deflection_limit_um=5, thickness_range_um=[150, 250])
        assert criteria.deflection_limit_um == 5.0
        assert criteria.thickness_range_um == (150.0, 250.0)
        assert criteria == gt.ScreeningCriteria()
