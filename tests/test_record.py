"""The contract of ``failsafe._record.record``, the package's one way to
build a frozen value class: construction, defaults, frozenness, equality
within one class, hashing, ``repr`` and pattern matching."""
from functools import cached_property

import pytest

from failsafe._record import record


@record
class Point:
    x: float
    y: float = 0.0
    label: str = "p"


@record
class Twin:
    """Point's fields under another class."""

    x: float
    y: float = 0.0
    label: str = "p"


@record
class Checked:
    n: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"n must be >= 0, got {self.n}")

    @cached_property
    def square(self):
        return self.n * self.n


def fields(p):
    return p.x, p.y, p.label


@pytest.mark.parametrize("args, kwargs, expected", [
    ((1.0, 2.0, "a"), {}, (1.0, 2.0, "a")),
    ((), {"x": 1.0, "y": 2.0, "label": "a"}, (1.0, 2.0, "a")),
    ((1.0,), {"label": "a", "y": 2.0}, (1.0, 2.0, "a")),
    ((1.0,), {}, (1.0, 0.0, "p")),
    ((), {"x": 1.0, "label": "a"}, (1.0, 0.0, "a")),
])
def test_positional_and_keyword_construction_with_defaults(args, kwargs, expected):
    assert fields(Point(*args, **kwargs)) == expected


@pytest.mark.parametrize("args, kwargs", [
    ((), {}),                          # x missing
    ((), {"y": 2.0}),                  # x missing
    ((1.0, 2.0, "a", 3), {}),          # an extra positional value
    ((1.0,), {"z": 3}),                # an unknown keyword
    ((1.0,), {"x": 2.0}),              # x given twice
    ((1.0, 2.0), {"y": 3.0}),          # y given twice
], ids=["none", "only-y", "extra", "unknown", "repeated-x", "repeated-y"])
def test_missing_extra_or_repeated_field_is_a_type_error(args, kwargs):
    with pytest.raises(TypeError, match="Point takes"):
        Point(*args, **kwargs)


def test_post_init_runs_on_the_set_fields():
    assert Checked(3).n == 3
    with pytest.raises(ValueError, match="n must be >= 0, got -1"):
        Checked(-1)


@pytest.mark.parametrize("name", ["x", "label", "other"])
def test_fields_cannot_be_set_or_deleted(name):
    p = Point(1.0)
    with pytest.raises(AttributeError, match=f"cannot assign to or delete field '{name}'"):
        setattr(p, name, 2.0)
    with pytest.raises(AttributeError, match=f"cannot assign to or delete field '{name}'"):
        delattr(p, name)
    assert fields(p) == (1.0, 0.0, "p")


def test_an_instance_keeps_a_dict_for_cached_property():
    c = Checked(4)
    assert c.square == 16
    assert c.__dict__["square"] == 16


def test_equality_holds_within_one_class_only():
    assert Point(1.0, 2.0) == Point(1.0, y=2.0)
    assert Point(1.0, 2.0) != Point(1.0, 2.5)
    assert Point(1.0, 2.0, "a") != Point(1.0, 2.0, "b")
    # the same values under another class, or as a tuple, are not equal
    assert Point(1.0, 2.0) != Twin(1.0, 2.0)
    assert Twin(1.0, 2.0) != Point(1.0, 2.0)
    assert Point(1.0, 2.0) != (1.0, 2.0, "p")


def test_equal_records_hash_equal():
    assert hash(Point(1.0, 2.0)) == hash(Point(x=1.0, y=2.0))
    assert len({Point(1.0), Point(1.0, 0.0, "p"), Point(2.0)}) == 2
    assert {Point(1.0): "a"}[Point(1.0)] == "a"


def test_repr_names_every_field():
    assert repr(Point(1.0, label="a")) == "Point(x=1.0, y=0.0, label='a')"
    assert repr(Checked(3)) == "Checked(n=3)"


def test_match_args_name_the_fields_in_order():
    assert Point.__match_args__ == ("x", "y", "label")
    assert Checked.__match_args__ == ("n",)
    match Point(1.0, 2.0, "a"):
        case Point(x, y, label):
            assert (x, y, label) == (1.0, 2.0, "a")
        case _:
            pytest.fail("Point(x, y, label) did not match")
