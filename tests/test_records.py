import os
import pathlib
import subprocess
import sys
from fractions import Fraction as Q

import pytest

import kstab
from kstab import _Record
from kstab.exactcore import Interval, MalformedInput
from kstab.functionals import FlagCase
from kstab.runner import StabilityReport
from kstab.zariski import SurfaceLattice


class Point(_Record, frozen=True):
    x: int
    y: int = 0


class Bag(_Record):
    items: list = []
    tags: dict = {}
    note: str = ""

    def __post_init__(self):
        self.note = self.note or "posted"


class TestConstruction:
    def test_positional_keyword_and_default(self):
        assert Point(1, 2) == Point(x=1, y=2) == Point(1, y=2)
        assert Point(3).y == 0
        assert Point(y=5, x=4)._values() == (4, 5)

    @pytest.mark.parametrize("args, kwargs, match", [
        ((), {}, "missing field 'x'"),
        ((1, 2, 3), {}, "takes 2 fields, got 3"),
        ((1,), {"z": 2}, "unknown or repeated field 'z'"),
        ((1,), {"x": 2}, "unknown or repeated field 'x'"),
    ])
    def test_bad_arguments(self, args, kwargs, match):
        with pytest.raises(TypeError, match=match):
            Point(*args, **kwargs)

    def test_post_init_runs(self):
        assert Bag().note == "posted"
        assert Bag(note="kept").note == "kept"

    def test_mutable_defaults_are_not_shared(self):
        a, b = Bag(), Bag()
        a.items.append(1)
        a.tags["k"] = 2
        assert b.items == [] and b.tags == {}
        assert Bag.items == [] and Bag.tags == {}


class TestValueSemantics:
    def test_frozen_refuses_assignment_and_deletion(self):
        p = Point(1)
        with pytest.raises(AttributeError, match="frozen Point"):
            p.x = 2
        with pytest.raises(AttributeError):
            p.z = 2
        with pytest.raises(AttributeError):
            del p.x
        assert p.x == 1

    def test_equal_frozen_records_hash_equal(self):
        assert hash(Point(1, 2)) == hash(Point(x=1, y=2))
        assert len({Point(1), Point(1, 0), Point(2)}) == 2
        assert hash(Interval(1, "2")) == hash(Interval(Q(1), Q(2)))

    def test_non_frozen_is_mutable_and_unhashable(self):
        b = Bag()
        b.note = "changed"
        assert b.note == "changed"
        with pytest.raises(TypeError):
            hash(b)

    def test_equality_needs_the_same_class(self):
        class Other(_Record, frozen=True):
            x: int
            y: int = 0

        assert Point(1) != Other(1)
        assert Point(1) != (1, 0)

    def test_repr_names_the_fields(self):
        assert repr(Point(1, Q(1, 2))) == "Point(x=1, y=Fraction(1, 2))"
        assert repr(Bag([1])) == "Bag(items=[1], tags={}, note='posted')"

    def test_lattice_fields_exclude_its_caches(self):
        lat = SurfaceLattice(("a",), [[-1]])
        assert SurfaceLattice._fields == ("curves", "gram")
        assert lat == SurfaceLattice(("a",), [[Q(-1)]])
        assert "_rows" not in repr(lat)


class TestInterval:
    def test_repr_and_coercion(self):
        i = Interval(Q(1, 3), "2")
        assert repr(i) == "[1/3, 2]"
        assert i.lo == Q(1, 3) and type(i.hi) is Q

    def test_out_of_order_is_malformed(self):
        with pytest.raises(MalformedInput, match="out of order: \\[2, 1\\]"):
            Interval(2, 1)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            Interval(0, 1).lo = Q(-1)


def test_flag_case_sigma_and_report_results_are_fresh():
    lat = SurfaceLattice(("a",), [[-1]])
    c1 = FlagCase("one", lat, "a", 2, Q(1), Q(1), [])
    c2 = FlagCase("two", lat, "a", 2, Q(1), Q(1), [])
    c1.sigma["a"] = Q(1)
    assert c2.sigma == {}
    r1, r2 = StabilityReport(1), StabilityReport(2)
    r1.results.append("row")
    assert r2.results == []


def test_cli_import_loads_no_dataclasses_or_inspect():
    # Each of these costs a cold start; importlib.resources pulls in
    # typing and zipfile, and inspect on Python 3.12+, so all are checked
    # on every version, through the first fixture read too.  -S keeps
    # site's .pth files from preloading any of them, and comparing before
    # and after ignores what the interpreter itself loads first.
    code = ("import sys; before = set(sys.modules); import kstab.cli; "
            "kstab.runner.load_fixture('models', 'Y0-A1'); "
            "print(sorted({'dataclasses', 'inspect', 'importlib.resources',"
            " 'typing', 'zipfile'} & (set(sys.modules) - before)))")
    src = str(pathlib.Path(kstab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-S", "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path})
    assert out.stdout.strip() == "[]"
