"""The package's record types, written without dataclasses.

The plain records (Fibration, the fibre components and decompositions,
ModelFile) are NamedTuples; NumericType, SpecialType and ClassQuery are
NamedTuples whose subclass validates in __new__; Surface, DivisorClass
and IdentityReport are plain frozen classes.  Each keeps the repr text,
the equality and the hash (that of its field tuple) it had as a frozen
dataclass, among values of its own type.  A pickle or copy round trip
gives an equal value, and the validating types rebuild through their
constructors, so a value made around the checks does not survive one.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle

import pytest

from genus2pencils import catalog
from genus2pencils.curves import ClassQuery, IdentityReport, fibre_intersection_identity
from genus2pencils.fibres import FibreComponent, FibreDecomposition
from genus2pencils.lattice import DivisorClass, Fibration, LatticeError, Surface, plane_blowup
from genus2pencils.modelfile import ModelFile
from genus2pencils.numerics import NumericType, SpecialType


def _copies(x) -> tuple:
    return pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)


def _b1_identity() -> IdentityReport:
    fib = catalog.get("B1").fibration
    return fibre_intersection_identity(fib, fib.named("P"), 2, ClassQuery(-1, -1, 2))


def _values():
    """(type, a value, an equal value built apart, a different value, its
    field tuple, its repr) for every converted type."""
    s, t = plane_blowup(2), plane_blowup(2)
    e1, e2 = s.exceptional(1), s.exceptional(2)
    f = s.divisor(3, -1, -1)
    component = FibreComponent("X", e1, 1)
    decomposition = FibreDecomposition("F0", (component,))
    report = _b1_identity()
    return (
        (Surface, s, t, plane_blowup(3), ("plane", 0, 2),
         "Surface(kind='plane', index=0, blowups=2)"),
        (DivisorClass, e1, t.divisor(0, 1, 0), e2, (s, (0, 1, 0)), "<E1>"),
        (Fibration, Fibration(s, f), Fibration(t, t.divisor(3, -1, -1)), Fibration(s, f, 3),
         (s, f, 2, (), (), ()),
         "Fibration(surface=Surface(kind='plane', index=0, blowups=2), fibre_class=<3L-E1-E2>, "
         "genus=2, sections=(), fibres=(), named_classes=())"),
        (ClassQuery, ClassQuery(-1, -1, 2), ClassQuery(-1, -1, 2), ClassQuery(-1, -1),
         (-1, -1, 2), "ClassQuery(self_int=-1, k_deg=-1, degree_cap=2)"),
        (IdentityReport, report, _b1_identity(), IdentityReport(True, 2, report.pencil, 1, 528),
         (True, 2, report.pencil, 2, 528),
         "IdentityReport(holds=True, shift=2, pencil=<L-E1>, minimum=2, count=528)"),
        (FibreComponent, component, FibreComponent("X", t.exceptional(1), 1),
         FibreComponent("X", e1, 1, -1), ("X", e1, 1, None, None),
         "FibreComponent(name='X', divisor=<E1>, multiplicity=1, "
         "declared_self_intersection=None, declared_genus=None)"),
        (FibreDecomposition, decomposition, FibreDecomposition("F0", (component,)),
         FibreDecomposition("F1", (component,)), ("F0", (component,)),
         "FibreDecomposition(name='F0', components=(FibreComponent(name='X', divisor=<E1>, "
         "multiplicity=1, declared_self_intersection=None, declared_genus=None),))"),
        (ModelFile, ModelFile(s, (("E", e1),)), ModelFile(t, (("E", e1),)),
         ModelFile(s, (("E", e2),)), (s, (("E", e1),), (), ()),
         "ModelFile(surface=Surface(kind='plane', index=0, blowups=2), classes=(('E', <E1>),), "
         "fibres=(), effective=())"),
        (NumericType, NumericType(2, 0, (2,) * 7, 1), NumericType(2, 0, [2] * 7, 1),
         NumericType(2, 2, (2,) * 10, 2), (2, 0, (2,) * 7, 1),
         "NumericType(adjoint_degree=2, twice_offset=0, multiplicities=(2, 2, 2, 2, 2, 2, 2), "
         "adjoint_square=1)"),
        (SpecialType, SpecialType(3, 2, (2, 2), 13), SpecialType(3, 2, [2, 2], 13),
         SpecialType(3, 2, (2,), 14), (3, 2, (2, 2), 13),
         "SpecialType(adjoint_degree=3, extra_multiplicity=2, multiplicities=(2, 2), "
         "adjoint_square=13)"),
    )


VALUES = _values()
IDS = [v[0].__name__ for v in VALUES]


@pytest.mark.parametrize("kind, x, same, other, fields, text", VALUES, ids=IDS)
def test_repr_equality_and_hash(kind, x, same, other, fields, text):
    assert type(x) is kind and type(same) is kind and type(other) is kind
    assert "__dataclass_fields__" not in vars(kind)
    assert repr(x) == repr(same) == text
    assert x == same and not x != same and hash(x) == hash(same) == hash(fields)
    assert x != other and not x == other
    assert len({x, same, other}) == 2


@pytest.mark.parametrize("kind, x, same, other, fields, text", VALUES, ids=IDS)
def test_pickle_and_copy_round_trip(kind, x, same, other, fields, text):
    for y in _copies(x):
        assert type(y) is kind
        assert y == x and hash(y) == hash(x) and repr(y) == text


def test_identity_report_stays_lazy_and_frozen_through_a_copy():
    report = _b1_identity()
    for y in _copies(report):
        assert y.classes == report.classes
        assert y.witnesses == report.witnesses
        assert y.fibre_degrees == report.fibre_degrees
        assert y.pencil_degrees == report.pencil_degrees
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.holds = False
    with pytest.raises(dataclasses.FrozenInstanceError):
        del report.count


def test_surfaces_and_classes_are_frozen():
    s = plane_blowup(2)
    for x, name in ((s, "blowups"), (s.line, "coords")):
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot assign to field '{name}'"):
            setattr(x, name, 1)
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot delete field '{name}'"):
            delattr(x, name)


def test_tuple_records_compare_as_tuples_and_replace_fields():
    s = plane_blowup(2)
    fib = Fibration(s, s.divisor(3, -1, -1))
    assert fib == (s, fib.fibre_class, 2, (), (), ())
    assert fib._replace(genus=3) == Fibration(s, fib.fibre_class, 3)
    component = FibreComponent("X", s.line, 1)
    assert component._replace(multiplicity=2).multiplicity == 2
    assert NumericType(2, 0, (2,) * 7, 1)._replace(twice_offset=2, adjoint_square=5) == (
        NumericType(2, 2, (2,) * 7, 5)
    )
    assert ClassQuery(-1, -1)._replace(degree_cap=4) == ClassQuery(-1, -1, 4)


# each value fails several checks; the message is the first check's, in
# the order the constructor makes them
@pytest.mark.parametrize(
    "make, error, message",
    (
        (lambda: Surface("torus", "x", -1), LatticeError, "unknown surface kind 'torus'"),
        (lambda: Surface("plane", 1.5, -1), LatticeError, "index and blow-up count must be integers"),
        (lambda: Surface("plane", 1, -1), LatticeError, "plane surfaces carry no Hirzebruch index"),
        (lambda: Surface("hirzebruch", -1, 0), LatticeError, "must be nonnegative"),
        (lambda: DivisorClass("plane", (1.5,)), LatticeError, "a class lives on a Surface"),
        (lambda: DivisorClass(plane_blowup(1), (1.5,)), LatticeError, "coordinates must be integers"),
        (lambda: DivisorClass(plane_blowup(1), (1,)), LatticeError,
         "coordinate length 1 does not match lattice rank 2"),
        (lambda: ClassQuery(-1, "a", 0), LatticeError, "query fields must be integers"),
        (lambda: ClassQuery(-1, -1, 0), LatticeError, "degree cap must be at least 1"),
        (lambda: NumericType(0.5, -1, (1,), 0), ValueError, "field adjoint_degree must hold integers"),
        (lambda: NumericType(0, -1, (1.0,), 0), ValueError, "field multiplicities must hold integers"),
        (lambda: NumericType(2, 0, (2,), None), ValueError, "field adjoint_square must hold integers"),
        (lambda: NumericType(0, -1, (1,), 0), ValueError, "adjoint degree must be positive"),
        (lambda: NumericType(2, -1, (1,), 0), ValueError, "twice-offset must be nonnegative"),
        (lambda: NumericType(2, 1, (1,), 0), ValueError, "even adjoint degree forces an even"),
        (lambda: NumericType(2, 0, (1, 3), 0), ValueError, "multiplicities must be at least 2"),
        (lambda: NumericType(2, 0, (2, 3), 0), ValueError, "multiplicities must be non-increasing"),
        (lambda: NumericType(2, 0, (3,), 0), ValueError, "largest multiplicity 3 exceeds half"),
        (lambda: NumericType(2, 0, (2,), 0), ValueError, "disagrees with the defining equation"),
        (lambda: SpecialType(3, 2, ("2",), 0), ValueError, "field multiplicities must hold integers"),
        (lambda: SpecialType(2, 3, (1,), 0), ValueError, "adjoint degree at least 3"),
        (lambda: SpecialType(3, 3, (1,), 0), ValueError, "distinguished multiplicity must lie"),
        (lambda: SpecialType(3, 2, (3, 1), 0), ValueError, "must lie in \\[2, the distinguished"),
        (lambda: SpecialType(5, 3, (2, 3), 0), ValueError, "multiplicities must be non-increasing"),
        (lambda: SpecialType(3, 2, (2, 2), 12), ValueError, "disagrees with the defining equation"),
    ),
)
def test_validation_messages_in_check_order(make, error, message):
    with pytest.raises(error, match=message):
        make()


def _unchecked_surface() -> Surface:
    bad = object.__new__(Surface)
    for name, value in (("kind", "torus"), ("index", 0), ("blowups", 1)):
        object.__setattr__(bad, name, value)
    return bad


# values made around the constructor's checks, and the check each one fails
UNCHECKED = (
    (lambda: tuple.__new__(NumericType, (0, 0, (), 0)), ValueError, "adjoint degree must be positive"),
    (lambda: tuple.__new__(SpecialType, (3, 2, (2, 2), 12)), ValueError, "disagrees with the defining"),
    (lambda: tuple.__new__(ClassQuery, (-1, -1, 0)), LatticeError, "degree cap must be at least 1"),
    (_unchecked_surface, LatticeError, "unknown surface kind 'torus'"),
    (lambda: DivisorClass._derived(plane_blowup(2), (1, 0)), LatticeError, "coordinate length 2"),
)


@pytest.mark.parametrize("make, error, message", UNCHECKED, ids=("numeric", "special", "query",
                                                                  "surface", "class"))
def test_round_trips_validate_again(make, error, message):
    bad = make()
    for round_trip in (lambda x: pickle.loads(pickle.dumps(x)), copy.copy, copy.deepcopy):
        with pytest.raises(error, match=message):
            round_trip(bad)


def test_replace_validates_again():
    row = NumericType(2, 0, (2,) * 7, 1)
    with pytest.raises(ValueError, match="disagrees with the defining equation"):
        row._replace(adjoint_square=2)
    with pytest.raises(ValueError, match="multiplicities must be non-increasing"):
        SpecialType(5, 3, (3, 2), 40)._replace(multiplicities=(2, 3))
    with pytest.raises(LatticeError, match="degree cap must be at least 1"):
        ClassQuery(-1, -1)._replace(degree_cap=0)
