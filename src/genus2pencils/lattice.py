"""Divisor-class arithmetic on blown-up rational surfaces.

Two ambient kinds are supported: the projective plane blown up at n
points (basis L, E1, ..., En) and a Hirzebruch surface of index d blown
up at n points (basis D0, G, E1, ..., En, with D0 the minimal section
and G a ruling fibre).  The intersection form is fixed by the kind and
index; every computation is exact integer arithmetic on basis
coordinates.

Coordinates are validated once, when a class enters the library through
DivisorClass(surface, coords) or Surface.divisor.  Classes the library
derives from validated ones (sums, differences, integer multiples,
blow-down images, quadratic transforms) and the classes its own integer
walks build are made without validating again.  A class is a frozen
tuple of its two fields, (surface, coords), with no per-instance dict,
so a large enumeration costs one small tuple over each coordinate row,
and building one is a single C call.  Surfaces and classes are not
dataclasses, so importing the package builds none; a class's equality
and hash are those of its field pair.

A surface is interned: Surface(kind, index, blowups) returns the one
object of those fields, however it is reached (a constructor call,
plane_blowup, a contraction, parse, pickle or copy), so equal surfaces
are one object, a surface hashes by identity, and the canonical class
and its dual vector are built once per distinct surface.
Contraction and the quadratic transform each have one rule, on
coordinate rows: blow_down and cremona wrap them for classes, and the
reduction pipeline contracts raw rows.
"""

from __future__ import annotations

# the C field descriptor collections.namedtuple uses
from collections import _tuplegetter
from collections.abc import Iterable, Sequence
from functools import cached_property
from itertools import compress, repeat
from operator import add, index as _as_int, mul, neg, sub

from ._record import Record

# bound once: DivisorClass._derived and _derived_all build every class the
# library makes, and DivisorClass.__eq__ and __ne__ compare them
_tuple_new = tuple.__new__
_tuple_eq = tuple.__eq__

__all__ = [
    "LatticeError",
    "ForeignClassError",
    "NotContractibleError",
    "RulingChoiceError",
    "Surface",
    "DivisorClass",
    "pairings",
    "Fibration",
    "plane_blowup",
    "hirzebruch_blowup",
    "plane_curve",
    "ruled_curve",
    "arithmetic_genus",
    "is_minus_one_class",
    "blow_down",
    "contracting_isometry",
    "cremona",
    "elementary_transform",
    "ElementaryTransformResult",
    "adjoint_square",
    "picard_number",
]


class LatticeError(ValueError):
    """Inconsistent lattice data or an operation outside its domain."""


class ForeignClassError(LatticeError):
    """Classes from different surfaces were combined."""


class NotContractibleError(LatticeError):
    """No contraction is available for the requested class."""


class RulingChoiceError(LatticeError):
    """An index-0 elementary transformation needs an explicit ruling."""


def _frozen(self, name: str, *value) -> None:
    """__setattr__ and __delattr__ of the frozen classes: both raise
    dataclasses.FrozenInstanceError, an AttributeError, as a frozen
    dataclass does."""
    from dataclasses import FrozenInstanceError  # loaded on this error path only

    verb = "assign to" if value else "delete"
    raise FrozenInstanceError(f"cannot {verb} field {name!r}")


# (kind, index, blow-up count) -> its one Surface; a run reaches a few
# dozen surfaces, so the table needs no bound
_SURFACES: dict[tuple[str, int, int], "Surface"] = {}


class Surface:
    """A marked rational surface: ambient kind, Hirzebruch index, blow-up count.

    ``index`` is 0 for the plane kind; ``base_rank`` (1 on the plane, 2
    on the ruled kind) and ``rank`` are set with the fields.  Surfaces are
    interned: the constructor returns the one object of its validated
    fields, so equal surfaces are identical and equality and hash are
    those of the object.  The canonical class and its dual vector, and the
    surface a contraction lands on, are computed once per surface.
    A surface is frozen; pickle and copy rebuild it through the
    constructor, so they return the same object.
    """

    def __new__(cls, kind: str, index: int, blowups: int) -> "Surface":
        if kind not in ("plane", "hirzebruch"):
            raise LatticeError(f"unknown surface kind {kind!r}")
        try:
            index, blowups = _as_int(index), _as_int(blowups)
        except TypeError:
            raise TypeError("index and blow-up count must be integers") from None
        if kind == "plane" and index != 0:
            raise LatticeError("plane surfaces carry no Hirzebruch index")
        if index < 0 or blowups < 0:
            raise LatticeError("index and blow-up count must be nonnegative")
        key = (kind, index, blowups)
        surface = _SURFACES.get(key)
        if surface is None:
            surface = object.__new__(cls)
            object.__setattr__(surface, "kind", kind)
            object.__setattr__(surface, "index", index)
            object.__setattr__(surface, "blowups", blowups)
            base = 1 if kind == "plane" else 2
            object.__setattr__(surface, "base_rank", base)
            object.__setattr__(surface, "rank", base + blowups)
            surface = _SURFACES.setdefault(key, surface)
        return surface

    __setattr__ = __delattr__ = _frozen

    def __repr__(self) -> str:
        return f"Surface(kind={self.kind!r}, index={self.index!r}, blowups={self.blowups!r})"

    def __reduce__(self):
        # through the constructor, so a copy is the interned surface; the
        # cached canonical class points back at it and is not pickled
        return Surface, (self.kind, self.index, self.blowups)

    def basis_names(self) -> tuple[str, ...]:
        return self._basis_names

    @cached_property
    def _basis_names(self) -> tuple[str, ...]:
        # built once per surface: str() of every class reads them
        heads = ("L",) if self.kind == "plane" else ("D0", "G")
        return heads + tuple(f"E{i}" for i in range(1, self.blowups + 1))

    def gram(self) -> tuple[tuple[int, ...], ...]:
        r = self.rank
        m = [[0] * r for _ in range(r)]
        if self.kind == "plane":
            m[0][0] = 1
        else:
            m[0][0] = -self.index
            m[0][1] = m[1][0] = 1
        for i in range(self.base_rank, r):
            m[i][i] = -1
        return tuple(tuple(row) for row in m)

    def intersect(self, x: Sequence[int], y: Sequence[int]) -> int:
        # every basis class but the head block squares to -1: negate the
        # plain dot product and correct the head block
        x0, y0 = x[0], y[0]
        if self.kind == "plane":
            return 2 * x0 * y0 - sum(map(mul, x, y))
        x1, y1 = x[1], y[1]
        return (1 - self.index) * x0 * y0 + x0 * y1 + x1 * y0 + x1 * y1 - sum(map(mul, x, y))

    def dual(self, x: Sequence[int]) -> tuple[int, ...]:
        """The Gram matrix times x: intersect(x, y) is its dot product with y."""
        if self.kind == "plane":
            return (x[0], *map(neg, x[1:]))
        return (x[1] - self.index * x[0], x[0], *map(neg, x[2:]))

    def divisor(self, *coords: int) -> "DivisorClass":
        return DivisorClass(self, tuple(coords))

    def zero(self) -> "DivisorClass":
        return DivisorClass._derived(self, (0,) * self.rank)

    @cached_property
    def _canonical(self) -> "DivisorClass":
        if self.kind == "plane":
            head: tuple[int, ...] = (-3,)
        else:
            head = (-2, -(self.index + 2))
        return DivisorClass._derived(self, head + (1,) * self.blowups)

    @cached_property
    def _blown_down(self) -> "Surface":
        """The surface with one blow-up fewer, which a contraction lands on."""
        return Surface(self.kind, self.index, self.blowups - 1)

    @cached_property
    def _canonical_dual(self) -> tuple[int, ...]:
        """dual(K): K*C is its dot product with C's coordinates."""
        return self.dual(self._canonical.coords)

    def canonical(self) -> "DivisorClass":
        return self._canonical

    @property
    def line(self) -> "DivisorClass":
        if self.kind != "plane":
            raise LatticeError("the line class lives on the plane kind")
        return DivisorClass._derived(self, (1,) + (0,) * self.blowups)

    @property
    def minimal_section(self) -> "DivisorClass":
        if self.kind != "hirzebruch":
            raise LatticeError("the minimal section lives on the ruled kind")
        return DivisorClass._derived(self, (1, 0) + (0,) * self.blowups)

    @property
    def ruling(self) -> "DivisorClass":
        if self.kind != "hirzebruch":
            raise LatticeError("the ruling fibre lives on the ruled kind")
        return DivisorClass._derived(self, (0, 1) + (0,) * self.blowups)

    def exceptional(self, i: int) -> "DivisorClass":
        """Basis class E_i (1-indexed)."""
        if not 1 <= i <= self.blowups:
            raise LatticeError(f"no exceptional class E{i} on a {self.blowups}-point surface")
        c = [0] * self.rank
        c[self.base_rank + i - 1] = 1
        return DivisorClass._derived(self, tuple(c))


def plane_blowup(n: int) -> Surface:
    return Surface("plane", 0, n)


def hirzebruch_blowup(index: int, n: int) -> Surface:
    return Surface("hirzebruch", index, n)


class DivisorClass(tuple):
    """An element of the divisor-class lattice, stored by basis coordinates.

    The constructor checks that the surface is a Surface, coerces every
    coordinate to an int and checks the count against the surface's rank.
    A class is the tuple (surface, coords), as a record is the tuple of
    its fields: len() is 2, iteration and indexing give the surface and
    then the coordinates.  It has no __dict__ and is frozen.  Equality
    and hash are those of the pair, but a class equals only a class, has
    no order, and adds only to a class (or to 0, so sum() folds classes).
    """

    __slots__ = ()

    surface = _tuplegetter(0, "The Surface the class lives on")
    coords = _tuplegetter(1, "The basis coordinates, a tuple of ints")

    def __new__(cls, surface: Surface, coords: Sequence[int]) -> "DivisorClass":
        if not isinstance(surface, Surface):
            raise TypeError(f"a class lives on a Surface, not on {surface!r}")
        try:
            coords = tuple(map(_as_int, coords))
        except TypeError:
            raise TypeError("coordinates must be integers") from None
        if len(coords) != surface.rank:
            raise LatticeError(
                f"coordinate length {len(coords)} does not match lattice rank {surface.rank}"
            )
        return _tuple_new(cls, (surface, coords))

    __setattr__ = __delattr__ = _frozen

    # the tuple's own comparisons would let a class equal, or be ordered
    # against, its bare (surface, coords) pair
    def __eq__(self, other):
        return other.__class__ is self.__class__ and _tuple_eq(self, other)

    def __ne__(self, other):
        return other.__class__ is not self.__class__ or not _tuple_eq(self, other)

    def _unordered(self, other):
        raise TypeError("a divisor class has no order")

    __lt__ = __le__ = __gt__ = __ge__ = _unordered

    # the pair's hash, computed in C; the Surface hashes by identity
    __hash__ = tuple.__hash__

    @classmethod
    def _derived(cls, surface: Surface, coords: tuple[int, ...]) -> "DivisorClass":
        """A class whose coordinates the library built itself: a tuple of
        ints of the surface's rank, so the constructor's checks are skipped."""
        return _tuple_new(cls, (surface, coords))

    @classmethod
    def _derived_all(
        cls, surface: Surface, rows: Iterable[tuple[int, ...]]
    ) -> tuple["DivisorClass", ...]:
        """_derived for every row, in order: one C-level loop makes every
        class, with no Python call per class, and each row becomes the
        class's coordinates as it stands, not copied."""
        return tuple(map(_tuple_new, repeat(cls), zip(repeat(surface), rows)))

    def __reduce__(self):
        # pickle and copy rebuild through the validating constructor, so an
        # unpickled pair is checked as any class entering the library is
        return DivisorClass, (self.surface, self.coords)

    def _require_same(self, other: "DivisorClass") -> None:
        if self.surface is not other.surface:
            raise ForeignClassError("foreign class: operands live on different surfaces")

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        if not isinstance(other, DivisorClass):
            return NotImplemented
        self._require_same(other)
        return DivisorClass._derived(self.surface, tuple(map(add, self.coords, other.coords)))

    def __radd__(self, other):
        # lets sum() fold class lists; a class never lands here, as
        # class + class is __add__, and any other left operand raises
        # rather than fall back to tuple concatenation
        if other == 0:
            return self
        raise TypeError(
            f"unsupported operand type(s) for +: {type(other).__name__!r} and 'DivisorClass'"
        )

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        if not isinstance(other, DivisorClass):
            return NotImplemented
        self._require_same(other)
        return DivisorClass._derived(self.surface, tuple(map(sub, self.coords, other.coords)))

    def __neg__(self) -> "DivisorClass":
        return DivisorClass._derived(self.surface, tuple(map(neg, self.coords)))

    def _scaled(self, k: int) -> "DivisorClass":
        # an int subclass could multiply into anything: coerce it once
        k = _as_int(k)
        return DivisorClass._derived(self.surface, tuple(k * c for c in self.coords))

    def __mul__(self, other):
        """Class times class is the intersection number; int times class scales."""
        if isinstance(other, DivisorClass):
            self._require_same(other)
            return self.surface.intersect(self.coords, other.coords)
        if isinstance(other, int):
            return self._scaled(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, int):
            return self._scaled(other)
        return NotImplemented

    def __str__(self) -> str:
        coords = self.coords
        parts: list[str] = []
        for c, name in compress(zip(coords, self.surface._basis_names), coords):
            mag = "" if abs(c) == 1 else str(abs(c))
            if not parts:
                sign = "-" if c < 0 else ""
            else:
                sign = "-" if c < 0 else "+"
            parts.append(f"{sign}{mag}{name}")
        return "".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"<{self}>"


def pairings(d: DivisorClass, classes: Sequence[DivisorClass]) -> tuple[int, ...]:
    """(d * c for c in classes), with d's dual vector computed once; every
    class must live on d's surface, and anything that is not a class, or
    one lone class passed as ``classes``, is a TypeError naming it."""
    try:
        surface = d.surface
        dual = surface.dual(d.coords)
    except AttributeError:
        raise TypeError(f"pairings need a divisor class, not {d!r}") from None
    _expect_many(classes, "classes")
    out = []
    try:
        for c in classes:
            if c.surface is not surface:
                raise ForeignClassError("foreign class: operands live on different surfaces")
            out.append(sum(map(mul, dual, c.coords)))
    except AttributeError:
        # c is the item that had no surface or no coordinates
        raise TypeError(f"pairings need divisor classes, not {c!r}") from None
    return tuple(out)


def plane_curve(surface: Surface, degree: int, multiplicities: Sequence[int] = ()) -> DivisorClass:
    """degree*L minus the listed multiplicities on E1, E2, ...; short lists pad with zeros."""
    if surface.kind != "plane":
        raise LatticeError("plane_curve needs the plane kind")
    ms = tuple(multiplicities)
    if len(ms) > surface.blowups:
        raise LatticeError("more multiplicities than blown-up points")
    tail = tuple(-m for m in ms) + (0,) * (surface.blowups - len(ms))
    return surface.divisor(degree, *tail)


def ruled_curve(
    surface: Surface,
    section_coefficient: int,
    fibre_coefficient: int,
    multiplicities: Sequence[int] = (),
) -> DivisorClass:
    """section_coefficient*D0 + fibre_coefficient*G minus multiplicities on the E_i.

    Public API with no caller inside the library (model files and the
    catalog spell out ruled coordinates); kept as the ruled twin of
    plane_curve."""
    if surface.kind != "hirzebruch":
        raise LatticeError("ruled_curve needs the ruled kind")
    ms = tuple(multiplicities)
    if len(ms) > surface.blowups:
        raise LatticeError("more multiplicities than blown-up points")
    tail = tuple(-m for m in ms) + (0,) * (surface.blowups - len(ms))
    return surface.divisor(section_coefficient, fibre_coefficient, *tail)


def arithmetic_genus(c: DivisorClass) -> int:
    """Adjunction genus (C*C + K*C)/2 + 1; parity is a lattice theorem here."""
    return _adjunction_genus(c * c, c.surface.canonical() * c)


def _adjunction_genus(square: int, k_degree: int) -> int:
    """(C*C + K*C)/2 + 1 from the two numbers, for a caller that holds them."""
    total = square + k_degree
    if total % 2:
        raise LatticeError("non-integral genus")
    return total // 2 + 1


def is_minus_one_class(c: DivisorClass) -> bool:
    return c * c == -1 and c.surface.canonical() * c == -1


def _integer(value, name: str) -> int:
    """``value`` as an int; anything else is a TypeError naming the argument."""
    try:
        return _as_int(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, not {value!r}") from None


def _expect(value, kind: type, name: str) -> None:
    """A TypeError naming the argument when ``value`` is not a ``kind``."""
    if not isinstance(value, kind):
        raise TypeError(f"{name} must be a {kind.__name__}, not {value!r}")


def _expect_many(value, name: str, kind: type | None = None) -> None:
    """A TypeError naming the argument when ``value``, which must hold
    items, is one divisor class or record, or is not a ``kind`` when one is
    given.  A class or a record is itself a tuple of its fields, so a lone
    one would pass a tuple check and iterate as its fields, the first of
    them then named as the wrong item."""
    lone = isinstance(value, (DivisorClass, Record))
    if lone or kind is not None and not isinstance(value, kind):
        noun = "collection" if kind is None else kind.__name__
        raise TypeError(f"{name} must be a {noun}, not {value!r}")


def _require_on(surface: Surface, c: DivisorClass) -> None:
    if c.surface is not surface:
        raise ForeignClassError("foreign class: carried class lives on another surface")


def _basis_exceptional_index(coords: tuple[int, ...], base: int) -> int | None:
    """1-based i when the coordinates (over a base of rank ``base``) are
    exactly the basis class E_i, else None."""
    # one nonzero coordinate, a 1, past the base
    if coords.count(0) != len(coords) - 1 or 1 not in coords:
        return None
    pos = coords.index(1)
    return pos - base + 1 if pos >= base else None


def _reflect(
    rows: Sequence[tuple[int, ...]], i: int, j: int, k: int
) -> list[tuple[int, ...]]:
    """Plane coordinate rows reflected in alpha = L - Ei - Ej - Ek:
    c + (c*alpha) alpha, where c*alpha = c0 + ci + cj + ck."""
    out = []
    for c in rows:
        m = c[0] + c[i] + c[j] + c[k]
        if m:
            c = list(c)
            c[0] += m
            c[i] -= m
            c[j] -= m
            c[k] -= m
            c = tuple(c)
        out.append(c)
    return out


def cremona(
    surface: Surface, i: int, j: int, k: int, classes: Iterable[DivisorClass] = ()
) -> tuple[DivisorClass, ...]:
    """Reflect classes in L - Ei - Ej - Ek, the plane quadratic transform.

    This is an isometry fixing the canonical class; applying it twice is
    the identity.  A surface that is not a Surface, a point index that
    is not an integer, a carried item that is not a class, or one lone
    class passed as ``classes``, is a TypeError naming it.
    """
    _expect(surface, Surface, "surface")
    i, j, k = map(_integer, (i, j, k), ("i", "j", "k"))
    if surface.kind != "plane":
        raise LatticeError("quadratic transforms need the plane kind")
    if len({i, j, k}) != 3:
        raise LatticeError("quadratic transforms need three distinct points")
    for t in (i, j, k):
        if not 1 <= t <= surface.blowups:
            raise LatticeError(f"no exceptional class E{t} on a {surface.blowups}-point surface")
    _expect_many(classes, "the carried classes")
    rows = []
    for n, c in enumerate(classes):
        _expect(c, DivisorClass, f"carried class {n}")
        _require_on(surface, c)
        rows.append(c.coords)
    return DivisorClass._derived_all(surface, _reflect(rows, i, j, k))


def contracting_isometry(
    surface: Surface, e: DivisorClass
) -> tuple[tuple[tuple[int, int, int], ...], int]:
    """Quadratic-transform triples carrying the (-1)-class e onto a basis class.

    Returns (moves, i): applying cremona at each triple in order sends e to
    E_i.  Each move picks the three largest multiplicities and must strictly
    drop the degree, which bounds the search; failure raises.
    """
    if e.surface is not surface:
        raise ForeignClassError("foreign class: e lives on another surface")
    if surface.kind != "plane":
        raise NotContractibleError("not contractible: only basis classes contract off the plane kind")
    if not is_minus_one_class(e):
        raise NotContractibleError(f"not contractible: {e} is not a (-1)-class")
    cur = e.coords
    moves: list[tuple[int, int, int]] = []
    while True:
        idx = _basis_exceptional_index(cur, 1)
        if idx is not None:
            return tuple(moves), idx
        if surface.blowups < 3:
            raise NotContractibleError(f"not contractible: no isometry moves {e} to a basis class")
        degree = cur[0]
        # multiplicities are the negated tail coordinates
        order = sorted(range(1, surface.blowups + 1), key=lambda t: (cur[t], t))
        i, j, k = order[0], order[1], order[2]
        drop = -(cur[i] + cur[j] + cur[k])
        if drop <= degree:
            raise NotContractibleError(f"not contractible: no isometry moves {e} to a basis class")
        (cur,) = _reflect((cur,), i, j, k)
        moves.append((i, j, k))


def _contract_rows(
    surface: Surface, e: tuple[int, ...], rows: Sequence[tuple[int, ...]]
) -> tuple[Surface, list[tuple[tuple[int, ...], int]]]:
    """Contract the (-1)-class with coordinates e; returns the smaller
    surface and, in one sweep over the rows, each coordinate row pushed
    forward paired with its intersection with e.

    The caller has checked that e is a (-1)-class of the surface.  A basis
    exceptional class contracts by dropping its coordinate, and a row's
    pairing with it is that coordinate negated.  Any other class is first
    carried onto a basis class by contracting_isometry (which raises off
    the plane kind), the rows moving along; the moves are isometries, so
    the pairings are read off the moved rows.
    """
    base = surface.base_rank
    idx = _basis_exceptional_index(e, base)
    if idx is None:
        moves, idx = contracting_isometry(surface, DivisorClass._derived(surface, e))
        for (i, j, k) in moves:
            rows = _reflect(rows, i, j, k)
    pos = base + idx - 1
    return surface._blown_down, [(c[:pos] + c[pos + 1:], -c[pos]) for c in rows]


def blow_down(
    surface: Surface, e: DivisorClass, classes: Iterable[DivisorClass] = ()
) -> tuple[Surface, tuple[DivisorClass, ...]]:
    """Contract the (-1)-class e; returns the smaller surface and pushforwards.

    A basis exceptional class contracts by dropping its coordinate.  Any
    other plane (-1)-class is first carried onto a basis class by
    contracting_isometry, moving the whole carried list along.  On the ruled
    kind only basis classes contract (contracting anything else would leave
    the ambient family).

    A surface that is not a Surface, an e that is not a class, a carried
    item that is not a class, or one lone class passed as ``classes``, is
    a TypeError naming it.

    Public API with no caller inside the library: the reduction pipeline
    contracts coordinate rows through _contract_rows, the rule this wraps.
    """
    _expect(surface, Surface, "surface")
    _expect(e, DivisorClass, "e")
    if e.surface is not surface:
        raise ForeignClassError("foreign class: e lives on another surface")
    _expect_many(classes, "the carried classes")
    rows = []
    for n, c in enumerate(classes):
        _expect(c, DivisorClass, f"carried class {n}")
        _require_on(surface, c)
        rows.append(c.coords)
    if not is_minus_one_class(e):
        raise NotContractibleError(f"not contractible: {e} is not a (-1)-class")
    smaller, pushed = _contract_rows(surface, e.coords, rows)
    return smaller, DivisorClass._derived_all(smaller, (row for row, _ in pushed))


class ElementaryTransformResult(Record):
    index: int
    curve: tuple[int, int]
    new_point_multiplicity: int


def elementary_transform(
    index: int,
    curve: tuple[int, int],
    multiplicity: int,
    on_minimal_section: bool = False,
) -> ElementaryTransformResult:
    """One elementary transformation of ruled-surface curve data.

    ``curve`` is the (section, fibre) coefficient pair of a curve on the
    index-``index`` Hirzebruch surface carrying a point of the given
    multiplicity.  Blowing the point up and contracting the old ruling
    fibre through it lands on a neighbouring surface: a point on the
    minimal section raises the index, a point off it lowers the index.
    Either way the transformed point has multiplicity (section
    coefficient - multiplicity).
    """
    index = _integer(index, "index")
    s_coef, f_coef = curve
    s_coef = _integer(s_coef, "the section coefficient of curve")
    f_coef = _integer(f_coef, "the fibre coefficient of curve")
    multiplicity = _integer(multiplicity, "multiplicity")
    if index < 0:
        raise LatticeError("index and blow-up count must be nonnegative")
    if not 0 <= multiplicity <= s_coef:
        raise LatticeError("multiplicity must lie between 0 and the section coefficient")
    if on_minimal_section:
        return ElementaryTransformResult(
            index + 1, (s_coef, f_coef + s_coef - multiplicity), s_coef - multiplicity
        )
    if index == 0:
        raise RulingChoiceError("ruling choice required")
    return ElementaryTransformResult(
        index - 1, (s_coef, f_coef - multiplicity), s_coef - multiplicity
    )


class Fibration(Record):
    """A pencil datum: surface, fibre class, genus, and named extras.

    ``fibres`` holds fibre decompositions (owned by the fibres module) and
    ``named_classes`` the curve dictionary; both travel with the datum but
    only validate() checks the lattice facts, so deliberately corrupted
    copies can be built for negative tests with ``_replace``.
    """

    surface: Surface
    fibre_class: DivisorClass
    genus: int = 2
    sections: tuple[DivisorClass, ...] = ()
    fibres: tuple = ()
    named_classes: tuple[tuple[str, DivisorClass], ...] = ()

    def validate(self) -> "Fibration":
        f = self.fibre_class
        _expect(self.surface, Surface, "the surface")
        _expect(f, DivisorClass, "the fibre class")
        _expect_many(self.sections, "the sections", tuple)
        for i, s in enumerate(self.sections):
            _expect(s, DivisorClass, f"section {i}")
        genus = _integer(self.genus, "genus")
        if f.surface is not self.surface:
            raise ForeignClassError("foreign class: fibre class lives on another surface")
        if f * f != 0:
            raise LatticeError(f"fibre class has self-intersection {f * f}, expected 0")
        k = self.surface.canonical()
        if k * f != 2 * genus - 2:
            raise LatticeError(
                f"canonical degree {k * f} does not match genus {self.genus}"
            )
        for s in self.sections:
            if s.surface is not self.surface:
                raise ForeignClassError("foreign class: section lives on another surface")
            if s * f != 1:
                raise LatticeError(f"section {s} pairs {s * f} with the fibre, expected 1")
        return self

    def named(self, name: str) -> DivisorClass:
        for n, c in self.named_classes:
            if n == name:
                return c
        raise KeyError(name)


def adjoint_square(fib: Fibration) -> int:
    """Self-intersection of K + F."""
    kf = fib.surface.canonical() + fib.fibre_class
    return kf * kf


def picard_number(fib: Fibration) -> int:
    """Lattice rank forced by the genus and the adjoint square."""
    return 4 * fib.genus + 6 - adjoint_square(fib)
