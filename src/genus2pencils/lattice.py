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
blow-up and blow-down images, quadratic transforms) and the classes its
own integer walks build are made without validating again.  A class is a
slotted frozen object: two fields and no per-instance dict, so a large
enumeration costs one small object and one coordinate tuple per class.
Surfaces and classes are plain classes, not dataclasses, so importing
the package builds none; equality and hash are those of the field tuple.

Every surface a blow-up or a contraction reaches comes from one shared
constructor, so equal surfaces reached that way are one object, and the
canonical class and its dual vector are built once per distinct surface.
Contraction and the quadratic transform each have one rule, on
coordinate rows: blow_down and cremona wrap them for classes, and the
reduction pipeline contracts raw rows.
"""

from __future__ import annotations

from collections import deque
from functools import cached_property, lru_cache
from itertools import repeat
from operator import add, index as _as_int, mul, neg, sub
from typing import Iterable, NamedTuple, Sequence

# bound once: DivisorClass._derived and _derived_all build every class the
# library makes
_new_object = object.__new__
_set_field = object.__setattr__

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
    "blow_up",
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


class Surface:
    """A marked rational surface: ambient kind, Hirzebruch index, blow-up count.

    ``index`` is 0 for the plane kind.  Equality is structural, so classes
    built on independently constructed but identical surfaces interoperate.
    The canonical class and its dual vector are computed once per object.
    A surface is frozen; pickle and copy rebuild it from its three fields,
    without the cached classes.
    """

    def __init__(self, kind: str, index: int, blowups: int) -> None:
        if kind not in ("plane", "hirzebruch"):
            raise LatticeError(f"unknown surface kind {kind!r}")
        try:
            index, blowups = _as_int(index), _as_int(blowups)
        except TypeError:
            raise LatticeError("index and blow-up count must be integers") from None
        if kind == "plane" and index != 0:
            raise LatticeError("plane surfaces carry no Hirzebruch index")
        if index < 0 or blowups < 0:
            raise LatticeError("index and blow-up count must be nonnegative")
        _set_field(self, "kind", kind)
        _set_field(self, "index", index)
        _set_field(self, "blowups", blowups)

    __setattr__ = __delattr__ = _frozen

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.kind, self.index, self.blowups) == (other.kind, other.index, other.blowups)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.kind, self.index, self.blowups))

    def __repr__(self) -> str:
        return f"Surface(kind={self.kind!r}, index={self.index!r}, blowups={self.blowups!r})"

    def __reduce__(self):
        # the cached canonical class points back at its surface, so it is
        # not part of the state: the copy recomputes it on first use
        return Surface, (self.kind, self.index, self.blowups)

    @property
    def base_rank(self) -> int:
        return 1 if self.kind == "plane" else 2

    @property
    def rank(self) -> int:
        return self.base_rank + self.blowups

    def basis_names(self) -> tuple[str, ...]:
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
            head: tuple[int, ...] = (x[0],)
        else:
            head = (x[1] - self.index * x[0], x[0])
        return head + tuple(-v for v in x[self.base_rank:])

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


@lru_cache(maxsize=256)
def _surface(kind: str, index: int, blowups: int) -> Surface:
    """The shared Surface of (kind, index, blow-up count); the arguments
    must be plain ints (a validated surface's fields)."""
    return Surface(kind, index, blowups)


def plane_blowup(n: int) -> Surface:
    return Surface("plane", 0, n)


def hirzebruch_blowup(index: int, n: int) -> Surface:
    return Surface("hirzebruch", index, n)


class DivisorClass:
    """An element of the divisor-class lattice, stored by basis coordinates.

    The constructor checks that the surface is a Surface, coerces every
    coordinate to an int and checks the count against the surface's rank.
    The two fields are slots; an instance has no __dict__ and is frozen.
    Equality and hash are those of the (surface, coords) pair.
    """

    __slots__ = ("surface", "coords")

    def __init__(self, surface: Surface, coords: Sequence[int]) -> None:
        if not isinstance(surface, Surface):
            raise LatticeError(f"a class lives on a Surface, not on {surface!r}")
        try:
            coords = tuple(map(_as_int, coords))
        except TypeError:
            raise LatticeError("coordinates must be integers") from None
        if len(coords) != surface.rank:
            raise LatticeError(
                f"coordinate length {len(coords)} does not match lattice rank {surface.rank}"
            )
        _set_field(self, "surface", surface)
        _set_field(self, "coords", coords)

    __setattr__ = __delattr__ = _frozen

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.surface, self.coords) == (other.surface, other.coords)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.surface, self.coords))

    @classmethod
    def _derived(cls, surface: Surface, coords: tuple[int, ...]) -> "DivisorClass":
        """A class whose coordinates the library built itself: a tuple of
        ints of the surface's rank, so the constructor's checks are skipped."""
        c = _new_object(cls)
        _set_field(c, "surface", surface)
        _set_field(c, "coords", coords)
        return c

    @classmethod
    def _derived_all(
        cls, surface: Surface, rows: Iterable[tuple[int, ...]]
    ) -> tuple["DivisorClass", ...]:
        """_derived for every row, in order: the objects are made and both
        slots set by C-level loops, with no Python call per class, and each
        row becomes the class's coordinates as it stands, not copied."""
        rows = tuple(rows)
        made = tuple(map(_new_object, repeat(cls, len(rows))))
        deque(map(_set_field, made, repeat("surface"), repeat(surface)), 0)
        deque(map(_set_field, made, repeat("coords"), rows), 0)
        return made

    def __reduce__(self):
        # the default reduction would restore the slots by setattr, which
        # a frozen class refuses: pickle and copy rebuild through the
        # validating constructor instead
        return DivisorClass, (self.surface, self.coords)

    def _require_same(self, other: "DivisorClass") -> None:
        if self.surface is not other.surface and self.surface != other.surface:
            raise ForeignClassError("foreign class: operands live on different surfaces")

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        if not isinstance(other, DivisorClass):
            return NotImplemented
        self._require_same(other)
        return DivisorClass._derived(self.surface, tuple(map(add, self.coords, other.coords)))

    def __radd__(self, other):
        # lets sum() fold class lists
        if other == 0:
            return self
        return NotImplemented

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
        names = self.surface.basis_names()
        parts: list[str] = []
        for c, name in zip(self.coords, names):
            if c == 0:
                continue
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
    class must live on d's surface, and anything that is not a class is a
    LatticeError naming it."""
    try:
        surface = d.surface
        dual = surface.dual(d.coords)
    except AttributeError:
        raise LatticeError(f"pairings need a divisor class, not {d!r}") from None
    out = []
    # equal surfaces are compared once per change of object, not per class
    checked = surface
    try:
        for c in classes:
            if c.surface is not checked:
                if c.surface != surface:
                    raise ForeignClassError("foreign class: operands live on different surfaces")
                checked = c.surface
            out.append(sum(map(mul, dual, c.coords)))
    except AttributeError:
        # c is the item that had no surface or no coordinates
        raise LatticeError(f"pairings need divisor classes, not {c!r}") from None
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
    """section_coefficient*D0 + fibre_coefficient*G minus multiplicities on the E_i."""
    if surface.kind != "hirzebruch":
        raise LatticeError("ruled_curve needs the ruled kind")
    ms = tuple(multiplicities)
    if len(ms) > surface.blowups:
        raise LatticeError("more multiplicities than blown-up points")
    tail = tuple(-m for m in ms) + (0,) * (surface.blowups - len(ms))
    return surface.divisor(section_coefficient, fibre_coefficient, *tail)


def arithmetic_genus(c: DivisorClass) -> int:
    """Adjunction genus (C*C + K*C)/2 + 1; parity is a lattice theorem here."""
    total = c * c + c.surface.canonical() * c
    if total % 2:
        raise LatticeError("non-integral genus")
    return total // 2 + 1


def is_minus_one_class(c: DivisorClass) -> bool:
    return c * c == -1 and c.surface.canonical() * c == -1


def _require_on(surface: Surface, c: DivisorClass) -> None:
    if c.surface is not surface and c.surface != surface:
        raise ForeignClassError("foreign class: carried class lives on another surface")


def _basis_exceptional_index(coords: tuple[int, ...], base: int) -> int | None:
    """1-based i when the coordinates (over a base of rank ``base``) are
    exactly the basis class E_i, else None."""
    if any(coords[:base]):
        return None
    hits = [i for i in range(base, len(coords)) if coords[i]]
    if len(hits) == 1 and coords[hits[0]] == 1:
        return hits[0] - base + 1
    return None


def blow_up(
    surface: Surface, classes: Iterable[DivisorClass] = ()
) -> tuple[Surface, tuple[DivisorClass, ...]]:
    """Blow up one more point; carried classes gain a zero coordinate."""
    bigger = _surface(surface.kind, surface.index, surface.blowups + 1)
    out = []
    for c in classes:
        _require_on(surface, c)
        out.append(DivisorClass._derived(bigger, c.coords + (0,)))
    return bigger, tuple(out)


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
    the identity.
    """
    if surface.kind != "plane":
        raise LatticeError("quadratic transforms need the plane kind")
    if len({i, j, k}) != 3:
        raise LatticeError("quadratic transforms need three distinct points")
    for t in (i, j, k):
        if not 1 <= t <= surface.blowups:
            raise LatticeError(f"no exceptional class E{t} on a {surface.blowups}-point surface")
    rows = []
    for c in classes:
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
    if e.surface != surface:
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
) -> tuple[Surface, list[tuple[int, ...]]]:
    """Contract the (-1)-class with coordinates e; returns the smaller
    surface and the coordinate rows pushed forward.

    The caller has checked that e is a (-1)-class of the surface.  A basis
    exceptional class contracts by dropping its coordinate.  Any other
    class is first carried onto a basis class by contracting_isometry (which
    raises off the plane kind), the rows moving along.
    """
    base = surface.base_rank
    idx = _basis_exceptional_index(e, base)
    if idx is None:
        moves, idx = contracting_isometry(surface, DivisorClass._derived(surface, e))
        for (i, j, k) in moves:
            rows = _reflect(rows, i, j, k)
    pos = base + idx - 1
    smaller = _surface(surface.kind, surface.index, surface.blowups - 1)
    return smaller, [c[:pos] + c[pos + 1:] for c in rows]


def blow_down(
    surface: Surface, e: DivisorClass, classes: Iterable[DivisorClass] = ()
) -> tuple[Surface, tuple[DivisorClass, ...]]:
    """Contract the (-1)-class e; returns the smaller surface and pushforwards.

    A basis exceptional class contracts by dropping its coordinate.  Any
    other plane (-1)-class is first carried onto a basis class by
    contracting_isometry, moving the whole carried list along.  On the ruled
    kind only basis classes contract (contracting anything else would leave
    the ambient family).
    """
    if e.surface != surface:
        raise ForeignClassError("foreign class: e lives on another surface")
    rows = []
    for c in classes:
        _require_on(surface, c)
        rows.append(c.coords)
    if not is_minus_one_class(e):
        raise NotContractibleError(f"not contractible: {e} is not a (-1)-class")
    smaller, pushed = _contract_rows(surface, e.coords, rows)
    return smaller, DivisorClass._derived_all(smaller, pushed)


class ElementaryTransformResult(NamedTuple):
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
    s_coef, f_coef = curve
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


class Fibration(NamedTuple):
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
        if f.surface != self.surface:
            raise ForeignClassError("foreign class: fibre class lives on another surface")
        if f * f != 0:
            raise LatticeError(f"fibre class has self-intersection {f * f}, expected 0")
        k = self.surface.canonical()
        if k * f != 2 * self.genus - 2:
            raise LatticeError(
                f"canonical degree {k * f} does not match genus {self.genus}"
            )
        for s in self.sections:
            if s.surface != self.surface:
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
