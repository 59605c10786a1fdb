"""Exhaustive enumeration of curve classes by numerical data.

Classes are enumerated by their pairing with a fixed nef reference class
(the line L, or D0 + (index+1)G on the ruled kind, which pairs x + y with
x D0 + y G + ...) up to a degree cap, constrained to the requested
self-intersection and canonical degree.  Permuting the exceptional
coordinates fixes all three numbers, so only non-increasing tails are
listed, one representative per orbit.  A tail fixes sum t_i^2 and
sum t_i, so with m = t + 1 it is a multiset of the package's one
multiset walk, ``numerics._multisets``, whose cuts are the only pruning.

Every query works on block orbits: the exceptional indices split into
blocks on which every weight class (the fibre, a constraint target) has
one coordinate, each representative is dealt into one non-increasing
tail per block, and a weight class pairs to the same value with every
class of such an orbit.  enum_classes names no weight class, so its one
block holds every position.  Each orbit is paired once, and only the
orbits a caller reads are expanded.  Each row is written once, head
first: the first block's arrangements (a large one by halves) carry the
orbit's head, the other blocks' arrangements are joined on block after
block, and one permutation puts the whole row, head included, in
position order.  Each head's rows are sorted once and become the
classes' coordinates as they stand, so an enumerated class costs one
coordinate tuple and one slotted object.

One budget rule covers every query: the walk counts its nodes plus the
orbits it emits, and expanding orbits into more classes than the budget
raises before any class is built.  The orbit lists of the section
search, the identity and the reconstruction check are cached for recent
queries and clear_caches drops them; enum_classes walks afresh, as no
caller repeats a query, and class lists are built anew on every call.
"""

from __future__ import annotations

from functools import cached_property, lru_cache, reduce
from itertools import chain, compress, repeat
from math import factorial, prod
from operator import add, eq, index as _as_int, itemgetter, mul, sub
from typing import NamedTuple

from .lattice import (
    DivisorClass,
    Fibration,
    ForeignClassError,
    LatticeError,
    Surface,
    _frozen,
    pairings,
)
from .numerics import _multisets

__all__ = [
    "BudgetExceededError",
    "ClassQuery",
    "enum_classes",
    "clear_caches",
    "minus_one_section_exists",
    "SectionSearch",
    "fibre_intersection_identity",
    "IdentityReport",
]

DEFAULT_BUDGET = 2_000_000


class BudgetExceededError(LatticeError):
    """The enumeration visited more states than the configured budget."""


class _QueryFields(NamedTuple):
    self_int: int
    k_deg: int
    degree_cap: int = 3


class ClassQuery(_QueryFields):
    """Target numerical data: C*C, K*C, and a cap on the reference degree.
    Each field is coerced to an int; anything else is a LatticeError.  A
    query is a tuple of its three fields; pickle, copy and ``_replace``
    validate again through the constructor."""

    __slots__ = ()

    def __new__(cls, self_int: int, k_deg: int, degree_cap: int = 3):
        try:
            fields = (_as_int(self_int), _as_int(k_deg), _as_int(degree_cap))
        except TypeError:
            raise LatticeError("query fields must be integers") from None
        if fields[2] < 1:
            raise LatticeError("degree cap must be at least 1")
        return tuple.__new__(cls, fields)

    @classmethod
    def _make(cls, iterable) -> "ClassQuery":
        return cls(*iterable)


def _expect(value, kind: type, name: str) -> None:
    """A LatticeError naming the argument when it is not a ``kind``."""
    if not isinstance(value, kind):
        raise LatticeError(f"{name} must be a {kind.__name__}, not {value!r}")


def _check_fibration(fib: Fibration) -> None:
    _expect(fib, Fibration, "fib")
    _expect(fib.fibre_class, DivisorClass, "the fibre class of fib")


def _budget_size(n: int) -> int:
    """A budget as an int; anything else is a LatticeError."""
    try:
        return _as_int(n)
    except TypeError:
        raise LatticeError(f"budget must be an integer, not {n!r}") from None


class _Budget:
    __slots__ = ("left",)

    def __init__(self, n: int) -> None:
        self.left = _budget_size(n)

    def spend(self) -> None:
        self.left -= 1
        if self.left < 0:
            raise BudgetExceededError("budget exceeded")


def _descending(tail: tuple[int, ...], prefix: tuple[int, ...] = ()):
    """prefix + each distinct permutation of a non-increasing tuple, in
    descending lexicographic order (repeated previous-permutation steps on
    the positions after the prefix); each row is one new tuple."""
    t = list(prefix + tail)
    start = len(prefix)
    last = len(t) - 1
    while True:
        yield tuple(t)
        i = last - 1
        while i >= start and t[i] <= t[i + 1]:
            i -= 1
        if i < start:
            return
        j = last
        while t[j] >= t[i]:
            j -= 1
        t[i], t[j] = t[j], t[i]
        t[i + 1:] = t[:i:-1]


# below this many arrangements, joining halves costs more than it saves
_SPLIT_AT = 64


def _arrangements(tail: tuple[int, ...], prefix: tuple[int, ...] = ()) -> list[tuple[int, ...]]:
    """prefix + each distinct permutation of a non-increasing tuple, as a
    list of rows written once, prefix first.

    Fewer than _SPLIT_AT are stepped through directly, in descending
    lexicographic order.  A larger multiset is split over the two halves of
    the positions, once for each way to deal it into them, and every
    arrangement of the first half, prefix included, is joined to every
    arrangement of the second; each distinct (prefix, half) is permuted
    once.  The order is then descending within one split, not across
    splits.
    """
    if _arrangement_count(tail) < _SPLIT_AT:
        return list(_descending(tail, prefix))
    values, counts = _multiset(tail)
    permuted: dict[tuple[tuple[int, ...], tuple[int, ...]], list[tuple[int, ...]]] = {}

    def arranged(head, taken):
        key = head, _spread(values, taken)
        if key not in permuted:
            permuted[key] = list(_descending(key[1], head))
        return permuted[key]

    out: list[tuple[int, ...]] = []
    for taken in _picks(counts, len(tail) // 2):
        out += _joined(arranged(prefix, taken), arranged((), tuple(map(sub, counts, taken))))
    return out


def _joined(lefts: list[tuple[int, ...]], rights: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Each left tuple followed by each right one, lefts outermost."""
    out: list[tuple[int, ...]] = []
    for left in lefts:
        out += map(add, repeat(left), rights)
    return out


def _heads(surface: Surface, query: ClassQuery):
    """(head coordinates, tail square sum, tail linear sum) for every head
    whose reference degree lies between 0 and the cap."""
    if surface.kind == "plane":
        for degree in range(query.degree_cap + 1):
            yield (degree,), degree * degree - query.self_int, -3 * degree - query.k_deg
        return
    d = surface.index
    for degree in range(query.degree_cap + 1):
        # degree = x + (coefficient of G contribution): H*(x D0 + y G + ...) = x*(index+1) - x*index + ... = x + y
        for x in range(-degree - abs(query.self_int) - 3, degree + abs(query.self_int) + 4):
            y = degree - x
            square_sum = -(d + 2) * x * x + 2 * degree * x - query.self_int
            if square_sum < 0:
                continue
            yield (x, y), square_sum, (d - 2) * x - 2 * y - query.k_deg


def _walk(surface: Surface, query: ClassQuery, budget: _Budget):
    """(head, representative tail) for every orbit of the permutations of
    the exceptional coordinates, the zero class left out, tails in
    descending order within a head.

    A tail t has sum t_i^2 = S and sum t_i = L, so m = t + 1 has sum
    m(m-1)/2 = (S + L)/2 and sum (m-1) = L: the multisets of numerics'
    walk, which leaves out the zeros (m = 1); an odd S - L has no tail.
    The zeros go back between the positive and the negative entries.
    """
    n = surface.blowups
    for head, square_sum, linear_sum in _heads(surface, query):
        if (square_sum - linear_sum) % 2:
            continue
        nonzero = any(head)
        pair_sum = (square_sum + linear_sum) // 2
        for ms in _multisets(pair_sum, None, None, n, linear_sum, linear_sum, budget.spend):
            if nonzero or ms:
                xs = tuple(m - 1 for m in ms)
                k = sum(x > 0 for x in xs)
                yield head, xs[:k] + (0,) * (n - len(xs)) + xs[k:]


class _Orbit(NamedTuple):
    """Classes sharing a head and, block by block, a multiset of exceptional
    coordinates: one non-increasing tail per block, and the class count."""

    head: tuple[int, ...]
    tails: tuple[tuple[int, ...], ...]
    size: int


def _blocks(surface: Surface, weights: tuple[DivisorClass, ...]) -> tuple[tuple[int, ...], ...]:
    """Exceptional positions (0-based) grouped by their coordinates in every
    weight class, blocks ordered by their first position."""
    for w in weights:
        if w.surface != surface:
            raise ForeignClassError("foreign class: operands live on different surfaces")
    base = surface.base_rank
    positions = range(surface.blowups)
    # a position's key is its coordinate in every weight class
    keys = tuple(zip(*(w.coords[base:] for w in weights))) if weights else ((),) * len(positions)
    return tuple(
        tuple(compress(positions, map(eq, keys, repeat(key)))) for key in dict.fromkeys(keys)
    )


def _picks(counts: tuple[int, ...], size: int, i: int = 0):
    """Vectors t with 0 <= t_j <= counts_j for j >= i and sum(t) = size,
    largest first."""
    if i == len(counts):
        if size == 0:
            yield ()
        return
    if sum(counts[i:]) < size:
        return
    for t in range(min(counts[i], size), -1, -1):
        for rest in _picks(counts, size - t, i + 1):
            yield (t,) + rest


def _deals(tail: tuple[int, ...], sizes: tuple[int, ...]):
    """Every way to deal a non-increasing tuple into blocks of the given
    sizes, which sum to its length, as one non-increasing tail per block;
    the last block takes what is left."""
    if len(sizes) < 2:
        yield (tail,) if sizes else ()
        return
    values, counts = _multiset(tail)
    for taken in _picks(counts, sizes[0]):
        first = _spread(values, taken)
        for rest in _deals(_spread(values, tuple(map(sub, counts, taken))), sizes[1:]):
            yield (first,) + rest


def _spread(values: tuple[int, ...], counts: tuple[int, ...]) -> tuple[int, ...]:
    """The non-increasing tuple holding values[j] counts[j] times."""
    return tuple(v for v, c in zip(values, counts) for _ in range(c))


def _multiset(tail: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(distinct values, descending; how often each occurs) of a tuple."""
    values = tuple(sorted(set(tail), reverse=True))
    return values, tuple(map(tail.count, values))


def _arrangement_count(tail: tuple[int, ...]) -> int:
    return factorial(len(tail)) // prod(map(factorial, map(tail.count, set(tail))))


def _orbits(
    surface: Surface, query: ClassQuery, blocks: tuple[tuple[int, ...], ...], budget_size: int
) -> tuple[_Orbit, ...]:
    """Every block orbit of the query's classes, the zero class left out,
    in walk order; the budget counts walk nodes plus orbits emitted."""
    budget = _Budget(budget_size)
    sizes = tuple(map(len, blocks))
    orbits = []
    for head, rep in _walk(surface, query, budget):
        for tails in _deals(rep, sizes):
            budget.spend()
            orbits.append(_Orbit(head, tails, prod(map(_arrangement_count, tails))))
    return tuple(orbits)


# An orbit list is small (283 orbits stand for the 808,380 (-1)-classes of
# P^2 blown up in 12 points at cap 6), so many queries can be kept.
_orbits_cached = lru_cache(maxsize=64)(_orbits)


def enum_classes(
    surface: Surface, query: ClassQuery, budget: int = DEFAULT_BUDGET
) -> tuple[DivisorClass, ...]:
    """Every class with the queried numerical data and reference degree
    between 0 and the cap, in ascending (degree part, multiplicities) order:
    the orbits over one block of every exceptional position, expanded.  A
    surface or query of another type is a LatticeError naming it."""
    _expect(surface, Surface, "surface")
    _expect(query, ClassQuery, "query")
    budget = _budget_size(budget)
    blocks = _blocks(surface, ())
    return _expand(surface, blocks, _orbits(surface, query, blocks, budget), budget)


def clear_caches() -> None:
    """Drop every cached block-orbit list."""
    _orbits_cached.cache_clear()


def _orbit_degrees(
    d: DivisorClass, blocks: tuple[tuple[int, ...], ...], orbits: tuple[_Orbit, ...]
) -> tuple[int, ...]:
    """d*C for the classes of each orbit; d must be constant on every block."""
    dual = d.surface.dual(d.coords)
    base = d.surface.base_rank
    head = dual[:base]
    weights = tuple(dual[base + block[0]] for block in blocks)
    for w, block in zip(weights, blocks):
        if any(dual[base + i] != w for i in block):
            raise LatticeError(f"{d} is not constant on the exceptional block {block}")
    return tuple(
        sum(map(mul, head, o.head)) + sum(w * sum(t) for w, t in zip(weights, o.tails))
        for o in orbits
    )


def _placer(base: int, blocks: tuple[tuple[int, ...], ...]) -> itemgetter | None:
    """One itemgetter putting a whole row, the base-rank head followed by
    the exceptional coordinates written block after block, into position
    order; None when the blocks already hold the positions in order."""
    order = tuple(range(base)) + tuple(base + i for i in chain.from_iterable(blocks))
    if order == tuple(range(len(order))):
        return None
    return itemgetter(*sorted(range(len(order)), key=order.__getitem__))


def _first(surface: Surface, blocks, orbits) -> DivisorClass | None:
    """The class of the given orbits that comes first in enumeration order:
    the least head, then the largest tail.  An orbit's largest tail fills
    each position, in index order, with the largest value left in its block,
    which is its head and block tails written as one row and placed by the
    permutation _expand uses."""
    if not orbits:
        return None
    head = min(o.head for o in orbits)
    rows = [sum(o.tails, head) for o in orbits if o.head == head]
    place = _placer(surface.base_rank, blocks)
    return DivisorClass._derived(surface, max(rows if place is None else map(place, rows)))


def _expand(surface: Surface, blocks, orbits, budget: int) -> tuple[DivisorClass, ...]:
    """Every class of the given orbits, in enumeration order: heads
    ascending, tails descending within a head.  Each row is written once,
    head first: the first block's arrangements carry the orbit's head, the
    other blocks' arrangements are joined to them block after block, and
    one permutation puts the whole row in position order.  A head's rows
    all share it, so each head's list is sorted once, descending, as whole
    rows, and the rows become the classes' coordinates in bulk.  More
    classes than the budget raise before any is built."""
    if sum(o.size for o in orbits) > budget:
        raise BudgetExceededError("budget exceeded")
    place = _placer(surface.base_rank, blocks)
    groups: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for o in orbits:
        first, *rest = o.tails or ((),)
        rows = reduce(_joined, map(_arrangements, rest), _arrangements(first, o.head))
        groups.setdefault(o.head, []).extend(rows if place is None else map(place, rows))
    for rows in groups.values():
        rows.sort(reverse=True)
    return DivisorClass._derived_all(surface, chain.from_iterable(map(groups.get, sorted(groups))))


def _classes_meeting(
    surface: Surface, d: DivisorClass, degree: int, query: ClassQuery
) -> tuple[DivisorClass, ...]:
    """The classes of enum_classes(surface, query) with d*C == degree, in
    the same order; only the block orbits that pair to degree are expanded."""
    blocks = _blocks(surface, (d,))
    orbits = _orbits_cached(surface, query, blocks, DEFAULT_BUDGET)
    keep = tuple(o for o, v in zip(orbits, _orbit_degrees(d, blocks, orbits)) if v == degree)
    return _expand(surface, blocks, keep, DEFAULT_BUDGET)


class IdentityReport:
    """F*C and pencil*C over an enumeration, given F = pencil - shift*K.

    ``holds`` records that decomposition (a failing one raises instead).
    ``count`` is the number of enumerated classes.  ``classes`` and
    ``witnesses`` (the classes attaining the minimum) are expanded, in
    enumeration order, only when read, and the degree tuples are paired
    over ``classes`` then; more classes than the budget raise
    BudgetExceededError.  A report is frozen; its repr, equality and hash
    are those of the five public fields.
    """

    def __init__(
        self,
        holds: bool,
        shift: int,
        pencil: DivisorClass,
        minimum: int | None,
        count: int,
        _blocks: tuple[tuple[int, ...], ...] = (),
        _orbits: tuple[_Orbit, ...] = (),
        _fibre_degrees: tuple[int, ...] = (),
        _budget: int = DEFAULT_BUDGET,
    ) -> None:
        vars(self).update(
            holds=holds, shift=shift, pencil=pencil, minimum=minimum, count=count,
            _blocks=_blocks, _orbits=_orbits, _fibre_degrees=_fibre_degrees, _budget=_budget,
        )

    __setattr__ = __delattr__ = _frozen

    def _public(self) -> tuple:
        return self.holds, self.shift, self.pencil, self.minimum, self.count

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._public() == other._public()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._public())

    def __repr__(self) -> str:
        return (
            f"IdentityReport(holds={self.holds!r}, shift={self.shift!r}, "
            f"pencil={self.pencil!r}, minimum={self.minimum!r}, count={self.count!r})"
        )

    @cached_property
    def classes(self) -> tuple[DivisorClass, ...]:
        return _expand(self.pencil.surface, self._blocks, self._orbits, self._budget)

    @cached_property
    def fibre_degrees(self) -> tuple[int, ...]:
        fibre = self.pencil + (-self.shift) * self.pencil.surface.canonical()
        return pairings(fibre, self.classes)

    @cached_property
    def pencil_degrees(self) -> tuple[int, ...]:
        return pairings(self.pencil, self.classes)

    @cached_property
    def witnesses(self) -> tuple[DivisorClass, ...]:
        lowest = tuple(o for o, fd in zip(self._orbits, self._fibre_degrees) if fd == self.minimum)
        return _expand(self.pencil.surface, self._blocks, lowest, self._budget)


def _check_decomposition(fib: Fibration, pencil: DivisorClass, shift: int) -> int:
    """The shift as an int, once F = pencil - shift*K is checked; a pencil
    that is not a class or a shift that is not an integer is a
    LatticeError."""
    _expect(pencil, DivisorClass, "pencil")
    try:
        shift = _as_int(shift)
    except TypeError:
        raise LatticeError(f"shift must be an integer, not {shift!r}") from None
    if pencil.surface != fib.surface:
        raise LatticeError("identity inapplicable: pencil lives on another surface")
    if fib.fibre_class != pencil + (-shift) * fib.surface.canonical():
        raise LatticeError("identity inapplicable: fibre class is not pencil minus shift times canonical")
    return shift


def fibre_intersection_identity(
    fib: Fibration,
    pencil: DivisorClass,
    shift: int,
    query: ClassQuery,
    budget: int = DEFAULT_BUDGET,
) -> IdentityReport:
    """Certify the fibre pairing against a pencil decomposition F = P - shift*K.

    The decomposition is verified (``holds``; a failure raises
    LatticeError); by bilinearity it pins F*C = P*C - shift*(K*C) for every
    class, and every enumerated class has K*C = query.k_deg.  So F is
    paired once per block orbit of F (K is constant on the exceptional
    coordinates, so P is constant on these blocks too), which gives the
    count, the minimum and the orbits of its witnesses.  A fibration,
    fibre class, pencil or query of another type is a LatticeError naming
    it, raised before any walk.
    """
    _check_fibration(fib)
    _expect(query, ClassQuery, "query")
    shift = _check_decomposition(fib, pencil, shift)
    budget = _budget_size(budget)
    f = fib.fibre_class
    blocks = _blocks(fib.surface, (f,))
    orbits = _orbits_cached(fib.surface, query, blocks, budget)
    fds = _orbit_degrees(f, blocks, orbits)
    count = sum(o.size for o in orbits)
    return IdentityReport(
        True, shift, pencil, min(fds, default=None), count, blocks, orbits, fds, budget
    )


class SectionSearch(NamedTuple):
    """Result of hunting a (-1)-class meeting the fibre exactly once."""

    exists: bool
    witness: DivisorClass | None
    minimum: int | None
    minimum_witness: DivisorClass | None
    certified_bound: int | None
    note: str


def minus_one_section_exists(
    fib: Fibration,
    cap: int = 3,
    pencil: DivisorClass | None = None,
    shift: int | None = None,
    budget: int = DEFAULT_BUDGET,
) -> SectionSearch:
    """Search enumerated (-1)-classes for a section of the pencil.

    F*C is computed once per block orbit of F; each witness is the first
    qualifying class in enumeration order.  When a pencil is supplied,
    ``shift`` must be an integer and the decomposition F = pencil - shift*K
    is checked before the walk (either failure is a LatticeError, as is a
    shift without a pencil); then F*C = pencil*C + shift on classes with
    K*C = -1, and shift is certified as a lower bound over the enumerated
    range when pencil*C >= 0 on every enumerated class, that is when the
    minimum is at least shift.  A fibration, fibre class or pencil of
    another type is a LatticeError naming it, raised before any walk.
    """
    _check_fibration(fib)
    if pencil is not None:
        shift = _check_decomposition(fib, pencil, shift)
    elif shift is not None:
        raise LatticeError("a shift needs a pencil to certify against")
    surface = fib.surface
    blocks = _blocks(surface, (fib.fibre_class,))
    orbits = _orbits_cached(surface, ClassQuery(-1, -1, cap), blocks, _budget_size(budget))
    degrees = _orbit_degrees(fib.fibre_class, blocks, orbits)
    witness = _first(surface, blocks, [o for o, d in zip(orbits, degrees) if d == 1])
    minimum = min(degrees, default=None)
    minimum_witness = _first(surface, blocks, [o for o, d in zip(orbits, degrees) if d == minimum])
    certified = None
    note = ""
    # F*C = pencil*C + shift on (-1)-classes, so the bound needs
    # pencil*C >= 0 on every enumerated one
    if pencil is not None and (minimum is None or minimum >= shift):
        certified = shift
        note = (
            f"F*C = pencil*C + {shift} and pencil*C >= 0 on every enumerated "
            f"(-1)-class, so the enumerated classes pair at least {shift}"
        )
    return SectionSearch(witness is not None, witness, minimum, minimum_witness, certified, note)
