"""Fibre decompositions, dual graphs, and lattice certificates.

A reducible fibre is recorded as named components with multiplicities;
validation checks the class sum, any declared self-intersections and
genera, the orthogonality of each component to the fibre, and
nonnegative pairwise meetings (which together make the component Gram
matrix negative semidefinite).  On top of that sit the dual-graph
builder, a Dynkin-diagram classifier for the (-2)-part, and the
Mordell-Weil rank certificates.  Every certificate reads its pairings
from one matrix, built by ``_gram``.  That builder is memoized on the
tuple of classes, so the Gram matrix of a fibre that a model file's
loading validated is read back, not recomputed, by the later checks on
the same components, and the blocks and the complement of one model
share theirs.  A component's genus reads its square off that matrix and
K*C off the canonical dual vector.  An argument that is not a fibration
or a decomposition, components that are not a tuple (or are one lone
component), one that holds something other than components or divisor
classes, or a multiplicity or node count that is not an integer, is a
TypeError naming it.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache
from itertools import accumulate, combinations, product, repeat
from math import isqrt, prod
from operator import getitem, mul

from ._record import Record
from .intmat import bareiss_determinant, hermite_normal_form, kernel_basis
from .lattice import (
    DivisorClass,
    Fibration,
    ForeignClassError,
    LatticeError,
    Surface,
    _adjunction_genus,
    _expect,
    _expect_many,
    _integer,
)

__all__ = [
    "FibreError",
    "FibreComponent",
    "FibreDecomposition",
    "FibreReport",
    "validate_fibre",
    "DualGraph",
    "dual_graph",
    "classify_diagram",
    "ade_classify",
    "shioda_rank",
    "DecompositionReport",
    "orthogonal_decomposition_check",
    "ComplementLattice",
    "complement_lattice",
]


class FibreError(LatticeError):
    """A fibre decomposition failed an identity."""


@lru_cache(maxsize=64)
def _gram(classes: tuple[DivisorClass, ...]) -> tuple[tuple[int, ...], ...]:
    """The pairing matrix of ``classes``, a tuple of divisor classes on one
    surface.

    Memoized on the tuple: a class is immutable and hashes by its surface
    and coordinates, so equal tuples have equal matrices.  The memo keeps
    the last 64, like the orbit cache of curves: the whole catalog asks
    for 12 (one per fibre and one per model's blocks), 13 x 13 at most.
    ``_gram.cache_clear()`` drops them.  The callers check that every
    item is a DivisorClass first, so a key is always hashable; classes on
    two surfaces are a ForeignClassError.  The form is symmetric, so each
    pair is paired once: row i dots c_i's dual vector with the coordinates
    of c_i and the classes after it, and its entries before the diagonal
    are read off the rows above.
    """
    if not classes:
        return ()
    surface = classes[0].surface
    if any(c.surface is not surface for c in classes):
        raise ForeignClassError("foreign class: operands live on different surfaces")
    rows = [c.coords for c in classes]
    upper = [
        tuple(map(sum, map(map, repeat(mul), repeat(d), rows[i:])))
        for i, d in enumerate(map(surface.dual, rows))
    ]
    # row i before the diagonal: upper[j][i - j] for j < i
    return tuple(
        tuple(map(getitem, upper, range(i, 0, -1))) + row for i, row in enumerate(upper)
    )


def _genus(c: DivisorClass, square: int) -> int:
    """The arithmetic genus of c, given its square from a Gram matrix the
    caller holds; K*c is a dot product with the canonical dual vector."""
    return _adjunction_genus(square, sum(map(mul, c.surface._canonical_dual, c.coords)))


class FibreComponent(Record):
    name: str
    divisor: DivisorClass
    multiplicity: int
    declared_self_intersection: int | None = None
    declared_genus: int | None = None


def _divisor(p: FibreComponent, surface: Surface | None = None) -> DivisorClass:
    """The class of component ``p``.  A component that is not a
    FibreComponent, or a divisor that is not a DivisorClass, is a TypeError
    naming it; a divisor off ``surface`` when that is given is a FibreError
    naming p."""
    _expect(p, FibreComponent, "a component")
    c = p.divisor
    if not isinstance(c, DivisorClass):
        raise TypeError(f"component {p.name} has divisor {c!r}, not a divisor class")
    if surface is not None and c.surface is not surface:
        raise FibreError(f"foreign class: component {p.name} lives on another surface")
    return c


class FibreDecomposition(Record):
    name: str
    components: tuple[FibreComponent, ...]

    def component(self, name: str) -> FibreComponent:
        for c in self.components:
            if c.name == name:
                return c
        raise KeyError(name)


def _check_arguments(fib: Fibration, dec: FibreDecomposition) -> None:
    _expect(fib, Fibration, "fib")
    _expect(dec, FibreDecomposition, "dec")


class FibreReport(Record):
    name: str
    component_count: int
    gram: tuple[tuple[int, ...], ...]


def validate_fibre(fib: Fibration, dec: FibreDecomposition) -> FibreReport:
    """Check every identity a reducible fibre must satisfy; raises on the
    first violation, returns a summary on success.

    The component Gram matrix G is then negative semidefinite without a
    further test (Zariski's lemma): with multiplicities m_i >= 1, rows
    sum_j m_j G_ij = F.C_i = 0 and G_ij >= 0 off the diagonal, writing
    x_i = m_i y_i gives x^T G x = -1/2 sum_{i != j} m_i m_j G_ij (y_i - y_j)^2.
    """
    _check_arguments(fib, dec)
    f = fib.fibre_class
    parts = dec.components
    _expect_many(parts, "dec.components", tuple)
    if not parts:
        raise FibreError(f"fibre {dec.name} has no components")
    divisors, mults = [], []
    for p in parts:
        divisors.append(_divisor(p, fib.surface))
        m = _integer(p.multiplicity, f"the multiplicity of component {p.name}")
        if m < 1:
            raise FibreError(f"component {p.name} has multiplicity {m}")
        mults.append(m)
    # the weighted sum, coordinate by coordinate
    columns = zip(*(c.coords for c in divisors))
    total = DivisorClass._derived(fib.surface, tuple(sum(map(mul, mults, x)) for x in columns))
    if total != f:
        residual = f - total
        raise FibreError(
            f"decomposition does not sum to F: fibre {dec.name} leaves residual {residual}"
        )
    gram = _gram(tuple(divisors))
    for i, p in enumerate(parts):
        sq = gram[i][i]
        if p.declared_self_intersection is not None and sq != p.declared_self_intersection:
            raise FibreError(
                f"component {p.name} has self-intersection {sq}, "
                f"declared {p.declared_self_intersection}"
            )
        g = _genus(divisors[i], sq)
        if p.declared_genus is not None and g != p.declared_genus:
            raise FibreError(f"component {p.name} has genus {g}, declared {p.declared_genus}")
        # F is the weighted sum of the components, so F.C is a weighted row sum
        meet = sum(m * w for m, w in zip(mults, gram[i]))
        if meet != 0:
            raise FibreError(f"component {p.name} meets the fibre class ({meet}), expected 0")
    for i, j in combinations(range(len(parts)), 2):
        if gram[i][j] < 0:
            raise FibreError(
                f"components {parts[i].name} and {parts[j].name} pair negatively ({gram[i][j]})"
            )
    return FibreReport(dec.name, len(parts), gram)


class DualGraph(Record):
    """Weighted dual graph: nodes carry (name, self-intersection, genus)."""

    nodes: tuple[tuple[str, int, int], ...]
    edges: tuple[tuple[int, int, int], ...]


def _graph(parts: Sequence[FibreComponent], surface: Surface | None = None) -> DualGraph:
    _expect_many(parts, "dec.components", tuple)
    divisors = tuple(_divisor(p, surface) for p in parts)
    gram = _gram(divisors)
    nodes = tuple(
        (p.name, gram[i][i], _genus(c, gram[i][i])) for i, (p, c) in enumerate(zip(parts, divisors))
    )
    pairs = combinations(range(len(parts)), 2)
    return DualGraph(nodes, tuple((i, j, gram[i][j]) for i, j in pairs if gram[i][j]))


def dual_graph(fib: Fibration, dec: FibreDecomposition) -> DualGraph:
    _check_arguments(fib, dec)
    return _graph(dec.components, fib.surface)


def classify_diagram(node_count: int, edges: Sequence[tuple[int, int]]) -> str:
    """Label a connected simply-laced diagram: A/D/E, their affine shapes
    (suffixed with ~), or "unclassified".  The nodes are 0 .. node_count - 1;
    a count or an edge end that is not an integer, or an edge that is not a
    pair, is a TypeError naming it, and a negative count, or an edge whose
    ends are not nodes, is a FibreError naming it."""
    n = _integer(node_count, "node_count")
    if n < 0:
        raise FibreError(f"node_count must be nonnegative, not {n}")
    if n == 0:
        return "unclassified"
    adj: list[set[int]] = [set() for _ in range(n)]
    for edge in edges:
        try:
            a, b = edge
        except (TypeError, ValueError):
            raise TypeError(f"an edge must be a pair of nodes, not {edge!r}") from None
        a, b = (_integer(x, "an edge end") for x in (a, b))
        if not (0 <= a < n and 0 <= b < n):
            raise FibreError(f"edge {edge!r} has an end outside the nodes 0..{n - 1}")
        adj[a].add(b)
        adj[b].add(a)
    degrees = sorted(len(x) for x in adj)
    edge_count = len(edges)
    if n == 1:
        return "A1" if edge_count == 0 else "unclassified"
    if edge_count == n and all(len(x) == 2 for x in adj):
        return f"A{n - 1}~"
    if edge_count != n - 1:
        return "unclassified"
    # a tree from here on
    branch = [i for i in range(n) if len(adj[i]) > 2]
    if not branch:
        return f"A{n}"
    if len(branch) == 1:
        centre = branch[0]
        if len(adj[centre]) == 4:
            return "D4~" if n == 5 and degrees == [1, 1, 1, 1, 4] else "unclassified"
        arms = []
        for first in adj[centre]:
            length = 1
            prev, cur = centre, first
            while True:
                nxt = [x for x in adj[cur] if x != prev]
                if not nxt:
                    break
                prev, cur = cur, nxt[0]
                length += 1
            arms.append(length)
        arms.sort()
        if arms[0] == 1 and arms[1] == 1:
            return f"D{n}"
        table = {
            (1, 2, 2): "E6",
            (1, 2, 3): "E7",
            (1, 2, 4): "E8",
            (2, 2, 2): "E6~",
            (1, 3, 3): "E7~",
            (1, 2, 5): "E8~",
        }
        return table.get(tuple(arms), "unclassified")
    if len(branch) == 2:
        b1, b2 = branch
        if len(adj[b1]) == 3 and len(adj[b2]) == 3:
            leaves1 = sum(1 for x in adj[b1] if len(adj[x]) == 1)
            leaves2 = sum(1 for x in adj[b2] if len(adj[x]) == 1)
            if leaves1 == 2 and leaves2 == 2:
                return f"D{n - 1}~"
    return "unclassified"


def ade_classify(dec: FibreDecomposition) -> tuple[tuple[tuple[str, ...], str], ...]:
    """Connected components of the induced subgraph on (-2)-rational
    components met simply, with their diagram labels.

    Components carrying multiplicity weights above one in the pairing are
    left unclassified rather than misread as simply laced.
    """
    _expect(dec, FibreDecomposition, "dec")
    graph = _graph(dec.components)
    keep = [i for i, (_, sq, genus) in enumerate(graph.nodes) if sq == -2 and genus == 0]
    index = {v: k for k, v in enumerate(keep)}
    n = len(keep)
    adj: list[dict[int, int]] = [{} for _ in range(n)]
    for a, b, w in graph.edges:
        if a in index and b in index:
            i, j = index[a], index[b]
            adj[i][j] = w
            adj[j][i] = w
    seen = [False] * n
    out = []
    for i in range(n):
        if seen[i]:
            continue
        stack = [i]
        seen[i] = True
        comp = []
        while stack:
            v = stack.pop()
            comp.append(v)
            for u in adj[v]:
                if not seen[u]:
                    seen[u] = True
                    stack.append(u)
        comp.sort()
        local = {v: k for k, v in enumerate(comp)}
        edges = []
        heavy = False
        for v in comp:
            for u, w in adj[v].items():
                if v < u:
                    edges.append((local[v], local[u]))
                    if w > 1:
                        heavy = True
        label = "unclassified" if heavy else classify_diagram(len(comp), edges)
        out.append((tuple(graph.nodes[keep[v]][0] for v in comp), label))
    return tuple(out)


def shioda_rank(picard_rank: int, component_counts: Sequence[int]) -> int:
    """Mordell-Weil rank forced by the rank bookkeeping: the lattice rank
    minus two (fibre and zero section) minus one per extra fibre component."""
    picard_rank = _integer(picard_rank, "picard_rank")
    extra = sum(_integer(c, "a component count") - 1 for c in component_counts)
    rank = picard_rank - 2 - extra
    if rank < 0:
        raise FibreError(
            f"inconsistent fibre data: component counts exceed the lattice rank by {-rank}"
        )
    return rank


class DecompositionReport(Record):
    passed: bool
    rank: int
    determinant: int | None
    block_sizes: tuple[int, ...]
    messages: tuple[str, ...]
    certificate: str


def _block_determinant(gram: Sequence[Sequence[int]], spans: Sequence[range]) -> int:
    """The determinant of a Gram matrix that is block diagonal on
    ``spans``, consecutive ranges of its rows and columns: the product of
    the diagonal blocks' determinants."""
    return prod(bareiss_determinant([gram[i][r.start:r.stop] for i in r]) for r in spans)


def orthogonal_decomposition_check(
    fib: Fibration, blocks: Sequence[Sequence[DivisorClass]]
) -> DecompositionReport:
    """Certify a block decomposition of the full lattice.

    The first block must be exactly the fibre class and a section meeting
    it once; blocks must be pairwise orthogonal; the union must be a basis
    (determinant of its Gram matrix equal to plus or minus one).  Passing
    certifies that no room is left for a nontrivial Mordell-Weil group.
    The determinant is taken only once the blocks are orthogonal, when
    the Gram matrix is block diagonal, so it is the product of the
    diagonal blocks' determinants.  Every Surface lattice is unimodular,
    so rank-many independent classes span a sublattice of index k exactly
    when that determinant is plus or minus k squared: a failure names the
    index, or the dependence when the determinant is 0.  A block item
    that is not a DivisorClass is a TypeError naming its block, and so
    is one lone class passed as the blocks or as a block.
    """
    rank = fib.surface.rank
    messages: list[str] = []
    _expect_many(blocks, "blocks")
    blocks = list(blocks)
    for b, block in enumerate(blocks):
        _expect_many(block, f"block {b + 1}")
        blocks[b] = tuple(block)
    flat = tuple(c for block in blocks for c in block)
    for b, block in enumerate(blocks):
        for c in block:
            if not isinstance(c, DivisorClass):
                raise TypeError(f"blocks must hold divisor classes: block {b + 1} holds {c!r}")
            if c.surface is not fib.surface:
                messages.append(f"foreign class in block {b + 1}: {c}")
    if not messages:
        gram = _gram(flat)
        first = blocks[0] if blocks else []
        if len(first) != 2 or fib.fibre_class not in first:
            messages.append("first block must be the fibre class and a section")
        elif gram[0][1] != 1:
            messages.append(f"first block partner pairs {gram[0][1]} with the fibre, expected 1")
        # the rows and columns of each block in gram
        ends = accumulate(map(len, blocks))
        spans = [range(end - len(b), end) for end, b in zip(ends, blocks)]
        for (i, rows), (j, cols) in combinations(enumerate(spans), 2):
            for x, y in product(rows, cols):
                if gram[x][y] != 0:
                    messages.append(
                        f"blocks {i + 1} and {j + 1} are not orthogonal: "
                        f"{flat[x]} * {flat[y]} = {gram[x][y]}"
                    )
    det: int | None = None
    if len(flat) != rank:
        messages.append(f"not a basis: {len(flat)} classes on a rank-{rank} lattice")
    elif not messages:
        # the blocks are pairwise orthogonal, so gram is block diagonal
        det = _block_determinant(gram, spans)
        if det == 0:
            messages.append("not a basis: the classes are linearly dependent")
        elif abs(det) != 1:
            messages.append(f"not a basis: index {isqrt(abs(det))}")
    passed = not messages
    return DecompositionReport(
        passed,
        rank,
        det,
        tuple(len(b) for b in blocks),
        tuple(messages),
        "trivial Mordell-Weil certificate" if passed else "",
    )


class ComplementLattice(Record):
    basis: tuple[DivisorClass, ...]
    gram: tuple[tuple[int, ...], ...]
    discriminant: int


def complement_lattice(surface: Surface, sub: Sequence[DivisorClass]) -> ComplementLattice:
    """Saturated orthogonal complement of the span of ``sub``.

    The input classes must be independent; the complement basis comes from
    the integer kernel of the pairing matrix, so it generates the full
    complement, not a finite-index sublattice.  The basis is the nonzero
    rows of the kernel's Hermite normal form, so it is its own Hermite
    form: two complements are equal exactly when their bases are.  An
    input that is not a DivisorClass, or one lone class passed as
    ``sub``, is a TypeError.  The catalog's
    complement check does not run this kernel route: it certifies the
    same equality by determinants (catalog._complement_certificate).
    """
    _expect_many(sub, "sub")
    sub = list(sub)
    for c in sub:
        if not isinstance(c, DivisorClass):
            raise TypeError(f"sub must hold divisor classes, not {c!r}")
        if c.surface is not surface:
            raise ForeignClassError("foreign class: input lives on another surface")
    if len(hermite_normal_form([c.coords for c in sub])) != len(sub):
        raise LatticeError("dependent input classes")
    # the (lattice basis x sub) pairing matrix: its columns are the dual vectors
    duals = [surface.dual(c.coords) for c in sub]
    pairing = [[d[i] for d in duals] for i in range(surface.rank)]
    basis = tuple(DivisorClass(surface, v) for v in hermite_normal_form(kernel_basis(pairing)))
    gram = _gram(basis)
    disc = bareiss_determinant(gram)
    return ComplementLattice(basis, gram, disc)
