"""Fibre decompositions, dual graphs, and lattice certificates.

A reducible fibre is recorded as named components with multiplicities;
validation checks the class sum, nonnegative pairwise meetings, the
orthogonality of each component to the fibre, negative semidefiniteness
of the component Gram matrix, and any declared self-intersections and
genera.  On top of that sit the dual-graph builder, a Dynkin-diagram
classifier for the (-2)-part, and the Mordell-Weil rank certificates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .intmat import (
    bareiss_determinant,
    hermite_normal_form,
    is_negative_semidefinite,
    kernel_basis,
)
from .lattice import (
    DivisorClass,
    Fibration,
    LatticeError,
    Surface,
    arithmetic_genus,
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


@dataclass(frozen=True)
class FibreComponent:
    name: str
    divisor: DivisorClass
    multiplicity: int
    declared_self_intersection: int | None = None
    declared_genus: int | None = None


@dataclass(frozen=True)
class FibreDecomposition:
    name: str
    components: tuple[FibreComponent, ...]

    def component(self, name: str) -> FibreComponent:
        for c in self.components:
            if c.name == name:
                return c
        raise KeyError(name)


@dataclass(frozen=True)
class FibreReport:
    name: str
    component_count: int
    gram: tuple[tuple[int, ...], ...]


def validate_fibre(fib: Fibration, dec: FibreDecomposition) -> FibreReport:
    """Check every identity a reducible fibre must satisfy; raises on the
    first violation, returns a summary on success."""
    f = fib.fibre_class
    parts = dec.components
    if not parts:
        raise FibreError(f"fibre {dec.name} has no components")
    for p in parts:
        if p.divisor.surface != fib.surface:
            raise FibreError(f"foreign class: component {p.name} lives on another surface")
        if p.multiplicity < 1:
            raise FibreError(f"component {p.name} has multiplicity {p.multiplicity}")
    total = sum(p.multiplicity * p.divisor for p in parts)
    if total != f:
        residual = f - total
        raise FibreError(
            f"decomposition does not sum to F: fibre {dec.name} leaves residual {residual}"
        )
    for p in parts:
        sq = p.divisor * p.divisor
        if p.declared_self_intersection is not None and sq != p.declared_self_intersection:
            raise FibreError(
                f"component {p.name} has self-intersection {sq}, "
                f"declared {p.declared_self_intersection}"
            )
        g = arithmetic_genus(p.divisor)
        if p.declared_genus is not None and g != p.declared_genus:
            raise FibreError(f"component {p.name} has genus {g}, declared {p.declared_genus}")
        if f * p.divisor != 0:
            raise FibreError(
                f"component {p.name} meets the fibre class ({f * p.divisor}), expected 0"
            )
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            w = parts[i].divisor * parts[j].divisor
            if w < 0:
                raise FibreError(
                    f"components {parts[i].name} and {parts[j].name} pair negatively ({w})"
                )
    gram = tuple(tuple(p.divisor * q.divisor for q in parts) for p in parts)
    if not is_negative_semidefinite(gram):
        raise FibreError(f"fibre {dec.name} has a component Gram matrix that is not negative semidefinite")
    return FibreReport(dec.name, len(parts), gram)


@dataclass(frozen=True)
class DualGraph:
    """Weighted dual graph: nodes carry (name, self-intersection, genus)."""

    nodes: tuple[tuple[str, int, int], ...]
    edges: tuple[tuple[int, int, int], ...]


def dual_graph(fib: Fibration, dec: FibreDecomposition) -> DualGraph:
    for p in dec.components:
        if p.divisor.surface != fib.surface:
            raise FibreError(f"foreign class: component {p.name} lives on another surface")
    nodes = tuple(
        (p.name, p.divisor * p.divisor, arithmetic_genus(p.divisor)) for p in dec.components
    )
    edges = []
    for i in range(len(dec.components)):
        for j in range(i + 1, len(dec.components)):
            w = dec.components[i].divisor * dec.components[j].divisor
            if w != 0:
                edges.append((i, j, w))
    return DualGraph(nodes, tuple(edges))


def classify_diagram(node_count: int, edges: Sequence[tuple[int, int]]) -> str:
    """Label a connected simply-laced diagram: A/D/E, their affine shapes
    (suffixed with ~), or "unclassified"."""
    n = node_count
    if n == 0:
        return "unclassified"
    adj: list[set[int]] = [set() for _ in range(n)]
    for a, b in edges:
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
    keep = [
        p
        for p in dec.components
        if p.divisor * p.divisor == -2 and arithmetic_genus(p.divisor) == 0
    ]
    index = {p.name: i for i, p in enumerate(keep)}
    n = len(keep)
    adj: list[dict[int, int]] = [{} for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            w = keep[i].divisor * keep[j].divisor
            if w != 0:
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
        out.append((tuple(keep[v].name for v in comp), label))
    return tuple(out)


def shioda_rank(picard_rank: int, component_counts: Sequence[int]) -> int:
    """Mordell-Weil rank forced by the rank bookkeeping: the lattice rank
    minus two (fibre and zero section) minus one per extra fibre component."""
    extra = sum(c - 1 for c in component_counts)
    rank = picard_rank - 2 - extra
    if rank < 0:
        raise FibreError(
            f"inconsistent fibre data: component counts exceed the lattice rank by {-rank}"
        )
    return rank


@dataclass(frozen=True)
class DecompositionReport:
    passed: bool
    rank: int
    determinant: int | None
    block_sizes: tuple[int, ...]
    messages: tuple[str, ...]
    certificate: str


def orthogonal_decomposition_check(
    fib: Fibration, blocks: Sequence[Sequence[DivisorClass]]
) -> DecompositionReport:
    """Certify a block decomposition of the full lattice.

    The first block must be exactly the fibre class and a section meeting
    it once; blocks must be pairwise orthogonal; the union must be a basis
    (determinant of its Gram matrix equal to plus or minus one).  Passing
    certifies that no room is left for a nontrivial Mordell-Weil group.
    """
    rank = fib.surface.rank
    messages: list[str] = []
    blocks = [list(b) for b in blocks]
    for b, block in enumerate(blocks):
        for c in block:
            if c.surface != fib.surface:
                messages.append(f"foreign class in block {b + 1}: {c}")
    if not messages:
        first = blocks[0] if blocks else []
        if len(first) != 2 or fib.fibre_class not in first:
            messages.append("first block must be the fibre class and a section")
        else:
            other = first[0] if first[1] == fib.fibre_class else first[1]
            if other * fib.fibre_class != 1:
                messages.append(
                    f"first block partner pairs {other * fib.fibre_class} with the fibre, expected 1"
                )
        for i in range(len(blocks)):
            for j in range(i + 1, len(blocks)):
                for x in blocks[i]:
                    for y in blocks[j]:
                        if x * y != 0:
                            messages.append(
                                f"blocks {i + 1} and {j + 1} are not orthogonal: {x} * {y} = {x * y}"
                            )
    det: int | None = None
    flat = [c for block in blocks for c in block]
    if len(flat) != rank:
        messages.append(f"not a basis: {len(flat)} classes on a rank-{rank} lattice")
    elif not messages:
        gram = [[x * y for y in flat] for x in flat]
        det = bareiss_determinant(gram)
        if abs(det) != 1:
            messages.append(f"not a basis: index {abs(det)}")
    passed = not messages
    return DecompositionReport(
        passed,
        rank,
        det,
        tuple(len(b) for b in blocks),
        tuple(messages),
        "trivial Mordell-Weil certificate" if passed else "",
    )


@dataclass(frozen=True)
class ComplementLattice:
    basis: tuple[DivisorClass, ...]
    gram: tuple[tuple[int, ...], ...]
    discriminant: int


def complement_lattice(surface: Surface, sub: Sequence[DivisorClass]) -> ComplementLattice:
    """Saturated orthogonal complement of the span of ``sub``.

    The input classes must be independent; the complement basis comes from
    the integer kernel of the pairing matrix, so it generates the full
    complement, not a finite-index sublattice.
    """
    sub = list(sub)
    for c in sub:
        if c.surface != surface:
            raise LatticeError("foreign class: input lives on another surface")
    if sub:
        coords = [list(c.coords) for c in sub]
        if len(hermite_normal_form(coords)) != len(sub):
            raise LatticeError("dependent input classes")
    gram_full = surface.gram()
    # rows of (basis x sub) pairing matrix, over all lattice basis vectors
    pairing = []
    for i in range(surface.rank):
        row = []
        for c in sub:
            row.append(sum(gram_full[i][j] * c.coords[j] for j in range(surface.rank)))
        pairing.append(row)
    kernel = kernel_basis(pairing) if sub else [
        [int(i == j) for j in range(surface.rank)] for i in range(surface.rank)
    ]
    basis = tuple(DivisorClass(surface, tuple(v)) for v in hermite_normal_form(kernel))
    gram = tuple(tuple(x * y for y in basis) for x in basis)
    disc = bareiss_determinant([list(r) for r in gram])
    return ComplementLattice(basis, gram, disc)
