"""Fibre decompositions, dual graphs, and lattice certificates.

A reducible fibre is recorded as named components with multiplicities;
validation checks the class sum, any declared self-intersections and
genera, the orthogonality of each component to the fibre, and
nonnegative pairwise meetings (which together make the component Gram
matrix negative semidefinite).  On top of that sit the dual-graph
builder, a Dynkin-diagram classifier for the (-2)-part, and the
Mordell-Weil rank certificates.  Every certificate reads its pairings
from one matrix, built by ``_gram``.
"""

from __future__ import annotations

from itertools import accumulate, combinations, product
from typing import NamedTuple, Sequence

from .intmat import bareiss_determinant, hermite_normal_form, kernel_basis
from .lattice import (
    DivisorClass,
    Fibration,
    LatticeError,
    Surface,
    arithmetic_genus,
    pairings,
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


def _gram(classes: Sequence[DivisorClass]) -> tuple[tuple[int, ...], ...]:
    """The pairing matrix of ``classes``; they must share one surface."""
    return tuple(pairings(c, classes) for c in classes)


class FibreComponent(NamedTuple):
    name: str
    divisor: DivisorClass
    multiplicity: int
    declared_self_intersection: int | None = None
    declared_genus: int | None = None


class FibreDecomposition(NamedTuple):
    name: str
    components: tuple[FibreComponent, ...]

    def component(self, name: str) -> FibreComponent:
        for c in self.components:
            if c.name == name:
                return c
        raise KeyError(name)


class FibreReport(NamedTuple):
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
    gram = _gram([p.divisor for p in parts])
    for i, p in enumerate(parts):
        sq = gram[i][i]
        if p.declared_self_intersection is not None and sq != p.declared_self_intersection:
            raise FibreError(
                f"component {p.name} has self-intersection {sq}, "
                f"declared {p.declared_self_intersection}"
            )
        g = arithmetic_genus(p.divisor)
        if p.declared_genus is not None and g != p.declared_genus:
            raise FibreError(f"component {p.name} has genus {g}, declared {p.declared_genus}")
        # F is the weighted sum of the components, so F.C is a weighted row sum
        meet = sum(q.multiplicity * w for q, w in zip(parts, gram[i]))
        if meet != 0:
            raise FibreError(f"component {p.name} meets the fibre class ({meet}), expected 0")
    for i, j in combinations(range(len(parts)), 2):
        if gram[i][j] < 0:
            raise FibreError(
                f"components {parts[i].name} and {parts[j].name} pair negatively ({gram[i][j]})"
            )
    return FibreReport(dec.name, len(parts), gram)


class DualGraph(NamedTuple):
    """Weighted dual graph: nodes carry (name, self-intersection, genus)."""

    nodes: tuple[tuple[str, int, int], ...]
    edges: tuple[tuple[int, int, int], ...]


def _graph(parts: Sequence[FibreComponent]) -> DualGraph:
    gram = _gram([p.divisor for p in parts])
    nodes = tuple(
        (p.name, gram[i][i], arithmetic_genus(p.divisor)) for i, p in enumerate(parts)
    )
    pairs = combinations(range(len(parts)), 2)
    return DualGraph(nodes, tuple((i, j, gram[i][j]) for i, j in pairs if gram[i][j]))


def dual_graph(fib: Fibration, dec: FibreDecomposition) -> DualGraph:
    for p in dec.components:
        if p.divisor.surface != fib.surface:
            raise FibreError(f"foreign class: component {p.name} lives on another surface")
    return _graph(dec.components)


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
    extra = sum(c - 1 for c in component_counts)
    rank = picard_rank - 2 - extra
    if rank < 0:
        raise FibreError(
            f"inconsistent fibre data: component counts exceed the lattice rank by {-rank}"
        )
    return rank


class DecompositionReport(NamedTuple):
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
    flat = [c for block in blocks for c in block]
    for b, block in enumerate(blocks):
        for c in block:
            if c.surface != fib.surface:
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


class ComplementLattice(NamedTuple):
    basis: tuple[DivisorClass, ...]
    gram: tuple[tuple[int, ...], ...]
    discriminant: int


def complement_lattice(surface: Surface, sub: Sequence[DivisorClass]) -> ComplementLattice:
    """Saturated orthogonal complement of the span of ``sub``.

    The input classes must be independent; the complement basis comes from
    the integer kernel of the pairing matrix, so it generates the full
    complement, not a finite-index sublattice.  The basis is the nonzero
    rows of the kernel's Hermite normal form, so it is its own Hermite
    form: two complements are equal exactly when their bases are.
    """
    sub = list(sub)
    for c in sub:
        if c.surface != surface:
            raise LatticeError("foreign class: input lives on another surface")
    if len(hermite_normal_form([c.coords for c in sub])) != len(sub):
        raise LatticeError("dependent input classes")
    # the (lattice basis x sub) pairing matrix: its columns are the dual vectors
    duals = [surface.dual(c.coords) for c in sub]
    pairing = [[d[i] for d in duals] for i in range(surface.rank)]
    basis = tuple(DivisorClass(surface, v) for v in hermite_normal_form(kernel_basis(pairing)))
    gram = _gram(basis)
    disc = bareiss_determinant(gram)
    return ComplementLattice(basis, gram, disc)
