"""Certify that four extremal fibrations have no nontrivial sections.

Each built-in extremal model ships its reducible fibres as explicit
component lists.  Validating a fibre means checking, in integers: the
weighted sum of components is the fibre class, every component meets
the fibre class in 0, distinct components pair nonnegatively, and every
declared self-intersection and genus is the computed one.  No separate
test of the component Gram matrix runs: by Zariski's lemma those checks
make it negative semidefinite (see ``validate_fibre``).  The Shioda
bookkeeping then leaves rank 0, and an orthogonal block decomposition of
determinant +-1, whose blocks the catalog derives from the fibres and
the section O, confirms there is no room left.
"""

from genus2pencils import catalog
from genus2pencils.fibres import (
    ade_classify,
    orthogonal_decomposition_check,
    shioda_rank,
    validate_fibre,
)

for tag in ("Ex4_3", "Ex4_4", "Ex4_5", "Ex4_6"):
    entry = catalog.get(tag)
    fib = entry.fibration
    print(f"{tag}: {entry.title}")
    for dec in fib.fibres:
        validate_fibre(fib, dec)
        labels = ade_classify(dec)
        shown = ", ".join(label for _, label in labels) if labels else "irreducible pieces only"
        print(f"  fibre {dec.name}: {len(dec.components)} components, diagrams {shown}")
    counts = tuple(len(d.components) for d in fib.fibres)
    rank = shioda_rank(fib.surface.rank, counts)
    blocks = [[fib.named(n) for n in block] for block in entry.blocks]
    report = orthogonal_decomposition_check(fib, blocks)
    assert report.passed
    print(
        f"  rank {fib.surface.rank}, fibre components {counts} "
        f"-> Mordell-Weil rank {rank}; blocks {report.block_sizes}, "
        f"determinant {report.determinant}"
    )
    print()
