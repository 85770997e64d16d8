"""Evaluation via (fractional) hypertree decompositions (Appendix A.2.1).

The two-phase strategy the paper's upper bounds rest on:

1. materialise every bag of a tree decomposition with a worst-case
   optimal join over the projections of all overlapping relations
   (cost ``O(N^rho*(bag) log N)``),
2. run Yannakakis' algorithm over the resulting α-acyclic query whose
   join tree is the decomposition tree.

While every atom is columnar over one codebook, both phases stay on
code arrays (:func:`columnar_bags`): each atom's
:class:`~repro.reduction.columnar.ColumnBlock` is projected onto the
bag, the projections are joined by the level-at-a-time
:func:`~repro.engine.columnar_eval.level_join`, and the bag is emitted
as a columnar relation over the same codebook — a bag that is exactly
one atom's schema reuses that atom as is.  Count, Boolean and full
evaluation then run the columnar Yannakakis kernels over the bag tree,
so a cyclic disjunct is answered without decoding a tuple.  The tuple
path below (:func:`materialise_bags`, dict-trie generic join, tuple
Yannakakis) answers everything else and stays as the oracle; it reads
rows without materializing them, so it never strips a relation's
column block either.
"""

from __future__ import annotations

from typing import Sequence

import networkx as nx
import numpy as np

from ..reduction.columnar import CODE_DTYPE, ColumnBlock
from ..widths.tree_decomposition import TreeDecomposition
from .columnar_eval import (
    _Fallback,
    atom_blocks,
    columnar_yannakakis_count,
    columnar_yannakakis_full,
    kernels_enabled,
    level_join,
    variable_kinds,
)
from .columnar_join import columnar_yannakakis_boolean
from .generic_join import JoinAtom, generic_join_relation
from .relation import Relation
from .yannakakis import yannakakis_boolean, yannakakis_count, yannakakis_full


def _check_covered(bag_vars: Sequence[str], covered: set[str]) -> None:
    missing = set(bag_vars) - covered
    if missing:
        raise ValueError(
            f"bag {list(bag_vars)} contains vertices covered by no atom"
        )


def materialise_bags(
    atoms: Sequence[JoinAtom], td: TreeDecomposition
) -> list[Relation]:
    """Compute one relation per bag: the worst-case-optimal join of the
    projections ``π_{bag ∩ vars(e)} R_e`` over every overlapping atom."""
    bags: list[Relation] = []
    for i, bag in enumerate(td.bags):
        bag_vars = sorted(bag, key=str)
        parts: list[JoinAtom] = []
        for atom in atoms:
            shared = [v for v in atom.variables if v in bag]
            if not shared:
                continue
            idx = [atom.variables.index(v) for v in shared]
            projected = Relation(
                f"proj_{atom.relation.name}_{i}",
                shared,
                {tuple(t[j] for j in idx) for t in atom.relation},
            )
            parts.append(JoinAtom(projected))
        _check_covered(bag_vars, {v for part in parts for v in part.variables})
        bags.append(
            generic_join_relation(parts, bag_vars, name=f"bag{i}")
        )
    return bags


def columnar_bags(
    atoms: Sequence[JoinAtom], td: TreeDecomposition
) -> list[JoinAtom] | None:
    """One columnar atom per bag, on code arrays end to end, or
    ``None`` when the atoms are not all columnar over one codebook (or
    a variable's column kind disagrees between atoms).

    A bag is the join of ``π_{bag ∩ vars(e)} R_e`` over *every* atom —
    an atom sharing nothing with the bag contributes its zero-width
    projection, which only says whether it is empty.  A bag equal to
    one atom's schema, with no other atom inside it, is that atom: its
    rows already satisfy every atom the bag must enforce."""
    if not kernels_enabled():
        return None
    blocks = atom_blocks(atoms)
    if blocks is None or not blocks:
        return None
    kind_of = variable_kinds(atoms, blocks)
    if kind_of is None:
        return None
    book = blocks[0].book
    bags: list[JoinAtom] = []
    try:
        for i, bag in enumerate(td.bags):
            inside = [atom for atom in atoms if set(atom.variables) <= bag]
            if len(inside) == 1 and set(inside[0].variables) == bag:
                bags.append(inside[0])
                continue
            bag_vars = sorted(bag, key=str)
            matrices = []
            schemas = []
            for atom, block in zip(atoms, blocks):
                idx = [j for j, v in enumerate(atom.variables) if v in bag]
                matrices.append(np.asarray(block.codes)[:, idx])
                schemas.append([atom.variables[j] for j in idx])
            _check_covered(bag_vars, {v for names in schemas for v in names})
            cols = level_join(matrices, schemas, bag_vars, "rows")
            block = ColumnBlock(
                np.stack(cols, axis=1).astype(CODE_DTYPE),
                [kind_of[v] for v in bag_vars],
                book,
            )
            bags.append(
                JoinAtom(Relation.from_columns(f"bag{i}", bag_vars, block))
            )
    except _Fallback:
        return None
    return bags


def _bag_atoms_and_tree(
    atoms: Sequence[JoinAtom], td: TreeDecomposition
) -> tuple[list[JoinAtom], nx.Graph]:
    bag_atoms = [JoinAtom(r) for r in materialise_bags(atoms, td)]
    return bag_atoms, td.as_graph()


def columnar_boolean_with_decomposition(
    atoms: Sequence[JoinAtom], td: TreeDecomposition
) -> bool | None:
    """Boolean evaluation on code arrays: :func:`columnar_bags`, then
    the columnar semijoin sweep; ``None`` means fall back."""
    bags = columnar_bags(atoms, td)
    return None if bags is None else columnar_yannakakis_boolean(
        bags, td.as_graph()
    )


def columnar_count_with_decomposition(
    atoms: Sequence[JoinAtom], td: TreeDecomposition
) -> int | None:
    """Counting on code arrays: :func:`columnar_bags`, then the
    ``int64`` counting DP; ``None`` means fall back."""
    bags = columnar_bags(atoms, td)
    return None if bags is None else columnar_yannakakis_count(
        bags, td.as_graph()
    )


def columnar_full_with_decomposition(
    atoms: Sequence[JoinAtom],
    td: TreeDecomposition,
    output: Sequence[str] | None = None,
) -> Relation | None:
    """Full evaluation on code arrays, decoding only the output rows;
    ``None`` means fall back."""
    bags = columnar_bags(atoms, td)
    return None if bags is None else columnar_yannakakis_full(
        bags, td.as_graph(), output=output
    )


def evaluate_boolean_with_decomposition(
    atoms: Sequence[JoinAtom], td: TreeDecomposition
) -> bool:
    """Boolean CQ evaluation: materialise bags, then Yannakakis."""
    fast = columnar_boolean_with_decomposition(atoms, td)
    if fast is not None:
        return fast
    return yannakakis_boolean(*_bag_atoms_and_tree(atoms, td))


def evaluate_full_with_decomposition(
    atoms: Sequence[JoinAtom],
    td: TreeDecomposition,
    output: Sequence[str] | None = None,
) -> Relation:
    """Full CQ evaluation through the decomposition; without
    ``output``, the columns are the atoms' variables in order of first
    appearance."""
    if output is None:
        output = list(dict.fromkeys(v for a in atoms for v in a.variables))
    fast = columnar_full_with_decomposition(atoms, td, output)
    if fast is not None:
        return fast
    return yannakakis_full(*_bag_atoms_and_tree(atoms, td), output=output)


def count_with_decomposition(
    atoms: Sequence[JoinAtom], td: TreeDecomposition
) -> int:
    """Count satisfying assignments over all variables.

    Valid because bag materialisation preserves the assignment set of
    the original join and the decomposition tree is a join tree of the
    bag query.
    """
    fast = columnar_count_with_decomposition(atoms, td)
    if fast is not None:
        return fast
    return yannakakis_count(*_bag_atoms_and_tree(atoms, td))
