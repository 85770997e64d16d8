"""Worst-case optimal multiway join (generic join / LFTJ-style).

Given atoms over a global variable order, the join proceeds one variable
at a time: at each level the candidate values are the intersection of
the matching trie levels of every atom containing the variable, iterated
from the smallest candidate set.  The runtime matches the AGM bound
``O(N^rho*)`` up to logarithmic factors [27, 34] — the bag
materialisation engine behind Theorem 4.15's decomposition evaluation.
"""

from __future__ import annotations

from typing import Hashable, Iterator, Sequence

from .relation import Relation

Value = Hashable


class JoinAtom:
    """An atom of a join problem: a relation with a variable binding.

    ``variables[i]`` names the join variable bound to column ``i`` of the
    relation — allowing renaming for self-joins.
    """

    def __init__(self, relation: Relation, variables: Sequence[str] | None = None):
        self.relation = relation
        self.variables: tuple[str, ...] = tuple(
            variables if variables is not None else relation.schema
        )
        if len(self.variables) != relation.arity:
            raise ValueError(
                f"{relation.name}: binding {self.variables} does not match "
                f"arity {relation.arity}"
            )
        if len(set(self.variables)) != len(self.variables):
            raise ValueError(f"repeated variable in binding {self.variables}")


def default_variable_order(atoms: Sequence[JoinAtom]) -> list[str]:
    """Order variables by descending atom-degree, ties by appearance —
    a standard greedy heuristic for generic join."""
    degree: dict[str, int] = {}
    first_seen: dict[str, int] = {}
    counter = 0
    for atom in atoms:
        for v in atom.variables:
            degree[v] = degree.get(v, 0) + 1
            if v not in first_seen:
                first_seen[v] = counter
                counter += 1
    return sorted(degree, key=lambda v: (-degree[v], first_seen[v]))


def _build_trie(atom: JoinAtom, order: Sequence[str]) -> dict:
    positions = [
        atom.variables.index(v) for v in order if v in atom.variables
    ]
    root: dict = {}
    for t in atom.relation:
        node = root
        for p in positions:
            node = node.setdefault(t[p], {})
    return root


def generic_join(
    atoms: Sequence[JoinAtom],
    variable_order: Sequence[str] | None = None,
) -> Iterator[dict[str, Value]]:
    """Enumerate all satisfying assignments of the natural join."""
    order = list(variable_order) if variable_order else default_variable_order(atoms)
    var_set = {v for atom in atoms for v in atom.variables}
    if set(order) != var_set:
        raise ValueError("variable order must cover exactly the join variables")
    tries = [_build_trie(atom, order) for atom in atoms]
    # atom index -> ordered list of its variables' levels
    atom_levels: list[list[int]] = []
    for atom in atoms:
        atom_levels.append(
            [i for i, v in enumerate(order) if v in atom.variables]
        )
    # level -> atoms whose trie advances at this level
    advancing: list[list[int]] = [[] for _ in order]
    for a, levels in enumerate(atom_levels):
        for level in levels:
            advancing[level].append(a)

    assignment: dict[str, Value] = {}
    nodes: list[dict] = list(tries)

    def recurse(level: int) -> Iterator[dict[str, Value]]:
        if level == len(order):
            yield dict(assignment)
            return
        active = advancing[level]
        if not active:
            # variable constrained by no atom: impossible by construction
            raise AssertionError("unconstrained variable")
        candidates = min((nodes[a] for a in active), key=len)
        for value in candidates:
            if all(value in nodes[a] for a in active):
                saved = [nodes[a] for a in active]
                for a in active:
                    nodes[a] = nodes[a][value]
                assignment[order[level]] = value
                yield from recurse(level + 1)
                del assignment[order[level]]
                for a, node in zip(active, saved):
                    nodes[a] = node

    yield from recurse(0)


def generic_join_boolean(
    atoms: Sequence[JoinAtom],
    variable_order: Sequence[str] | None = None,
) -> bool:
    """True iff the join is non-empty (stops at the first witness).

    Runs the level-at-a-time join on code arrays while every atom is
    columnar over one codebook; the trie path below is the retained
    fallback and oracle.
    """
    # local import: columnar_eval imports JoinAtom from this module
    from .columnar_eval import columnar_generic_join_boolean

    fast = columnar_generic_join_boolean(atoms, variable_order)
    if fast is not None:
        return fast
    for _ in generic_join(atoms, variable_order):
        return True
    return False


def generic_join_count(
    atoms: Sequence[JoinAtom],
    variable_order: Sequence[str] | None = None,
) -> int:
    """Number of satisfying assignments of the join.

    Dispatches to the level-at-a-time join on code arrays when the
    atoms are columnar (see :mod:`repro.engine.columnar_eval`); the trie-based
    enumeration below is the retained fallback and differential oracle.
    """
    from .columnar_eval import columnar_generic_join_count

    fast = columnar_generic_join_count(atoms, variable_order)
    if fast is not None:
        return fast
    return sum(1 for _ in generic_join(atoms, variable_order))


def generic_join_relation(
    atoms: Sequence[JoinAtom],
    output: Sequence[str],
    name: str = "join",
    variable_order: Sequence[str] | None = None,
) -> Relation:
    """Materialise the join projected onto ``output``."""
    tuples = set()
    for assignment in generic_join(atoms, variable_order):
        tuples.add(tuple(assignment[v] for v in output))
    return Relation(name, output, tuples)
