"""Yannakakis' algorithm for α-acyclic conjunctive queries [35].

Boolean evaluation: a bottom-up semijoin sweep over a join tree; the
query is true iff the root relation stays non-empty.  Linear time in the
database size.  Full evaluation adds the top-down sweep (full reducer)
and a bottom-up join, giving output-sensitive ``O(input + output)``
behaviour.  Counting uses the standard message-passing dynamic program.
"""

from __future__ import annotations

from typing import Hashable, Sequence

import networkx as nx

from .generic_join import JoinAtom
from .relation import Relation

Value = Hashable


def _rooted_orders(
    tree: nx.Graph, root
) -> tuple[list, dict]:
    """BFS order from the root and the parent map."""
    order = [root]
    parent = {root: None}
    for u in order:
        for v in tree.neighbors(u):
            if v not in parent:
                parent[v] = u
                order.append(v)
    return order, parent


def _atom_relations(atoms: Sequence[JoinAtom]) -> dict[int, Relation]:
    return {
        i: Relation(f"n{i}", atom.variables, atom.relation)
        for i, atom in enumerate(atoms)
    }


def yannakakis_boolean(
    atoms: Sequence[JoinAtom], tree: nx.Graph
) -> bool:
    """Boolean acyclic evaluation: bottom-up semijoins along the join
    tree (nodes of ``tree`` are indices into ``atoms``)."""
    relations = _atom_relations(atoms)
    if any(len(r) == 0 for r in relations.values()):
        return False
    if tree.number_of_nodes() == 0:
        return True
    components = list(nx.connected_components(tree))
    for component in components:
        root = min(component)
        order, parent = _rooted_orders(tree, root)
        for node in reversed(order):
            p = parent[node]
            if p is None:
                continue
            relations[p] = relations[p].semijoin(relations[node])
            if len(relations[p]) == 0:
                return False
    return True


def yannakakis_full(
    atoms: Sequence[JoinAtom],
    tree: nx.Graph,
    output: Sequence[str] | None = None,
) -> Relation:
    """Full acyclic evaluation via the full reducer + bottom-up joins.

    With ``output`` given, intermediate results are projected onto the
    output variables plus the variables still needed for future joins,
    keeping intermediates output-bounded.
    """
    relations = _atom_relations(atoms)
    all_vars: list[str] = []
    for atom in atoms:
        for v in atom.variables:
            if v not in all_vars:
                all_vars.append(v)
    out_vars = list(output) if output is not None else all_vars

    if tree.number_of_nodes() == 0:
        return Relation("result", out_vars, set())
    components = list(nx.connected_components(tree))
    results: list[Relation] = []
    for component in components:
        root = min(component)
        order, parent = _rooted_orders(tree, root)
        # full reducer: bottom-up then top-down semijoins
        for node in reversed(order):
            p = parent[node]
            if p is not None:
                relations[p] = relations[p].semijoin(relations[node])
        for node in order:
            p = parent[node]
            if p is not None:
                relations[node] = relations[node].semijoin(relations[p])
        # Bottom-up joins with projection.  After absorbing a child, a
        # node may only drop attributes that are neither output nor in
        # its own bag schema: its own schema carries every link to the
        # parent and to children not yet absorbed (running intersection).
        out_set = set(out_vars)
        acc = {node: relations[node] for node in order}
        for node in reversed(order):
            p = parent[node]
            if p is None:
                continue
            joined = acc[p].join(acc[node])
            keep = [
                a for a in joined.schema
                if a in out_set or a in relations[p].schema
            ]
            acc[p] = joined.project(keep)
        results.append(acc[root])
    final = results[0]
    for r in results[1:]:
        final = final.join(r)
    present = [v for v in out_vars if v in final.schema]
    return final.project(present, name="result")


def yannakakis_count(atoms: Sequence[JoinAtom], tree: nx.Graph) -> int:
    """Number of satisfying assignments over *all* variables, via the
    classical join-tree counting DP.

    Each node keeps, per tuple, the number of extensions by its subtree's
    private variables; messages multiply counts of children grouped by
    the shared attributes.
    """
    if tree.number_of_nodes() == 0:
        return 0
    relations = _atom_relations(atoms)
    counts: dict[int, dict[tuple, int]] = {
        i: {t: 1 for t in r.tuples} for i, r in relations.items()
    }
    total = 1
    for component in nx.connected_components(tree):
        root = min(component)
        order, parent = _rooted_orders(tree, root)
        # variables private to each subtree must not be double counted:
        # process bottom-up, aggregating child counts onto shared keys.
        for node in reversed(order):
            p = parent[node]
            if p is None:
                continue
            child_rel = relations[node]
            parent_rel = relations[p]
            shared = [a for a in parent_rel.schema if a in child_rel.schema]
            child_idx = [child_rel.position(a) for a in shared]
            parent_idx = [parent_rel.position(a) for a in shared]
            message: dict[tuple, int] = {}
            for t, c in counts[node].items():
                key = tuple(t[i] for i in child_idx)
                message[key] = message.get(key, 0) + c
            new_counts: dict[tuple, int] = {}
            for t, c in counts[p].items():
                key = tuple(t[i] for i in parent_idx)
                if key in message:
                    new_counts[t] = c * message[key]
            counts[p] = new_counts
        total *= sum(counts[root].values())
        if total == 0:
            return 0
    return total
