"""The columnar evaluation tier: counting DP, generic join and the full
reducer on code arrays.

PR 8 made transformed relations ``uint32`` code matrices over one shared
:class:`~repro.reduction.columnar.CodeBook` and gave *Boolean* acyclic
evaluation a code-array semijoin sweep
(:mod:`repro.engine.columnar_join`).  This module extends the same
execution model to everything else the evaluation tier does:

* :func:`columnar_yannakakis_count` — the join-tree counting DP with
  per-node extension counts held as ``int64`` arrays.  Each bottom-up
  message is one vectorized group-by: the edge's shared code columns are
  folded into mixed-radix ``int64`` keys (radices straight from the
  shared codebook's domain size — no column rescans), child counts are
  aggregated per key with ``np.bincount`` (small radices) or a stable
  ``argsort`` + ``np.add.reduceat`` (large), and the aggregate is
  broadcast-multiplied onto the parent rows through ``searchsorted``
  lookups.  Exactness is guarded: any intermediate that could leave the
  ``int64``-safe range falls back to the retained dict DP (which counts
  in unbounded Python ints).

* :func:`level_join` — the one worst-case-optimal join on code
  arrays, one variable level at a time.  Each atom's distinct rows are
  sorted **once** per call (packed-key ``np.unique``, else
  ``np.lexsort``), and every live prefix is a per-atom row range.  A
  level extends *all* prefixes at once: each prefix's narrowest holder
  of the variable supplies its distinct values as candidates (a slice
  of precomputed run starts, expanded with ``np.repeat``), and every
  other holder keeps or drops them with one batched ``searchsorted``
  over its sorted composite keys — no Python loop runs per prefix.
  Count and Boolean stop at the first level from which every variable
  is private to one atom (each prefix then extends by the product of
  those atoms' range sizes) and at the first empty level.
  :func:`columnar_generic_join_count` / ``_boolean`` run it over whole
  disjuncts (``method="generic"``), and
  :func:`repro.engine.decomposition.columnar_bags` runs it in ``rows``
  mode to build each decomposition bag of a cyclic disjunct as a code
  matrix, which the counting DP, semijoin sweep and full reducer then
  evaluate over the bag tree.

* :func:`columnar_yannakakis_full` — full acyclic evaluation
  (full reducer + output-projected bottom-up joins) over survivor masks
  and gathered key arrays, generalizing the Boolean sweep.  Joins
  expand ``searchsorted`` match ranges with ``np.repeat`` index
  arithmetic, intermediate frames are deduplicated in packed-key space
  (set semantics, exactly like the tuple path's projections), and rows
  are decoded through the codebook only for the final output.

Every kernel returns ``None`` whenever the atoms are not all columnar
over one shared codebook (or a join column is not dictionary-encoded on
both sides, or packed keys would overflow) — the caller then falls back
to the retained tuple implementations, which stay in the tree as the
differential oracles.  :func:`use_columnar_kernels` turns the tier off
wholesale so tests and benchmarks can force the tuple tier on demand.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Sequence

import networkx as nx
import numpy as np

from ..reduction.columnar import (
    COL_CODE,
    COUNT_DTYPE,
    ColumnBlock,
    pack_key_columns,
)
from .generic_join import JoinAtom, default_variable_order
from .relation import Relation
from .yannakakis import _rooted_orders

__all__ = [
    "atom_blocks",
    "columnar_generic_join_boolean",
    "columnar_generic_join_count",
    "columnar_yannakakis_count",
    "columnar_yannakakis_full",
    "edge_keys",
    "kernels_enabled",
    "key_isin",
    "level_join",
    "use_columnar_kernels",
    "variable_kinds",
]

#: Packed-key radix products at or below this are "small": membership
#: tests use ``np.isin(kind="table")`` and counting messages use a dense
#: ``np.bincount`` table (a few MB at most) instead of sort-based paths.
TABLE_RADIX_LIMIT = 1 << 22

#: Conservative ceiling for exact ``int64`` count arithmetic: any
#: intermediate bound crossing it falls back to the dict DP, which
#: counts in unbounded Python ints.
_INT64_SAFE = 1 << 62

#: ``np.bincount`` accumulates float64 weights; sums below this are
#: exactly representable, larger ones take the sort-based path.
_FLOAT_EXACT = 1 << 52


class _Fallback(Exception):
    """Internal unwind signal: this query needs the tuple tier."""


# ----------------------------------------------------------------------
# the kill switch (benchmarks/tests force the tuple tier through this)
# ----------------------------------------------------------------------

_ENABLED = True


def kernels_enabled() -> bool:
    """Whether the columnar evaluation kernels are active (default on)."""
    return _ENABLED


@contextmanager
def use_columnar_kernels(enabled: bool) -> Iterator[None]:
    """Temporarily force the columnar evaluation tier on or off — the
    knob benchmarks and differential tests use to measure/pin the
    retained tuple implementations through the very same call paths."""
    global _ENABLED
    previous = _ENABLED
    _ENABLED = bool(enabled)
    try:
        yield
    finally:
        _ENABLED = previous


# ----------------------------------------------------------------------
# shared plumbing
# ----------------------------------------------------------------------


def atom_blocks(atoms: Sequence[JoinAtom]) -> list[ColumnBlock] | None:
    """Every atom's live column block, or ``None`` when any atom has
    materialized (or the blocks do not share one codebook, which would
    make cross-relation code comparison meaningless)."""
    blocks: list[ColumnBlock] = []
    book = None
    for atom in atoms:
        block = getattr(atom.relation, "columnar", None)
        if block is None or block.book is None:
            return None
        if block.width != len(atom.variables):
            return None
        if book is None:
            book = block.book
        elif block.book is not book:
            return None
        blocks.append(block)
    return blocks


def edge_keys(
    book, left_cols: Sequence[np.ndarray], right_cols: Sequence[np.ndarray]
) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Packed join keys for the two sides of one edge over *code*
    columns.  Radices come from the shared codebook's domain size (every
    code is ``< len(book)``) — an O(1) derivation instead of a full
    ``.max()`` rescan per edge.  When the book is large enough that the
    O(1) radices overflow the packable range, the per-column maxima are
    scanned once as a second chance; only then does the edge fall back
    to the tuple tier."""
    radices: list[int] = [len(book)] * len(left_cols)
    left = pack_key_columns(left_cols, radices)
    right = pack_key_columns(right_cols, radices) if left is not None else None
    if left is None or right is None:
        radices = [
            max(
                int(lc.max()) if lc.size else 0,
                int(rc.max()) if rc.size else 0,
            )
            + 1
            for lc, rc in zip(left_cols, right_cols)
        ]
        left = pack_key_columns(left_cols, radices)
        right = pack_key_columns(right_cols, radices)
        if left is None or right is None:
            raise _Fallback
    return left, right, radices


def key_isin(
    haystack: np.ndarray, needles: np.ndarray, radices: Sequence[int]
) -> np.ndarray:
    """``np.isin`` over packed keys, using the dense table algorithm
    whenever the radix product says the key space is small."""
    total = 1
    for radix in radices:
        total *= max(int(radix), 1)
    if total <= TABLE_RADIX_LIMIT:
        return np.isin(haystack, needles, kind="table")
    return np.isin(haystack, needles)


def _shared_code_columns(
    blocks: Sequence[ColumnBlock],
    atoms: Sequence[JoinAtom],
    a: int,
    b: int,
) -> tuple[list[str], list[int], list[int]]:
    """Shared variables of atoms ``a``/``b`` (in ``a``'s schema order)
    with their column indices; raises :class:`_Fallback` when a shared
    column is not dictionary-encoded on both sides (verbatim ids joined
    against codes are incomparable as raw ints)."""
    a_vars = atoms[a].variables
    b_vars = atoms[b].variables
    shared = [v for v in a_vars if v in b_vars]
    a_idx: list[int] = []
    b_idx: list[int] = []
    for v in shared:
        ai = a_vars.index(v)
        bi = b_vars.index(v)
        if blocks[a].kinds[ai] != COL_CODE or blocks[b].kinds[bi] != COL_CODE:
            raise _Fallback
        a_idx.append(ai)
        b_idx.append(bi)
    return shared, a_idx, b_idx


def _group_sum(
    keys: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-key ``int64`` sums of ``weights``: sorted unique keys plus
    their exact sums (stable argsort + ``np.add.reduceat``)."""
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    sorted_weights = weights[order]
    starts = np.flatnonzero(
        np.concatenate(([True], sorted_keys[1:] != sorted_keys[:-1]))
    )
    return sorted_keys[starts], np.add.reduceat(sorted_weights, starts)


def _lookup_sums(
    unique_keys: np.ndarray, sums: np.ndarray, queries: np.ndarray
) -> np.ndarray:
    """``sums`` gathered at each query key (0 where the key is absent)."""
    idx = np.searchsorted(unique_keys, queries)
    clipped = np.minimum(idx, unique_keys.size - 1)
    hit = (idx < unique_keys.size) & (unique_keys[clipped] == queries)
    return np.where(hit, sums[clipped], np.int64(0))


# ----------------------------------------------------------------------
# counting: the join-tree DP on int64 arrays
# ----------------------------------------------------------------------


def columnar_yannakakis_count(
    atoms: Sequence[JoinAtom], tree: nx.Graph
) -> int | None:
    """Number of satisfying assignments via the join-tree counting DP on
    code arrays, or ``None`` when the caller must fall back.

    Mirrors :func:`repro.engine.yannakakis.yannakakis_count` exactly:
    per-row extension counts start at 1, each bottom-up edge aggregates
    child counts grouped by the shared columns and multiplies the
    aggregate onto the matching parent rows (absent keys multiply by 0,
    which is the array form of the dict DP dropping the tuple), and the
    total is the product over components of the root's count sum.  All
    arithmetic is overflow-guarded; a count that could leave the safe
    ``int64`` range returns ``None`` so the dict DP's unbounded Python
    ints take over.
    """
    if not _ENABLED:
        return None
    blocks = atom_blocks(atoms)
    if blocks is None:
        return None
    if tree.number_of_nodes() == 0:
        return 0
    if any(block.row_count == 0 for block in blocks):
        return 0
    book = blocks[0].book
    counts = [np.ones(block.row_count, dtype=COUNT_DTYPE) for block in blocks]
    #: per node, its largest count entry (Python int — the overflow
    #: guard for the int64 arrays, taken from the arrays themselves so
    #: it is exact rather than a product of row counts)
    bounds = [1] * len(blocks)
    total = 1
    try:
        for component in nx.connected_components(tree):
            root = min(component)
            order, parent = _rooted_orders(tree, root)
            for node in reversed(order):
                p = parent[node]
                if p is None:
                    continue
                shared, p_idx, c_idx = _shared_code_columns(
                    blocks, atoms, p, node
                )
                # every message entry is a sum of child counts, so the
                # child's exact total bounds it
                child_total = _exact_sum(counts[node], bounds[node])
                if child_total == 0:
                    return 0
                if not shared:
                    # cartesian edge: every parent row extends by every
                    # child assignment — multiply by the child's total
                    bounds[p] *= child_total
                    if bounds[p] > _INT64_SAFE:
                        raise _Fallback
                    counts[p] = counts[p] * np.int64(child_total)
                    continue
                parent_cols = [np.asarray(blocks[p].column(j)) for j in p_idx]
                child_cols = [
                    np.asarray(blocks[node].column(j)) for j in c_idx
                ]
                parent_keys, child_keys, radices = edge_keys(
                    book, parent_cols, child_cols
                )
                radix_total = 1
                for radix in radices:
                    radix_total *= max(int(radix), 1)
                if radix_total <= TABLE_RADIX_LIMIT and (
                    child_total < _FLOAT_EXACT
                ):
                    table = np.bincount(
                        child_keys,
                        weights=counts[node],
                        minlength=radix_total,
                    )
                    message = table[parent_keys].astype(COUNT_DTYPE)
                else:
                    unique_keys, sums = _group_sum(child_keys, counts[node])
                    message = _lookup_sums(unique_keys, sums, parent_keys)
                if bounds[p] * int(message.max()) > _INT64_SAFE:
                    raise _Fallback
                counts[p] = counts[p] * message
                bounds[p] = int(counts[p].max())
                if bounds[p] == 0:
                    return 0
            component_total = _exact_sum(counts[root], bounds[root])
            if component_total == 0:
                return 0
            total *= component_total
    except _Fallback:
        return None
    return int(total)


def _exact_sum(values: np.ndarray, bound: int) -> int:
    """``int(values.sum())``, guarded so the int64 accumulation cannot
    have overflowed (``bound`` bounds every entry)."""
    if bound * max(values.size, 1) > _INT64_SAFE:
        raise _Fallback
    return int(values.sum())


# ----------------------------------------------------------------------
# generic join: level at a time on sorted code columns
# ----------------------------------------------------------------------


def variable_kinds(
    atoms: Sequence[JoinAtom], blocks: Sequence[ColumnBlock]
) -> dict[str, str] | None:
    """Each variable's column kind, or ``None`` when one variable is a
    code column in one atom and a verbatim id in another (the two are
    incomparable as raw ints)."""
    kind_of: dict[str, str] = {}
    for atom, block in zip(atoms, blocks):
        for j, v in enumerate(atom.variables):
            if kind_of.setdefault(v, block.kinds[j]) != block.kinds[j]:
                return None
    return kind_of


def _expand_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``concat(arange(s, s + c) for s, c in zip(starts, counts))``,
    built with ``np.repeat`` index arithmetic instead of a loop."""
    offsets = np.arange(int(counts.sum()), dtype=np.int64) - np.repeat(
        np.cumsum(counts) - counts, counts
    )
    return np.repeat(starts, counts) + offsets


def _sorted_distinct_rows(matrix: np.ndarray) -> np.ndarray:
    """The distinct rows of ``matrix`` in lexicographic order: one
    ``np.unique`` over packed keys when the column ranges allow, else a
    lexsort and an adjacent-row comparison."""
    n, width = matrix.shape
    if n == 0 or width == 0:
        return matrix[: min(n, 1)]
    cols = [matrix[:, j] for j in range(width)]
    packed = pack_key_columns(cols, [int(c.max()) + 1 for c in cols])
    if packed is not None:
        _, first = np.unique(packed, return_index=True)
        return matrix[first]
    matrix = matrix[np.lexsort(cols[::-1])]
    distinct = np.ones(n, dtype=bool)
    distinct[1:] = (matrix[1:] != matrix[:-1]).any(axis=1)
    return matrix[distinct]


class _SortedAtom:
    """One atom of the level join: its distinct rows as ``int64``
    columns in global variable order, sorted lexicographically.

    ``keys[d]`` is ``gid * radix[d] + cols[d]``, where ``gid`` numbers
    the distinct prefixes of columns ``0..d-1``.  It is sorted, so one
    batched ``searchsorted`` finds, for every live prefix at once, the
    rows that extend the prefix's row range by a value.  ``starts[d]``
    lists the first row of each distinct depth-``d`` prefix, then the
    row count: the distinct values of column ``d`` inside a prefix's
    row range are one contiguous slice of it."""

    __slots__ = ("cols", "keys", "radix", "starts", "size")

    def __init__(self, matrix: np.ndarray):
        matrix = _sorted_distinct_rows(matrix)
        n = int(matrix.shape[0])
        self.size = n
        self.cols: list[np.ndarray] = []
        self.keys: list[np.ndarray] = []
        self.radix: list[int] = []
        self.starts: list[np.ndarray] = []
        gid = np.zeros(n, dtype=np.int64)
        for j in range(matrix.shape[1]):
            col = matrix[:, j].astype(np.int64)
            radix = int(col.max()) + 1
            if n * radix > _INT64_SAFE:
                raise _Fallback
            key = gid * radix + col
            new = np.ones(n, dtype=bool)
            new[1:] = key[1:] != key[:-1]
            self.cols.append(col)
            self.keys.append(key)
            self.radix.append(radix)
            self.starts.append(np.append(np.flatnonzero(new), n))
            gid = np.cumsum(new) - 1


def _extend(
    atoms: Sequence[_SortedAtom],
    depth: Sequence[dict[int, int]],
    holders: Sequence[int],
    level: int,
    lo: list,
    hi: list,
) -> tuple[np.ndarray, dict[int, tuple[np.ndarray, np.ndarray]], np.ndarray]:
    """Extend every live prefix by one variable.  Each prefix's pivot
    is the atom holding the variable with the narrowest row range; the
    pivot's distinct values there are the candidates, and every other
    holder keeps a candidate only if one batched ``searchsorted`` finds
    it.  Returns, per surviving extension, its parent prefix, the new
    row range of every holder, and the bound value."""
    if len(holders) == 1:
        groups = [(holders[0], np.arange(lo[holders[0]].size))]
    else:
        widths = np.stack([hi[a] - lo[a] for a in holders])
        choice = np.argmin(widths, axis=0)
        groups = [
            (pivot, np.flatnonzero(choice == j))
            for j, pivot in enumerate(holders)
        ]
    pieces = []
    for pivot, sel in groups:
        if sel.size == 0:
            continue
        atom = atoms[pivot]
        starts = atom.starts[depth[pivot][level]]
        first = np.searchsorted(starts, lo[pivot][sel])
        counts = np.searchsorted(starts, hi[pivot][sel]) - first
        runs = _expand_ranges(first, counts)
        parent = np.repeat(sel, counts)
        run_lo = starts[runs]
        ranges = {pivot: (run_lo, starts[runs + 1])}
        value = atom.cols[depth[pivot][level]][run_lo]
        for other in holders:
            if other == pivot:
                continue
            o = atoms[other]
            d = depth[other][level]
            row = lo[other][parent]
            # keys[d] - cols[d] at any row of a range is gid * radix
            probe = o.keys[d][row] - o.cols[d][row] + value
            left = np.searchsorted(o.keys[d], probe, side="left")
            right = np.searchsorted(o.keys[d], probe, side="right")
            hit = (right > left) & (value < o.radix[d])
            if not hit.all():
                parent, value = parent[hit], value[hit]
                left, right = left[hit], right[hit]
                ranges = {
                    a: (start[hit], end[hit])
                    for a, (start, end) in ranges.items()
                }
            ranges[other] = (left, right)
        pieces.append((parent, ranges, value))
    if len(pieces) == 1:
        return pieces[0]
    return (
        np.concatenate([p for p, _, _ in pieces]),
        {
            a: (
                np.concatenate([r[a][0] for _, r, _ in pieces]),
                np.concatenate([r[a][1] for _, r, _ in pieces]),
            )
            for a in holders
        },
        np.concatenate([v for _, _, v in pieces]),
    )


def level_join(
    matrices: Sequence[np.ndarray],
    variables: Sequence[Sequence[str]],
    order: Sequence[str],
    mode: str,
):
    """The worst-case-optimal generic join, one variable level at a
    time over all live prefixes at once.

    ``matrices[i]`` holds atom ``i``'s rows (raw ints: codes, or ids),
    its column ``j`` bound to ``variables[i][j]``; ``order`` lists every
    variable once.  A live prefix is kept as one row range ``[lo, hi)``
    per atom (:class:`_SortedAtom`), and each level is one
    :func:`_extend` over every prefix: no Python loop runs per prefix.

    ``mode`` is ``"count"`` (the number of assignments), ``"boolean"``
    (whether there is one) or ``"rows"`` (one ``int64`` value column
    per ``order`` variable).  Count and boolean stop at the first level
    from which every variable is private to one atom: each prefix then
    extends by the product of those atoms' range sizes, with no level
    expanded.  Every mode stops as soon as a level leaves no prefix.
    Raises :class:`_Fallback` when sort keys would overflow ``int64``.
    """
    if any(matrix.shape[0] == 0 for matrix in matrices):
        if mode == "rows":
            return [np.zeros(0, dtype=np.int64) for _ in order]
        return False if mode == "boolean" else 0
    level_of = {v: i for i, v in enumerate(order)}
    atoms: list[_SortedAtom] = []
    depth: list[dict[int, int]] = []
    for matrix, names in zip(matrices, variables):
        if not names:
            continue  # a non-empty nullary atom constrains nothing
        positions = sorted(range(len(names)), key=lambda j: level_of[names[j]])
        atoms.append(_SortedAtom(matrix[:, positions]))
        depth.append({level_of[names[j]]: d for d, j in enumerate(positions)})
    holders = [
        [a for a, levels in enumerate(depth) if level in levels]
        for level in range(len(order))
    ]
    last_level = [max(levels) for levels in depth]
    stop = len(order)
    if mode != "rows":
        while stop and len(holders[stop - 1]) == 1:
            stop -= 1
    lo: list = [np.zeros(1, dtype=np.int64) for _ in atoms]
    hi: list = [np.array([atom.size], dtype=np.int64) for atom in atoms]
    values: list[np.ndarray] = []
    live = 1
    for level in range(stop):
        parent, ranges, value = _extend(atoms, depth, holders[level], level, lo, hi)
        live = int(parent.size)
        for a in range(len(atoms)):
            if last_level[a] <= level:
                lo[a] = hi[a] = None  # every column bound: never read again
            elif a in ranges:
                lo[a], hi[a] = ranges[a]
            else:
                lo[a], hi[a] = lo[a][parent], hi[a][parent]
        if mode == "rows":
            values = [v[parent] for v in values]
            values.append(value)
        if live == 0:
            break
    if mode == "rows":
        if live == 0:
            return [np.zeros(0, dtype=np.int64) for _ in order]
        return values
    if mode == "boolean":
        return live > 0
    if live == 0:
        return 0
    suffix = sorted({holders[level][0] for level in range(stop, len(order))})
    if not suffix:
        return live
    sizes = [hi[a] - lo[a] for a in suffix]
    bound = live
    for size in sizes:
        bound *= int(size.max())
    if bound > _INT64_SAFE:
        sizes = [size.astype(object) for size in sizes]
    product = sizes[0]
    for size in sizes[1:]:
        product = product * size
    return int(product.sum())


def _generic_join(
    atoms: Sequence[JoinAtom],
    variable_order: Sequence[str] | None,
    mode: str,
):
    """:func:`level_join` over the atoms' code matrices, or ``None``
    when the caller must run the trie join."""
    if not _ENABLED or not atoms:
        return None
    blocks = atom_blocks(atoms)
    if blocks is None or variable_kinds(atoms, blocks) is None:
        return None
    order = (
        list(variable_order)
        if variable_order
        else default_variable_order(atoms)
    )
    if set(order) != {v for atom in atoms for v in atom.variables}:
        return None  # let the tuple path raise its usual error
    try:
        return level_join(
            [np.asarray(block.codes) for block in blocks],
            [atom.variables for atom in atoms],
            order,
            mode,
        )
    except _Fallback:
        return None


def columnar_generic_join_count(
    atoms: Sequence[JoinAtom],
    variable_order: Sequence[str] | None = None,
) -> int | None:
    """Assignment count via the level-at-a-time join on code arrays, or
    ``None`` when the atoms are not columnar and the trie path must
    run."""
    return _generic_join(atoms, variable_order, "count")


def columnar_generic_join_boolean(
    atoms: Sequence[JoinAtom],
    variable_order: Sequence[str] | None = None,
) -> bool | None:
    """Non-emptiness via the level-at-a-time join on code arrays (stops
    at the first empty level), or ``None`` on fallback."""
    return _generic_join(atoms, variable_order, "boolean")


# ----------------------------------------------------------------------
# full evaluation: full reducer + output-projected joins on frames
# ----------------------------------------------------------------------


class _Frame:
    """An intermediate join result as parallel code columns: the
    columnar stand-in for the tuple path's intermediate relations.
    ``rows`` is kept explicitly so zero-width frames (everything
    projected away) still know whether they hold the empty tuple."""

    __slots__ = ("vars", "cols", "rows")

    def __init__(
        self, vars: Sequence[str], cols: list[np.ndarray], rows: int
    ):
        self.vars = tuple(vars)
        self.cols = cols
        self.rows = rows


def _semijoin_mask(
    blocks: Sequence[ColumnBlock],
    atoms: Sequence[JoinAtom],
    alive: list[np.ndarray],
    target: int,
    source: int,
    book,
) -> None:
    """Intersect ``target``'s survivor mask with membership of its
    shared-column keys among ``source``'s surviving keys (one direction
    of the full reducer's semijoin sweeps)."""
    shared, t_idx, s_idx = _shared_code_columns(blocks, atoms, target, source)
    if not shared:
        if not alive[source].any():
            alive[target][:] = False
        return
    target_cols = [np.asarray(blocks[target].column(j)) for j in t_idx]
    source_cols = [
        np.asarray(blocks[source].column(j))[alive[source]] for j in s_idx
    ]
    target_keys, source_keys, radices = edge_keys(
        book, target_cols, source_cols
    )
    alive[target] &= key_isin(target_keys, source_keys, radices)


def _unique_row_index(
    cols: Sequence[np.ndarray], radices: Sequence[int] | None = None
) -> np.ndarray:
    """Indices of one representative row per distinct row (any order —
    consumers are building sets).  Packs rows into scalars when the
    per-column value ranges allow — using the caller's O(1) radix
    bounds when given, rescanning for tight per-column maxima only if
    those bounds overflow the packable range — else ``np.unique`` over
    the row matrix."""
    if radices is not None:
        packed = pack_key_columns(cols, radices)
        if packed is not None:
            _, first = np.unique(packed, return_index=True)
            return first
    tight = [int(c.max()) + 1 if c.size else 1 for c in cols]
    packed = pack_key_columns(cols, tight)
    if packed is not None:
        _, first = np.unique(packed, return_index=True)
        return first
    matrix = np.stack([c.astype(np.int64, copy=False) for c in cols], axis=1)
    _, first = np.unique(matrix, axis=0, return_index=True)
    return first


def _join_frames(left: _Frame, right: _Frame, kind_of, book) -> _Frame:
    """Natural join of two frames on their shared variables: sort the
    right side's packed keys once, locate each left row's match range
    with ``searchsorted``, and expand the ranges with ``np.repeat``
    index arithmetic."""
    shared = [v for v in left.vars if v in right.vars]
    right_only = [j for j, v in enumerate(right.vars) if v not in left.vars]
    if shared:
        for v in shared:
            if kind_of[v] != COL_CODE:
                raise _Fallback
        left_cols = [left.cols[left.vars.index(v)] for v in shared]
        right_cols = [right.cols[right.vars.index(v)] for v in shared]
        left_keys, right_keys, _ = edge_keys(book, left_cols, right_cols)
        right_order = np.argsort(right_keys, kind="stable")
        right_sorted = right_keys[right_order]
        lo = np.searchsorted(right_sorted, left_keys, side="left")
        hi = np.searchsorted(right_sorted, left_keys, side="right")
        matches = hi - lo
        left_idx = np.repeat(np.arange(left.rows), matches)
        right_idx = right_order[_expand_ranges(lo, matches)]
    else:
        left_idx = np.repeat(np.arange(left.rows), right.rows)
        right_idx = np.tile(np.arange(right.rows), left.rows)
    cols = [c[left_idx] for c in left.cols] + [
        right.cols[j][right_idx] for j in right_only
    ]
    vars_ = left.vars + tuple(right.vars[j] for j in right_only)
    return _Frame(vars_, cols, int(left_idx.size))


def _project_frame(
    frame: _Frame, keep: Sequence[str], radix_of: dict[str, int]
) -> _Frame:
    """Project onto ``keep`` and deduplicate rows — the frame analogue
    of the tuple path's set-semantics projection.  ``radix_of`` carries
    the per-variable O(1) value bounds (codebook domain size for code
    columns) so dedup keys pack without rescanning columns."""
    cols = [frame.cols[frame.vars.index(v)] for v in keep]
    if not cols:
        return _Frame((), [], 1 if frame.rows else 0)
    unique = _unique_row_index(cols, [radix_of[v] for v in keep])
    return _Frame(keep, [c[unique] for c in cols], int(unique.size))


def _decode_frame(frame: _Frame, kind_of, book) -> list[tuple]:
    """Decode a frame's rows into Python tuples — the only place the
    full-evaluation kernel touches decoded values, and it runs on the
    final (projected, deduplicated) output rows alone."""
    if not frame.vars:
        return [()] * frame.rows
    columns: list[list] = []
    for v, col in zip(frame.vars, frame.cols):
        raw = col.tolist()
        if kind_of[v] == COL_CODE:
            values = book.values
            columns.append([values[c] for c in raw])
        else:
            columns.append(raw)
    return list(zip(*columns))


def columnar_yannakakis_full(
    atoms: Sequence[JoinAtom],
    tree: nx.Graph,
    output: Sequence[str] | None = None,
) -> Relation | None:
    """Full acyclic evaluation over code arrays, or ``None`` when the
    caller must fall back to the tuple path.

    Mirrors :func:`repro.engine.yannakakis.yannakakis_full`: the full
    reducer (bottom-up then top-down semijoin sweeps) runs on survivor
    masks, the bottom-up joins keep only output variables plus each
    node's own bag schema (running intersection), and components are
    joined at the end.  Output rows are decoded through the codebook
    only once, at the very end.
    """
    if not _ENABLED:
        return None
    blocks = atom_blocks(atoms)
    if blocks is None:
        return None
    book = blocks[0].book if blocks else None
    kind_of = variable_kinds(atoms, blocks)
    if kind_of is None:
        return None
    radix_of: dict[str, int] = {}
    for atom, block in zip(atoms, blocks):
        for j, v in enumerate(atom.variables):
            radix_of[v] = max(radix_of.get(v, 1), block.column_radix(j))
    all_vars: list[str] = []
    for atom in atoms:
        for v in atom.variables:
            if v not in all_vars:
                all_vars.append(v)
    out_vars = list(output) if output is not None else all_vars
    if tree.number_of_nodes() == 0:
        return Relation("result", out_vars, set())
    out_set = set(out_vars)
    try:
        alive = [np.ones(block.row_count, dtype=bool) for block in blocks]
        results: list[_Frame] = []
        for component in nx.connected_components(tree):
            root = min(component)
            order, parent = _rooted_orders(tree, root)
            for node in reversed(order):
                p = parent[node]
                if p is not None:
                    _semijoin_mask(blocks, atoms, alive, p, node, book)
            for node in order:
                p = parent[node]
                if p is not None:
                    _semijoin_mask(blocks, atoms, alive, node, p, book)
            acc = {
                node: _Frame(
                    atoms[node].variables,
                    [
                        np.asarray(blocks[node].column(j))[alive[node]]
                        for j in range(blocks[node].width)
                    ],
                    int(alive[node].sum()),
                )
                for node in order
            }
            for node in reversed(order):
                p = parent[node]
                if p is None:
                    continue
                joined = _join_frames(acc[p], acc[node], kind_of, book)
                keep = [
                    v
                    for v in joined.vars
                    if v in out_set or v in atoms[p].variables
                ]
                acc[p] = _project_frame(joined, keep, radix_of)
            results.append(acc[root])
        final = results[0]
        for frame in results[1:]:
            final = _join_frames(final, frame, kind_of, book)
    except _Fallback:
        return None
    present = [v for v in out_vars if v in final.vars]
    final = _project_frame(final, present, radix_of)
    return Relation("result", present, _decode_frame(final, kind_of, book))
