"""Differential pins for the columnar evaluation tier
(:mod:`repro.engine.columnar_eval`).

The evaluation kernels — the vectorized counting DP, the
sorted-column-array generic join, and the mask-sweep full reducer —
must be *bit/count-identical* to the retained tuple implementations,
which stay in the tree as the oracles:

* per reduced EJ disjunct, columnar count ≡ dict-of-tuples DP ≡
  trie-based ``generic_join_count``, and columnar full evaluation ≡
  tuple ``yannakakis_full`` (schema and tuple set);
* end to end, ``count_ij`` / ``witnesses_ij`` answer identically with
  the kernels on and forced off (``use_columnar_kernels``), and agree
  with the strategy-free naive oracle;
* the same identities hold on artifacts *after* ``apply_delta``
  patches (where the patched relations have materialized and the
  kernels must fall back correctly) and on **memmap-warm** artifacts
  rebuilt from serialized v5 cache frames.

Cyclic disjuncts take the decomposition path, whose bags are built on
code arrays by the level-at-a-time join: its count, Boolean and full
evaluation must equal the tuple bag path (kernels forced off) and the
naive oracle, on the fuzz matrix and on edge inputs (an empty relation,
a cartesian bag, a zero-width projection, an ``id`` column in a bag).

The tuple tier iterates rows without materializing them, but some
oracles still compare against an independently-built twin artifact.

CI runs this module across the ``REPRO_FUZZ_SEED`` matrix — the
scenario generators are imported from ``test_differential_cache`` so
each matrix cell pins the kernels on the same query/database family it
fuzzes the caches with.
"""

import random
import tempfile
from pathlib import Path

import numpy as np
import pytest

from test_differential_cache import (
    SCENARIOS,
    _patchable_deltas,
    build_database,
    namespaced,
    random_queries,
    scenario_seed,
)

from repro.core import QuerySession, naive_count
from repro.core.baselines import naive_witnesses
from repro.core.cache_format import load_result, serialize_result
from repro.core.disjunct_eval import count_disjunction
from repro.core.ij_engine import count_ij, witnesses_ij
from repro.core.reduction_cache import FORMAT_VERSION
from repro.engine import (
    columnar_generic_join_count,
    columnar_yannakakis_count,
    columnar_yannakakis_full,
    use_columnar_kernels,
)
from repro.engine.decomposition import (
    columnar_boolean_with_decomposition,
    columnar_count_with_decomposition,
    columnar_full_with_decomposition,
    count_with_decomposition,
    evaluate_boolean_with_decomposition,
    evaluate_full_with_decomposition,
)
from repro.engine.ej import (
    _label_tree_to_index_tree,
    count_ej,
    evaluate_ej,
    evaluate_ej_full,
    join_atoms_for,
    optimal_decomposition,
)
from repro.engine.generic_join import JoinAtom, generic_join_count
from repro.engine.relation import Database, Relation
from repro.engine.yannakakis import yannakakis_count, yannakakis_full
from repro.hypergraph.acyclicity import join_tree
from repro.intervals import Interval
from repro.queries import parse_query
from repro.reduction import (
    DomainChanged,
    forward_reduce,
    shift_distinct_left,
)
from repro.reduction.columnar import (
    CODE_DTYPE,
    COL_CODE,
    COL_ID,
    CodeBook,
    ColumnBlock,
)
from repro.widths.tree_decomposition import TreeDecomposition

TRIANGLE = "R([A],[B]) & S([B],[C]) & T([A],[C])"


def _acyclic_disjuncts(result):
    """(ej_query, index_tree) for every α-acyclic disjunct."""
    out = []
    for ej in result.ej_queries:
        tree = join_tree(ej.hypergraph())
        if tree is not None:
            out.append((ej, _label_tree_to_index_tree(ej, tree)))
    return out


def _cyclic_disjuncts(result):
    """(ej_query, fhtw-optimal decomposition) for every cyclic
    disjunct."""
    return [
        (ej, optimal_decomposition(ej.hypergraph()))
        for ej in result.ej_queries
        if join_tree(ej.hypergraph()) is None
    ]


def _witness_set(witnesses):
    return sorted(repr(w) for w in witnesses)


# ----------------------------------------------------------------------
# deterministic engagement: the kernels must actually run (and agree)
# on a plain interval workload, not just fall back everywhere
# ----------------------------------------------------------------------


def _engagement_db(seed: int = 3) -> Database:
    rng = random.Random(seed)

    def iv():
        lo = rng.randint(0, 12)
        return Interval(lo, lo + rng.randint(0, 3))

    def rows(n, width):
        out = set()
        while len(out) < n:
            out.add(tuple(iv() for _ in range(width)))
        return out

    return Database(
        [
            Relation("R", ["a1"], rows(20, 1)),
            Relation("S", ["b1", "b2"], rows(25, 2)),
            Relation("T", ["c1"], rows(20, 1)),
        ]
    )


def test_kernels_engage_on_columnar_disjuncts():
    """On an all-interval acyclic query, every reduced disjunct is
    columnar end to end: all three kernels must engage (no silent
    always-fallback) and match their oracles exactly."""
    query = parse_query("R([A]) & S([A],[B]) & T([B])")
    db = _engagement_db()
    kernel_side = forward_reduce(query, db, disjoint=False, provenance=True)
    oracle_side = forward_reduce(query, db, disjoint=False, provenance=True)
    disjuncts = _acyclic_disjuncts(kernel_side)
    assert disjuncts
    for (ej, tree), oracle_ej in zip(disjuncts, oracle_side.ej_queries):
        atoms = join_atoms_for(ej, kernel_side.database)
        count = columnar_yannakakis_count(atoms, tree)
        generic = columnar_generic_join_count(
            join_atoms_for(ej, kernel_side.database)
        )
        full = columnar_yannakakis_full(
            join_atoms_for(ej, kernel_side.database), tree
        )
        assert count is not None, ej.name
        assert generic is not None, ej.name
        assert full is not None, ej.name
        oracle_atoms = join_atoms_for(oracle_ej, oracle_side.database)
        assert count == yannakakis_count(oracle_atoms, tree)
        assert generic == count
        reference = yannakakis_full(
            join_atoms_for(oracle_ej, oracle_side.database), tree
        )
        assert full.schema == reference.schema
        assert full.tuples == reference.tuples


def _triangle_db(seed: int, n: int = 12) -> Database:
    rng = random.Random(seed)

    def iv():
        lo = rng.randint(0, 20)
        return Interval(lo, lo + rng.randint(0, 4))

    return Database(
        Relation(name, cols, {(iv(), iv()) for _ in range(n)})
        for name, cols in (("R", "AB"), ("S", "BC"), ("T", "AC"))
    )


def test_cyclic_disjuncts_never_fall_back():
    """On a columnar Q-triangle reduction every disjunct is cyclic and
    is answered on code arrays — count, Boolean and full evaluation all
    engage (no tuple fallback) and match the tuple bag path."""
    query = parse_query(TRIANGLE)
    db = _triangle_db(seed=4)
    for disjoint in (False, True):
        result = forward_reduce(query, db, disjoint=disjoint, provenance=True)
        disjuncts = _cyclic_disjuncts(result)
        assert len(disjuncts) == len(result.ej_queries) == 8
        for ej, td in disjuncts:
            atoms = join_atoms_for(ej, result.database)
            count = columnar_count_with_decomposition(atoms, td)
            boolean = columnar_boolean_with_decomposition(atoms, td)
            output = [f"__id_{a.label}" for a in query.atoms]
            full = columnar_full_with_decomposition(atoms, td, output)
            assert count is not None, ej.name
            assert boolean is not None, ej.name
            assert full is not None, ej.name
            with use_columnar_kernels(False):
                assert count == count_with_decomposition(atoms, td)
                assert boolean == evaluate_boolean_with_decomposition(
                    atoms, td
                )
                reference = evaluate_full_with_decomposition(
                    atoms, td, output
                )
            assert full.schema == reference.schema
            assert full.tuples == reference.tuples
        # neither tier stripped a column block off the artifact
        assert all(r.columnar is not None for r in result.database)


def test_session_keeps_the_memoized_reduction_columnar():
    """A cyclic COUNT and EXISTS through ``QuerySession`` must leave
    every relation of the memoized reductions columnar, so later calls
    on them still run the kernels."""
    query = parse_query(TRIANGLE)
    session = QuerySession(_triangle_db(seed=6))
    count = session.count(query)
    session.evaluate(query, strategy="reduction")
    assert count == naive_count(query, session.db)
    memoized = [r for r, _ in session._disjoint.values()]
    memoized += [r for r, _ in session._reductions.values()]
    assert len(memoized) == 2
    for result in memoized:
        assert all(r.columnar is not None for r in result.database)


def test_counting_dp_guards_on_actual_counts():
    """The DP's int64 guard bounds counts by the arrays' values, not by
    products of row counts: four 60k-row children (row-count product
    above 2**62) that each match the root once still count on code
    arrays."""
    import networkx as nx

    book = CodeBook()
    n = 60_000
    keys = np.array([book.code(k) for k in range(n)], dtype=CODE_DTYPE)
    atoms = [
        JoinAtom(
            Relation.from_columns(
                "R", ("A",), ColumnBlock(keys[:1, None], (COL_CODE,), book)
            )
        )
    ]
    for i in range(4):
        codes = np.stack([keys, np.zeros(n, dtype=CODE_DTYPE)], axis=1)
        block = ColumnBlock(codes, (COL_CODE, COL_CODE), book)
        atoms.append(
            JoinAtom(Relation.from_columns(f"S{i}", ("A", f"X{i}"), block))
        )
    tree = nx.star_graph(4)
    assert columnar_yannakakis_count(atoms, tree) == 1
    assert yannakakis_count(atoms, tree) == 1


def test_kill_switch_forces_the_tuple_tier():
    query = parse_query("R([A]) & S([A],[B]) & T([B])")
    db = _engagement_db(seed=9)
    result = forward_reduce(query, db, disjoint=False)
    ej, tree = _acyclic_disjuncts(result)[0]
    atoms = join_atoms_for(ej, result.database)
    with use_columnar_kernels(False):
        assert columnar_yannakakis_count(atoms, tree) is None
        assert columnar_generic_join_count(atoms) is None
        assert columnar_yannakakis_full(atoms, tree) is None
    # the toggle restores itself — and the block survived the off-pass
    assert columnar_yannakakis_count(atoms, tree) is not None


# ----------------------------------------------------------------------
# fuzz-matrix differential pins
# ----------------------------------------------------------------------


@pytest.mark.parametrize("index", range(SCENARIOS))
def test_counting_kernels_match_dict_dp_and_trie(index):
    """Columnar count ≡ dict DP ≡ trie ``generic_join_count`` per
    acyclic disjunct, and ``count_ij`` end to end ≡ kernels-off ≡
    naive, across the fuzz-seed scenario family."""
    seed = scenario_seed(index)
    rng = random.Random(seed)
    queries = random_queries(rng)
    db, _ = build_database(rng, queries)
    for query in queries:
        kernel_side = forward_reduce(query, db, disjoint=True, provenance=True)
        dict_side = forward_reduce(query, db, disjoint=True, provenance=True)
        trie_side = forward_reduce(query, db, disjoint=True, provenance=True)
        for (ej, tree), dict_ej, trie_ej in zip(
            _acyclic_disjuncts(kernel_side),
            dict_side.ej_queries,
            trie_side.ej_queries,
        ):
            fast = columnar_yannakakis_count(
                join_atoms_for(ej, kernel_side.database), tree
            )
            expected = yannakakis_count(
                join_atoms_for(dict_ej, dict_side.database), tree
            )
            if fast is not None:
                assert fast == expected, (seed, query.name, ej.name)
            with use_columnar_kernels(False):
                trie = generic_join_count(
                    join_atoms_for(trie_ej, trie_side.database)
                )
            assert trie == expected, (seed, query.name, ej.name)
        total = count_ij(query, db)
        with use_columnar_kernels(False):
            tuple_total = count_ij(query, db)
        assert total == tuple_total == naive_count(query, db), (
            seed,
            query.name,
        )


def _columnar_database(tables: dict, id_columns=()) -> Database:
    """Integer EJ tables as columnar relations over one CodeBook; the
    columns named in ``id_columns`` are stored verbatim (``id`` kind)."""
    book = CodeBook()
    db = Database()
    for name, (schema, rows) in tables.items():
        kinds = [COL_ID if c in id_columns else COL_CODE for c in schema]
        codes = np.array(
            [
                [v if k == COL_ID else book.code(v) for v, k in zip(row, kinds)]
                for row in sorted(rows)
            ],
            dtype=CODE_DTYPE,
        ).reshape(len(rows), len(schema))
        block = ColumnBlock(codes, kinds, book)
        db.add(Relation.from_columns(name, schema, block))
    return db


def _edge_case(name: str):
    """(query, columnar database, tuple twin, decomposition) for one
    edge input of the cyclic decomposition path."""
    rng = random.Random(17)

    def rows(width, n=16):
        return {tuple(rng.randint(0, 5) for _ in range(width)) for _ in range(n)}

    tables = {
        "R": (("A", "B"), rows(2)),
        "S": (("B", "C"), rows(2)),
        "T": (("A", "C"), rows(2)),
    }
    text = "R(A,B) & S(B,C) & T(A,C)"
    td = None
    id_columns: tuple = ()
    if name == "empty":
        tables["T"] = (("A", "C"), set())
    elif name == "cartesian":
        # one bag holds U and V, which share no variable
        tables["U"] = (("D",), rows(1, 3))
        tables["V"] = (("E",), rows(1, 3))
        text += " & U(D) & V(E)"
        td = TreeDecomposition(
            [frozenset("ABC"), frozenset("DE")], [(0, 1)]
        )
    elif name == "zero-width":
        # U shares nothing with the triangle's bag: it enters it as a
        # zero-width projection
        tables["U"] = (("D",), rows(1, 3))
        text += " & U(D)"
    else:
        assert name == "id-column"
        tables = {
            "R": (("A", "B", "X"), rows(3, 40)),
            "S": (("B", "C", "Y"), rows(3, 40)),
            "T": (("A", "C", "Z"), rows(3, 40)),
        }
        text = "R(A,B,X) & S(B,C,Y) & T(A,C,Z)"
        id_columns = ("C", "X")
    query = parse_query(text)
    twin = Database(
        Relation(name, schema, rows) for name, (schema, rows) in tables.items()
    )
    if td is None:
        td = optimal_decomposition(query.hypergraph())
    td.validate(query.hypergraph())
    return query, _columnar_database(tables, id_columns), twin, td


def _decomposition_answers(atoms, td) -> tuple:
    """Count, Boolean and full evaluation (all variables, no variable,
    one variable) through the decomposition path."""
    variables = list(dict.fromkeys(v for a in atoms for v in a.variables))
    fulls = []
    for output in (None, [], variables[:1]):
        full = evaluate_full_with_decomposition(atoms, td, output)
        fulls.append((full.schema, full.tuples))
    return (
        count_with_decomposition(atoms, td),
        evaluate_boolean_with_decomposition(atoms, td),
        fulls,
    )


@pytest.mark.parametrize(
    "case", [*range(SCENARIOS), "empty", "cartesian", "zero-width", "id-column"]
)
def test_cyclic_disjuncts_match_tuple_tier(case):
    """On cyclic disjuncts the decomposition path answers count,
    Boolean and full evaluation identically with the kernels on and
    forced off, and ``count_ij`` agrees with the naive oracle end to
    end — across the fuzz-seed scenario family (each scenario adds a
    Q-triangle, so cyclic disjuncts always occur) and on edge inputs."""
    if isinstance(case, int):
        seed = scenario_seed(case)
        rng = random.Random(seed)
        queries = random_queries(rng)
        queries.append(namespaced(parse_query(TRIANGLE), "tri_"))
        db, _ = build_database(rng, queries)
        checks = []
        for query in queries:
            result = forward_reduce(query, db, disjoint=True, provenance=True)
            checks += [
                (join_atoms_for(ej, result.database), td)
                for ej, td in _cyclic_disjuncts(result)
            ]
            total = count_ij(query, db)
            with use_columnar_kernels(False):
                tuple_total = count_ij(query, db)
            assert total == tuple_total == naive_count(query, db), (
                seed,
                query.name,
            )
        assert checks, seed
    else:
        query, db, twin, td = _edge_case(case)
        expected = naive_count(query, twin)
        assert count_ej(query, db) == expected
        assert evaluate_ej(query, db) == (expected > 0)
        checks = [(join_atoms_for(query, db), td)]
        assert count_with_decomposition(*checks[0]) == expected
    for atoms, td in checks:
        got = _decomposition_answers(atoms, td)
        with use_columnar_kernels(False):
            want = _decomposition_answers(atoms, td)
        assert got == want, case


@pytest.mark.parametrize("index", range(SCENARIOS))
def test_full_evaluation_matches_tuple_path(index):
    """Columnar full evaluation ≡ tuple ``yannakakis_full`` per acyclic
    disjunct (schema + tuple set, with and without output projection),
    and the end-to-end witness pipeline is identical with the kernels
    forced off — and agrees with the naive witness oracle."""
    seed = scenario_seed(index)
    rng = random.Random(seed)
    queries = random_queries(rng)
    db, _ = build_database(rng, queries)
    for query in queries:
        kernel_side = forward_reduce(query, db, disjoint=True, provenance=True)
        oracle_side = forward_reduce(query, db, disjoint=True, provenance=True)
        for (ej, tree), oracle_ej in zip(
            _acyclic_disjuncts(kernel_side), oracle_side.ej_queries
        ):
            fast = columnar_yannakakis_full(
                join_atoms_for(ej, kernel_side.database), tree
            )
            if fast is None:
                continue
            reference = yannakakis_full(
                join_atoms_for(oracle_ej, oracle_side.database), tree
            )
            assert fast.schema == reference.schema, (seed, ej.name)
            assert fast.tuples == reference.tuples, (seed, ej.name)
        # projected full evaluation through the public dispatch
        projected_kernel = forward_reduce(query, db, disjoint=False)
        projected_oracle = forward_reduce(query, db, disjoint=False)
        for ej_k, ej_o in zip(
            projected_kernel.ej_queries, projected_oracle.ej_queries
        ):
            output = [v.name for v in ej_k.variables][:2]
            got = evaluate_ej_full(
                ej_k, projected_kernel.database, output=output
            )
            with use_columnar_kernels(False):
                want = evaluate_ej_full(
                    ej_o, projected_oracle.database, output=output
                )
            assert got.schema == want.schema, (seed, ej_k.name)
            assert got.tuples == want.tuples, (seed, ej_k.name)
        fast_witnesses = _witness_set(witnesses_ij(query, db))
        with use_columnar_kernels(False):
            tuple_witnesses = _witness_set(witnesses_ij(query, db))
        assert fast_witnesses == tuple_witnesses, (seed, query.name)
        assert fast_witnesses == _witness_set(
            naive_witnesses(query, db)
        ), (seed, query.name)


@pytest.mark.parametrize("index", range(SCENARIOS))
def test_kernels_agree_after_apply_delta(index):
    """After every successful ``apply_delta`` patch, the kernel-on and
    kernel-off answers still agree on every disjunct.  Patched variants
    have materialized (their blocks are gone), so this pins the
    *fallback* correctness as much as the kernels themselves."""
    seed = scenario_seed(index)
    rng = random.Random(seed)
    queries = random_queries(rng)
    db, _ = build_database(rng, queries)
    patched_any = False
    for query in queries:
        kernel_side = forward_reduce(query, db, disjoint=False, provenance=True)
        oracle_side = forward_reduce(query, db, disjoint=False, provenance=True)
        deltas = _patchable_deltas(
            random.Random(seed + 1), query, db, oracle_side
        )
        for delta in deltas:
            try:
                kernel_side.apply_delta(delta)
            except DomainChanged:
                continue
            oracle_side.apply_delta(delta)
            patched_any = True
            for ej_k, ej_o in zip(
                kernel_side.ej_queries, oracle_side.ej_queries
            ):
                got_count = count_ej(ej_k, kernel_side.database)
                got_bool = evaluate_ej(ej_k, kernel_side.database)
                got_full = evaluate_ej_full(ej_k, kernel_side.database)
                with use_columnar_kernels(False):
                    want_count = count_ej(ej_o, oracle_side.database)
                    want_bool = evaluate_ej(ej_o, oracle_side.database)
                    want_full = evaluate_ej_full(ej_o, oracle_side.database)
                assert got_count == want_count, (seed, query.name, delta)
                assert got_bool == want_bool, (seed, query.name, delta)
                assert got_full.schema == want_full.schema
                assert got_full.tuples == want_full.tuples, (
                    seed,
                    query.name,
                    delta,
                )
    assert patched_any, f"seed={seed}: no delta patch exercised"


@pytest.mark.parametrize("index", range(SCENARIOS))
def test_memmap_warm_artifacts_count_identically(index):
    """Serialize each disjoint reduction to a v5 frame, load it back as
    a memmap-backed artifact, and pin the warm columnar count — per
    disjunct and via ``count_disjunction`` — against the cold dict DP
    twin and the naive oracle."""
    seed = scenario_seed(index)
    rng = random.Random(seed)
    queries = random_queries(rng)
    db, _ = build_database(rng, queries)
    checked = False
    for query in queries:
        shifted = shift_distinct_left(query, db)
        cold = forward_reduce(
            query, shifted, disjoint=True, provenance=True
        )
        try:
            frame = serialize_result(cold, FORMAT_VERSION)
        except Exception:
            continue
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "entry.bin"
            path.write_bytes(frame)
            warm = load_result(path, FORMAT_VERSION)
            assert warm is not None, (seed, query.name)
            checked = True
            # warm relations come back columnar (memmap-backed blocks);
            # point-only variants are stored as plain tuple relations on
            # both sides, so require blocks only where the cold artifact
            # has them
            for cold_rel in cold.database:
                if cold_rel.columnar is None:
                    continue
                assert warm.database[cold_rel.name].columnar is not None, (
                    seed,
                    query.name,
                    cold_rel.name,
                )
            oracle = forward_reduce(
                query, shifted, disjoint=True, provenance=True
            )
            for (ej, tree), oracle_ej in zip(
                _acyclic_disjuncts(warm), oracle.ej_queries
            ):
                fast = columnar_yannakakis_count(
                    join_atoms_for(ej, warm.database), tree
                )
                expected = yannakakis_count(
                    join_atoms_for(oracle_ej, oracle.database), tree
                )
                if fast is not None:
                    assert fast == expected, (seed, query.name, ej.name)
            warm_total = count_disjunction(warm)
            with use_columnar_kernels(False):
                cold_total = count_disjunction(cold)
            assert warm_total == cold_total == naive_count(query, db), (
                seed,
                query.name,
            )
    assert checked, f"seed={seed}: no artifact round-tripped"
