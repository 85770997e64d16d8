"""Workloads of the end-to-end benchmark and their seeded inputs.

Every workload drives the same public surfaces — cold and restart-warm
``QuerySession`` calls, ``QuerySession.sql`` and the brute-force oracle
in *session rounds*, alternating with *service slices* of a
``ServiceServer`` over a one-worker ``WorkerPool`` — so every metric is
measured on every workload.  What differs is the query class, the input sizes and
the traffic mix; that choice decides which layer does the work
(``README.md`` says which, and why).

All inputs come from :mod:`repro.workloads` with interval lefts drawn
uniformly from ``[0, 300]`` and lengths from ``0..30`` (integers): dense
enough that a random Q△ instance has dozens of triangles, so a cold
EXISTS finds a witness in its first disjuncts on every instance and its
time does not hinge on the seed.
"""

from __future__ import annotations

import itertools
import random
import zlib
from dataclasses import dataclass
from typing import Iterator

from repro import Database, Relation, parse_query
from repro.service import query_text
from repro.workloads import isomorphic_variants, random_database, random_integer_interval

DOMAIN = 300
MAX_LENGTH = 30


@dataclass(frozen=True)
class Family:
    """A query class over three relations, in conjunction and SQL form.
    The templates take the three relation names; :class:`Client` fills
    them in."""

    query: str
    sql: str


#: The paper's running example Q△: ij-width 3/2, every reduced
#: disjunct is cyclic, so the EJ engine does the work.
TRIANGLE = Family(
    "{0}([A],[B]) ∧ {1}([B],[C]) ∧ {2}([A],[C])",
    "SELECT COUNT(*) FROM {0} r, {1} s, {2} t "
    "WHERE r.B OVERLAPS s.B AND s.C OVERLAPS t.C AND r.A OVERLAPS t.A",
)

#: The ι-acyclic 3-path: quasi-linear (Section 6), every reduced
#: disjunct is α-acyclic, so the forward reduction does the work.
PATH = Family(
    "{0}([X0],[X1]) ∧ {1}([X1],[X2]) ∧ {2}([X2],[X3])",
    "SELECT COUNT(*) FROM {0} a, {1} b, {2} c "
    "WHERE a.X1 OVERLAPS b.X1 AND b.X2 OVERLAPS c.X2",
)


@dataclass(frozen=True)
class Client:
    """A query class over named relations with ``n`` tuples each.  In
    the service slices each client queries its own relations only, so
    two clients' requests commute and each client's log replays in
    order against an in-process session."""

    family: Family
    relations: tuple[str, str, str]
    n: int

    @property
    def query(self) -> str:
        return self.family.query.format(*self.relations)

    @property
    def sql(self) -> str:
        return self.family.sql.format(*self.relations)


@dataclass(frozen=True)
class Workload:
    """Why each workload exists, with its sizes, is recorded in
    ``BENCHMARK.json`` and ``README.md``."""

    name: str
    #: the session rounds' instance, and the size of the oracle's
    #: instance from the same generator (``None``: the oracle runs on
    #: the session instance itself)
    session: Client
    oracle_n: int | None
    #: the service slices' two closed-loop clients: the first writes,
    #: the second only reads
    clients: tuple[Client, Client]


WORKLOADS = {
    w.name: w
    for w in (
        # engine-bound: every reduced disjunct of Q-triangle is cyclic
        Workload(
            "tri-count",
            Client(TRIANGLE, ("R", "S", "T"), 40), None,
            (Client(PATH, ("R1", "R2", "R3"), 150), Client(TRIANGLE, ("U", "V", "W"), 40)),
        ),
        # reduction-bound: the 3-path is iota-acyclic, the engine is bypassed
        Workload(
            "chain-count",
            Client(PATH, ("R1", "R2", "R3"), 400), 100,
            (Client(PATH, ("R1", "R2", "R3"), 150), Client(PATH, ("P1", "P2", "P3"), 150)),
        ),
    )
}


def sub_seed(seed: int, tag: str) -> int:
    """A stable per-purpose seed derived from the workload seed."""
    return zlib.crc32(f"{seed}/{tag}".encode())


def instance(client: Client, seed: int) -> Database:
    """``client.n`` random interval tuples per relation of its query."""
    return random_database(
        parse_query(client.query), client.n, seed=seed,
        domain=DOMAIN, mean_length=MAX_LENGTH, integer=True,
    )


def service_database(workload: Workload, seed: int) -> Database:
    """The served database: every client's relations, each client's
    instance drawn from its own sub-seed."""
    db = Database()
    for i, client in enumerate(workload.clients):
        part = instance(client, sub_seed(seed, f"client{i}"))
        for relation in part:
            db.add(Relation(relation.name, relation.schema, set(relation.tuples)))
    return db


@dataclass(frozen=True)
class Request:
    op: str                       # "evaluate" | "count" | "mutate"
    query: str | None = None      # evaluate/count: conjunction text
    kind: str | None = None       # mutate: "insert" | "delete"
    relation: str | None = None
    values: tuple | None = None

    @property
    def is_read(self) -> bool:
        return self.op != "mutate"


#: The repeating request block of each service client.  The first
#: client of a workload writes: each block opens with two tuple writes
#: (2 in 15), so its next EXISTS and its COUNT recompute, and the rest
#: are answer-cache hits.  The second client only reads, over other
#: relations, and thinks ``READER_THINK_S`` on average between requests,
#: so a write seldom queues behind another request.  With these
#: proportions about a quarter of all reads wait for a recompute: the
#: read p50 is a cache hit and the p90 a recompute on every seed.  A
#: fixed block, not a coin per request, keeps the work of a run from
#: depending on the seed.
BLOCKS = (
    ("write", "write") + ("evaluate",) * 6 + ("count",) + ("evaluate",) * 6,
    ("count",) + ("evaluate",) * 9,
)
READER_THINK_S = 0.01
#: The writes cycle through inserts whose endpoints already occur in the
#: relation's columns (inside the segment trees' endpoint domain, so a
#: cached reduction is patched), deletes, and inserts of fresh intervals
#: (outside it, so the reduction is rebuilt).
WRITES = ("insert inside", "delete", "insert outside", "delete")


def client_requests(
    workload: Workload, index: int, db: Database, seed: int
) -> Iterator[Request]:
    """The endless, seed-determined request stream of one client.
    Reads pick one of eight isomorphic variants (renamed variables,
    shuffled atoms) of the client's query."""
    client = workload.clients[index]
    rng = random.Random(sub_seed(seed, f"requests{index}"))
    variants = [
        query_text(v)
        for v in isomorphic_variants(
            parse_query(client.query), 8, seed=sub_seed(seed, f"variants{index}")
        )
    ]
    live = {name: sorted(db[name].tuples, key=repr) for name in client.relations}
    present = {name: set(rows) for name, rows in live.items()}
    columns = {
        name: [sorted({t[c] for t in rows}, key=repr) for c in range(2)]
        for name, rows in live.items()
    }
    writes = itertools.cycle(WRITES)
    while True:
        for op in BLOCKS[index]:
            if op != "write":
                yield Request(op, query=rng.choice(variants))
                continue
            kind = next(writes)
            name = rng.choice(client.relations)
            rows = live[name]
            if kind == "delete":
                t = rows.pop(rng.randrange(len(rows)))
                present[name].discard(t)
                yield Request("mutate", kind="delete", relation=name, values=t)
                continue
            if kind == "insert inside":
                t = tuple(rng.choice(column) for column in columns[name])
            else:
                t = tuple(random_integer_interval(rng, DOMAIN, MAX_LENGTH) for _ in range(2))
            if t not in present[name]:
                present[name].add(t)
                rows.append(t)
            yield Request("mutate", kind="insert", relation=name, values=t)
