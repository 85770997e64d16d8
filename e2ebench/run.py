"""End-to-end benchmark of the intersection-join system.

Usage::

    python3 e2ebench/run.py --workload tri-count --seed 0 --seconds 30 --trace 0

Each run sets up its workload several times (inputs from
:mod:`repro.workloads`, process-wide memos warmed from empty, a warm
persistent reduction cache, a one-worker ``WorkerPool``) and reports
the median set-up time.  It then measures for ``--seconds`` seconds,
alternating two kinds of work so that both span the whole run:

* a **session round** makes cold public calls on one instance —
  ``QuerySession.evaluate``, ``.count``, ``.sql`` COUNT, a COUNT from a
  fresh session over the warm cache directory, and ``naive_count`` on
  the oracle instance — and each call's 10th percentile is reported;
* a **service slice** serves the pool through ``ServiceServer`` and
  drives it closed-loop with two clients that each own their
  relations, reporting throughput and read/write latency.

Every answer is checked: session answers against the oracle or, on
instances too large for it, against each other and against the oracle
on a down-scaled instance from the same generator; service answers
against an in-process ``QuerySession`` replay of each client's request
log, mutations included.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
``end_to_end`` metrics of ``BENCHMARK.json`` with ``--trace 0``, its
``per_layer`` metrics with ``--trace 1``.  A wrong answer exits with
status 1.  Spans of a traced run are written to
``.e2ebench_out/spans-<workload>-<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import multiprocessing.resource_tracker
import os
import random
import resource
import statistics
import sys
import shutil
import tempfile
from contextlib import nullcontext
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

STARTED = perf_counter()
ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"e2ebench: no repro sources under {ROOT / 'src'}")
#: Python salts string hashes per process, and set and dict order over
#: variable and relation names steers the engine's tie-breaks: under
#: different salts one Q△ instance's cold EXISTS took 0.041–0.072 s and
#: its ``naive_count`` 0.0057–0.0096 s.  Every run, and the pool worker
#: it spawns, hashes with one fixed salt, so runs differ only by inputs.
HASH_SEED = "0"
if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
    os.environ["PYTHONHASHSEED"] = HASH_SEED
    os.execv(sys.executable, [sys.executable, *sys.argv])
sys.path.insert(0, str(ROOT / "src"))

import repro.core.session  # noqa: E402
import repro.engine.ej  # noqa: E402
from repro import QuerySession, naive_count, naive_evaluate, parse_query  # noqa: E402
from repro.core.reduction_cache import ReductionCache  # noqa: E402
from repro.intervals.bitstring import split_tuples  # noqa: E402
from repro.service import AsyncServiceClient, ServiceError, ServiceServer, WorkerPool  # noqa: E402

from spans import Tracer, layer_metrics  # noqa: E402
from workloads import (  # noqa: E402
    PATH,
    READER_THINK_S,
    TRIANGLE,
    WORKLOADS,
    Client,
    Workload,
    client_requests,
    instance,
    service_database,
    sub_seed,
)

SETUP_REPEATS = 3
#: share of ``--seconds`` given to the service slices
SERVICE_SHARE = 0.45
#: p90 is reported only with at least ten samples beyond it
MIN_READS = 110
#: a traced run traces the replay of this many requests of each
#: client's log: the same requests on every run of a seed
TRACED_REQUESTS = 60
#: each client sends at least this many requests, so some replayed
#: reads lie beyond the traced ones
MIN_REQUESTS = 100
#: replay-session counters reported over the traced requests
PREFIX_STATS = ("delta_patches", "hits", "misses", "evictions", "invalidations")
WARMUP_N = 20
#: ``naive_count`` calls are repeated within a round until this long,
#: so that a fast oracle still gets enough samples
NAIVE_SAMPLE_S = 0.05
#: session rounds rotate over this many instances of the seed, so that
#: no single instance's shape sets a run's medians
INSTANCES = 8
#: a traced run traces every other pass over the instances: one traced
#: pass and one untraced round at least
MIN_ROUNDS = INSTANCES + 1


@dataclass
class Instance:
    """One session instance and its oracle instance, with the answers
    the preparation fixes."""

    db: object
    oracle_db: object
    reference: int = 0   # the instance's COUNT, agreed by every surface
    oracle: int = 0      # naive_count on the oracle instance


@dataclass
class Env:
    """Everything one set-up builds, and what the preparation adds."""

    query: object
    sql: str
    instances: list[Instance]
    pool: WorkerPool
    warm_dir: Path | None = None


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"WRONG: {what}", file=sys.stderr)


def median_ms(values: list[float]) -> float:
    return statistics.median(values) * 1e3


def p10(values: list[float]) -> float:
    """The 10th percentile of a run's times of one call.  Other tenants
    of a shared host slow a call by up to 40% in phases that last
    seconds, and the share of a run spent in them varies from run to
    run; a run's median follows that share, a low percentile follows
    what the call costs."""
    return statistics.quantiles(values, n=10)[0]


def p90_ms(values: list[float]) -> float:
    ordered = sorted(values)
    value = ordered[-(-9 * len(ordered) // 10) - 1]
    if sum(1 for v in ordered if v > value) < 10:
        raise RuntimeError(f"{len(ordered)} samples cannot support a p90")
    return value * 1e3


class Run:
    def __init__(
        self, workload: Workload, seed: int, seconds: float, tracer: Tracer | None, tmp: Path
    ):
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.tmp = tmp
        self.checks = Checks()
        self.values: dict[str, float] = {}
        #: wall seconds per phase, printed for whoever sizes the workloads
        self.phases: dict[str, float] = {}
        self.warm_hits = 0
        self.service_seconds = 0.0
        self.cpus = sorted(os.sched_getaffinity(0))
        self.requests = 0
        #: the number of samples behind each median, printed with it
        self.samples: dict[str, int] = {}

    def span(self, name: str, **info):
        if self.tracer is None or not self.tracer.active:
            return nullcontext()
        return self.tracer.root(name, **info)

    # -- set-up ----------------------------------------------------------

    def setup(self) -> Env:
        """Build one run's inputs and services from nothing but the seed.
        Process-wide memos are emptied first, so every repetition pays
        what a fresh long-lived process pays once."""
        repro.engine.ej._td_cache.clear()
        repro.core.session._canon_cache.clear()
        split_tuples.cache_clear()
        w = self.w
        c = w.session
        query = parse_query(c.query)
        instances = []
        for k in range(INSTANCES):
            db = instance(c, sub_seed(self.seed, f"session{k}"))
            oracle_db = db if w.oracle_n is None else instance(
                replace(c, n=w.oracle_n), sub_seed(self.seed, f"oracle{k}")
            )
            instances.append(Instance(db, oracle_db))
        for family in (TRIANGLE, PATH):
            small = Client(family, ("R", "S", "T"), WARMUP_N)
            session = QuerySession(instance(small, 0))
            warm_query = parse_query(small.query)
            session.evaluate(warm_query)
            session.count(warm_query)
            session.sql(small.sql)
        pool = WorkerPool(
            service_database(w, self.seed), workers=1, cache_dir=self.tmp / "served"
        )
        pool.wait_ready()
        if len(self.cpus) > 1:
            # one CPU each for the benchmark process and the worker: on a
            # shared two-CPU host this steadies the service latencies
            os.sched_setaffinity(0, {self.cpus[0]})
            for child in multiprocessing.active_children():
                os.sched_setaffinity(child.pid, {self.cpus[1]})
        return Env(query, c.sql, instances, pool)

    def set_up(self) -> Env:
        times = []
        env = None
        for _ in range(SETUP_REPEATS):
            if env is not None:
                env.pool.close()
                shutil.rmtree(self.tmp / "served")
                env = None
            gc.collect()
            start = perf_counter()
            with self.span("op.setup"):
                env = self.setup()
            times.append(perf_counter() - start)
        self.values["setup_s"] = statistics.median(times)
        self.samples["setup_s"] = len(times)
        return env

    def prepare(self, env: Env) -> None:
        """Write the warm persistent cache that ``warm_count`` restarts
        from, let the served worker answer each client's query once (the
        service slices measure a warm service), and fix the expected
        answers.  Where the oracle instance is a down-scaled one, every
        session surface is checked on it."""
        env.warm_dir = self.tmp / "warm"
        for client in self.w.clients:
            served = parse_query(client.query)
            env.pool.evaluate(served).result()
            env.pool.count(served).result()
        q = env.query
        check = self.checks.check
        for k, inst in enumerate(env.instances):
            with self.span("op.prepare"):
                inst.reference = QuerySession(inst.db, cache_dir=env.warm_dir).count(q)
            inst.oracle = naive_count(q, inst.oracle_db)
            if inst.oracle_db is inst.db:
                check(inst.reference == inst.oracle, f"instance {k}: count against naive_count")
                continue
            session = QuerySession(inst.oracle_db)
            check(session.count(q) == inst.oracle, f"instance {k}: count on the oracle instance")
            check(
                QuerySession(inst.oracle_db).sql(env.sql) == inst.oracle,
                f"instance {k}: SQL count on the oracle instance",
            )
            check(
                session.evaluate(q) == naive_evaluate(q, inst.oracle_db),
                f"instance {k}: evaluate on the oracle instance",
            )

    # -- measurement ---------------------------------------------------

    def session_round(self, env: Env, index: int, samples) -> None:
        """One cold call of each session surface on the round's
        instance, each from a fresh ``QuerySession`` and a collected
        heap; every answer checked."""
        def timed(key: str, call, at_least: float = 0.0):
            """Time ``call``, repeated until ``at_least`` seconds have
            passed; each repetition is a sample."""
            spent = 0.0
            while True:
                gc.collect()
                with self.span(f"op.{key}", round=index):
                    began = perf_counter()
                    value = call()
                    took = perf_counter() - began
                samples.setdefault(key, []).append(took)
                spent += took
                if spent >= at_least:
                    return value

        q = env.query
        inst = env.instances[index % len(env.instances)]
        exists = timed("exists", lambda: QuerySession(inst.db).evaluate(q))
        count = timed("count", lambda: QuerySession(inst.db).count(q))
        sql = timed("sql_count", lambda: QuerySession(inst.db).sql(env.sql))
        warm_session = []

        def warm_count():
            warm_session.append(QuerySession(inst.db, cache_dir=env.warm_dir))
            return warm_session[0].count(q)

        warm = timed("warm_count", warm_count)
        # the oracle calls no traced layer, so repeating it leaves the
        # per-round layer metrics alone
        naive = timed("naive_count", lambda: naive_count(q, inst.oracle_db), NAIVE_SAMPLE_S)
        if index == 0:
            self.warm_hits = warm_session[0].stats.persistent_hits
        check = self.checks.check
        check(exists == (inst.reference > 0), f"round {index}: evaluate {exists}")
        for name, value in (("count", count), ("SQL count", sql), ("warm count", warm)):
            check(value == inst.reference, f"round {index}: {name} {value} != {inst.reference}")
        check(naive == inst.oracle, f"round {index}: naive_count {naive} != {inst.oracle}")

    async def drive(self, connection, index: int, stream, log: list, until: float, think) -> None:
        """One closed-loop client of the service until ``until``."""
        while perf_counter() < until:
            request = next(stream)
            began = perf_counter()
            try:
                if request.op == "evaluate":
                    value = await connection.evaluate(request.query)
                elif request.op == "count":
                    value = await connection.count(request.query)
                else:
                    ack = await connection.mutate(request.kind, request.relation, request.values)
                    value = ack["applied"]
                error = None
            except ServiceError as failure:
                value, error = None, failure.code
            log.append((request, perf_counter() - began, value, error))
            if index:
                await asyncio.sleep(think.uniform(0, 2 * READER_THINK_S))

    async def measure(self, env: Env, streams) -> tuple[list, dict, dict]:
        """Alternate session rounds with service slices until ``seconds``
        have passed and every minimum sample count is reached, so both
        see the machine over the whole run.  A slice lasts as long as
        the round before it times ``SERVICE_SHARE / (1 - SERVICE_SHARE)``;
        no request is in flight during a round.  A traced run traces
        every service slice but only half the rounds, and compares the
        two halves: the tracing overhead.  Rounds are traced a whole pass
        over the instances at a time, so both halves see every instance.
        Returns each client's log of
        ``(request, latency, answer, error code)`` and the worker's
        counters at the start and the end."""
        server = ServiceServer(env.pool)
        host, port = await server.start()
        logs: list[list] = [[] for _ in streams]
        samples: dict[str, list[float]] = {}
        round_times: dict[bool, list[float]] = {True: [], False: []}
        # a seeded, uneven think time keeps the reader from locking into
        # step with the writer
        think = random.Random(sub_seed(self.seed, "think"))
        deadline = perf_counter() + self.seconds

        def enough(rounds: int) -> bool:
            reads = sum(request.is_read for log in logs for request, *_ in log)
            return (
                rounds >= MIN_ROUNDS and reads >= MIN_READS
                and all(len(log) >= MIN_REQUESTS for log in logs)
            )

        async def worker_stats() -> dict:
            async with AsyncServiceClient(host, port) as connection:
                return (await connection.stats())["aggregate"]

        try:
            before = await worker_stats()
            async with AsyncServiceClient(host, port) as writer, \
                    AsyncServiceClient(host, port) as reader:
                index = 0
                while perf_counter() < deadline or not enough(index):
                    traced = self.tracer is not None and index // INSTANCES % 2 == 0
                    if self.tracer is not None:
                        self.tracer.install() if traced else self.tracer.uninstall()
                    began = perf_counter()
                    self.session_round(env, index, samples)
                    took = perf_counter() - began
                    round_times[traced].append(took)
                    if self.tracer is not None:
                        self.tracer.install()
                    began = perf_counter()
                    until = began + took * SERVICE_SHARE / (1 - SERVICE_SHARE)
                    await asyncio.gather(*(
                        self.drive(connection, i, streams[i], logs[i], until, think)
                        for i, connection in enumerate((writer, reader))
                    ))
                    self.service_seconds += perf_counter() - began
                    index += 1
            after = await worker_stats()
        finally:
            await server.stop()
        for key, values in samples.items():
            self.values[f"{key}_s"] = p10(values)
            self.samples[f"{key}_s"] = len(values)
        self.values["trace.session_rounds"] = index
        if self.tracer is not None:
            self.values["trace.overhead_ratio"] = (
                statistics.median(round_times[True]) / statistics.median(round_times[False]) - 1
            )
        return logs, before, after

    def measure_phase(self, env: Env) -> list[list]:
        """Serve the pool, measure, and stop the pool; returns the
        service logs."""
        streams = [
            client_requests(self.w, i, service_database(self.w, self.seed), self.seed)
            for i in range(len(self.w.clients))
        ]
        # The instances, their oracles and the pool stay alive the whole
        # run.  Frozen, they are out of the collector's reach, so the
        # collections inside a timed call walk only what the call made,
        # not a heap that grows with the service logs: unfrozen, they
        # made a cold Q-triangle COUNT 35% slower and twice as noisy.
        gc.collect()
        gc.freeze()
        try:
            logs, before, after = asyncio.run(self.measure(env, streams))
        finally:
            gc.unfreeze()
            env.pool.close()
        self.requests = sum(len(log) for log in logs)
        writes = sum(not request.is_read for log in logs for request, *_ in log)
        for counter in ("reductions", "delta_patches"):
            self.values[f"service.worker.{counter}_per_write"] = (
                (after[counter] - before[counter]) / writes
            )
        return logs

    def check_service(self, logs: list[list]) -> None:
        """Replay each client's log, in its order, against one
        in-process session over a fresh copy of the served data; the
        clients' relations are disjoint, so their logs commute.  Each
        service answer must equal the replay's.  A traced run traces
        the first ``TRACED_REQUESTS`` of each log, and the replay
        session's counters are taken over those requests."""
        db = service_database(self.w, self.seed)
        session = QuerySession(db, cache_dir=self.tmp / "mirror")
        queries: dict[str, object] = {}
        reads, writes, overhead = [], [], []
        correct = 0
        prefix = dict.fromkeys(PREFIX_STATS, 0)
        for log in logs:
            # per read op of this client's one query class: None before
            # its first reduction, then whether a write came after it
            stale = {"evaluate": None, "count": None}
            for index, (request, latency, value, error) in enumerate(log):
                if self.tracer is not None:
                    self.tracer.install() if index < TRACED_REQUESTS else self.tracer.uninstall()
                if index == 0:
                    start = vars(session.stats).copy()
                elif index == TRACED_REQUESTS:
                    for name in PREFIX_STATS:
                        prefix[name] += getattr(session.stats, name) - start[name]
                began = perf_counter()
                op = "write" if request.op == "mutate" else request.op
                with self.span(f"mirror.{op}", after_write=stale.get(op) is True):
                    if request.op == "mutate":
                        stale = {key: v if v is None else True for key, v in stale.items()}
                        change = db.insert if request.kind == "insert" else db.delete
                        expected = change(request.relation, request.values) is not None
                    else:
                        query = queries.get(request.query)
                        if query is None:
                            query = queries[request.query] = parse_query(request.query)
                        if request.op == "evaluate":
                            expected = session.evaluate(query, strategy="reduction")
                        else:
                            expected = session.count(query)
                        stale[op] = False
                ok = error is None and value == expected
                self.checks.check(ok, f"service {request}: {value!r} ({error}) != {expected!r}")
                correct += ok
                if request.is_read:
                    reads.append(latency)
                    if index >= TRACED_REQUESTS:
                        overhead.append(latency - (perf_counter() - began))
                else:
                    writes.append(latency)
        self.samples.update({
            "read_ms.p50": len(reads), "read_ms.p90": len(reads), "write_ms.p50": len(writes),
        })
        self.values.update({
            "throughput_rps": correct / self.service_seconds,
            "read_ms.p50": median_ms(reads),
            "read_ms.p90": p90_ms(reads),
            "write_ms.p50": median_ms(writes),
            "service.overhead_ms": median_ms(overhead),
            "reduction.delta_patches": prefix["delta_patches"],
            "session.answer_hit_ratio": prefix["hits"] / max(prefix["hits"] + prefix["misses"], 1),
            "session.evictions": prefix["evictions"],
            "session.invalidations": prefix["invalidations"],
        })

    # -- the run ---------------------------------------------------------

    def execute(self) -> None:
        """Set up, prepare, measure for ``seconds``, then check the
        service logs."""
        if self.tracer is not None:
            self.tracer.install()
        try:
            began = perf_counter()
            env = self.set_up()
            self.phases["set-up"] = perf_counter() - began
            began = perf_counter()
            self.prepare(env)
            self.phases["prepare"] = perf_counter() - began
            began = perf_counter()
            logs = self.measure_phase(env)
            self.phases["measurement"] = perf_counter() - began
            began = perf_counter()
            self.check_service(logs)
            self.phases["replay"] = perf_counter() - began
        finally:
            if self.tracer is not None:
                self.tracer.uninstall()
        self.values["correct_ratio"] = (
            (self.checks.attempted - self.checks.failed) / self.checks.attempted
        )
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        self.values["peak_rss_mb"] = (own + children) / 1024
        if self.tracer is not None:
            self.values.update(layer_metrics(self.tracer, self.requests))
            self.values["cache.persistent_hits"] = self.warm_hits
            self.values["cache.bytes"] = ReductionCache(env.warm_dir).size_bytes()
            patches = self.values["reduction.delta_patches"]
            rebuilds = self.values["reduction.rebuilds"]
            self.values["reduction.patch_ratio"] = patches / max(patches + rebuilds, 1)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    scratch = ROOT / ".e2ebench_tmp"
    scratch.mkdir(exist_ok=True)
    tracer = Tracer() if args.trace else None
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        run = Run(WORKLOADS[args.workload], args.seed, args.seconds, tracer, Path(tmp))
        run.execute()
    if tracer is not None:
        out = ROOT / ".e2ebench_out"
        out.mkdir(exist_ok=True)
        tracer.dump(out / f"spans-{args.workload}-{args.seed}.jsonl")
    # the pool's semaphores started multiprocessing's resource tracker:
    # stop it and wait for it, so the run leaves no process behind
    stop_tracker = getattr(multiprocessing.resource_tracker._resource_tracker, "_stop", None)
    if stop_tracker is not None:
        stop_tracker()

    metrics = {m["name"]: {"value": run.values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, metric in metrics.items():
        n = run.samples.get(name)
        print(f"{name:36s} {metric['value']:>14.6g} {metric['unit']}" + (f"  (n={n})" if n else ""))
    run.phases["total"] = perf_counter() - STARTED
    for phase, seconds in run.phases.items():
        print(f"phase {phase:30s} {seconds:>14.3f} s")
    correct = run.checks.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": run.checks.attempted,
        "failed": run.checks.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
