"""Span tracing from outside the program.

The tracer wraps the public function at each layer boundary, patched
under the name its caller looks it up by (a module global, or a class
attribute for methods), and restores every original on
:meth:`Tracer.uninstall`, so untraced runs measure unmodified code.
Spans live in memory — ``[name, start, end, parent, info]`` lists
indexed by id — and are written out once, at the end of the run.

A span's self time is its duration minus the durations of its direct
children.  Only synchronous calls on the main thread are recorded, so
the open-span stack is exact: asyncio never switches tasks inside one.
"""

from __future__ import annotations

import importlib
import json
import sys
import threading
from contextlib import contextmanager
from functools import wraps
from time import perf_counter

#: (module, class or None, attribute, span name).  Two functions that
#: share a span name are two entry points of one layer.
BOUNDARIES = (
    ("repro.core.session", None, "canonical_form", "session.canonicalize"),
    ("repro.core.session", None, "shift_distinct_left", "reduction.shift"),
    ("repro.core.session", None, "forward_reduce", "reduction.forward"),
    ("repro.reduction.forward", "ForwardReductionResult", "apply_delta",
     "reduction.apply_delta"),
    ("repro.intervals.segment_tree", "SegmentTree", "__init__", "intervals.segment_tree"),
    ("repro.core.reduction_cache", "ReductionCache", "get", "cache.get"),
    ("repro.core.reduction_cache", "ReductionCache", "put", "cache.put"),
    ("repro.core.disjunct_eval", None, "rank_disjuncts", "engine.rank"),
    ("repro.core.disjunct_eval", None, "count_ej", "engine.count_ej"),
    ("repro.core.disjunct_eval", None, "evaluate_ej", "engine.evaluate_ej"),
    ("repro.engine.ej", None, "count_with_decomposition", "engine.decomposition"),
    ("repro.engine.ej", None, "evaluate_boolean_with_decomposition", "engine.decomposition"),
    ("repro.engine.ej", None, "generic_join_count", "engine.generic"),
    ("repro.engine.ej", None, "generic_join_boolean", "engine.generic"),
    ("repro.engine.ej", None, "yannakakis_count", "engine.tuple_yannakakis"),
    ("repro.engine.ej", None, "yannakakis_boolean", "engine.tuple_yannakakis"),
    ("repro.engine.ej", None, "columnar_yannakakis_count", "engine.columnar"),
    ("repro.engine.ej", None, "columnar_yannakakis_boolean", "engine.columnar"),
    ("repro.engine.columnar_eval", None, "columnar_generic_join_count", "engine.columnar"),
    ("repro.engine.columnar_eval", None, "columnar_generic_join_boolean", "engine.columnar"),
    ("repro.engine.ej", None, "fhtw_with_decomposition", "widths.decomposition"),
    ("repro.sql", None, "compile_sql", "sql.compile"),
    ("repro.sql.cost", None, "plan_disjunct", "sql.plan"),
    ("repro.sql", None, "run_program", "sql.run"),
    ("repro.service.protocol", None, "dump_line", "service.codec"),
    ("repro.service.protocol", None, "parse_line", "service.codec"),
    ("repro.service.protocol", None, "encode_tuple", "service.codec"),
)

#: The server shares the protocol module with the client; only the
#: client's encode/decode counts as codec time.
CALLER = {"service.codec": "repro.service.client"}


def _forward_info(args, result) -> dict:
    query, db = args[0], args[1]
    return {
        "disjuncts": len(result.encoded_queries),
        "rows": result.database.size,
        "input": sum(len(db[atom.relation]) for atom in query.atoms),
    }


#: What a span keeps of its call, by span name.
NOTES = {
    "engine.columnar": lambda args, result: {"hit": result is not None},
    "reduction.forward": _forward_info,
    "sql.plan": lambda args, result: {"strategy": result.strategy},
}

NAME, START, END, PARENT, INFO = range(5)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._thread = threading.get_ident()

    # -- recording -------------------------------------------------------

    def _open(self, name: str, info: dict | None = None) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, perf_counter(), None, parent, info])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][END] = perf_counter()
        self._stack.pop()

    @contextmanager
    def root(self, name: str, **info):
        """A span around one operation the benchmark drives."""
        index = self._open(name, info)
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, fn, name: str):
        caller = CALLER.get(name)
        note = NOTES.get(name)

        @wraps(fn)
        def traced(*args, **kwargs):
            if threading.get_ident() != self._thread or (
                caller is not None
                and sys._getframe(1).f_globals.get("__name__") != caller
            ):
                return fn(*args, **kwargs)
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if note is not None:
                self.spans[index][INFO] = note(args, result)
            return result

        return traced

    # -- patching --------------------------------------------------------

    @property
    def active(self) -> bool:
        return bool(self._patched)

    def install(self) -> None:
        if self._patched:
            return
        for module, owner, attribute, name in BOUNDARIES:
            target = importlib.import_module(module)
            if owner is not None:
                target = getattr(target, owner)
            original = vars(target)[attribute]
            self._patched.append((target, attribute, original))
            setattr(target, attribute, self._wrap(original, name))

    def uninstall(self) -> None:
        while self._patched:
            target, attribute, original = self._patched.pop()
            setattr(target, attribute, original)

    # -- analysis --------------------------------------------------------

    def self_times(self) -> list[float]:
        own = [span[END] - span[START] for span in self.spans]
        for span in self.spans:
            if span[PARENT] is not None:
                own[span[PARENT]] -= span[END] - span[START]
        return own

    def roots(self) -> list[int]:
        """Index of each span's root span (parents precede children)."""
        root: list[int] = []
        for i, span in enumerate(self.spans):
            root.append(i if span[PARENT] is None else root[span[PARENT]])
        return root

    def children(self) -> list[list[int]]:
        kids: list[list[int]] = [[] for _ in self.spans]
        for i, span in enumerate(self.spans):
            if span[PARENT] is not None:
                kids[span[PARENT]].append(i)
        return kids

    def dump(self, path) -> None:
        """Write every span as one JSON line: id, name, start, end,
        parent and notes."""
        with open(path, "w", encoding="utf-8") as out:
            for i, (name, start, end, parent, info) in enumerate(self.spans):
                out.write(json.dumps(
                    {"id": i, "name": name, "start": start, "end": end,
                     "parent": parent, "info": info}
                ) + "\n")


ENGINE_LAYERS = ("engine.", "widths.")
REDUCTION_LAYERS = ("reduction.", "intervals.")
#: The surface each session-round operation drives.
SURFACE = {
    "op.exists": "python", "op.count": "python", "op.warm_count": "python",
    "op.sql_count": "sql",
}
ROUND_OPS = (*SURFACE, "op.naive_count")
#: Layers timed per traced session round; the other timed layers are
#: timed per set-up, per instance prepared, over the traced replay, or
#: per service request.
ROUND_LAYERS = (
    "engine.count_ej", "engine.evaluate_ej", "engine.rank", "engine.decomposition",
    "engine.columnar", "reduction.shift", "reduction.forward", "intervals.segment_tree",
    "cache.get", "sql.compile", "sql.plan", "sql.run",
)
KERNELS = (
    "columnar_yannakakis", "tuple_yannakakis", "decomposition",
    "columnar_generic", "trie_generic", "empty",
)


def _kernel(tracer: Tracer, kids: list[list[int]], index: int) -> str:
    """Which kernel answered one ``count_ej``/``evaluate_ej`` call."""
    spans = tracer.spans
    for child in kids[index]:
        name = spans[child][NAME]
        if name == "engine.columnar" and spans[child][INFO]["hit"]:
            return "columnar_yannakakis"
        if name == "engine.tuple_yannakakis":
            return "tuple_yannakakis"
        if name == "engine.decomposition":
            return "decomposition"
        if name == "engine.generic":
            hit = any(
                spans[g][NAME] == "engine.columnar" and spans[g][INFO]["hit"]
                for g in kids[child]
            )
            return "columnar_generic" if hit else "trie_generic"
    return "empty"


def _scope(root_name: str) -> str:
    """The driven operation a span belongs to, by its root span."""
    if root_name in ROUND_OPS:
        return "round"
    if root_name.startswith("mirror."):
        return "replay"
    if root_name in ("op.setup", "op.prepare"):
        return root_name[3:]
    return "service"   # client-side codec calls of the service slices


def layer_metrics(tracer: Tracer, requests: int) -> dict[str, float]:
    """Per-layer metrics from the recorded spans, each per unit of work
    that is the same on every run of a seed, so that none grows with the
    number of operations that fit in the run: self time and call counts
    per traced session round, per set-up, per instance prepared, over the
    traced replay requests, or per service request (``requests`` were
    sent); kernel engagement per disjunct and surface, the layer shares
    of a cold COUNT, and the reduction's structure and rebuilds."""
    spans = tracer.spans
    own = tracer.self_times()
    root = tracer.roots()
    kids = tracer.children()
    scope = [_scope(spans[r][NAME]) for r in root]
    rounds = len({s[INFO]["round"] for s in spans if s[NAME] in ROUND_OPS})

    seconds: dict[tuple[str, str], float] = {}
    calls: dict[tuple[str, str], int] = {}
    for i, s in enumerate(spans):
        key = (scope[i], s[NAME])
        seconds[key] = seconds.get(key, 0.0) + own[i]
        calls[key] = calls.get(key, 0) + 1
    out: dict[str, float] = {
        f"{name}_s": seconds.get(("round", name), 0.0) / rounds for name in ROUND_LAYERS
    }
    out["widths.decomposition_s"] = (
        seconds.get(("setup", "widths.decomposition"), 0.0) / calls[("setup", "op.setup")]
    )
    out["cache.put_s"] = seconds.get(("prepare", "cache.put"), 0.0) / calls[("prepare", "op.prepare")]
    for name in ("reduction.apply_delta", "session.canonicalize"):
        out[f"{name}_s"] = seconds.get(("replay", name), 0.0)
    out["service.codec_s"] = seconds.get(("service", "service.codec"), 0.0) / requests

    for layer in ("engine.decomposition", "engine.generic", "engine.tuple_yannakakis"):
        out[f"{layer}.calls"] = calls.get(("round", layer), 0) / rounds
    attempts = [s for i, s in enumerate(spans) if s[NAME] == "engine.columnar" and scope[i] == "round"]
    hits = sum(1 for s in attempts if s[INFO]["hit"])
    out["engine.columnar.attempts"] = len(attempts) / rounds
    out["engine.columnar.hits"] = hits / rounds
    out["engine.columnar_ratio"] = hits / len(attempts) if attempts else 0.0

    count_total = sum(s[END] - s[START] for s in spans if s[NAME] == "op.count")
    for key, prefixes in (("engine", ENGINE_LAYERS), ("reduction", REDUCTION_LAYERS)):
        inside = sum(
            own[i] for i, s in enumerate(spans)
            if spans[root[i]][NAME] == "op.count" and s[NAME].startswith(prefixes)
        )
        out[f"trace.count_{key}_share"] = inside / count_total if count_total else 0.0

    for surface in ("python", "sql"):
        for kernel in KERNELS:
            out[f"kernel.{surface}.{kernel}"] = 0
    first_forward = None
    for i, s in enumerate(spans):
        top = spans[root[i]]
        if top[NAME] not in SURFACE or top[INFO]["round"] != 0:
            continue
        if s[NAME] in ("engine.count_ej", "engine.evaluate_ej"):
            out[f"kernel.{SURFACE[top[NAME]]}.{_kernel(tracer, kids, i)}"] += 1
        elif s[NAME] == "reduction.forward" and top[NAME] == "op.count" and first_forward is None:
            first_forward = s[INFO]
    if first_forward is not None:
        out["reduction.disjuncts"] = first_forward["disjuncts"]
        out["reduction.blowup"] = first_forward["rows"] / max(first_forward["input"], 1)

    # a rebuild: a forward reduction for a read that follows a write
    # the query class's last reduction has not seen
    out["reduction.rebuilds"] = sum(
        1 for i, s in enumerate(spans)
        if s[NAME] == "reduction.forward" and scope[i] == "replay"
        and spans[root[i]][INFO]["after_write"]
    )
    for strategy in ("naive", "reduction"):
        out[f"sql.strategy.{strategy}"] = sum(
            1 for i, s in enumerate(spans)
            if s[NAME] == "sql.plan" and scope[i] == "round" and s[INFO]["strategy"] == strategy
        ) / rounds
    return out
