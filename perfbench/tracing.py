"""Spans around the calls into each layer, recorded from outside the program.

:func:`install` wraps the public entry points of each layer at run time,
in the traced process only; nothing in ``src/`` changes.  Spans stay in
memory with name, layer, start, end and parent.  With one operation in
flight, a span belongs to the operation whose interval it starts in, so
no id has to cross the daemons' dispatch threads.

Each operation's wall time is attributed to layers by a sweep over its
spans: at every instant the most specific active layer (:data:`LAYERS`
order) gets the time, and instants no layer span covers are the
coordinator's self time.  Concurrent calls count as covered wall time,
the union of their intervals, never as a plain sum.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import statistics
import sys
import time

#: Most specific first: the layer a span of which covers an instant gets it.
LAYERS = ("gf", "core", "store", "daemon", "protocol", "pool", "client")


class Span:
    __slots__ = ("id", "name", "layer", "start", "end", "parent", "attrs")

    def __init__(self, span_id, name, layer, start, parent):
        self.id = span_id
        self.name = name
        self.layer = layer
        self.start = start
        self.end = start
        self.parent = parent
        self.attrs = None

    def as_json(self, origin: int, op) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "layer": self.layer,
            "start_ns": self.start - origin,
            "end_ns": self.end - origin,
            "parent": self.parent,
            "op": op,
            **(self.attrs or {}),
        }


class Tracer:
    """In-memory span recorder; switched on per round by run.py."""

    def __init__(self):
        self.enabled = False
        self.spans: list[Span] = []
        self.daemons: list = []
        self._ids = itertools.count(1)
        self._current = contextvars.ContextVar("perfbench_span", default=None)

    def _open(self, layer: str, name: str):
        parent = self._current.get()
        if parent is not None and parent.layer == layer:
            return None  # a layer's own inner calls are part of its outer span
        span = Span(
            next(self._ids), name, layer, time.perf_counter_ns(),
            parent.id if parent is not None else None,
        )
        return span, self._current.set(span)

    def _close(self, opened) -> Span:
        span, token = opened
        span.end = time.perf_counter_ns()
        self._current.reset(token)
        self.spans.append(span)
        return span

    def event(self, name: str, layer: str, **attrs) -> None:
        now = time.perf_counter_ns()
        parent = self._current.get()
        span = Span(next(self._ids), name, layer, now, parent.id if parent else None)
        span.attrs = attrs
        self.spans.append(span)

    # -- operations -----------------------------------------------------

    def op_begin(self, op: str):
        totals = daemon_totals(self.daemons)
        span = Span(next(self._ids), op, "coordinator", time.perf_counter_ns(), None)
        return span, self._current.set(span), totals

    def op_end(self, opened) -> None:
        span, token, before = opened
        span.end = time.perf_counter_ns()
        self._current.reset(token)
        after = daemon_totals(self.daemons)
        handler_s = {
            op: (ns - before[0].get(op, 0)) / 1e9
            for op, ns in after[0].items()
            if ns != before[0].get(op, 0)
        }
        span.attrs = {
            "handler_s_by_opcode": handler_s,
            "daemon.handler_s": sum(handler_s.values()),
            "store.fsyncs": after[1] - before[1],
        }
        self.spans.append(span)

    # -- wrappers -------------------------------------------------------

    def wrap(self, fn, layer: str, name: str, attrs=None):
        tracer = self
        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                opened = tracer._open(layer, name) if tracer.enabled else None
                if opened is None:
                    return await fn(*args, **kwargs)
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    span = tracer._close(opened)
                if attrs is not None:
                    span.attrs = attrs(args, result)
                return result

            return traced_async

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            opened = tracer._open(layer, name) if tracer.enabled else None
            if opened is None:
                return fn(*args, **kwargs)
            try:
                result = fn(*args, **kwargs)
            finally:
                span = tracer._close(opened)
            if attrs is not None:
                span.attrs = attrs(args, result)
            return result

        return traced

    def wrap_event(self, fn, layer: str, name: str, attrs):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = fn(*args, **kwargs)
            if tracer.enabled:
                tracer.event(name, layer, **attrs(args, result))
            return result

        return traced


def daemon_totals(daemons) -> tuple[dict[str, int], int]:
    """(handler ns per opcode, fsync count) over every daemon's obs snapshot."""
    handler_ns: dict[str, int] = {}
    fsyncs = 0
    for daemon in daemons:
        for entry in daemon.snapshot()["histograms"]:
            if entry["name"] == "daemon.handler_ns":
                op = entry["labels"]["op"]
                handler_ns[op] = handler_ns.get(op, 0) + entry["sum"]
            elif entry["name"] == "store.fsync_ns":
                fsyncs += entry["count"]
    return handler_ns, fsyncs


def _replace(owner, attribute: str, wrapper) -> None:
    """Swap ``owner.attribute`` everywhere the program bound it by name."""
    original = getattr(owner, attribute)
    setattr(owner, attribute, wrapper)
    for name, module in list(sys.modules.items()):
        if name == "repro" or name.startswith("repro."):
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap each layer's entry points (call once, before the cluster starts)."""
    from repro.core import serialization
    from repro.core.regenerating import RandomLinearRegeneratingCode as Code
    from repro.gf import kernels, linalg
    from repro.gf.field import GaloisField
    from repro.net import protocol
    from repro.net.blockstore import BlockStore
    from repro.net.client import PeerClient, RetryPolicy
    from repro.net.pool import ConnectionPool
    from repro.net.server import PeerDaemon

    def matmul_ops(args, result):
        a, b = args[1], args[2]
        return {"element_ops": len(a) * len(b) * b.shape[1]}

    def combination_ops(args, result):
        vectors = args[2]
        return {"element_ops": vectors.shape[0] * vectors.shape[1]}

    def out_bytes(args, result):
        return {"bytes": len(result)}

    def in_bytes(args, result):
        return {"bytes": len(args[0])}

    def opcode(position):
        return lambda args, result: {"opcode": type(args[position]).__name__}

    targets = [
        (kernels, "matmul", "gf", "gf.matmul", matmul_ops),
        (GaloisField, "linear_combination", "gf", "gf.matmul", combination_ops),
        (linalg, "extract_and_invert", "gf", "gf.invert", None),
        (Code, "insert", "core", "core.encode", None),
        (Code, "plan_reconstruction", "core", "core.plan", None),
        (Code, "newcomer_repair", "core", "core.newcomer_repair", None),
        (serialization, "piece_to_bytes", "core", "core.serialize", out_bytes),
        (serialization, "fragment_to_bytes", "core", "core.serialize", out_bytes),
        (serialization, "piece_from_bytes", "core", "core.serialize", in_bytes),
        (serialization, "fragment_from_bytes", "core", "core.serialize", in_bytes),
        (PeerClient, "request", "client", "client.rpc", opcode(1)),
        (ConnectionPool, "acquire", "pool", "pool.acquire",
         lambda args, conn: {"opened": 0 if conn.reused else 1}),
        (protocol, "write_message", "protocol", "protocol.write",
         lambda args, sent: {"bytes": sent}),
        # The daemon's dispatch entry: every request handler runs under it.
        (PeerDaemon, "_timed_dispatch", "daemon", "daemon.handler", opcode(1)),
        (BlockStore, "put", "store", "store.put", None),
        (BlockStore, "get", "store", "store.get", None),
    ]
    for owner, attribute, layer, name, attrs in targets:
        _replace(owner, attribute, tracer.wrap(getattr(owner, attribute), layer, name, attrs))
    _replace(
        RetryPolicy, "delay",
        tracer.wrap_event(
            RetryPolicy.delay, "client", "client.retry",
            lambda args, delay: {"sleep_s": delay},
        ),
    )


# ----------------------------------------------------------------------
# per-operation analysis
# ----------------------------------------------------------------------


def union_ns(intervals) -> int:
    covered, reach = 0, None
    for lo, hi in sorted(intervals):
        if reach is None or lo > reach:
            covered += hi - lo
            reach = hi
        elif hi > reach:
            covered += hi - reach
            reach = hi
    return covered


def self_times(op: Span, spans) -> dict[str, int]:
    """Nanoseconds of ``op`` attributed to each layer (plus "coordinator")."""
    events = []
    for span in spans:
        lo, hi = max(span.start, op.start), min(span.end, op.end)
        if hi > lo:
            events.append((lo, 1, span.layer))
            events.append((hi, -1, span.layer))
    events.sort(key=lambda event: (event[0], event[1]))
    active = dict.fromkeys(LAYERS, 0)
    owned = dict.fromkeys(LAYERS + ("coordinator",), 0)
    cursor = op.start
    for when, delta, layer in events:
        if when > cursor:
            top = next((name for name in LAYERS if active[name]), "coordinator")
            owned[top] += when - cursor
            cursor = when
        active[layer] += delta
    owned["coordinator"] += op.end - cursor
    return owned


def op_metrics(op: Span, spans, record) -> dict[str, float]:
    """Per-layer metrics of one traced operation."""
    by_name: dict[str, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def covered(name):
        return union_ns((s.start, s.end) for s in by_name.get(name, ())) / 1e9

    def total(name, key):
        return sum(s.attrs[key] for s in by_name.get(name, ()) if s.attrs)

    matmul_s = covered("gf.matmul")
    element_ops = total("gf.matmul", "element_ops")
    rpcs = by_name.get("client.rpc", ())
    rpc_s = sum(s.end - s.start for s in rpcs) / 1e9
    owned = self_times(op, spans)
    metrics = {
        "gf.matmul_s": matmul_s,
        "gf.matmul_element_ops": element_ops,
        "gf.element_ops_per_s": element_ops / matmul_s if matmul_s else 0.0,
        "gf.invert_s": covered("gf.invert"),
        "core.encode_s": covered("core.encode"),
        "core.plan_s": covered("core.plan"),
        "core.newcomer_repair_s": covered("core.newcomer_repair"),
        "core.serialize_s": covered("core.serialize"),
        "core.serialized_bytes": total("core.serialize", "bytes"),
        "client.rpcs": len(rpcs),
        "client.rpc_s": rpc_s,
        "client.rpc_wall_s": union_ns((s.start, s.end) for s in rpcs) / 1e9,
        "client.connections_opened": total("pool.acquire", "opened"),
        "client.retries": len(by_name.get("client.retry", ())),
        "client.retry_sleep_s": total("client.retry", "sleep_s"),
        "protocol.wire_bytes": total("protocol.write", "bytes"),
        "daemon.handler_s": op.attrs["daemon.handler_s"],
        "daemon.wait_s": rpc_s - op.attrs["daemon.handler_s"],
        "store.puts": len(by_name.get("store.put", ())),
        "store.gets": len(by_name.get("store.get", ())),
        "store.put_s": covered("store.put"),
        "store.get_s": covered("store.get"),
        "store.fsyncs": op.attrs["store.fsyncs"],
        "coordinator.self_s": owned["coordinator"] / 1e9,
        "proc.cpu_s": record.cpu_s,
    }
    if hasattr(record.stats, "pieces_probed"):
        metrics["coordinator.pieces_probed"] = record.stats.pieces_probed
    for layer, ns in owned.items():
        metrics[f"self.{layer}_s"] = ns / 1e9
    by_opcode: dict[str, int] = {}
    for span in rpcs:
        opcode = span.attrs["opcode"] if span.attrs else "failed"
        by_opcode[opcode] = by_opcode.get(opcode, 0) + 1
    metrics["by_opcode"] = {"rpcs": by_opcode, "handler_s": op.attrs["handler_s_by_opcode"]}
    return metrics


def analyse(tracer: Tracer, records) -> tuple[dict, list]:
    """Assign spans to traced operations; per-class medians and the span dump."""
    ops = sorted(
        (span for span in tracer.spans if span.layer == "coordinator"),
        key=lambda span: span.start,
    )
    layer_spans = sorted(
        (span for span in tracer.spans if span.layer != "coordinator"),
        key=lambda span: span.start,
    )
    traced = [record for record in records if record.traced]
    if len(traced) != len(ops):
        raise RuntimeError(f"{len(ops)} traced op spans for {len(traced)} traced records")
    assigned: dict[int, list[Span]] = {op.id: [] for op in ops}
    owner_of: dict[int, int] = {}
    cursor = 0
    for span in layer_spans:
        while cursor < len(ops) and ops[cursor].end <= span.start:
            cursor += 1
        if cursor < len(ops) and ops[cursor].start <= span.start:
            assigned[ops[cursor].id].append(span)
            owner_of[span.id] = ops[cursor].id
    per_class: dict[str, list[dict]] = {}
    for op, record in zip(ops, sorted(traced, key=lambda r: r.start_ns)):
        metrics = op_metrics(op, assigned[op.id], record)
        metrics["wall_s"] = (op.end - op.start) / 1e9
        per_class.setdefault(op.name, []).append(metrics)
    origin = ops[0].start if ops else 0
    dump = [op.as_json(origin, op.id) for op in ops] + [
        span.as_json(origin, owner_of.get(span.id)) for span in layer_spans
    ]
    return per_class, dump


def class_medians(samples: list[dict]) -> dict[str, float]:
    keys = [key for key in samples[0] if key != "by_opcode"]
    return {key: statistics.median(sample.get(key, 0) for sample in samples) for key in keys}
