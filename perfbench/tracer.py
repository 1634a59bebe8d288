"""Outside-in tracing: wrap each layer's public entry points from outside.

:func:`install` patches the classes and module functions listed in
:data:`ENTRY_POINTS` (nothing under ``src/`` changes on disk) so every
call opens a span.  A span's *self time* is its duration minus the time
its child spans cover; self time and call counts are summed per layer in
memory.  Two kinds of callbacks are also spanned, because they are how
control crosses layers inside the simulator:

- every simulator event callback, attributed to the layer whose source
  file defined the callback (the executor's worker state machine, the
  parcelport, the recovery and tail managers, the QoS front end);
- every future ready-callback registered from outside ``repro.runtime``
  (the dist layer's parcel shipping, the recovery lineage hooks).

Self time lands on the innermost wrapped entry point, so code between
two entry points counts toward the caller's layer.  Queue pops are
counted without a span: they are the hottest call in the simulator and
their count is checked against the scheduler's own access counters.

While :attr:`Tracer.record` is a list, every span is also appended to it
so one cell can be exported as Chrome trace-event JSON
(:func:`write_chrome_trace`).
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Any, Callable

_now = time.perf_counter_ns

#: (module, class owning the methods or None for module functions,
#: entry-point names, layer charged with their self time)
ENTRY_POINTS: tuple[tuple[str, str | None, tuple[str, ...], str], ...] = (
    ("repro.sim.engine", "Simulator", ("schedule", "schedule_at", "run", "run_until"), "sim"),
    ("repro.runtime.sim_executor", "SimExecutor", ("spawn", "run", "start_workers", "cancel_task"), "runtime.executor"),
    ("repro.runtime.runtime", "Runtime", ("dataflow", "async_"), "runtime.graph_build"),
    ("repro.runtime.runtime", "Runtime", ("__init__", "run"), "runtime"),
    ("repro.runtime.future", "Future", ("set_value", "set_exception", "on_ready"), "runtime.futures"),
    ("repro.sim.costmodel", "CostModel", ("task_costs", "steal_cost_ns", "idle_backoff_ns", "compute_ns", "uniform_work_ns"), "costmodel"),
    ("repro.schedulers.base", "SchedulingPolicy", ("queued_tasks", "aggregate_stats", "worker_queue_depth"), "schedulers"),
    ("repro.schedulers.priority_local", "PriorityLocalScheduler", ("find_work", "enqueue_staged", "enqueue_pending"), "schedulers"),
    ("repro.qos.scheduler", "QosBucketScheduler", ("find_work", "enqueue_staged", "enqueue_pending"), "qos"),
    ("repro.qos.service", None, ("run_qos_service",), "qos.service"),
    ("repro.overload.admission", "AdmissionControl", ("offer", "drain", "note_pending_push"), "overload"),
    ("repro.counters.registry", "CounterRegistry", ("snapshot", "total", "per_locality", "query"), "counters"),
    ("repro.apps.stencil1d", None, ("run_stencil", "build_stencil_graph", "heat_partition"), "apps"),
    ("repro.apps.stencil1d_dist", None, ("run_dist_stencil", "build_dist_stencil_graph", "heat_partition_halo"), "apps"),
    ("repro.dist.runtime", "DistRuntime", ("__init__", "dataflow", "async_", "remote_value", "make_ready_future", "register_gid", "run", "wait"), "dist"),
    ("repro.dist.parcel", "Parcelport", ("send",), "dist"),
    ("repro.dist.agas", "AgasCache", ("resolve",), "dist"),
    ("repro.dist.network", "NetworkModel", ("transfer_ns",), "dist"),
    ("repro.faults.plan", "FaultInjector", ("drops", "duplicates", "jitter_ns", "doomed", "straggler_factor", "link_multipliers", "crash_time"), "faults"),
    ("repro.recovery.manager", "RecoveryManager", ("record_root", "record_async", "record_dataflow", "record_proxy", "start", "is_dead", "note_failed_fast"), "recovery"),
    ("repro.tail.manager", "TailManager", ("note_heartbeat_gap", "note_ack_rtt", "hedge_delay_ns", "note_hedge_armed", "note_hedge_sent", "note_hedge_won", "note_hedge_lost", "note_hedge_cancelled", "epoch_of", "is_fenced", "is_stale", "note_declared", "start"), "tail"),
)

#: entry points whose non-None return values are counted as hits
HIT_COUNTED = {"schedulers:find_work", "qos:find_work"}

#: source directory of a callback -> the layer its time is charged to
_CALLBACK_LAYERS = (
    ("/repro/runtime/sim_executor.py", "runtime.executor"),
    ("/repro/runtime/", "runtime.futures"),
    ("/repro/dist/", "dist"),
    ("/repro/recovery/", "recovery"),
    ("/repro/tail/", "tail"),
    ("/repro/qos/", "qos.service"),
    ("/repro/overload/", "overload"),
    ("/repro/faults/", "faults"),
    ("/repro/apps/", "apps"),
)

#: layer names reported as tids in the Chrome trace, in display order
LAYERS = (
    "bench", "apps", "runtime", "runtime.graph_build", "runtime.executor",
    "runtime.futures", "sim", "schedulers", "costmodel", "counters", "dist",
    "faults", "recovery", "tail", "qos", "qos.service", "overload", "other",
)

#: the most spans one recorded cell keeps
MAX_RECORDED_SPANS = 250_000


class Tracer:
    """Per-layer self time and call counts, plus an optional span record."""

    def __init__(self) -> None:
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        #: inclusive time per entry point
        self.total_ns: dict[str, int] = defaultdict(int)
        #: open spans: [child_ns, locality] per level; the bottom entry
        #: absorbs top-level spans
        self._stack: list[list[Any]] = [[0, None]]
        #: (key, layer, start_ns, dur_ns, locality) while recording a cell
        self.record: list[tuple[str, str, int, int, int]] | None = None
        self.dropped_spans = 0
        #: id(per-locality object) -> locality index, for Chrome trace pids
        self.locality_of: dict[int, int] = {}
        self._layer_of_code: dict[Any, str] = {}
        #: wrapper cost per span outside its own window; see :meth:`calibrate`
        self.overhead_ns = 0

    # -- wrapping ------------------------------------------------------------

    def span(self, fn: Callable, layer: str, key: str) -> Callable:
        """``fn`` wrapped in a span charged to ``layer``, counted as ``key``."""
        stack = self._stack
        self_ns = self.self_ns
        total_ns = self.total_ns
        calls = self.calls
        hit_key = key + ":hit" if key in HIT_COUNTED else None
        overhead = self.overhead_ns

        def wrapper(*args, **kwargs):
            record = self.record
            entry = [0, None]
            if record is not None and args:
                entry[1] = self.locality_of.get(id(args[0]))
            stack.append(entry)
            t0 = _now()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                calls[key + ":raised"] += 1
                raise
            finally:
                dt = _now() - t0
                stack.pop()
                self_ns[layer] += dt - entry[0]
                total_ns[key] += dt
                parent = stack[-1]
                # The wrapper's own cost outside [t0, t0 + dt] is not the
                # caller's work: keep it out of the caller's self time.
                parent[0] += dt + overhead
                if record is not None:
                    if parent[1] is None:
                        parent[1] = entry[1]
                    if len(record) < MAX_RECORDED_SPANS:
                        record.append((key, layer, t0, dt, entry[1] or 0))
                    else:
                        self.dropped_spans += 1
            calls[key] += 1
            if hit_key is not None and result is not None:
                calls[hit_key] += 1
            return result

        return wrapper

    def calibrate(self, n: int = 20_000) -> None:
        """Measure the per-span wrapper cost a caller would otherwise absorb.

        Times ``n`` calls of a no-op with and without a span; what the
        spanned loop spends outside the spans' own windows, per call, is
        :attr:`overhead_ns`.  Spans created afterwards credit it back to
        their callers' self time.
        """
        def noop() -> None:
            return None

        wrapped = self.span(noop, "calibration", "calibration")
        samples = []
        for _ in range(5):
            t0 = _now()
            for _ in range(n):
                noop()
            plain = _now() - t0
            inside = self.total_ns["calibration"]
            t0 = _now()
            for _ in range(n):
                wrapped()
            spanned = _now() - t0
            inside = self.total_ns["calibration"] - inside
            samples.append(max(0, (spanned - inside - plain) // n))
        samples.sort()
        self.overhead_ns = samples[len(samples) // 2]
        for table in (self.self_ns, self.total_ns, self.calls):
            table.pop("calibration", None)
        self._stack[0][0] = 0

    def counter(self, fn: Callable, key: str) -> Callable:
        """``fn`` with its calls counted but no span opened."""
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def callback_layer(self, callback: Callable) -> str:
        """The layer whose source file defined ``callback``."""
        code = getattr(getattr(callback, "__func__", callback), "__code__", None)
        layer = self._layer_of_code.get(code)
        if layer is None:
            filename = code.co_filename if code is not None else ""
            layer = next(
                (name for part, name in _CALLBACK_LAYERS if part in filename),
                "other",
            )
            self._layer_of_code[code] = layer
        return layer


def install(tracer: Tracer) -> None:
    """Patch every entry point in :data:`ENTRY_POINTS` to report to ``tracer``."""
    import importlib

    tracer.calibrate()
    for module_name, owner_name, names, layer in ENTRY_POINTS:
        module = importlib.import_module(module_name)
        owner = getattr(module, owner_name) if owner_name else module
        for name in names:
            original = owner.__dict__[name] if owner_name else getattr(module, name)
            setattr(owner, name, tracer.span(original, layer, f"{layer}:{name}"))

    from repro.schedulers.queues import DualQueue

    for name in ("pop_pending", "pop_staged"):
        setattr(DualQueue, name, tracer.counter(DualQueue.__dict__[name], "queue:pop"))

    _install_callback_spans(tracer)
    _install_locality_map(tracer)


def _install_callback_spans(tracer: Tracer) -> None:
    """Span simulator events and cross-layer future callbacks."""
    from repro.runtime.future import Future
    from repro.sim.engine import Simulator

    schedule_at = Simulator.schedule_at  # already spanned as sim:schedule_at
    span = tracer.span
    layer_of = tracer.callback_layer
    event_keys = {layer: f"event:{layer}" for _, layer in _CALLBACK_LAYERS}
    event_keys["other"] = "event:other"

    def traced_schedule_at(sim, time_ns, callback):
        layer = layer_of(callback)
        return schedule_at(sim, time_ns, span(callback, layer, event_keys[layer]))

    Simulator.schedule_at = traced_schedule_at

    on_ready = Future.on_ready  # already spanned as runtime.futures:on_ready

    def traced_on_ready(future, callback):
        layer = layer_of(callback)
        if layer != "runtime.futures":
            callback = tracer.span(callback, layer, f"callback:{layer}")
        return on_ready(future, callback)

    Future.on_ready = traced_on_ready


def _install_locality_map(tracer: Tracer) -> None:
    """Map each locality's per-locality objects to its index (trace pids)."""
    from repro.dist.runtime import DistRuntime

    init = DistRuntime.__init__

    def traced_init(dist, *args, **kwargs):
        init(dist, *args, **kwargs)
        for loc in dist.localities:
            rt = loc.runtime
            for obj in (rt, rt.executor, rt.policy, rt.cost_model,
                        rt.registry, loc.parcelport, loc.agas):
                tracer.locality_of[id(obj)] = loc.index

    DistRuntime.__init__ = traced_init


def write_chrome_trace(
    path: str, spans: list[tuple[str, str, int, int, int]], meta: dict
) -> None:
    """Write ``spans`` as Chrome trace-event JSON (Perfetto, chrome://tracing).

    Locality -> pid, layer -> tid; timestamps are microseconds from the
    first span.  Complete ("X") events nest per track because the spans
    come from one call stack.
    """
    base = min((s[2] for s in spans), default=0)
    tids = {layer: i for i, layer in enumerate(LAYERS)}
    events: list[dict] = []
    pids = sorted({s[4] for s in spans})
    for pid in pids:
        events.append({"ph": "M", "name": "process_name", "pid": pid,
                       "args": {"name": f"locality#{pid}"}})
        for layer, tid in tids.items():
            events.append({"ph": "M", "name": "thread_name", "pid": pid,
                           "tid": tid, "args": {"name": layer}})
    for key, layer, t0, dt, pid in spans:
        events.append({
            "name": key, "cat": layer, "ph": "X",
            "ts": (t0 - base) / 1000.0, "dur": dt / 1000.0,
            "pid": pid, "tid": tids.get(layer, len(LAYERS)),
        })
    with open(path, "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ns",
                   "otherData": meta}, fh)
