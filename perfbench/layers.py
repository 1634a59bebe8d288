"""Per-layer metrics of a traced run: exact counts and self time per task.

Counts come from two places and must agree where they overlap: the
program's own counters and result fields (``CellRun.stats``) and the
tracer's wrapper call counts (the latest traced run of each cell; they
repeat exactly).  Self times are summed over every traced run of a cell and
divided by the number of runs.  Every ratio's base is the number of
simulated tasks completed, unless its name says otherwise.
"""

from __future__ import annotations

from collections import Counter

#: internal layers whose self time is reported as ``<name>``
SELF_TIME_METRICS = {
    "sim.self_us_per_task": "sim",
    "schedulers.self_us_per_task": "schedulers",
    "runtime.executor_self_us_per_task": "runtime.executor",
    "runtime.futures_self_us_per_task": "runtime.futures",
    "runtime.graph_build_us_per_task": "runtime.graph_build",
    "costmodel.self_us_per_task": "costmodel",
    "counters.self_us_per_task": "counters",
    "dist.self_us_per_task": "dist",
    "faults.self_us_per_task": "faults",
    "recovery.self_us_per_task": "recovery",
    "tail.self_us_per_task": "tail",
    "qos.self_us_per_task": "qos",
    "qos.service_self_us_per_task": "qos.service",
    "overload.self_us_per_task": "overload",
    "apps.self_us_per_task": "apps",
}

#: the optional-layer cost on the off leg of dist-cyclic-tail, where the
#: prediction is zero for recovery and tail
OFF_LEG_METRICS = {
    "dist.off_leg_self_us_per_task": "dist",
    "recovery.off_leg_self_us_per_task": "recovery",
    "tail.off_leg_self_us_per_task": "tail",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _sum_calls(calls: dict[str, int], prefix: str) -> int:
    return sum(
        v for k, v in calls.items()
        if k.startswith(prefix) and not k.endswith((":hit", ":raised"))
    )


def per_layer_metrics(cells, untraced, traced, calls_of, self_ns, tracer) -> dict:
    """Every per-layer metric of ``BENCHMARK.json`` for one workload."""
    stats: Counter[str] = Counter()
    for run in untraced.runs.values():
        stats.update(run.stats)
    calls: Counter[str] = Counter()
    for c in calls_of.values():
        calls.update(c)
    runs_per_cell = max(traced.passes, 1)
    self_total: Counter[str] = Counter()
    for per_cell in self_ns.values():
        self_total.update(per_cell)

    tasks = untraced.tasks()

    def us_per_task(ns: float, base: int = tasks) -> float:
        return _ratio(ns / runs_per_cell / 1e3, base)

    events = _sum_calls(calls, "event:")
    scheduled = calls["sim:schedule_at"]
    find_work = calls["schedulers:find_work"] + calls["qos:find_work"]
    hits = calls["schedulers:find_work:hit"] + calls["qos:find_work:hit"]
    parcels = stats["parcels_sent"]
    wire = parcels + stats["parcels_retransmitted"]
    agas = stats["agas_hits"] + stats["agas_misses"]
    arrived = sum(v for k, v in stats.items() if k.endswith("_arrived"))
    tenant_shed = sum(v for k, v in stats.items() if k.endswith("_shed"))

    m: dict[str, float] = {
        "sim.events_per_task": _ratio(events, tasks),
        "sim.events_cancelled_frac": _ratio(scheduled - events, scheduled),
        "sim.host_us_per_event": _ratio(untraced.wall_s() * 1e6, events),
        "schedulers.find_work_per_task": _ratio(find_work, tasks),
        "schedulers.find_work_hit_frac": _ratio(hits, find_work),
        "schedulers.queue_accesses_per_task": _ratio(
            stats["pending_accesses"] + stats["staged_accesses"], tasks),
        "schedulers.queue_misses_per_task": _ratio(
            stats["pending_misses"] + stats["staged_misses"], tasks),
        "schedulers.steals_per_task": _ratio(stats["steals"], tasks),
        "runtime.phases_per_task": _ratio(stats["phases"], tasks),
        "costmodel.calls_per_task": _ratio(_sum_calls(calls, "costmodel:"), tasks),
        "dist.parcels_per_task": _ratio(parcels, tasks),
        "dist.wire_per_delivered": _ratio(wire, stats["parcels_received"]),
        "dist.agas_hit_frac": _ratio(stats["agas_hits"], agas),
        "faults.drops_per_1k_parcels": _ratio(1000 * stats["parcels_dropped"], parcels),
        "recovery.heartbeats_per_task": _ratio(stats["heartbeats_sent"], tasks),
        "tail.hedge_win_frac": _ratio(stats["hedges_won"], stats["hedges_sent"]),
        "tail.speculation_win_frac": _ratio(
            stats["speculation_wins"], stats["tasks_speculated"]),
        "qos.shed_frac": _ratio(tenant_shed, arrived),
        "overload.shed_frac": _ratio(stats["shed"], stats["offered"]),
        "counters.snapshot_ms": _ratio(
            tracer.total_ns["counters:snapshot"] / 1e6,
            tracer.calls["counters:snapshot"]),
        "trace.overhead_frac": _ratio(
            traced.wall_s() - untraced.wall_s(), untraced.wall_s()),
    }
    for name, layer in SELF_TIME_METRICS.items():
        m[name] = us_per_task(self_total[layer])

    off = [c.name for c in cells if c.leg == "off"]
    off_tasks = sum(untraced.runs[n].tasks for n in off if n in untraced.runs)
    off_self: Counter[str] = Counter()
    off_heartbeats = 0
    for n in off:
        off_self.update(self_ns.get(n, {}))
        if n in untraced.runs:
            off_heartbeats += untraced.runs[n].stats["heartbeats_sent"]
    for name, layer in OFF_LEG_METRICS.items():
        m[name] = us_per_task(off_self[layer], off_tasks)
    m["recovery.off_leg_heartbeats_per_task"] = _ratio(off_heartbeats, off_tasks)
    return m
