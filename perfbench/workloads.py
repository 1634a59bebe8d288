"""The four benchmark workloads: cells generated from a seed, run, checked.

A *cell* is one grain point of one configuration.  :func:`build_cells`
turns ``(workload, seed)`` into a list of :class:`Cell` objects whose
inputs (runtime configs, fault plans, arrival schedules, serial
references) are fully generated up front; :meth:`Cell.run` is the timed
part (graph build, simulation, result extraction) and :meth:`Cell.check`
the untimed correctness checks.

Every cell reduces its run to a dict of integer simulated statistics;
:func:`digest` hashes it so two commits can be compared cell by cell.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.apps import stencil1d, stencil1d_dist
from repro.apps.stencil1d import StencilConfig, initial_condition, serial_reference
from repro.apps.stencil1d_dist import DistStencilConfig
from repro.dist import DistConfig, FaultPlan, RetryParams, TailConfig
from repro.faults.plan import Straggler
from repro.overload import AdmissionParams, OverloadConfig
from repro.qos import (
    BurstyArrivals,
    DiurnalArrivals,
    PoissonArrivals,
    QosServiceConfig,
    Tenant,
    default_classes,
)
from repro.qos import service as qos_service
from repro.qos.arrivals import ArrivalProcess
from repro.recovery import RecoveryConfig
from repro.runtime.runtime import RuntimeConfig

#: the cell whose spans the traced run exports as a Chrome trace: small
#: enough to open in a viewer, and exercising the workload's point
TRACE_CELLS = {
    "stencil-haswell-fine": "haswell-28c-g4096",
    "stencil-phi-coarse": "xeon-phi-60c-g32768",
    "dist-cyclic-tail": "cyclic-g16384-on",
    "qos-openloop": "qos-1x",
}

# -- seed derivation -------------------------------------------------------
#
# The benchmark's own SplitMix64, not the program's ``stream_u64``: the
# inputs must not change when the program under test changes.

_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


#: stream roles of the seeds one workload seed fans out into
ROLE_RUNTIME, ROLE_FAULTS, ROLE_ARRIVALS = 1, 2, 3


def derive_seed(seed: int, role: int, index: int = 0) -> int:
    """A 31-bit seed for ``role`` (and cell ``index``) from the workload seed."""
    return _splitmix64(_splitmix64(_splitmix64(seed) ^ role) ^ index) >> 33


def digest(stats: dict[str, int]) -> str:
    """Stable 16-hex-digit hash of a cell's integer statistics."""
    blob = json.dumps(stats, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# -- cells -------------------------------------------------------------------


@dataclass
class CellRun:
    """What the timed part of one cell produced."""

    #: simulated tasks completed (summed over localities)
    tasks: int
    #: integer simulated statistics; the digest covers exactly these
    stats: dict[str, int]
    #: the raw outcome, kept until the untimed checks have run
    outcome: Any = None


@dataclass
class Cell:
    """One grain point of one configuration of a workload."""

    name: str
    #: ``"on"``/``"off"`` for the two dist-cyclic-tail legs, else ``""``
    leg: str
    #: the timed part: graph build, simulation, result extraction
    run: Callable[[], CellRun]
    #: the untimed checks; returns the names of those that failed
    check: Callable[[CellRun], list[str]]


def _thread_stats(snapshots) -> dict[str, int]:
    """Scheduler statistics summed over one or more counter snapshots."""
    names = {
        "phases": "/threads/count/cumulative-phases",
        "completed": "/threads/count/cumulative",
        "pending_accesses": "/threads/count/pending-accesses",
        "pending_misses": "/threads/count/pending-misses",
        "staged_accesses": "/threads/count/staged-accesses",
        "staged_misses": "/threads/count/staged-misses",
        "steals": "/threads/count/stolen",
        "steals_staged": "/threads/count/stolen-staged",
    }
    return {
        key: sum(int(s.get(counter)) for s in snapshots)
        for key, counter in names.items()
    }


# -- stencil on one locality ---------------------------------------------------


def _stencil_cell(
    platform: str, cores: int, total: int, grain: int, steps: int, seed: int
) -> Cell:
    rc = RuntimeConfig(platform=platform, num_cores=cores, seed=seed)
    sc = StencilConfig(total_points=total, partition_points=grain, time_steps=steps)

    def run() -> CellRun:
        out = stencil1d.run_stencil(rc, sc)
        r = out.result
        stats = {"makespan_ns": r.execution_time_ns, "tasks": r.tasks_executed}
        stats.update(_thread_stats([r.counters]))
        return CellRun(tasks=stats["completed"], stats=stats, outcome=r)

    def check(run: CellRun) -> list[str]:
        expected = sc.num_partitions * sc.time_steps
        failed = []
        if run.stats["tasks"] != expected or run.stats["completed"] != expected:
            failed.append("task-count")
        return failed

    return Cell(f"{platform}-{cores}c-g{grain}", "", run, check)


def _stencil_haswell_fine(seed: int) -> list[Cell]:
    rt_seed = derive_seed(seed, ROLE_RUNTIME)
    return [
        _stencil_cell("haswell", cores, 1 << 20, grain, 5, rt_seed)
        for cores in (8, 28)
        for grain in (256, 1024, 4096, 16384)
    ]


def _stencil_phi_coarse(seed: int) -> list[Cell]:
    rt_seed = derive_seed(seed, ROLE_RUNTIME)
    return [
        _stencil_cell("xeon-phi", 60, 1 << 21, grain, 2, rt_seed)
        for grain in (32768, 65536, 131072)
    ]


# -- distributed stencil, tail layers on and off ----------------------------------

DIST_LOCALITIES = 4
DIST_CORES = 2
DIST_TOTAL = 1 << 18
DIST_STEPS = 8
DROP_RATE = 0.02
STRAGGLER_FACTOR = 8.0


def _dist_cell(grain: int, leg: str, seed: int, reference: np.ndarray) -> Cell:
    rt_seed = derive_seed(seed, ROLE_RUNTIME, grain)
    on = leg == "on"
    dc = DistConfig(
        num_localities=DIST_LOCALITIES,
        platform="haswell",
        cores_per_locality=DIST_CORES,
        seed=rt_seed,
        faults=FaultPlan(
            seed=derive_seed(seed, ROLE_FAULTS, grain),
            drop_rate=DROP_RATE,
            stragglers=(Straggler(DIST_LOCALITIES - 1, STRAGGLER_FACTOR),),
        ) if on else None,
        retry=RetryParams() if on else None,
        crash_recovery=RecoveryConfig(
            checkpoint_interval_ns=200_000, suspicion_after=64.0
        ) if on else None,
        tail=TailConfig(
            check_interval_ns=25_000, hedge_min_delay_ns=5_000
        ) if on else None,
    )
    sc = DistStencilConfig(
        total_points=DIST_TOTAL,
        partition_points=grain,
        time_steps=DIST_STEPS,
        validate=True,
        decomposition="cyclic",
    )

    def run() -> CellRun:
        out = stencil1d_dist.run_dist_stencil(dc, sc)
        r = out.result
        stats = {
            "makespan_ns": r.execution_time_ns,
            "tasks": r.tasks_executed,
            "app_tasks": r.app_tasks_completed,
        }
        stats.update(_thread_stats(r.per_locality))
        stats.update(
            parcels_sent=r.parcels_sent,
            parcels_received=r.parcels_received,
            parcels_dropped=r.parcels_dropped,
            parcels_retransmitted=r.parcels_retransmitted,
            duplicates_discarded=r.duplicates_discarded,
            agas_hits=r.agas_cache_hits,
            agas_misses=r.agas_cache_misses,
            heartbeats_sent=r.heartbeats_sent,
            checkpoints_taken=r.checkpoints_taken,
            hedges_armed=r.hedges_armed,
            hedges_sent=r.hedges_sent,
            hedges_won=r.hedges_won,
            hedges_lost=r.hedges_lost,
            hedges_cancelled=r.hedges_cancelled,
            tasks_speculated=r.tasks_speculated,
            speculation_wins=r.speculation_wins,
            speculations_cancelled=r.speculations_cancelled,
            originals_cancelled=r.originals_cancelled,
        )
        return CellRun(tasks=stats["completed"], stats=stats, outcome=out)

    def check(run: CellRun) -> list[str]:
        out = run.outcome
        failed = []
        try:
            out.result.assert_parcels_conserved()
        except AssertionError:
            failed.append("parcels-conserved")
        if not np.array_equal(out.final_array(), reference):
            failed.append("values-equal-serial-reference")
        app_tasks = run.stats["app_tasks"] if on else run.stats["tasks"]
        if app_tasks != sc.num_partitions * sc.time_steps:
            failed.append("task-count")
        return failed

    return Cell(f"cyclic-g{grain}-{leg}", leg, run, check)


def _dist_cyclic_tail(seed: int) -> list[Cell]:
    reference = serial_reference(initial_condition(DIST_TOTAL), DIST_STEPS, 0.25)
    return [
        _dist_cell(grain, leg, seed, reference)
        for grain in (1024, 4096, 16384)
        for leg in ("on", "off")
    ]


# -- QoS service, open loop ------------------------------------------------------

QOS_CORES = 8
QOS_GRAIN_NS = 2_000
QOS_WINDOW_NS = 1_500_000
WEB_UTILIZATION = 0.15
ADMISSION_BOUND = 64


@dataclass(frozen=True)
class ScheduledArrivals(ArrivalProcess):
    """A pre-generated arrival schedule, handed to the service as input."""

    schedule: tuple[int, ...]
    #: unused: the schedule is fixed, but the base class declares it
    interarrival_ns: float = 1.0

    def times(self, seed: int, tenant_id: int, window_ns: int) -> list[int]:
        return [t for t in self.schedule if t < window_ns]


def _fixed_load(
    process: ArrivalProcess, seed: int, tenant_id: int, count: int
) -> tuple[int, ...]:
    """The first ``count`` arrivals of ``process``, stretched or squeezed so
    the last one lands at the end of the window.

    Every seed then offers the same number of requests over the same
    window, so the work per cell does not drift with the seed; the
    pattern within the window (bursts, the diurnal swing) is the seed's.
    """
    window = QOS_WINDOW_NS
    while True:
        times = process.times(seed, tenant_id, window)
        if len(times) >= count:
            break
        window *= 2
    scale = (QOS_WINDOW_NS - 1) / times[count - 1]
    schedule: list[int] = []
    for t in times[:count]:
        schedule.append(max(int(t * scale), schedule[-1] + 1 if schedule else 0))
    return tuple(schedule)


def _qos_cell(utilization: float, seed: int) -> Cell:
    batch, standard, interactive = default_classes()
    arrival_seed = derive_seed(seed, ROLE_ARRIVALS, int(utilization * 100))

    def gap(u: float) -> float:
        return QOS_GRAIN_NS / (QOS_CORES * u)

    m = (utilization - WEB_UTILIZATION) / 0.85
    specs = [
        (0, "web", interactive, PoissonArrivals(gap(WEB_UTILIZATION))),
        (1, "api", standard, DiurnalArrivals(gap(0.3 * m))),
        (2, "etl", batch, BurstyArrivals(gap(0.5 * m))),
    ]
    tenants = []
    for tid, name, qos, process in specs:
        count = round(QOS_WINDOW_NS / process.interarrival_ns)
        schedule = _fixed_load(process, arrival_seed, tid, count)
        tenants.append(
            Tenant(tid, name, qos, QOS_GRAIN_NS, ScheduledArrivals(schedule))
        )
    window = max(t.arrivals.schedule[-1] for t in tenants) + 1
    offered = sum(len(t.arrivals.schedule) for t in tenants)
    config = QosServiceConfig(
        platform="haswell",
        num_cores=QOS_CORES,
        seed=derive_seed(seed, ROLE_RUNTIME, int(utilization * 100)),
        window_ns=window,
        overload=OverloadConfig(
            admission=AdmissionParams(max_depth=ADMISSION_BOUND, policy="shed")
        ),
    )

    def run() -> CellRun:
        out = qos_service.run_qos_service(tenants, config)
        r = out.result
        stats = {"makespan_ns": r.execution_time_ns, "tasks": r.tasks_executed}
        stats.update(_thread_stats([r.counters]))
        stats["offered"] = int(r.tasks_offered)
        stats["shed"] = int(r.tasks_shed)
        for t in tenants:
            s = out.stats[t.tenant_id]
            stats[f"{t.name}_arrived"] = s.arrived
            stats[f"{t.name}_completed"] = s.completed
            stats[f"{t.name}_shed"] = s.shed
            stats[f"{t.name}_p99_ns"] = int(s.p(0.99))
        return CellRun(tasks=stats["completed"], stats=stats, outcome=out)

    def check(run: CellRun) -> list[str]:
        failed = []
        if not run.outcome.conserved():
            failed.append("qos-conserved")
        if sum(run.stats[f"{t.name}_arrived"] for t in tenants) != offered:
            failed.append("arrivals-count")
        return failed

    return Cell(f"qos-{utilization:g}x", "", run, check)


def _qos_openloop(seed: int) -> list[Cell]:
    return [_qos_cell(u, seed) for u in (1.0, 4.0)]


_BUILDERS = {
    "stencil-haswell-fine": _stencil_haswell_fine,
    "stencil-phi-coarse": _stencil_phi_coarse,
    "dist-cyclic-tail": _dist_cyclic_tail,
    "qos-openloop": _qos_openloop,
}
WORKLOADS = tuple(_BUILDERS)


def build_cells(workload: str, seed: int) -> list[Cell]:
    """Generate every input of ``workload`` from ``seed``."""
    return _BUILDERS[workload](seed)


def warm_up() -> None:
    """Touch every layer once on tiny inputs before timing starts."""
    stencil1d.run_stencil(
        RuntimeConfig(platform="haswell", num_cores=2),
        StencilConfig(total_points=64, partition_points=16, time_steps=2),
    )
