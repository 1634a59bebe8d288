"""One workload in one fresh process: set up, measure, check, report.

Started by ``run.py`` with ``PYTHONPATH=src``.  Prints exactly one JSON
object on its last stdout line.  ``--setup-only`` stops after set-up
(imports, input generation from the seed, warm-up) so the parent can
time set-up several times.

Untraced (``--trace 0``): run every cell of the workload once per pass,
passes repeated until ``--seconds`` have elapsed.  Traced
(``--trace 1``): untraced passes for half the budget, then the tracer
is installed and traced passes fill the rest; the per-layer numbers come
from the traced passes, the tracing overhead from comparing the two.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import workloads
from hostspeed import Speedometer

HERE = Path(__file__).resolve().parent


def _args(argv: list[str] | None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--started-ns", type=int, required=True,
                    help="time.monotonic_ns() the parent read before spawning")
    return ap.parse_args(argv)


class Measurement:
    """Timings, digests and failures of every attempted cell, by cell."""

    def __init__(self, cells, pinned: dict[str, str] | None) -> None:
        self.cells = cells
        self.pinned = pinned
        self.times: dict[str, list[float]] = {c.name: [] for c in cells}
        self.digests: dict[str, str] = {}
        self.runs: dict[str, object] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: Counter[str] = Counter()
        self.passes = 0
        #: measured (unadjusted) times, reported alongside
        self.measured: dict[str, list[float]] = {c.name: [] for c in cells}
        self.speed = Speedometer()

    def fail(self, cell_name: str, reasons: list[str]) -> None:
        self.failed += 1
        for reason in reasons:
            self.failures[f"{cell_name}:{reason}"] += 1

    def attempt(self, cell, runner_for=None, extra_checks=None) -> None:
        """Run ``cell`` once; a raise or a failed check fails only this cell."""
        self.attempted += 1
        runner = runner_for(cell) if runner_for is not None else cell.run
        # Every cell starts from a collected heap, so one cell's garbage
        # is not collected on the next cell's clock.
        gc.collect()
        try:
            t0 = time.perf_counter()
            run = runner()
            elapsed = time.perf_counter() - t0
            adjusted = self.speed.adjust(elapsed)
            reasons = cell.check(run)
            d = workloads.digest(run.stats)
            first = self.digests.setdefault(cell.name, d)
            if d != first:
                reasons.append("rerun-digest")
            if self.pinned is not None and self.pinned.get(cell.name) != d:
                reasons.append("pinned-digest")
            if extra_checks is not None:
                reasons.extend(extra_checks(cell, run, d))
        except Exception as exc:  # noqa: BLE001 - a failing cell must not stop the run
            self.fail(cell.name, [f"raised {type(exc).__name__}: {exc}"])
            return
        run.outcome = None  # checked; keep only the statistics
        self.runs.setdefault(cell.name, run)
        if reasons:
            self.fail(cell.name, reasons)
            return
        self.times[cell.name].append(adjusted)
        self.measured[cell.name].append(elapsed)

    def measure(self, seconds: float, **kwargs) -> None:
        """Whole passes over every cell until ``seconds`` have elapsed."""
        start = time.perf_counter()
        while True:
            for cell in self.cells:
                self.attempt(cell, **kwargs)
            self.passes += 1
            if time.perf_counter() - start >= seconds:
                return

    def wall_s(self, measured: bool = False) -> float:
        """A median pass: the sum over cells of each cell's median time,
        adjusted to the reference host speed unless ``measured``."""
        times = self.measured if measured else self.times
        return sum(statistics.median(t) for t in times.values() if t)

    def tasks(self) -> int:
        return sum(run.tasks for run in self.runs.values())

    def cell_report(self) -> list[dict]:
        return [
            {
                "cell": c.name,
                "median_ms": round(statistics.median(self.times[c.name]) * 1e3, 3)
                if self.times[c.name] else None,
                "runs": len(self.times[c.name]),
                "tasks": self.runs[c.name].tasks if c.name in self.runs else None,
                "digest": self.digests.get(c.name),
            }
            for c in self.cells
        ]


def _pinned(workload: str, seed: int) -> dict[str, str] | None:
    pins = json.loads((HERE / "pinned.json").read_text())
    return pins["seeds"].get(str(seed), {}).get(workload)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _traced(args, cells, untraced: Measurement, budget: float):
    """Install the tracer, run traced passes, derive the per-layer metrics."""
    import tracer as tr
    from layers import per_layer_metrics

    tracer = tr.Tracer()
    tr.install(tracer)
    #: per cell: call counts of its latest traced run (they repeat
    #: exactly), and its self time per layer summed over every traced run
    calls_of: dict[str, dict[str, int]] = {}
    self_ns: dict[str, Counter[str]] = {c.name: Counter() for c in cells}
    trace_cell = workloads.TRACE_CELLS[args.workload]
    trace_path = HERE / "out" / f"trace-{args.workload}-seed{args.seed}.json"
    if trace_path.exists():
        trace_path.unlink()

    def runner_for(cell):
        spanned_run = tracer.span(cell.run, "bench", "bench:cell")

        def run():
            before_calls = dict(tracer.calls)
            before_self = dict(tracer.self_ns)
            recording = cell.name == trace_cell and not trace_path.exists()
            if recording:
                tracer.record = []
            try:
                return spanned_run()
            finally:
                if recording:
                    trace_path.parent.mkdir(exist_ok=True)
                    tr.write_chrome_trace(str(trace_path), tracer.record, {
                        "workload": args.workload, "seed": args.seed,
                        "cell": cell.name,
                        "dropped_spans": tracer.dropped_spans,
                    })
                    tracer.record = None
                calls_of[cell.name] = {
                    k: v - before_calls.get(k, 0) for k, v in tracer.calls.items()
                }
                self_ns[cell.name].update(
                    {k: v - before_self.get(k, 0) for k, v in tracer.self_ns.items()}
                )

        return run

    runners = {c.name: runner_for(c) for c in cells}

    def self_checks(cell, run, d) -> list[str]:
        """Tracing must change nothing and miscount nothing."""
        reasons = []
        if d != untraced.digests.get(cell.name):
            reasons.append("traced-digest")
        calls = calls_of[cell.name]
        stats = run.stats
        if calls.get("queue:pop", 0) != stats["pending_accesses"] + stats["staged_accesses"]:
            reasons.append("traced-queue-accesses")
        if calls.get("dist:send", 0) != stats.get("parcels_sent", 0):
            reasons.append("traced-parcels")
        return reasons

    traced = Measurement(cells, untraced.pinned)
    traced.measure(
        budget,
        runner_for=lambda cell: runners[cell.name],
        extra_checks=self_checks,
    )
    return traced, per_layer_metrics(
        cells, untraced, traced, calls_of, self_ns, tracer
    )


def main(argv: list[str] | None = None) -> int:
    args = _args(argv)
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    cells = workloads.build_cells(args.workload, args.seed)
    workloads.warm_up()
    setup_s = (time.monotonic_ns() - args.started_ns) / 1e9
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    untraced = Measurement(cells, _pinned(args.workload, args.seed))
    report: dict = {}
    if args.trace:
        untraced.measure(args.seconds / 2)
        traced, report["per_layer"] = _traced(
            args, cells, untraced, args.seconds / 2
        )
        attempted = untraced.attempted + traced.attempted
        failed = untraced.failed + traced.failed
        failures = untraced.failures + traced.failures
    else:
        untraced.measure(args.seconds)
        attempted, failed, failures = (
            untraced.attempted, untraced.failed, untraced.failures
        )
    wall_s = untraced.wall_s()
    report.update(
        wall_s=wall_s,
        measured_wall_s=untraced.wall_s(measured=True),
        sim_tasks_per_s=untraced.tasks() / wall_s if wall_s > 0 else 0.0,
        peak_rss_mb=_peak_rss_mb(),
        attempted=attempted,
        failed=failed,
        failures=dict(failures),
        passes=untraced.passes,
        cells=untraced.cell_report(),
    )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
