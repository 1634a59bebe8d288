"""Layer-by-layer benchmark of the simulated HPX runtime.

Usage (from the repository root)::

    python3 perfbench/run.py --workload stencil-haswell-fine --seed 1 \\
        --seconds 20 --trace 0

Runs one workload of ``perfbench/workloads.py`` in a fresh worker process
for ``--seconds`` and prints, one per line, every metric by name with its
unit, each cell's digest, and, as the last line, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` they
are the per-layer ones of a traced run (see ``perfbench/README.md``).

Set-up time is measured from outside: interpreter start, imports, input
generation from the seed and warm-up, in several fresh processes, and
reported as the median.  Exits non-zero, printing no result, when the
program's sources are missing or the worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import Speedometer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

WORKLOADS = (
    "stencil-haswell-fine",
    "stencil-phi-coarse",
    "dist-cyclic-tail",
    "qos-openloop",
)
DEFAULT_SEED = 1
#: timed set-ups per run, each in its own fresh process
SETUP_SAMPLES = 5
#: every worker is killed after this long, so the run ends within 180 s
WORKER_TIMEOUT_S = 150

#: metric names and units: the benchmark's definition at the repository root
SPEC = ROOT / "BENCHMARK.json"


def _args(argv: list[str] | None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _worker(args: argparse.Namespace, env: dict, deadline: float,
            *, setup_only: bool) -> dict:
    """Run one worker process; returns its JSON report."""
    cmd = [
        sys.executable, str(WORKER),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--started-ns", str(time.monotonic_ns()),
    ]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()), check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    args = _args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: program sources not found under {src}", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    deadline = time.monotonic() + WORKER_TIMEOUT_S
    try:
        # Untimed: fills the bytecode caches, which a fresh checkout lacks.
        _worker(args, env, deadline, setup_only=True)
        speed = Speedometer()
        measured_setups, setups = [], []
        for _ in range(SETUP_SAMPLES):
            measured = _worker(args, env, deadline, setup_only=True)["setup_s"]
            measured_setups.append(measured)
            setups.append(speed.adjust(measured))
        report = _worker(args, env, deadline, setup_only=False)
    except (subprocess.SubprocessError, ValueError, IndexError) as exc:
        print(f"perfbench: worker failed: {exc}", file=sys.stderr)
        return 1

    attempted, failed = report["attempted"], report["failed"]
    for cell in report["cells"]:
        print(f"cell {cell['cell']}: median {cell['median_ms']} ms over "
              f"{cell['runs']} runs, {cell['tasks']} tasks, "
              f"digest {cell['digest']}")
    for name, count in sorted(report["failures"].items()):
        print(f"FAILED {name} x{count}")
    print(f"cells attempted {attempted}, failed {failed}, "
          f"failed_frac {failed / attempted:.6f}")
    print(f"measured before host-speed adjustment: wall {report['measured_wall_s']:.6g} s, "
          f"setup {statistics.median(measured_setups):.6g} s")

    spec = json.loads(SPEC.read_text())
    if args.trace:
        values = report["per_layer"]
        wanted = spec["per_layer"]
    else:
        values = {
            "wall_s": report["wall_s"],
            "sim_tasks_per_s": report["sim_tasks_per_s"],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": report["peak_rss_mb"],
            "ok_frac": (attempted - failed) / attempted,
        }
        wanted = spec["end_to_end"]
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted
    }
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
