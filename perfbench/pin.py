"""Re-pin the cell digests of ``perfbench/pinned.json``.

Usage (from the repository root)::

    PYTHONPATH=src python3 perfbench/pin.py 1 20261017

Runs every cell of every workload once per given seed and rewrites
``pinned.json`` with their digests.  Re-pinning is a declared
re-baseline: do it only for a change that is meant to alter simulated
behaviour, and say so in the change's description.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    seeds = {}
    for seed in (int(a) for a in argv):
        seeds[str(seed)] = {
            name: {
                cell.name: workloads.digest(cell.run().stats)
                for cell in workloads.build_cells(name, seed)
            }
            for name in workloads.WORKLOADS
        }
    path = HERE / "pinned.json"
    path.write_text(json.dumps({"seeds": seeds}, indent=2, sort_keys=True) + "\n")
    print(f"pinned {sum(len(c) for s in seeds.values() for c in s.values())} "
          f"cells for seeds {', '.join(seeds)} in {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
