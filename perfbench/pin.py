#!/usr/bin/env python3
"""Compute the pinned result digests in ``perfbench/pins.json``.

Usage (from the repository root)::

    python3 perfbench/pin.py

For each workload and each seed in :data:`SEEDS` it rebuilds the first
``UNITS[workload]`` units exactly as the benchmark does and executes
them serially in this process (SerialBackend for the two sweeps,
``run_campaign`` for the fault campaign), so the pins also assert that
the fabrics' merged artifacts equal an uninterrupted serial run.  Re-pin
only when a change is meant to alter simulated results, and say so in
CHANGES.md.
"""

from __future__ import annotations

import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import workloads  # noqa: E402

PINS = ROOT / "perfbench" / "pins.json"
#: The default seed and one held-out seed.
SEEDS = (0, 1000)


def grid_unit(seed: int, unit: int) -> str:
    from repro.runtime.executor import SerialBackend

    executor = workloads.recording(SerialBackend)()
    figures = workloads.run_grid_unit(workloads.grid_tasksets(seed, unit), executor)
    return workloads.grid_digest(workloads.result_docs(executor.results), figures)


def traffic_unit(seed: int, unit: int) -> str:
    from repro.runtime.executor import SerialBackend

    executor = workloads.recording(SerialBackend)()
    figure, table = workloads.run_traffic_unit(seed, unit, executor)
    return workloads.traffic_digest(workloads.result_docs(executor.results), figure, table)


def fault_unit(seed: int, unit: int) -> str:
    from repro.faults.campaign import run_campaign

    scorecard = run_campaign(workloads.fault_cells(seed, unit)[0])
    return workloads.scorecard_digest(scorecard.to_dict())


#: Workload -> (unit digest function, units pinned per seed): more
#: units than a run of the benchmark's ``run_seconds`` completes.
UNITS = {
    "paper-grid": (grid_unit, 10),
    "traffic-service": (traffic_unit, 6),
    "fault-campaign": (fault_unit, 10),
}


def main() -> int:
    pins = {}
    for name, (fn, count) in UNITS.items():
        for seed in SEEDS:
            pins.setdefault(name, {})[str(seed)] = [fn(seed, u) for u in range(count)]
            print(f"{name} seed {seed}: {count} units pinned", flush=True)
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
