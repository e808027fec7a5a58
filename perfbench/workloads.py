"""Workload inputs made from the seed, and the result digests checked.

A run executes *units* back to back: unit ``u`` of seed ``s`` is built
from ``unit_seed(s, u)`` alone, so the same seed always gives the same
sequence of units.  Each unit is a whole user-level job:

* ``paper-grid``: the Figs. 6-8 grid on two generated task sets (SIMPLE
  and ADAPTIVE x SHORT/LONG/DOUBLE x {0.2 ... 1.0}, m = 4, 30 s
  horizon), run serially with the default ``KernelSpec``, then
  aggregated and rendered as Figs. 6, 7 and 8.
* ``fault-campaign``: a seeded campaign of random ``FaultPlan`` cells
  plus their fault-free baselines (30 s horizon), drained through the
  checkpointed file queue and merged into a scorecard.
* ``traffic-service``: the Poisson offered-load sweep (m = 8, both
  default monitors, four loads) on two task sets, submitted to a
  ``repro-serve`` coordinator; rendered as the figure plus the sojourn
  table.

The digests cover only what determines results: the ordered per-cell
result documents, the scorecard outcomes and the rendered figures.
Spec identity (campaign and cell keys, the kernel backend), owners,
``code_version`` and ``wall_ns`` are left out, so a change that only
switches the kernel backend or the fabric keeps every digest.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List, Sequence, Tuple

WORKLOADS = ("paper-grid", "fault-campaign", "traffic-service")

#: Task sets per paper-grid and traffic-service unit (two, so the
#: figures' Student-t confidence intervals are computed, as in the paper).
TASKSETS_PER_UNIT = 2
#: Cells per paper-grid unit: 2 monitors x 3 scenarios x 5 values x task sets.
GRID_CELLS = 2 * 3 * 5 * TASKSETS_PER_UNIT
#: Faulted cells per fault-campaign unit (baselines are appended).
FAULT_CELLS = 16
#: Task sets in the fault-campaign grid the cells are drawn from.
FAULT_TASKSETS = 8
#: Cells per shard on both fabric workloads.
SHARD_SIZE = 2
#: Platform size and horizon of the traffic sweep.
TRAFFIC_M = 8
TRAFFIC_HORIZON = 10.0
#: Cells per traffic-service unit: 2 monitors x 4 loads x task sets.
TRAFFIC_CELLS = 2 * 4 * TASKSETS_PER_UNIT

#: The benchmark's own canonical encoding, so that a change to the
#: program's JSON helpers cannot move the pinned digests.
_CANON = dict(sort_keys=True, separators=(",", ":"), allow_nan=False)


def unit_seed(seed: int, unit: int) -> int:
    """The generator seed of unit *unit* of workload seed *seed*."""
    return 2015 + 10_000 * seed + 100 * unit


def _sha(doc: Any) -> str:
    return hashlib.sha256(json.dumps(doc, **_CANON).encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Unit inputs (these import the program; call them in a child process)
# ----------------------------------------------------------------------
def grid_tasksets(seed: int, unit: int):
    from repro.runtime.spec import TaskSetSpec
    from repro.workload.generator import taskset_seeds

    return [
        TaskSetSpec.generated(s)
        for s in taskset_seeds(TASKSETS_PER_UNIT, unit_seed(seed, unit))
    ]


def fault_cells(seed: int, unit: int):
    """The unit's campaign cells minus those the kernel cannot run, and
    how many were left out.

    Known program defect: when a ``mode="queue"`` monitor outage ends,
    its buffered reports can make the monitor change speed, and the
    level-C release re-arm then schedules a release in the past
    (``ValueError: cannot schedule RELEASE ... now is ...``).  About one
    cell in 290 crashes this way, which kills the campaign, e.g.
    ``repro-mc2 faults run --seed 22515 --cells 8 --tasksets 8``.  Until
    that is fixed, faulted cells whose plan holds a queue-mode outage
    are left out (each run reports how many);
    ``perfbench/tests/test_perfbench.py`` keeps a reproducer.
    """
    from repro.faults.campaign import CampaignConfig, build_campaign

    cells = build_campaign(
        CampaignConfig(seed=unit_seed(seed, unit), cells=FAULT_CELLS, tasksets=FAULT_TASKSETS)
    )
    kept = [c for c in cells if not has_queued_outage(c.plan)]
    return kept, len(cells) - len(kept)


def has_queued_outage(plan) -> bool:
    return any(getattr(f, "mode", None) == "queue" for f in plan.faults)


def traffic_tasksets(seed: int, unit: int):
    from repro.runtime.spec import TaskSetSpec
    from repro.workload.generator import GeneratorParams, taskset_seeds

    params = GeneratorParams(m=TRAFFIC_M)
    return [
        TaskSetSpec.generated(s, params)
        for s in taskset_seeds(TASKSETS_PER_UNIT, unit_seed(seed, unit))
    ]


def recording(base):
    """A subclass of the executor class *base* that keeps what it ran.

    ``specs``/``results`` collect every cell in submission order and
    ``busy_ns`` sums the per-cell wall times the executor reports (for
    the service backend these are the shard manifests' ``wall_ns``).
    """

    class Recording(base):
        def __init__(self, *args, **kwargs) -> None:
            super().__init__(*args, **kwargs)
            self.specs: list = []
            self.results: list = []
            self.busy_ns = 0

        def run(self, specs):
            specs = list(specs)
            out = super().run(specs)
            self.specs.extend(specs)
            self.results.extend(out)
            self.busy_ns += sum(c.wall_ns for c in self.report.cells)
            return out

    return Recording


def run_grid_unit(tasksets, executor) -> List[str]:
    """Figs. 6, 7 and 8 on *tasksets*, rendered as ``repro-mc2 figures`` does."""
    from repro.experiments import figures as F

    f6 = F.figure6(tasksets, executor=executor)
    sweep = F.adaptive_sweep(tasksets, executor=executor)
    return [
        f6.render(unit_scale=1e3, unit="ms"),
        F.figure7(sweep).render(unit_scale=1e3, unit="ms"),
        F.figure8(sweep).render(unit_scale=1.0, unit="virtual speed"),
    ]


def run_traffic_unit(seed: int, unit: int, executor) -> Tuple[str, str]:
    """The offered-load figure and sojourn table, as ``repro-mc2 traffic`` prints them."""
    from repro.experiments import traffic as T

    raw: dict = {}
    fig = T.figure_offered_load(
        traffic_tasksets(seed, unit), m=TRAFFIC_M, horizon=TRAFFIC_HORIZON,
        seed=unit_seed(seed, unit), executor=executor, results_out=raw,
    )
    return fig.render(unit_scale=1e3, unit="ms"), T.render_sojourn_table(raw, xlabel="load/CPU")


# ----------------------------------------------------------------------
# Digests (pure JSON; no program import)
# ----------------------------------------------------------------------
def grid_digest(result_docs: Sequence[Dict[str, Any]], figures: Sequence[str]) -> str:
    """paper-grid: ordered ``RunResult`` documents plus rendered figures."""
    return _sha({"results": list(result_docs), "figures": list(figures)})


def outcome_core(doc: Dict[str, Any]) -> Dict[str, Any]:
    """A ``CellOutcome`` document without its spec identity."""
    return {k: v for k, v in doc.items() if k not in ("cell", "key")}


def scorecard_digest(scorecard: Dict[str, Any]) -> str:
    """fault-campaign: scorecard outcomes (minus identity) and summary."""
    return _sha(
        {
            "outcomes": [outcome_core(d) for d in scorecard["outcomes"]],
            "summary": scorecard["summary"],
        }
    )


def traffic_digest(result_docs: Sequence[Dict[str, Any]], figure: str, sojourn: str) -> str:
    """traffic-service: ordered result documents plus the rendered tables."""
    return _sha({"results": list(result_docs), "figure": figure, "sojourn": sojourn})


def result_docs(results: Sequence[Any]) -> List[Dict[str, Any]]:
    from repro.io.results_json import run_result_to_dict

    return [run_result_to_dict(r) for r in results]
