"""Entry point of every process the benchmark starts.

``python perfbench/roles.py <role> '<json config>'`` imports the program
the way its command-line tool does (``import repro.cli``), installs the
span wrappers when the config asks for a traced run, writes
``<name>.ready.json`` and then calls the program's own public entry
points:

* ``client``: builds the workload's units and drives them for the
  configured seconds (serial executor, file queue, or service client);
* ``faults-worker``: ``repro.runtime.shard.work`` on each unit's
  campaign directory;
* ``coordinator``: ``repro.serve.coordinator.serve``;
* ``serve-worker``: ``repro.serve.worker.run_worker``;
* ``import-probe``: times ``import repro.cli`` in a fresh interpreter.

The client writes ``client.end.json`` when its timed interval closes,
before it checks anything.  Every role ends by writing
``<name>.report.json`` (CPU time at its ready point and at its end, peak
RSS, plus role results), and, when traced, ``<name>.spans.json``.  The
coordinator and service workers run until SIGINT.
"""

from __future__ import annotations

import json
import os
import pathlib
import resource
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import spans, workloads  # noqa: E402

#: Worker poll interval on both fabric workloads (s).
POLL_S = 0.05
#: Lease TTL: far above any shard's run time, so no lease is stolen.
LEASE_TTL_S = 600.0


def die_with_parent() -> None:
    """Ask Linux to SIGTERM this process if the benchmark itself dies."""
    try:
        import ctypes
        import signal

        ctypes.CDLL(None, use_errno=True).prctl(1, signal.SIGTERM)  # PR_SET_PDEATHSIG
    except (OSError, AttributeError):
        pass


def cpu_s() -> float:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def write_json(path: pathlib.Path, doc) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(doc), encoding="utf-8")
    os.replace(tmp, path)


def quiet(*args, **kwargs) -> None:
    """Log sink for the program's progress lines."""


class Role:
    """Shared bootstrap: config, recorder, ready and report files."""

    def __init__(self, cfg: dict) -> None:
        self.cfg = cfg
        self.name = cfg["name"]
        self.dir = pathlib.Path(cfg["dir"])
        self.rec = spans.Recorder(self.name)
        self.report: dict = {}

    def boot(self, *modules: str) -> None:
        import importlib

        import repro.cli  # noqa: F401  - every repro-mc2 process pays this

        for mod in modules:
            importlib.import_module(mod)
        if self.cfg["trace"]:
            from repro.obs.telemetry import enable_phase_profiling

            spans.install(self.rec)
            enable_phase_profiling(True)

    def await_fabric(self) -> None:
        """Block until every fabric process named in the config is ready."""
        deadline = time.monotonic() + 90.0
        for name in self.cfg.get("fabric", ()):
            while not (self.dir / f"{name}.ready.json").exists():
                if time.monotonic() > deadline:
                    raise RuntimeError(f"{name} never became ready")
                time.sleep(0.005)

    def ready(self) -> None:
        self.report["t_ready"] = time.monotonic_ns()
        self.report["cpu_ready"] = cpu_s()
        write_json(self.dir / f"{self.name}.ready.json", {"t": self.report["t_ready"]})
        if self.cfg["trace"]:
            self.rec.start_root()

    def finish(self) -> None:
        """Close the timed interval (before any checking work)."""
        if self.cfg["trace"]:
            self.rec.stop_root()
        self.report["t_end"] = time.monotonic_ns()
        self.report["cpu_end"] = cpu_s()
        if self.name == "client":
            write_json(self.dir / "client.end.json", {"t": self.report["t_end"]})

    def write(self) -> None:
        self.report["rss_mb"] = rss_mb()
        if self.cfg["trace"]:
            from repro.obs.telemetry import PHASE_PROFILER

            self.report["phases"] = PHASE_PROFILER.snapshot()
            self.rec.dump(str(self.dir / f"{self.name}.spans.json"))
        write_json(self.dir / f"{self.name}.report.json", self.report)


# ----------------------------------------------------------------------
# Clients: one per workload
# ----------------------------------------------------------------------
def _deadline_passed(role: Role) -> bool:
    return time.monotonic_ns() - role.report["t_ready"] >= role.cfg["seconds"] * 1e9


def client_paper_grid(role: Role) -> None:
    role.boot("repro.experiments.figures", "repro.runtime.executor")
    from repro.runtime.executor import SerialBackend

    seed = role.cfg["seed"]
    executor = workloads.recording(SerialBackend)()
    tasksets = workloads.grid_tasksets(seed, 0)
    role.ready()
    if role.cfg["setup_only"]:
        return
    units = []
    u = 0
    while True:
        t0 = time.monotonic_ns()
        n0 = len(executor.results)
        if u:
            tasksets = workloads.grid_tasksets(seed, u)
        figures = workloads.run_grid_unit(tasksets, executor)
        units.append({"results": executor.results[n0:], "figures": figures,
                      "t0": t0, "t1": time.monotonic_ns()})
        u += 1
        if _deadline_passed(role):
            break
    role.finish()
    stats = executor.total
    role.report["retried"] = stats.pool_retried + stats.pool_serial_fallback
    role.report["busy_ns"] = executor.busy_ns
    role.report["workers"] = 1
    role.report["units"] = [check_grid_unit(unit) for unit in units]


def check_grid_unit(unit: dict) -> dict:
    docs = workloads.result_docs(unit["results"])
    problems = []
    if len(docs) != workloads.GRID_CELLS:
        problems.append(f"{len(docs)} cells, expected {workloads.GRID_CELLS}")
    if any(d["events"] <= 0 for d in docs):
        problems.append("a cell processed no events")
    for fig in unit["figures"]:
        labels = [ln.split()[0] for ln in fig.splitlines()[3:] if ln.startswith("  ")]
        if labels[:3] != ["SHORT", "LONG", "DOUBLE"]:
            problems.append("a figure lacks its three scenario series")
    return {
        "cells": len(docs),
        "events": sum(d["events"] for d in docs),
        "digest": workloads.grid_digest(docs, unit["figures"]),
        "problems": problems,
        "t0": unit["t0"],
        "t1": unit["t1"],
    }


def client_fault_campaign(role: Role) -> None:
    role.boot("repro.runtime.shard", "repro.provenance")
    from repro.runtime import shard as S

    seed = role.cfg["seed"]
    queue = pathlib.Path(role.cfg["queue"])

    def submit(u: int):
        cells, left_out = workloads.fault_cells(seed, u)
        campaign = S.ShardedCampaign(
            "faults", cells, shard_size=workloads.SHARD_SIZE, meta={"fault_free": False}
        )
        unit_root = queue / ("probe" if role.cfg["setup_only"] else f"unit-{u:04d}")
        return campaign, S.prepare_campaign(unit_root, campaign), left_out

    role.await_fabric()
    t0 = time.monotonic_ns()
    campaign, cdir, left_out = submit(0)
    role.ready()
    if role.cfg["setup_only"]:
        return
    units = []
    u = 0
    while True:
        if u:
            t0 = time.monotonic_ns()
            campaign, cdir, left_out = submit(u)
        store = S.CampaignStore(cdir)
        pending = list(campaign.shards)
        while pending:
            pending = [s for s in pending if not store.shard_done(s)]
            if pending:
                time.sleep(POLL_S)
        merged = S.write_merged_scorecard(cdir)
        units.append({"campaign": campaign, "cdir": cdir, "merged": merged,
                      "left_out": left_out, "t0": t0, "t1": time.monotonic_ns()})
        u += 1
        if _deadline_passed(role):
            break
    role.finish()
    (queue / "STOP").write_text("stop\n", encoding="utf-8")
    role.report["workers"] = role.cfg["workers"]
    role.report["units"] = [check_fault_unit(unit) for unit in units]
    role.report["busy_ns"] = sum(unit.pop("busy_ns") for unit in role.report["units"])


def _manifest_busy_ns(cdir: pathlib.Path) -> int:
    total = 0
    for path in sorted((cdir / "shards").glob("*.json")):
        total += sum(json.loads(path.read_text(encoding="utf-8"))["wall_ns"])
    return total


def _verify(merged: pathlib.Path) -> list:
    from repro.provenance import provenance_path, verify_manifest

    report = verify_manifest(provenance_path(merged), reexecute=False)
    return [] if report.ok else [f"provenance verify failed: {report.error or 'digest mismatch'}"]


def check_fault_unit(unit: dict) -> dict:
    campaign = unit["campaign"]
    scorecard = json.loads(pathlib.Path(unit["merged"]).read_text(encoding="utf-8"))
    outcomes = scorecard["outcomes"]
    problems = _verify(unit["merged"])
    if [o["key"] for o in outcomes] != list(campaign.cell_keys):
        problems.append("scorecard outcomes do not follow the campaign's cells")
    if scorecard["summary"]["cells"] != len(campaign.cells):
        problems.append("scorecard summary counts the wrong number of cells")
    if any(o["violations"] for o in outcomes if not o["cell"]["plan"]["faults"]):
        problems.append("a fault-free baseline cell violates an invariant")
    return {
        "cells": len(campaign.cells),
        "events": sum(o["events"] for o in outcomes),
        "digest": workloads.scorecard_digest(scorecard),
        "problems": problems,
        "busy_ns": _manifest_busy_ns(unit["cdir"]),
        "left_out": unit["left_out"],
        "t0": unit["t0"],
        "t1": unit["t1"],
    }


def client_traffic_service(role: Role) -> None:
    role.boot("repro.experiments.traffic", "repro.serve.client", "repro.provenance")
    from repro.serve.client import ServiceBackend

    seed = role.cfg["seed"]
    executor = workloads.recording(ServiceBackend)(
        role.cfg["addr"], shard_size=workloads.SHARD_SIZE, poll_s=POLL_S
    )
    role.await_fabric()
    role.ready()
    if role.cfg["setup_only"]:
        return
    units = []
    u = 0
    while True:
        t0 = time.monotonic_ns()
        n0 = len(executor.results)
        figure, table = workloads.run_traffic_unit(seed, u, executor)
        units.append({"specs": executor.specs[n0:], "results": executor.results[n0:],
                      "figure": figure, "table": table, "t0": t0, "t1": time.monotonic_ns()})
        u += 1
        if _deadline_passed(role):
            break
    role.finish()
    quarantined = sum(row["quarantined"] for row in executor.client.jobs())
    executor.client.close()
    coord = pathlib.Path(role.cfg["coord_root"])
    role.report["retried"] = quarantined * workloads.SHARD_SIZE
    role.report["busy_ns"] = executor.busy_ns
    role.report["workers"] = role.cfg["workers"]
    role.report["units"] = [check_traffic_unit(unit, coord) for unit in units]


def check_traffic_unit(unit: dict, coord: pathlib.Path) -> dict:
    from repro.runtime.shard import ShardedCampaign

    campaign = ShardedCampaign("sweep", unit["specs"], shard_size=workloads.SHARD_SIZE)
    cdir = coord / campaign.campaign_key[:16]
    merged_path = cdir / "merged.json"
    merged = json.loads(merged_path.read_text(encoding="utf-8"))
    docs = workloads.result_docs(unit["results"])
    problems = _verify(merged_path)
    if merged["results"] != docs:
        problems.append("fetched results differ from the merged artifact")
    if len(docs) != workloads.TRAFFIC_CELLS:
        problems.append(f"{len(docs)} cells, expected {workloads.TRAFFIC_CELLS}")
    if any("sojourn" not in d for d in docs):
        problems.append("a traffic cell has no sojourn statistics")
    return {
        "cells": len(docs),
        "events": sum(d["events"] for d in docs),
        "digest": workloads.traffic_digest(merged["results"], unit["figure"], unit["table"]),
        "problems": problems,
        "t0": unit["t0"],
        "t1": unit["t1"],
    }


# ----------------------------------------------------------------------
# Fabric processes
# ----------------------------------------------------------------------
def faults_worker(role: Role) -> None:
    role.boot("repro.runtime.shard", "repro.provenance")
    from repro.runtime import shard as S

    queue = pathlib.Path(role.cfg["queue"])
    role.ready()
    u = 0
    while True:
        cdirs = S.iter_campaign_dirs(queue / f"unit-{u:04d}")
        if not cdirs:
            if (queue / "STOP").exists():
                break
            time.sleep(POLL_S)
            continue
        S.work(cdirs[0], owner=role.name, lease_ttl=LEASE_TTL_S,
               poll_interval=POLL_S, wait=True)
        u += 1
    role.finish()



def coordinator(role: Role) -> None:
    role.boot("repro.serve.coordinator", "repro.provenance")
    from repro.serve import coordinator as C

    role.ready()
    C.serve(role.cfg["coord_root"], lease_ttl=LEASE_TTL_S,
            port_file=role.cfg["port_file"], log=quiet)
    role.finish()


def serve_worker(role: Role) -> None:
    role.boot("repro.serve.worker")
    from repro.serve import worker as W

    role.ready()
    W.run_worker(role.cfg["addr"], owner=role.name, poll_s=POLL_S, log=quiet)
    role.finish()


def import_probe() -> None:
    t0 = time.perf_counter()
    import repro.cli  # noqa: F401

    print(json.dumps({"import_s": time.perf_counter() - t0}))


CLIENTS = {
    "paper-grid": client_paper_grid,
    "fault-campaign": client_fault_campaign,
    "traffic-service": client_traffic_service,
}


def main(argv) -> int:
    die_with_parent()
    if argv[1] == "import-probe":
        import_probe()
        return 0
    role = Role(json.loads(argv[2]))
    body = {
        "client": lambda r: CLIENTS[r.cfg["workload"]](r),
        "faults-worker": faults_worker,
        "coordinator": coordinator,
        "serve-worker": serve_worker,
    }[argv[1]]
    body(role)
    role.write()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
