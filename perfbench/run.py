#!/usr/bin/env python3
"""The repository benchmark: end-to-end and per-layer numbers for repro.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-grid --seed 0 --seconds 20 --trace 0

Workloads (see ``perfbench/workloads.py`` and ``BENCHMARK.json``):
``paper-grid`` (the Figs. 6-8 grid, serial, almost all kernel),
``fault-campaign`` (random fault plans through the checkpointed file
queue with two worker processes) and ``traffic-service`` (a Poisson
traffic sweep through a ``repro-serve`` coordinator and two workers).

``--trace 0`` sets the fabric up several times (for ``setup_s``), then
runs the workload untraced for ``--seconds`` and reports the end-to-end
metrics.  ``--trace 1`` runs it once untraced and once with span
wrappers around each layer's public functions, and reports the
per-layer metrics, each layer's self time and the tracing overhead.

Every run checks its outputs outside the timed interval: per-unit
result digests against ``perfbench/pins.json`` (pinned seeds only; any
other seed gets the structural checks, and the report says so),
provenance verification on the fabric workloads, and structural checks
on every unit.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the exit code is 0
only when every check passed.  All processes the run starts are stopped
and reaped on every exit path, and its scratch files live under
``.perfbench/`` in the repository and are removed at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench import metrics, workloads  # noqa: E402

ROLES = ROOT / "perfbench" / "roles.py"
PINS = ROOT / "perfbench" / "pins.json"
#: Set-ups per untraced run; setup_s is their median.
SETUP_SAMPLES = 3
#: Fresh-interpreter ``import repro.cli`` probes per traced run.
IMPORT_SAMPLES = 3
#: Worker processes on the fabric workloads: at most two, at most nproc.
WORKERS = max(1, min(2, os.cpu_count() or 1))
READY_TIMEOUT_S = 90.0
#: Time a client may run past ``--seconds`` (its last unit and checks).
CLIENT_GRACE_S = 100.0
STOP_TIMEOUT_S = 15.0
CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


class SessionError(RuntimeError):
    """A process of the run failed, hung, or wrote no report."""


class Fleet:
    """The processes of one session; :meth:`close` reaps all of them."""

    def __init__(self, directory: pathlib.Path) -> None:
        self.dir = directory
        self.procs: Dict[str, subprocess.Popen] = {}

    def spawn(self, role: str, name: str, cfg: Dict[str, Any]) -> None:
        cfg = dict(cfg, name=name, dir=str(self.dir))
        with open(self.dir / f"{name}.log", "wb") as log:
            self.procs[name] = subprocess.Popen(
                [sys.executable, str(ROLES), role, json.dumps(cfg)],
                stdin=subprocess.DEVNULL, stdout=log, stderr=subprocess.STDOUT, cwd=ROOT,
            )

    def _fail(self, why: str) -> SessionError:
        tails = []
        for name in self.procs:
            try:
                text = (self.dir / f"{name}.log").read_text(encoding="utf-8", errors="replace")
            except OSError:
                continue
            if text.strip():
                tails.append(f"--- {name}.log ---\n" + "\n".join(text.splitlines()[-15:]))
        return SessionError("\n".join([why] + tails))

    def _check_alive(self, waiting_for: Optional[str] = None) -> None:
        """Fail on any process that crashed, or on *waiting_for* exiting."""
        for name, proc in self.procs.items():
            code = proc.poll()
            if code is not None and (code != 0 or name == waiting_for):
                raise self._fail(f"{name} exited early with code {code}")

    def wait_for(
        self, path: pathlib.Path, waiting_for: str, timeout: float, poll_s: float = 0.005
    ) -> str:
        """Poll for *path* (written atomically by *waiting_for*); its text."""
        deadline = time.monotonic() + timeout
        while not path.exists():
            self._check_alive(waiting_for)
            if time.monotonic() > deadline:
                raise self._fail(f"timed out waiting for {path.name}")
            time.sleep(poll_s)
        return path.read_text(encoding="utf-8")

    def cpu_s(self, names: List[str]) -> float:
        """User + sys CPU seconds that *names* have used so far, summed."""
        ticks = 0
        for name in names:
            stat = pathlib.Path(f"/proc/{self.procs[name].pid}/stat").read_text()
            fields = stat.rsplit(")", 1)[1].split()
            ticks += int(fields[11]) + int(fields[12])
        return ticks / CLOCK_TICKS

    def ready(self, name: str, timeout: float) -> int:
        """Wait for *name*'s ready file; returns its monotonic timestamp."""
        return json.loads(self.wait_for(self.dir / f"{name}.ready.json", name, timeout))["t"]

    def wait_exit(self, name: str, timeout: float) -> None:
        deadline = time.monotonic() + timeout
        proc = self.procs[name]
        while proc.poll() is None:
            self._check_alive()
            if time.monotonic() > deadline:
                raise self._fail(f"{name} did not finish within {timeout:.0f} s")
            time.sleep(0.1)
        self._check_alive()

    def stop(self, names: List[str]) -> None:
        """SIGINT *names* (the program's clean shutdown) and reap them."""
        for name in names:
            if self.procs[name].poll() is None:
                self.procs[name].send_signal(signal.SIGINT)
        for name in names:
            try:
                self.procs[name].wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                raise self._fail(f"{name} ignored SIGINT") from None

    def close(self) -> None:
        for proc in self.procs.values():
            if proc.poll() is None:
                proc.kill()
        for proc in self.procs.values():
            proc.wait()


def session(
    workload: str,
    seed: int,
    seconds: int,
    trace: bool,
    directory: pathlib.Path,
    setup_only: bool = False,
) -> Dict[str, Any]:
    """Bring the workload's processes up, run the client, tear down.

    The fabric's processes and the client start together (service
    workers once the coordinator has bound its port); the client waits
    for the fabric's ready files before it submits.  ``setup_s`` runs
    from before the first process starts until the client has built its
    first unit and submitted it (paper-grid: is about to run it).  The
    fabric's CPU time is sampled when the client's timed interval opens
    and closes, so its polling while the client boots or checks is not
    counted.
    """
    directory.mkdir(parents=True)
    fleet = Fleet(directory)
    cfg: Dict[str, Any] = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "setup_only": setup_only, "workers": WORKERS,
    }
    fabric: List[str] = []
    try:
        t0 = time.monotonic_ns()
        if workload == "fault-campaign":
            cfg["queue"] = str(directory / "queue")
            fabric = [f"worker{i}" for i in range(WORKERS)]
            for name in fabric:
                fleet.spawn("faults-worker", name, cfg)
        elif workload == "traffic-service":
            cfg["coord_root"] = str(directory / "coordinator")
            cfg["port_file"] = str(directory / "coordinator.port")
            fleet.spawn("coordinator", "coordinator", cfg)
            port = int(fleet.wait_for(pathlib.Path(cfg["port_file"]), "coordinator",
                                       READY_TIMEOUT_S))
            cfg["addr"] = f"127.0.0.1:{port}"
            fabric = [f"worker{i}" for i in range(WORKERS)]
            for name in fabric:
                fleet.spawn("serve-worker", name, cfg)
            fabric.append("coordinator")
        fleet.spawn("client", "client", dict(cfg, fabric=fabric))
        setup_s = (fleet.ready("client", READY_TIMEOUT_S) - t0) / 1e9
        if setup_only:
            return {"setup_s": setup_s}
        cpu_ready = fleet.cpu_s(fabric)
        fleet.wait_for(directory / "client.end.json", "client", seconds + CLIENT_GRACE_S,
                       poll_s=0.02)
        fabric_cpu_s = fleet.cpu_s(fabric) - cpu_ready
        fleet.wait_exit("client", CLIENT_GRACE_S)
        if workload == "fault-campaign":
            for name in fabric:
                fleet.wait_exit(name, STOP_TIMEOUT_S)
        else:
            fleet.stop(fabric)
        reports, spans = {}, {}
        for name in ["client"] + fabric:
            path = directory / f"{name}.report.json"
            if not path.exists():
                raise fleet._fail(f"{name} wrote no report")
            reports[name] = json.loads(path.read_text(encoding="utf-8"))
            if trace:
                doc = json.loads((directory / f"{name}.spans.json").read_text(encoding="utf-8"))
                spans[name] = doc["spans"]
        return {"setup_s": setup_s, "reports": reports, "spans": spans,
                "fabric_cpu_s": fabric_cpu_s}
    finally:
        fleet.close()


def check_units(workload: str, seed: int, client: Dict[str, Any]) -> Tuple[int, int, List[str]]:
    """(cells attempted, cells failed, notes) of one session's client."""
    pins = json.loads(PINS.read_text(encoding="utf-8")).get(workload, {}).get(str(seed))
    # Cells retried after a pool break or quarantined by the service.  A
    # file-queue shard run twice after a lost lease race is waste, not a
    # failure (same result); runtime.exec_ratio shows it.
    failed = client.get("retried", 0)
    attempted = 0
    notes: List[str] = [f"{failed} cells retried or quarantined"] if failed else []
    for i, unit in enumerate(client["units"]):
        problems = list(unit["problems"])
        if pins is not None and i < len(pins) and unit["digest"] != pins[i]:
            problems.append("result digest differs from the pinned one")
        attempted += unit["cells"]
        if problems:
            failed += unit["cells"]
            notes.extend(f"unit {i}: {p}" for p in problems)
    units = len(client["units"])
    if workload == "fault-campaign":
        left_out = sum(u["left_out"] for u in client["units"])
        notes.append(f"{left_out} faulted cells with a queue-mode monitor outage left out "
                     "(known kernel defect, see workloads.fault_cells)")
    if pins is None:
        notes.append(f"seed {seed} has no pinned digests: structural checks only")
    elif units > len(pins):
        notes.append(f"units {len(pins)}..{units - 1} are past the pins: structural checks only")
    return attempted, failed, notes


def untraced_run(args, run_dir: pathlib.Path) -> Tuple[Dict[str, Any], int, int, List[str]]:
    setups = [
        session(args.workload, args.seed, args.seconds, False, run_dir / f"setup{i}",
                setup_only=True)["setup_s"]
        for i in range(SETUP_SAMPLES - 1)
    ]
    main = session(args.workload, args.seed, args.seconds, False, run_dir / "run")
    setups.append(main["setup_s"])
    attempted, failed, notes = check_units(args.workload, args.seed, main["reports"]["client"])
    return metrics.end_to_end(main, setups, failed), attempted, failed, notes


def import_probe() -> float:
    out = subprocess.run(
        [sys.executable, str(ROLES), "import-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=READY_TIMEOUT_S, check=True,
    )
    return json.loads(out.stdout)["import_s"]


def traced_run(args, run_dir: pathlib.Path) -> Tuple[Dict[str, Any], int, int, List[str]]:
    import_s = statistics.median(import_probe() for _ in range(IMPORT_SAMPLES))
    plain = session(args.workload, args.seed, args.seconds, False, run_dir / "plain")
    traced = session(args.workload, args.seed, args.seconds, True, run_dir / "traced")
    attempted = failed = 0
    notes: List[str] = []
    for s in (plain, traced):
        a, f, n = check_units(args.workload, args.seed, s["reports"]["client"])
        attempted, failed = attempted + a, failed + f
        notes.extend(n)
    client = plain["reports"]["client"]
    cells = sum(u["cells"] for u in client["units"])
    plain_cps = cells / ((client["t_end"] - client["t_ready"]) / 1e9)
    return metrics.per_layer(traced, plain_cps, import_s), attempted, failed, notes


def render(workload: str, trace: bool, result: Dict[str, Any], notes: List[str]) -> str:
    lines = [f"perfbench  workload={workload}  {'traced' if trace else 'end-to-end'}"]
    predictions = {name: p for name, _u, _b, p in metrics.PER_LAYER}
    for name, m in result.items():
        extra = f"  -> {predictions[name]}" if trace else ""
        value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
        lines.append(f"  {name:<36} {value:>14} {m['unit']:<8}{extra}")
    if trace and result["trace.process_s"]["value"] is not None:
        total = result["trace.process_s"]["value"] or 1.0
        lines.append("  self time by layer (sums to trace.process_s):")
        for name, m in result.items():
            if name.startswith("layer."):
                share = 100 * m["value"] / total
                lines.append(f"    {name[6:-7]:<12} {m['value']:10.3f} s  {share:5.1f} %")
        lines.append(
            f"  tracing overhead: untraced {result['trace.cells_per_s.untraced']['value']:.3f}"
            f" vs traced {result['trace.cells_per_s.traced']['value']:.3f} cells/s"
        )
    lines.extend(f"  check: {n}" for n in dict.fromkeys(notes))
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    # A SIGTERM unwinds like an exception, so every session's finally
    # block still kills and reaps its processes.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    run_dir = ROOT / ".perfbench" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    names = [n for n, *_ in (metrics.PER_LAYER if args.trace else metrics.END_TO_END)]
    try:
        run = traced_run if args.trace else untraced_run
        result, attempted, failed, notes = run(args, run_dir)
    except (SessionError, subprocess.SubprocessError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: run failed: {exc}", file=sys.stderr)
        result = {n: metrics.metric(n, None) for n in names}
        attempted, failed, notes = 1, 1, [f"run failed: {str(exc).splitlines()[0]}"]
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    correct = failed == 0
    print(render(args.workload, bool(args.trace), result, notes))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": result}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
