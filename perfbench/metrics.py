"""Metric definitions, and the per-layer numbers computed from spans.

``END_TO_END`` and ``PER_LAYER`` are the single source of the metric
names and units; ``BENCHMARK.json`` lists the same ones (a test holds
them equal).  Every per-layer entry carries the prediction written down
before measuring: which end-to-end metric it should move, on which
workload.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, List, Optional, Sequence, Tuple

from perfbench.spans import LAYERS, layer_of, self_times

#: (name, unit, better, bound as a share of the parent's median).
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", 0.25),
    ("cells_per_s", "1/s", "higher", 0.25),
    ("cpu_s_per_cell", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("cells_ok_frac", "frac", "higher", 0.01),
)

#: Message types the fabric workloads exchange, for the codec split.
FRAME_TYPES = (
    "hello", "hello_ok", "submit", "submit_ok", "lease", "grant", "no_work",
    "cell_result", "cell_ok", "shard_done", "shard_ok", "heartbeat",
    "heartbeat_ok", "jobs", "jobs_ok", "fetch", "fetch_cell", "fetch_done",
)

_ALL = "setup_s on all three workloads"
_GRID = "cells_per_s on paper-grid"
_FAULTS = "cells_per_s on fault-campaign"
_FABRIC = "cells_per_s on fault-campaign and traffic-service"
_SERVE = "cells_per_s and cpu_s_per_cell on traffic-service"

#: (name, unit, better, predicted effect).
PER_LAYER: Tuple[Tuple[str, str, str, str], ...] = (
    ("cli.import_s", "s", "lower", _ALL + " (traffic-service pays it in 4 processes)"),
    ("workload.materialize.calls_per_cell", "count", "lower", _GRID),
    ("workload.materialize_s", "s/cell", "lower", _GRID + " (about 2% of a cell)"),
    ("workload.traffic_build_s", "s/cell", "lower", "cells_per_s on traffic-service"),
    ("sim.run_s", "s/cell", "lower", "cells_per_s on all three workloads"),
    ("sim.events", "count", "lower", "none: a speed-only change leaves it identical"),
    ("sim.ns_per_event", "ns", "lower", "cells_per_s and cpu_s_per_cell on paper-grid"),
    ("sim.cell_ms_p50", "ms", "lower", _FABRIC + " (shard tails)"),
    ("sim.cell_ms_p95", "ms", "lower", _FABRIC + " (shard tails)"),
    *(
        (f"sim.phase.{phase}.{what}", unit, "lower", "explains a move of sim.ns_per_event")
        for phase in ("engine_pop", "dispatch", "monitor", "timer_rearm")
        for what, unit in (("count", "count/cell"), ("sampled_ns", "ns"))
    ),
    ("faults.invariants_s", "s/cell", "lower", _FAULTS + " only"),
    ("faults.fingerprint_s", "s/cell", "lower", _FAULTS + " only"),
    ("io.encode_s", "s/cell", "lower", "cpu_s_per_cell on fault-campaign and traffic-service"),
    ("io.spec_key.calls_per_cell", "count", "lower", "cpu_s_per_cell on both fabric workloads"),
    ("io.spec_key_s", "s/cell", "lower", "cpu_s_per_cell on both fabric workloads"),
    ("runtime.durable_writes_per_cell", "count", "lower", _FAULTS),
    ("runtime.durable_write_s", "s/cell", "lower", _FAULTS),
    ("runtime.merge_s", "s/cell", "lower", _FABRIC),
    ("runtime.exec_ratio", "ratio", "lower", "cpu_s_per_cell on both fabric workloads"),
    ("runtime.worker_busy_frac", "frac", "higher", _FABRIC),
    ("runtime.tail_s", "s", "lower", _FABRIC),
    ("provenance.manifest_s", "s/cell", "lower", _FABRIC),
    ("serve.frames_per_cell", "count", "lower", _SERVE),
    ("serve.frame_bytes_per_cell", "B", "lower", _SERVE),
    ("serve.codec_s", "s/cell", "lower", _SERVE),
    *((f"serve.codec_s.{t}", "s/cell", "lower", _SERVE) for t in FRAME_TYPES),
    ("serve.lease_wait_s", "s", "lower", _SERVE),
    ("serve.submit_to_first_result_s", "s", "lower", _SERVE),
    ("serve.fetch_s", "s", "lower", _SERVE),
    ("experiments.aggregate_s", "s/cell", "lower", _GRID + " (expected under 1%)"),
    *(
        (f"layer.{layer}.self_s", "s", "lower", "the traced run's time, by layer")
        for layer in LAYERS
    ),
    ("trace.process_s", "s", "lower", "sum of every traced process's timed interval"),
    ("trace.cells_per_s.untraced", "1/s", "higher", "cells_per_s without tracing"),
    ("trace.cells_per_s.traced", "1/s", "higher", "cells_per_s with tracing"),
    ("trace.overhead", "ratio", "lower", "untraced / traced cells_per_s"),
)

_UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def metric(name: str, value: Optional[float]) -> Dict[str, Any]:
    """One reported metric; ``None`` (JSON null) when the run failed."""
    return {"value": value, "unit": _UNITS[name]}


# ----------------------------------------------------------------------
# End-to-end
# ----------------------------------------------------------------------
def end_to_end(session: Dict[str, Any], setups: Sequence[float], failed: int) -> Dict[str, Any]:
    """The five end-to-end metrics of one untraced session."""
    client = session["reports"]["client"]
    cells = sum(u["cells"] for u in client["units"])
    run_s = (client["t_end"] - client["t_ready"]) / 1e9
    cpu = client["cpu_end"] - client["cpu_ready"] + session["fabric_cpu_s"]
    rss = max(r["rss_mb"] for r in session["reports"].values())
    return {
        "setup_s": metric("setup_s", statistics.median(setups)),
        "cells_per_s": metric("cells_per_s", cells / run_s),
        "cpu_s_per_cell": metric("cpu_s_per_cell", cpu / cells),
        "peak_rss_mb": metric("peak_rss_mb", rss),
        "cells_ok_frac": metric("cells_ok_frac", max(0.0, 1.0 - failed / cells)),
    }


# ----------------------------------------------------------------------
# Per-layer
# ----------------------------------------------------------------------
def clip(spans: Sequence[Sequence[Any]], lo: int, hi: int) -> List[list]:
    """*spans* cut to the window ``[lo, hi]``; spans outside it are dropped.

    The fabric's processes record from their own ready point until they
    stop, which includes polling while the client boots and checks.
    Clipping every process to the client's timed interval leaves only
    what happened while the run was measured.  A kept span's parent
    covers it, so it is kept too; parent indices are renumbered.
    """
    out: List[list] = []
    index: Dict[int, int] = {}
    for i, s in enumerate(spans):
        if s[2] <= lo or s[1] >= hi:
            continue
        index[i] = len(out)
        out.append([s[0], max(s[1], lo), min(s[2], hi), index.get(s[3], -1), s[4], s[5]])
    return out


def _cell_groups(spans: Sequence[Sequence[Any]]) -> Dict[str, Tuple[int, int]]:
    """Cell id -> (first start, last end) over the spans carrying it."""
    out: Dict[str, Tuple[int, int]] = {}
    for s in spans:
        if s[4] is None:
            continue
        lo, hi = out.get(s[4], (s[1], s[2]))
        out[s[4]] = (min(lo, s[1]), max(hi, s[2]))
    return out


def _percentile(xs: List[float], q: float) -> float:
    if not xs:
        return 0.0
    xs = sorted(xs)
    return xs[min(len(xs) - 1, int(q * len(xs)))]


def _lease_waits(spans: Sequence[Sequence[Any]]) -> List[int]:
    """A worker's wait from its first lease request to each grant."""
    waits, since = [], None
    for s in sorted(spans, key=lambda s: s[1]):
        kind = (s[5] or {}).get("type")
        if s[0] == "serve.encode" and kind == "lease" and since is None:
            since = s[1]
        elif s[0] == "serve.decode" and kind == "grant" and since is not None:
            waits.append(s[2] - since)
            since = None
    return waits


def per_layer(
    traced: Dict[str, Any],
    untraced_cells_per_s: float,
    import_s: float,
) -> Dict[str, Any]:
    """Every ``PER_LAYER`` metric from one traced session."""
    client = traced["reports"]["client"]
    units = client["units"]
    cells = sum(u["cells"] for u in units)
    run_ns = client["t_end"] - client["t_ready"]
    self_ns: Dict[str, int] = {}
    calls: Dict[str, int] = {}
    layer_ns = {layer: 0 for layer in LAYERS}
    cell_ms: List[float] = []
    events = 0
    frame_bytes = 0
    codec_ns = {t: 0 for t in FRAME_TYPES}
    executed = 0
    lease_waits: List[int] = []
    root_ns = 0
    worker_cells: Dict[str, List[Tuple[int, int]]] = {}
    merges: List[int] = []
    submits: List[int] = []
    results_in: List[int] = []
    fetches: List[int] = []
    windowed = {
        proc: clip(spans, client["t_ready"], client["t_end"])
        for proc, spans in traced["spans"].items()
    }
    for proc, spans in windowed.items():
        selfs = self_times(spans)
        for s, own in zip(spans, selfs):
            name = s[0]
            self_ns[name] = self_ns.get(name, 0) + own
            calls[name] = calls.get(name, 0) + 1
            layer_ns[layer_of(name)] += own
            attrs = s[5] or {}
            if name == "root":
                root_ns += s[2] - s[1]
            elif name == "sim.run":
                events += attrs.get("events", 0)
            elif name in ("runtime.run_spec", "faults.run_cell"):
                executed += 1
            elif name.startswith("runtime.merge."):
                merges.append(s[2])
            elif name == "serve.fetch":
                fetches.append(s[2] - s[1])
            elif name in ("serve.encode", "serve.decode"):
                kind = attrs.get("type")
                if kind in codec_ns:
                    codec_ns[kind] += own
                if name == "serve.encode":
                    frame_bytes += attrs.get("bytes", 0)
                    if kind == "submit":
                        submits.append(s[1])
                elif kind == "cell_result":
                    results_in.append(s[2])
        groups = _cell_groups(spans)
        cell_ms.extend((hi - lo) / 1e6 for lo, hi in groups.values())
        if proc != "client" and groups:
            worker_cells[proc] = list(groups.values())
        lease_waits.extend(_lease_waits(spans))

    def per_cell(*names: str) -> float:
        return sum(self_ns.get(n, 0) for n in names) / 1e9 / cells

    def count(*names: str) -> int:
        return sum(calls.get(n, 0) for n in names)

    tails = []
    for u in units:
        done = [end for end in merges if u["t0"] <= end <= u["t1"]]
        if not done or not worker_cells:
            continue
        idle = min(
            max([hi for lo, hi in extents if u["t0"] <= hi <= u["t1"]], default=u["t0"])
            for extents in worker_cells.values()
        )
        tails.append((max(done) - idle) / 1e9)
    firsts = [min([t for t in results_in if t >= s], default=s) - s for s in submits]
    phases: Dict[str, Dict[str, int]] = {}
    for report in traced["reports"].values():
        for phase, d in report.get("phases", {}).items():
            acc = phases.setdefault(phase, {"count": 0, "sampled_ns": 0, "samples": 0})
            for k in acc:
                acc[k] += d[k]
    sim_ns = self_ns.get("sim.run", 0)
    traced_cps = cells / (run_ns / 1e9)
    out = {
        "cli.import_s": import_s,
        "workload.materialize.calls_per_cell": count("workload.materialize") / cells,
        "workload.materialize_s": per_cell("workload.materialize"),
        "workload.traffic_build_s": per_cell(
            "workload.traffic_augment", "workload.traffic_behavior"
        ),
        "sim.run_s": per_cell("sim.run"),
        "sim.events": units[0]["events"],
        "sim.ns_per_event": sim_ns / events if events else 0.0,
        "sim.cell_ms_p50": _percentile(cell_ms, 0.50),
        "sim.cell_ms_p95": _percentile(cell_ms, 0.95),
        "faults.invariants_s": per_cell("faults.invariants"),
        "faults.fingerprint_s": per_cell("faults.fingerprint", "faults.fingerprint_digest"),
        "io.encode_s": per_cell(*(n for n in self_ns if n.startswith("io.encode."))),
        "io.spec_key.calls_per_cell": count("io.spec_key.run", "io.spec_key.cell") / cells,
        "io.spec_key_s": per_cell("io.spec_key.run", "io.spec_key.cell"),
        "runtime.durable_writes_per_cell": count(
            "runtime.durable.write_text", "runtime.durable.writer", "runtime.durable.append_line"
        ) / cells,
        "runtime.durable_write_s": per_cell(
            *(n for n in self_ns if n.startswith("runtime.durable."))
        ),
        "runtime.merge_s": per_cell("runtime.merge.scorecard", "runtime.merge.results"),
        "runtime.exec_ratio": executed / cells,
        "runtime.worker_busy_frac": client["busy_ns"] / (client["workers"] * run_ns),
        "runtime.tail_s": statistics.mean(tails) if tails else 0.0,
        "provenance.manifest_s": per_cell("provenance.build_manifest", "provenance.write_manifest"),
        "serve.frames_per_cell": count("serve.encode") / cells,
        "serve.frame_bytes_per_cell": frame_bytes / cells,
        "serve.codec_s": per_cell("serve.encode", "serve.decode"),
        "serve.lease_wait_s": statistics.mean(lease_waits) / 1e9 if lease_waits else 0.0,
        "serve.submit_to_first_result_s": statistics.mean(firsts) / 1e9 if firsts else 0.0,
        "serve.fetch_s": statistics.mean(fetches) / 1e9 if fetches else 0.0,
        "experiments.aggregate_s": per_cell(
            *(n for n in self_ns if n.startswith("experiments."))
        ),
        "trace.process_s": root_ns / 1e9,
        "trace.cells_per_s.untraced": untraced_cells_per_s,
        "trace.cells_per_s.traced": traced_cps,
        "trace.overhead": untraced_cells_per_s / traced_cps,
    }
    for phase in ("engine_pop", "dispatch", "monitor", "timer_rearm"):
        d = phases.get(phase, {"count": 0, "sampled_ns": 0, "samples": 0})
        out[f"sim.phase.{phase}.count"] = d["count"] / cells
        out[f"sim.phase.{phase}.sampled_ns"] = d["sampled_ns"] / max(1, d["samples"])
    for t in FRAME_TYPES:
        out[f"serve.codec_s.{t}"] = codec_ns[t] / 1e9 / cells
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = layer_ns[layer] / 1e9
    return {name: metric(name, float(out[name])) for name, *_ in PER_LAYER}

