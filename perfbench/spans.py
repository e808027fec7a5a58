"""In-memory span recording around the public functions of each layer.

The benchmark measures the program from outside.  :func:`install`
replaces each public function or method named in :data:`TARGETS` with a
wrapper that appends one span per call to a process-local
:class:`Recorder`: ``[name, start_ns, end_ns, parent, cell, attrs]``.
Timestamps come from ``time.monotonic_ns`` (``CLOCK_MONOTONIC``), which
every process on the host shares, so spans of the client, coordinator
and workers line up on one time axis.  Spans stay in memory until the
process calls :meth:`Recorder.dump` when its run ends.

Only the main thread records: the service worker's heartbeat thread
would otherwise interleave with the main thread's span stack.  It sends
about one frame per lease TTL, so nothing measurable is lost.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: One wrap target: (span name, "module:attr" or "module:Class.attr", kind).
#: ``kind`` is ``"call"`` (a plain span), ``"cell"`` (a span that starts a
#: new cell id unless one is already open) or ``"cm"`` (a context-manager
#: factory: one span covers ``__enter__`` and a ``<name>_commit`` span
#: covers ``__exit__``; the body of the ``with`` block is not included).
#: The layer is the name's first part.  Sleeps, socket reads and the
#: coordinator's event-loop waits count as ``idle``: they are polling and
#: waiting for another process, not work of the layer that called them.
#: The fabric's own loops (``serve.coordinator``, ``serve.worker``,
#: ``serve.execute``, ``runtime.work``) are spans, so the work they do
#: between waits counts for their layer.  The coordinator's asyncio
#: reads are non-blocking ``recv`` calls and land in ``idle`` too; each
#: returns at once with data already received.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("workload.materialize", "repro.runtime.spec:TaskSetSpec.materialize", "call"),
    ("workload.traffic_augment", "repro.workload.traffic:TrafficSpec.augment", "call"),
    ("workload.traffic_behavior", "repro.workload.traffic:TrafficSpec.build_behavior", "call"),
    ("sim.run", "repro.experiments.runner:run_overload_experiment", "cell"),
    ("faults.run_cell", "repro.faults.campaign:run_cell", "cell"),
    ("faults.build_campaign", "repro.faults.campaign:build_campaign", "call"),
    ("faults.invariants", "repro.faults.invariants:evaluate_invariants", "call"),
    ("faults.fingerprint", "repro.sim.diffcheck:fingerprint", "call"),
    ("faults.fingerprint_digest", "repro.sim.diffcheck:fingerprint_digest", "call"),
    ("io.encode.run_result", "repro.io.results_json:run_result_to_dict", "call"),
    ("io.encode.outcome", "repro.faults.campaign:CellOutcome.to_dict", "call"),
    ("io.encode.canonical_json", "repro.io.canonical:canonical_json", "call"),
    ("io.decode.run_result", "repro.io.results_json:run_result_from_dict", "call"),
    ("io.decode.outcome", "repro.faults.campaign:CellOutcome.from_dict", "call"),
    ("io.spec_key.run", "repro.runtime.spec:RunSpec.key", "call"),
    ("io.spec_key.cell", "repro.faults.campaign:CampaignCell.key", "call"),
    ("runtime.run_spec", "repro.runtime.executor:run_spec", "cell"),
    ("runtime.executor_run", "repro.runtime.executor:SweepExecutor.run", "call"),
    ("runtime.work", "repro.runtime.shard:work", "call"),
    ("runtime.prepare", "repro.runtime.shard:prepare_campaign", "call"),
    ("runtime.lease", "repro.runtime.shard:CampaignStore.try_acquire", "call"),
    ("runtime.heartbeat", "repro.runtime.shard:CampaignStore.heartbeat", "call"),
    ("runtime.shard_done", "repro.runtime.shard:CampaignStore.shard_done", "call"),
    ("runtime.commit", "repro.runtime.shard:CampaignStore.write_manifest", "call"),
    ("runtime.merge.scorecard", "repro.runtime.shard:write_merged_scorecard", "call"),
    ("runtime.merge.results", "repro.runtime.shard:write_merged_results", "call"),
    ("runtime.durable.write_text", "repro.util.atomicio:atomic_write_text", "call"),
    ("runtime.durable.writer", "repro.util.atomicio:atomic_writer", "cm"),
    ("runtime.durable.append_line", "repro.util.atomicio:append_line", "call"),
    ("provenance.build_manifest", "repro.provenance:build_manifest", "call"),
    ("provenance.write_manifest", "repro.provenance:write_manifest", "call"),
    ("serve.encode", "repro.serve.protocol:encode_message", "call"),
    ("serve.decode", "repro.serve.protocol:decode_message", "call"),
    ("serve.coordinator", "repro.serve.coordinator:serve", "call"),
    ("serve.handle", "repro.serve.coordinator:Coordinator.handle", "call"),
    ("serve.worker", "repro.serve.worker:run_worker", "call"),
    ("serve.execute", "repro.serve.client:ServiceBackend._execute_timed", "call"),
    ("serve.submit", "repro.serve.client:ServiceClient.submit", "call"),
    ("serve.wait", "repro.serve.client:ServiceClient.wait", "call"),
    ("serve.fetch", "repro.serve.client:ServiceClient.fetch", "call"),
    ("experiments.figure6", "repro.experiments.figures:figure6", "call"),
    ("experiments.adaptive_sweep", "repro.experiments.figures:adaptive_sweep", "call"),
    ("experiments.figure7", "repro.experiments.figures:figure7", "call"),
    ("experiments.figure8", "repro.experiments.figures:figure8", "call"),
    ("experiments.render", "repro.experiments.figures:FigureData.render", "call"),
    ("experiments.figure_offered_load", "repro.experiments.traffic:figure_offered_load", "call"),
    ("experiments.sojourn_table", "repro.experiments.traffic:render_sojourn_table", "call"),
    ("idle.sleep", "time:sleep", "call"),
    ("idle.recv", "socket:socket.recv", "call"),
    ("idle.select", "selectors:EpollSelector.select", "call"),
)

#: Layers in report order; ``idle`` is the root span's self time.
LAYERS = (
    "workload", "sim", "faults", "io", "runtime", "provenance", "serve",
    "experiments", "idle",
)


def _events_of(args, kwargs, ret) -> Dict[str, Any]:
    result = getattr(ret, "result", ret)
    return {"events": int(getattr(result, "events", 0))}


def _encoded(args, kwargs, ret) -> Dict[str, Any]:
    return {"type": args[0].TYPE, "bytes": len(ret)}


def _decoded(args, kwargs, ret) -> Dict[str, Any]:
    return {"type": ret.TYPE}


#: Span attributes taken from a call's arguments and return value.
ATTRS: Dict[str, Callable[..., Dict[str, Any]]] = {
    "sim.run": _events_of,
    "serve.encode": _encoded,
    "serve.decode": _decoded,
}


class Recorder:
    """The process's span list plus the open-span stack."""

    def __init__(self, process: str) -> None:
        self.process = process
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.cell: Optional[str] = None
        self.cells = 0
        self.active = False
        self.main = threading.get_ident()

    def begin(self, name: str, new_cell: bool = False) -> Tuple[int, Optional[str]]:
        prior = self.cell
        if new_cell and prior is None:
            self.cells += 1
            self.cell = f"{self.process}:{self.cells}"
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.monotonic_ns(), 0, parent, self.cell, None])
        self.stack.append(idx)
        return idx, prior

    def end(self, idx: int, prior: Optional[str], attrs=None) -> None:
        span = self.spans[idx]
        span[2] = time.monotonic_ns()
        span[5] = attrs
        self.stack.pop()
        self.cell = prior

    def start_root(self) -> None:
        """Open the root span: the process's timed interval."""
        self.active = True
        self.begin("root")

    def stop_root(self) -> None:
        self.end(0, None)
        self.active = False

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"process": self.process, "spans": self.spans}, fh)


def _wrap_call(rec: Recorder, fn, name: str, new_cell: bool):
    attrs_of = ATTRS.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.active or threading.get_ident() != rec.main:
            return fn(*args, **kwargs)
        idx, prior = rec.begin(name, new_cell)
        ret = None
        try:
            ret = fn(*args, **kwargs)
            return ret
        finally:
            attrs = attrs_of(args, kwargs, ret) if attrs_of and ret is not None else None
            rec.end(idx, prior, attrs)

    return wrapper


class _SpannedContext:
    """Times a context manager's ``__enter__`` and ``__exit__`` only."""

    def __init__(self, rec: Recorder, name: str, cm) -> None:
        self.rec, self.name, self.cm = rec, name, cm

    def _timed(self, name, call, *args):
        rec = self.rec
        if not rec.active or threading.get_ident() != rec.main:
            return call(*args)
        idx, prior = rec.begin(name)
        try:
            return call(*args)
        finally:
            rec.end(idx, prior)

    def __enter__(self):
        return self._timed(self.name, self.cm.__enter__)

    def __exit__(self, *exc):
        return self._timed(self.name + "_commit", self.cm.__exit__, *exc)


def _wrap_cm(rec: Recorder, fn, name: str):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return _SpannedContext(rec, name, fn(*args, **kwargs))

    return wrapper


def _replace_everywhere(orig, wrapped) -> None:
    """Rebind every ``repro`` module attribute that names *orig*.

    Modules import layer functions by name (``from x import f``), so
    patching the defining module alone would miss those call sites.
    """
    for mod in list(sys.modules.values()):
        if mod is None or not getattr(mod, "__name__", "").startswith("repro"):
            continue
        for key, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, key, wrapped)


def install(rec: Recorder) -> None:
    """Wrap every target; the recorder records once ``start_root`` runs."""
    for name, where, kind in TARGETS:
        modname, attr = where.split(":")
        mod = importlib.import_module(modname)
        if "." in attr:
            clsname, meth = attr.split(".")
            cls = getattr(mod, clsname)
            raw = cls.__dict__.get(meth) or getattr(cls, meth)
            is_classmethod = isinstance(raw, classmethod)
            fn = raw.__func__ if is_classmethod else raw
            wrapped = _wrap_call(rec, fn, name, kind == "cell")
            setattr(cls, meth, classmethod(wrapped) if is_classmethod else wrapped)
            continue
        fn = getattr(mod, attr)
        if kind == "cm":
            wrapped = _wrap_cm(rec, fn, name)
        else:
            wrapped = _wrap_call(rec, fn, name, kind == "cell")
        setattr(mod, attr, wrapped)
        _replace_everywhere(fn, wrapped)


# ----------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------
def _covered(intervals: List[Tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of *intervals*, clipped to ``[lo, hi]``."""
    total = 0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Sequence[Sequence[Any]]) -> List[int]:
    """Per-span self time in ns: duration minus what its children cover."""
    children: Dict[int, List[Tuple[int, int]]] = {}
    for span in spans:
        if span[3] >= 0:
            children.setdefault(span[3], []).append((span[1], span[2]))
    out = []
    for i, span in enumerate(spans):
        dur = span[2] - span[1]
        out.append(dur - _covered(children.get(i, []), span[1], span[2]))
    return out


def layer_of(name: str) -> str:
    return "idle" if name == "root" else name.split(".", 1)[0]
