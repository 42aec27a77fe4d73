"""Span tracing of splitmev's public functions, installed from outside.

``install`` replaces each function in ``LAYERS`` with a wrapper at every
name it is bound to in a loaded ``splitmev`` module (its home module plus
``from ... import`` copies), and each listed method on its class. A wrapper
records a span (name, start, end, parent span, request id) around every
call. Spans stay in memory until ``save`` writes them.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

# (span name, module, attribute); the span name is the metric prefix
LAYERS = (
    ("amm_core.swap_out", "splitmev.amm_core", "swap_out"),
    ("amm_core.apply_swap", "splitmev.amm_core", "apply_swap"),
    ("amm_core.marginal_out", "splitmev.amm_core", "marginal_out"),
    ("failure_models.prob", "splitmev.failure_models", "FailureModel.prob"),
    ("failure_models.prob_derivative", "splitmev.failure_models", "FailureModel.prob_derivative"),
    ("split_optimizer.plan", "splitmev.split_optimizer", "plan"),
    ("split_optimizer.threshold", "splitmev.split_optimizer", "threshold"),
    ("split_optimizer.solve_chunk", "splitmev.split_optimizer", "solve_chunk"),
    ("split_optimizer.marginal_benefit", "splitmev.split_optimizer", "marginal_benefit"),
    ("split_optimizer.profit_curve", "splitmev.split_optimizer", "profit_curve"),
    ("sequencer_sim.from_dict", "splitmev.sequencer_sim", "SimConfig.from_dict"),
    ("sequencer_sim.run", "splitmev.sequencer_sim", "run"),
    ("sequencer_sim.order_batch", "splitmev.sequencer_sim", "order_batch"),
    ("sequencer_sim.execute_tx", "splitmev.sequencer_sim", "execute_tx"),
    ("sequencer_sim.summarize", "splitmev.sequencer_sim", "summarize"),
    ("sequencer_sim.to_json", "splitmev.sequencer_sim", "SimReport.to_json"),
    ("trace_analysis.load_trace_file", "splitmev.trace_analysis", "load_trace_file"),
    ("trace_analysis.build_graph", "splitmev.trace_analysis", "build_graph"),
    ("trace_analysis.classify_swap", "splitmev.trace_analysis", "classify_swap"),
    ("trace_analysis.read_labels_csv", "splitmev.trace_analysis", "read_labels_csv"),
    ("trace_analysis.identify_bots", "splitmev.trace_analysis", "identify_bots"),
    ("trace_analysis.breakdown", "splitmev.trace_analysis", "breakdown"),
    ("fee_accounting.read_records_csv", "splitmev.fee_accounting", "read_records_csv"),
    ("fee_accounting.revert_stats", "splitmev.fee_accounting", "revert_stats"),
    ("fee_accounting.revert_differential", "splitmev.fee_accounting", "revert_differential"),
    ("fee_accounting.position_histogram", "splitmev.fee_accounting", "position_histogram"),
    ("fee_accounting.priority_fee_distribution", "splitmev.fee_accounting", "priority_fee_distribution"),
    ("cli", "splitmev.cli", "main"),
)


def _q_points(c: Counter, args, kwargs, result):
    c["split_optimizer.marginal_benefit.points"] += np.size(kwargs["q"] if "q" in kwargs else args[3])


def _report_bytes(c: Counter, args, kwargs, result):
    c["sequencer_sim.report_bytes"] += len(result)


def _reverts(c: Counter, args, kwargs, result):
    c["sequencer_sim.reverts"] += result["reverts"]
    c["sequencer_sim.txs"] += result["total_txs"]


def _frames(c: Counter, args, kwargs, result):
    c["trace_analysis.frames"] += len(result.edges)


def _swaps(c: Counter, args, kwargs, result):
    c["trace_analysis.swaps"] += result.is_swap


def _records(c: Counter, args, kwargs, result):
    c["fee_accounting.records"] += len(result)


# counts taken at a span's boundary from its arguments or result
COUNTS = {
    "split_optimizer.marginal_benefit": _q_points,
    "sequencer_sim.to_json": _report_bytes,
    "sequencer_sim.summarize": _reverts,
    "trace_analysis.build_graph": _frames,
    "trace_analysis.classify_swap": _swaps,
    "fee_accounting.read_records_csv": _records,
}


class Tracer:
    """In-memory span store; one per process."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: Counter = Counter()
        self.request_id = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn, count=None):
        name_id = len(self.names)
        self.names.append(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(self.start)
            self.name.append(name_id)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.request.append(self.request_id)
            self.start.append(0.0)
            self.end.append(0.0)
            self._stack.append(i)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = perf_counter()
                self.start[i] = t0
                self._stack.pop()
            if count is not None:
                count(self.counters, args, kwargs, result)
            return result

        return traced

    def save(self, path):
        """Write every span to an ``.npz`` file."""
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            request=np.frombuffer(self.request, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )


def install(tracer: Tracer):
    """Wrap every function in ``LAYERS`` at all of its bindings."""
    for name, module_name, attr in LAYERS:
        module = importlib.import_module(module_name)
        count = COUNTS.get(name)
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[method]
            if isinstance(raw, classmethod):
                setattr(cls, method, classmethod(tracer.wrap(name, raw.__func__, count)))
            else:
                setattr(cls, method, tracer.wrap(name, raw, count))
            continue
        original = getattr(module, attr)
        traced = tracer.wrap(name, original, count)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "splitmev" or mod_name.startswith("splitmev."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the part of its interval that the union
    of its child spans covers."""
    children = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].append(i)
    out = [e - s for s, e in zip(start, end)]
    for p, kids in children.items():
        covered, lo_run, hi_run = 0.0, None, None
        for k in sorted(kids, key=start.__getitem__):
            lo, hi = max(start[k], start[p]), min(end[k], end[p])
            if hi <= lo:
                continue
            if hi_run is None or lo > hi_run:
                if hi_run is not None:
                    covered += hi_run - lo_run
                lo_run, hi_run = lo, hi
            else:
                hi_run = max(hi_run, hi)
        if hi_run is not None:
            covered += hi_run - lo_run
        out[p] -= covered
    return out


def layer_totals(tracer: Tracer) -> dict[str, float]:
    """Per span name: ``<name>.calls`` and ``<name>.self_s`` summed over all
    spans, plus ``trace.spanned_s``, the time inside top-level spans."""
    own = self_times(tracer.start, tracer.end, tracer.parent)
    totals: dict[str, float] = {}
    for name in tracer.names:
        totals[f"{name}.calls"] = 0
        totals[f"{name}.self_s"] = 0.0
    spanned = 0.0
    for i, name_id in enumerate(tracer.name):
        name = tracer.names[name_id]
        totals[f"{name}.calls"] += 1
        totals[f"{name}.self_s"] += own[i]
        if tracer.parent[i] < 0:
            spanned += tracer.end[i] - tracer.start[i]
    totals["trace.spanned_s"] = spanned
    return totals
