"""Per-layer tracing from outside the program.

The benchmark times the public entry points of each ``repro`` layer by
wrapping them for the duration of a traced phase (:func:`traced`) and
recording one :class:`repro.obs.Tracer` span per call.  Nothing under
``src/`` is edited: the wrappers replace module and class attributes and
put the originals back on exit.

:func:`layer_report` turns the recorded spans into per-layer figures:
inclusive time per call kind, each layer's self time (span time minus
the time its nested spans cover) and the unattributed remainder (the
self time of the benchmark's own ``op``/``setup`` root span).
"""

from __future__ import annotations

import collections
import contextlib
import importlib

# Gateway spans that overlap each other (a request stays open from
# submit to resolve, across other requests' batches).  They give queue
# wait and batch shape, but take no part in self-time accounting.
OVERLAPPING = ("gateway.request", "replica.dispatch")

ROOTS = ("op", "setup")

# Every layer the report gives a self time for.
LAYERS = (
    "data", "tsetlin", "model", "accelerator", "synthesis", "rtl",
    "simulator", "flow", "serving.engine", "serving.gateway",
    "serving.differential",
)


def layer_of(name):
    """Layer of a span name: ``rtl.emit`` -> ``rtl``; roots -> ``None``."""
    if name in ROOTS:
        return None
    if name == "engine.predict":
        return "serving.engine"
    parts = name.split(".")
    if parts[0] == "serving":
        return ".".join(parts[:2])
    return parts[0]


class SpanStack:
    """Nested spans from the benchmark's own code, on one thread."""

    def __init__(self, tracer):
        self.tracer = tracer
        self._open = []

    @contextlib.contextmanager
    def span(self, name, **attrs):
        parent = self._open[-1] if self._open else None
        span = self.tracer.start_span(name, parent=parent, **attrs)
        self._open.append(span)
        try:
            yield span
        except BaseException as exc:
            self._open.pop()
            span.set_attrs(error=repr(exc))
            span.end(status="error")
            raise
        self._open.pop()
        span.end()


class CountingSink:
    """Tracer sink that counts exports, so ring evictions are detected."""

    def __init__(self):
        self.exported = 0

    def write(self, record):
        self.exported += 1


# --- what gets wrapped ----------------------------------------------------
# Each counts function maps (args, result) to span attributes.

def _fit_counts(args, kwargs, result):
    X = args[1]
    epochs = kwargs.get("epochs", args[3] if len(args) > 3 else 10)
    return {"samples": int(len(X) * epochs)}


def _sparsity_counts(args, kwargs, result):
    total = result.n_classes * result.n_clauses
    return {"includes": int(result.total_includes),
            "active_clauses": int(total - result.empty_clauses)}


def _design_counts(args, kwargs, result):
    return {"gates": int(result.netlist.gate_count()),
            "regs": int(result.netlist.register_count()),
            "packets": int(result.n_packets)}


def _verilog_counts(args, kwargs, result):
    return {"bytes": len(result)}


def _batch_counts(args, kwargs, result):
    return {"cycles": int(result.cycles_run)}


def _verify_counts(args, kwargs, result):
    return {"vectors": int(result.functional_samples)}


def _check_counts(args, kwargs, result):
    # The checker's observer entry returns None for a batch it skipped.
    return {"checked": int(result is not None)}


_FLOW = "repro.flow.flow"
_VERIFY = "repro.flow.verify"

# (object path, attribute, span name, counts function).  A function
# bound under two names (its home module and an importer) is wrapped at
# both, because each caller looks it up through its own module.
WRAPS = (
    (_FLOW, "load_dataset", "data.load", None),
    ("repro.data.loaders", "load_dataset", "data.load", None),
    ("repro.tsetlin.machine:TsetlinMachine", "fit", "tsetlin.fit",
     _fit_counts),
    ("repro.model.model:TMModel", "evaluate", "tsetlin.evaluate", None),
    (_FLOW, "analyze_sparsity", "model.analyze", _sparsity_counts),
    (_FLOW, "analyze_sharing", "model.analyze", None),
    (_FLOW, "generate_accelerator", "accelerator.generate", _design_counts),
    ("repro.accelerator.generator", "generate_accelerator",
     "accelerator.generate", _design_counts),
    (_FLOW, "implement_design", "synthesis.implement", None),
    ("repro.synthesis.report", "implement_design", "synthesis.implement",
     None),
    (_FLOW, "verify_design", "flow.verify", _verify_counts),
    (_VERIFY, "verify_design", "flow.verify", _verify_counts),
    (_VERIFY, "emit_verilog", "rtl.emit", _verilog_counts),
    (_VERIFY, "parse_verilog", "rtl.parse", None),
    (_VERIFY, "netlists_equivalent", "simulator.equiv", None),
    (_VERIFY, "build_testbench", "simulator.testbench", None),
    ("repro.simulator.testbench:Testbench", "run", "simulator.testbench",
     None),
    ("repro.simulator.design_sim:AcceleratorSimulator", "__init__",
     "simulator.compile", None),
    ("repro.simulator.design_sim:AcceleratorSimulator", "run_batch",
     "simulator.run_batch", _batch_counts),
    ("repro.serving.fabric:Gateway", "submit", "serving.gateway.submit",
     None),
    ("repro.serving.fabric:Gateway", "submit_many",
     "serving.gateway.submit", None),
    ("repro.serving.fabric:Gateway", "flush", "serving.gateway.flush", None),
    ("repro.serving.differential:DifferentialChecker", "__call__",
     "serving.differential.check", _check_counts),
) + tuple(
    ("repro.flow.flow:MatadorFlow", stage, f"flow.stage.{stage}", None)
    for stage in ("load_data", "train", "analyze", "generate", "implement",
                  "verify")
)


def _resolve(path):
    module, _, attr = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, attr) if attr else obj


def _wrap(stack, fn, name, counts):
    def wrapper(*args, **kwargs):
        with stack.span(name) as span:
            result = fn(*args, **kwargs)
            if counts is not None:
                span.set_attrs(**counts(args, kwargs, result))
            return result

    wrapper.__wrapped__ = fn
    return wrapper


@contextlib.contextmanager
def traced(stack):
    """Wrap every entry point in :data:`WRAPS` while the block runs."""
    saved = []
    try:
        for path, attr, name, counts in WRAPS:
            owner = _resolve(path)
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(stack, original, name, counts))
        yield stack
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# --- analysis --------------------------------------------------------------

def _self_times(records):
    """Self seconds per span, nesting by time containment (one thread)."""
    ordered = sorted(records, key=lambda r: (r["start_s"], -r["end_s"]))
    own = [r["duration_s"] for r in ordered]
    open_ = []
    for i, rec in enumerate(ordered):
        while open_ and ordered[open_[-1]]["end_s"] <= rec["start_s"]:
            open_.pop()
        if open_:
            own[open_[-1]] -= rec["duration_s"]
        open_.append(i)
    return ordered, own


def layer_report(records, n_ops):
    """Per-layer figures of the spans recorded over ``n_ops`` operations.

    Times and counts are per operation; rates are ratios of totals.
    """
    n_ops = max(1, n_ops)
    nested = [r for r in records if r["name"] not in OVERLAPPING]
    ordered, own = _self_times(nested)

    self_s = dict.fromkeys(LAYERS, 0.0)
    unattributed = 0.0
    calls = collections.defaultdict(lambda: [0, 0.0, 0.0])  # n, incl, self
    attrs = collections.defaultdict(int)
    for rec, own_s in zip(ordered, own):
        layer = layer_of(rec["name"])
        if layer is None:
            unattributed += own_s
        else:
            self_s[layer] = self_s.get(layer, 0.0) + own_s
        entry = calls[rec["name"]]
        entry[0] += 1
        entry[1] += rec["duration_s"]
        entry[2] += own_s
        for key, value in rec["attrs"].items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                attrs[f"{rec['name']}.{key}"] += value

    requests = {r["span_id"]: r for r in records
                if r["name"] == "gateway.request"}
    dispatches = [r for r in records if r["name"] == "replica.dispatch"]
    queue_wait = sum(
        r["start_s"] - requests[r["parent_id"]]["start_s"]
        for r in dispatches if r["parent_id"] in requests
    )
    dispatched_rows = sum(r["attrs"].get("n_rows", 0) for r in dispatches)

    def per_op(value):
        return value / n_ops

    def call_s(name):
        return per_op(calls[name][1])

    def rate(numerator, seconds):
        return numerator / seconds if seconds > 0 else 0.0

    engine = calls["engine.predict"]
    verify = calls["flow.verify"]

    metrics = {
        "data.load_s": call_s("data.load"),
        "tsetlin.fit_s": call_s("tsetlin.fit"),
        "tsetlin.train_samples_per_s": rate(attrs["tsetlin.fit.samples"],
                                            calls["tsetlin.fit"][1]),
        "tsetlin.evaluate_s": call_s("tsetlin.evaluate"),
        "model.analyze_s": call_s("model.analyze"),
        "model.active_clauses": per_op(
            attrs["model.analyze.active_clauses"]),
        "model.includes": per_op(attrs["model.analyze.includes"]),
        "accelerator.generate_s": call_s("accelerator.generate"),
        "accelerator.gates": per_op(attrs["accelerator.generate.gates"]),
        "accelerator.regs": per_op(attrs["accelerator.generate.regs"]),
        "accelerator.packets": per_op(attrs["accelerator.generate.packets"]),
        "synthesis.implement_s": call_s("synthesis.implement"),
        "rtl.emit_s": call_s("rtl.emit"),
        "rtl.parse_s": call_s("rtl.parse"),
        "rtl.verilog_bytes": per_op(attrs["rtl.emit.bytes"]),
        "simulator.compile_s": call_s("simulator.compile"),
        "simulator.run_batch_s": call_s("simulator.run_batch"),
        "simulator.equiv_s": call_s("simulator.equiv"),
        "simulator.testbench_s": call_s("simulator.testbench"),
        "simulator.cycles": per_op(attrs["simulator.run_batch.cycles"]),
        "simulator.cycles_per_s": rate(attrs["simulator.run_batch.cycles"],
                                       calls["simulator.run_batch"][1]),
        "flow.verify_s": per_op(verify[1]),
        "flow.verify_self_s": per_op(verify[2]),
        "flow.verify_vectors": per_op(attrs["flow.verify.vectors"]),
        "serving.engine.predict_s": per_op(engine[1]),
        "serving.engine.rows_per_s": rate(attrs["engine.predict.n_rows"],
                                          engine[1]),
        "serving.engine.calls": per_op(engine[0]),
        "serving.gateway.queue_wait_s": per_op(queue_wait),
        "serving.gateway.batches": per_op(len(dispatches)),
        "serving.gateway.rows_per_batch": (
            dispatched_rows / len(dispatches) if dispatches else 0.0),
        "serving.differential.check_s": call_s("serving.differential.check"),
        "serving.differential.batches_seen": per_op(
            calls["serving.differential.check"][0]),
        "serving.differential.batches_checked": per_op(
            attrs["serving.differential.check.checked"]),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = per_op(self_s[layer])
    metrics["obs.unattributed_s"] = per_op(unattributed)
    return metrics


def spans_in(records, start_s, end_s):
    """The finished spans that started inside ``[start_s, end_s]``."""
    return [r for r in records
            if r["end_s"] is not None and start_s <= r["start_s"] <= end_s]
