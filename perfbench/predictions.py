"""What the benchmark measures, and what each per-layer figure should move.

Written down before any optimisation is measured against the benchmark
(see ``README.md``).  ``BENCHMARK.json`` names the same metrics; the
self-tests check that the two agree.
"""

WORKLOADS = {
    "flow-mnist": (
        "one default `matador run` (mnist 600/300, 60 clauses/class, "
        "8 epochs, verify on): what a user pays end to end, early-epoch "
        "training included"
    ),
    "design-sweep": (
        "train once, then generate/implement/verify bus 32/64 x sharing "
        "on/off: the GUI design loop, hardware layers without training"
    ),
    "serve-bulk": (
        "256-row requests through a Gateway at batch 64, replay sampling "
        "off: offline scoring where the engine kernel and gateway work"
    ),
    "serve-online": (
        "one-row requests with 10% of batches replayed through the "
        "simulator: single-request latency and differential checking"
    ),
}

# Workloads BENCHMARK.json leaves out, and why.  They stay runnable and
# keep their predictions.
UNGATED = {
    "design-sweep": "its 20-30 s operation runs once per run, and on a "
                    "shared 2-CPU host its time spread 10-14% between runs "
                    "even after calibration (memory-heavy work the speed "
                    "probe does not track); its layers are measured on "
                    "flow-mnist",
}

# Modules under src/repro the benchmark does not measure, and why.
NOT_MEASURED = {
    "sweep": "its process-pool executor needs at least 4 CPUs, and its "
             "cache would turn repeated operations into cache hits",
    "streaming": "not on the train -> generate -> verify -> serve path",
    "baselines": "comparison models, not on the MATADOR pipeline",
    "serving process replicas": "with 2 CPUs the shared-memory transport "
                                "would measure the scheduler, not the "
                                "program",
}

# End-to-end metrics, reported with tracing off: name -> (unit, better).
E2E = {
    "setup_s": ("s", "lower"),
    "op_p50_ms": ("ms", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "accuracy": ("fraction", "higher"),
    "luts": ("count", "lower"),
    "power_w": ("W", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

_ALL = tuple(WORKLOADS)
_SETUP_TRAINED = ("design-sweep", "serve-bulk", "serve-online")
_SERVE = ("serve-bulk", "serve-online")


def _moves(metric, *workloads):
    return [(metric, w) for w in workloads]


# name -> (unit, better, [(end-to-end metric, workload)...], note).
# An empty move list is the prediction "no change anywhere it is
# measured"; the note says which workload bypasses the layer.
PER_LAYER = {
    "data.load_s": ("s", "lower", _moves("op_p50_ms", "flow-mnist"),
                    "a small share; elsewhere data loads in set-up"),
    "tsetlin.fit_s": ("s", "lower", _moves("op_p50_ms", "flow-mnist"),
                      "the dominant layer of flow-mnist"),
    "tsetlin.train_samples_per_s": (
        "1/s", "higher", _moves("op_p50_ms", "flow-mnist"),
        "early-epoch regime, per-epoch accuracy tracking on"),
    "tsetlin.evaluate_s": ("s", "lower", _moves("op_p50_ms", "flow-mnist"),
                           "test-set accuracy after training"),
    "model.analyze_s": ("s", "lower", _moves("op_p50_ms", "flow-mnist"),
                        "small"),
    "model.active_clauses": ("count", "lower",
                             _moves("luts", "flow-mnist"),
                             "explains luts"),
    "model.includes": ("count", "lower", _moves("luts", "flow-mnist"),
                       "explains luts"),
    "accelerator.generate_s": (
        "s", "lower", _moves("op_p50_ms", "design-sweep", "flow-mnist"),
        "factor_cubes and the netlist builder"),
    "accelerator.gates": ("count", "lower",
                          _moves("luts", "flow-mnist", "design-sweep"),
                          "explains luts"),
    "accelerator.regs": ("count", "lower",
                         _moves("luts", "flow-mnist", "design-sweep"),
                         "explains luts"),
    "accelerator.packets": ("count", "lower",
                            _moves("luts", "flow-mnist", "design-sweep"),
                            "sets the modelled latency in cycles"),
    "synthesis.implement_s": ("s", "lower",
                              _moves("op_p50_ms", "design-sweep"),
                              "LUT mapping, timing and power models"),
    "rtl.emit_s": ("s", "lower", _moves("op_p50_ms", "design-sweep"),
                   "diluted about 5x on flow-mnist"),
    "rtl.parse_s": ("s", "lower", _moves("op_p50_ms", "design-sweep"),
                    "the Verilog round-trip tokenizer and lowering"),
    "rtl.verilog_bytes": ("count", "lower",
                          _moves("op_p50_ms", "design-sweep"),
                          "work the emitter and parser do"),
    "simulator.compile_s": (
        "s", "lower", _moves("op_p50_ms", "design-sweep")
        + _moves("setup_s", *_SERVE),
        "netlist compile for each simulator width"),
    "simulator.run_batch_s": (
        "s", "lower", _moves("op_p50_ms", "design-sweep")
        + _moves("ops_per_s", "serve-online"),
        "no change on serve-bulk, whose replay happens in warm-up"),
    "simulator.equiv_s": ("s", "lower", _moves("op_p50_ms", "design-sweep"),
                          "netlists_equivalent in the round-trip check"),
    "simulator.testbench_s": ("s", "lower",
                              _moves("op_p50_ms", "design-sweep"),
                              "protocol/timing testbench"),
    "simulator.cycles": ("count", "lower",
                         _moves("op_p50_ms", "design-sweep"),
                         "cycles simulated by run_batch"),
    "simulator.cycles_per_s": (
        "1/s", "higher", _moves("op_p50_ms", "design-sweep")
        + _moves("ops_per_s", "serve-online"),
        "simulated cycles per second of run_batch"),
    "flow.verify_s": ("s", "lower", _moves("op_p50_ms", "design-sweep"),
                      "all three verification checks"),
    "flow.verify_self_s": ("s", "lower",
                           _moves("op_p50_ms", "design-sweep"),
                           "verify minus the rtl and simulator calls"),
    "flow.verify_vectors": ("count", "higher",
                            _moves("op_p50_ms", "design-sweep"),
                            "functional vectors per verify"),
    "serving.engine.predict_s": (
        "s", "lower", _moves("ops_per_s", "serve-bulk")
        + _moves("op_p50_ms", "serve-online"),
        "the clause kernel"),
    "serving.engine.rows_per_s": (
        "1/s", "higher", _moves("ops_per_s", "serve-bulk")
        + _moves("op_p50_ms", "serve-online"),
        "kernel rows per second at batch 64 and batch 1"),
    "serving.engine.calls": ("count", "lower",
                             _moves("ops_per_s", "serve-bulk"),
                             "engine calls per operation"),
    "serving.gateway.queue_wait_s": (
        "s", "lower", _moves("ops_per_s", "serve-bulk")
        + _moves("op_p50_ms", "serve-online"),
        "first request of a batch, submit to dispatch"),
    "serving.gateway.batches": ("count", "lower",
                                _moves("ops_per_s", "serve-bulk"),
                                "batches per operation"),
    "serving.gateway.rows_per_batch": ("count", "higher",
                                       _moves("ops_per_s", "serve-bulk"),
                                       "64 on serve-bulk, 1 on "
                                       "serve-online"),
    "serving.differential.check_s": (
        "s", "lower", _moves("ops_per_s", "serve-online"),
        "replays fall outside the timed part of serve-bulk"),
    "serving.differential.batches_seen": (
        "count", "lower", _moves("ops_per_s", "serve-online"),
        "batches offered to the checker per operation"),
    "serving.differential.batches_checked": (
        "count", "lower", _moves("ops_per_s", "serve-online"),
        "batches replayed per operation"),
}

# Self time of every layer per operation, and where its set-up share
# lands: training workloads load and train in set-up, the serving ones
# also generate, implement and warm the gateway up.
_SELF_MOVES = {
    "data": (_moves("op_p50_ms", "flow-mnist"), _SETUP_TRAINED),
    "tsetlin": (_moves("op_p50_ms", "flow-mnist"), _SETUP_TRAINED),
    "model": (_moves("op_p50_ms", "flow-mnist"), ()),
    "accelerator": (_moves("op_p50_ms", "design-sweep", "flow-mnist"),
                    _SERVE),
    "synthesis": (_moves("op_p50_ms", "design-sweep"), _SERVE),
    "rtl": (_moves("op_p50_ms", "design-sweep"), ()),
    "simulator": (_moves("op_p50_ms", "design-sweep")
                  + _moves("ops_per_s", "serve-online"), _SERVE),
    "flow": (_moves("op_p50_ms", "design-sweep", "flow-mnist"),
             _SETUP_TRAINED),
    "serving.engine": (_moves("ops_per_s", "serve-bulk")
                       + _moves("op_p50_ms", "serve-online"), _SERVE),
    "serving.gateway": (_moves("ops_per_s", "serve-bulk")
                        + _moves("op_p50_ms", "serve-online"), _SERVE),
    "serving.differential": (_moves("ops_per_s", "serve-online"), _SERVE),
}
for _layer, (_op, _setup) in _SELF_MOVES.items():
    PER_LAYER[f"{_layer}.self_s"] = ("s", "lower", _op,
                                     "self time per operation")
    PER_LAYER[f"setup.{_layer}_s"] = ("s", "lower",
                                      _moves("setup_s", *_setup),
                                      "self time in set-up")
PER_LAYER["obs.unattributed_s"] = (
    "s", "lower", _moves("op_p50_ms", *_ALL),
    "operation time no wrapped layer call covers")
PER_LAYER["setup.unattributed_s"] = (
    "s", "lower", _moves("setup_s", *_ALL),
    "set-up time no wrapped layer call covers")
PER_LAYER["obs.trace_overhead"] = (
    "ratio", "lower", [],
    "traced op_p50_ms over untraced op_p50_ms in the same run, minus 1")
PER_LAYER["obs.spans_per_op"] = (
    "count", "lower", [], "spans the tracer recorded per operation")

# Layers predicted to dominate each workload's operation self time.  On
# serve-online the differential checker dominates inclusively, but its
# time is spent in the simulator's run_batch, so by self time the
# simulator leads.
DOMINANT = {
    "flow-mnist": ("tsetlin",),
    "design-sweep": ("rtl", "simulator"),
    "serve-bulk": ("serving.engine", "serving.gateway"),
    "serve-online": ("simulator",),
}
