"""The benchmark's workloads: seeded inputs, set-up, one operation, checks.

Every workload is a closed loop with one client in one process, as an
edge host that calls the co-processor and waits for each answer.  A
workload object is built from a seed alone (:meth:`inputs` is a pure
function of it), does its set-up in :meth:`setup`, and splits each
operation into :meth:`op` (timed) and :meth:`check` (not timed), which
returns ``None`` or the reason the operation failed.
"""

from __future__ import annotations

import hashlib

import numpy as np

import repro.accelerator.generator as generator
import repro.flow.verify as verify
import repro.synthesis.report as synthesis
from repro.flow.flow import FlowConfig, MatadorFlow
from repro.serving import DifferentialChecker, Gateway, InferenceEngine
from repro.serving import ReplicaPool

# (bus_width, share_logic) points of one design-sweep operation.
SWEEP_POINTS = ((32, True), (32, False), (64, True), (64, False))
VERIFY_ROWS = 16
BULK_ROWS = 256
MAX_BATCH = 64
# Distinct inputs a run cycles through.
BULK_BATCHES = 64
ONLINE_ROWS = 4096
# Serving warm-up operations: the first one makes the checker replay the
# first batch it sees, which compiles the simulator.
WARMUP_OPS = 8
# The checker's sampling seed stays fixed, so every run replays the same
# sequence of batches and only the inputs vary with the workload seed.
CHECK_SEED = 0
# Shrunk sizes for the self-tests' smoke runs.
SMOKE = {"n_train": 100, "n_test": 50, "clauses_per_class": 10, "epochs": 2}


def derive_seeds(seed):
    """(data_seed, train_seed, rows_seed) of a workload seed."""
    rng = np.random.default_rng(seed)
    return tuple(int(v) for v in rng.integers(0, 2**31, size=3))


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def netlist_digest(netlist):
    h = hashlib.sha256()
    for node in netlist.nodes:
        h.update(f"{node.kind}{tuple(node.fanins)}{node.init};".encode())
    return h.hexdigest()


def _quality(accuracy, designs_and_impls):
    return {
        "accuracy": float(accuracy),
        "luts": sum(int(impl.resources.luts) for _, impl in designs_and_impls),
        "power_w": sum(float(impl.power.total_w)
                       for _, impl in designs_and_impls),
        "hw_latency_us": sum(float(d.latency.latency_us(impl.clock_mhz))
                             for d, impl in designs_and_impls),
    }


class Workload:
    name = None
    rows_per_op = 1

    def __init__(self, seed, smoke=False):
        self.seed = int(seed)
        self.smoke = bool(smoke)
        self.data_seed, self.train_seed, self.rows_seed = derive_seeds(seed)

    def flow_config(self, **overrides):
        sizes = SMOKE if self.smoke else {}
        return FlowConfig(data_seed=self.data_seed,
                          train_seed=self.train_seed, **sizes, **overrides)

    def inputs(self):
        """Everything the program receives, as plain data."""
        raise NotImplementedError

    def setup(self):
        pass

    def trace(self, tracer):
        """Route the following operations through a traced path."""

    def quality(self):
        """Exact, seed-determined outputs: accuracy, luts, power, latency."""
        raise NotImplementedError


class FlowMnist(Workload):
    """One default ``matador run``: load, train, analyze, generate,
    implement, verify."""

    name = "flow-mnist"

    def __init__(self, seed, smoke=False):
        super().__init__(seed, smoke)
        self.config = self.flow_config()
        self.first = None
        self.last = None

    def inputs(self):
        return {"flow_config": self.config.to_dict()}

    def op(self):
        return MatadorFlow(self.config).run(verify=True)

    def check(self, result):
        self.last = result
        if not result.verification.passed:
            return f"verify failed: {result.verification.summary()}"
        digests = (_digest(result.model.include),
                   netlist_digest(result.design.netlist))
        if self.first is None:
            self.first = digests
        elif digests != self.first:
            return "same seed gave a different model or netlist"
        return None

    def quality(self):
        r = self.last
        return _quality(r.accuracy, [(r.design, r.implementation)])


class DesignSweep(Workload):
    """Train once; each operation generates, implements and verifies
    every point of :data:`SWEEP_POINTS`."""

    name = "design-sweep"

    def __init__(self, seed, smoke=False):
        super().__init__(seed, smoke)
        self.config = self.flow_config()
        self.first_luts = None
        self.last = None

    def inputs(self):
        return {"flow_config": self.config.to_dict(),
                "points": [list(p) for p in SWEEP_POINTS],
                "verify_rows": VERIFY_ROWS}

    def setup(self):
        flow = MatadorFlow(self.config)
        ds = flow.load_data()
        self.model = flow.train()
        self.accuracy = flow.result.accuracy
        self.X_verify = ds.X_test[:VERIFY_ROWS]

    def op(self):
        points = []
        for bus_width, share in SWEEP_POINTS:
            cfg = self.flow_config(bus_width=bus_width, share_logic=share)
            design = generator.generate_accelerator(
                self.model, cfg.accelerator_config())
            impl = synthesis.implement_design(design)
            report = verify.verify_design(design, self.X_verify)
            points.append((design, impl, report))
        return points

    def check(self, points):
        self.last = [(d, impl) for d, impl, _ in points]
        bad = [i for i, (_, _, rep) in enumerate(points) if not rep.passed]
        if bad:
            return f"verify failed at sweep points {bad}"
        luts = [int(impl.resources.luts) for _, impl in self.last]
        if self.first_luts is None:
            self.first_luts = luts
        elif luts != self.first_luts:
            return f"luts {luts} differ from the first operation's"
        return None

    def quality(self):
        return _quality(self.accuracy, self.last)


class _Serve(Workload):
    """kws6 model behind a one-replica inline Gateway with a checker."""

    fraction = None

    def __init__(self, seed, smoke=False):
        super().__init__(seed, smoke)
        self.config = self.flow_config(dataset="kws6")

    def setup(self):
        flow = MatadorFlow(self.config)
        ds = flow.load_data()
        self.model = flow.train()
        self.accuracy = flow.result.accuracy
        self.design = flow.generate()
        self.impl = flow.implement()
        self.rows = self.row_indices(len(ds.X_test))
        self.X = ds.X_test[self.rows]
        # The answer every served row must get, from the frozen model.
        self.reference = self.model.predict(
            self.X.reshape(-1, self.X.shape[-1])).reshape(self.rows.shape)
        self.engine = InferenceEngine.from_model(self.model, version=1)
        self.checker = DifferentialChecker(
            self.design, fraction=self.fraction, seed=CHECK_SEED,
            raise_on_mismatch=False)
        self.i = 0
        self.gateway = self._gateway(tracer=None)

    def inputs(self):
        return {"flow_config": self.config.to_dict(),
                "rows": self.row_indices(self.config.n_test).tolist(),
                "check_fraction": self.fraction, "check_seed": CHECK_SEED,
                "max_batch": MAX_BATCH}

    def _gateway(self, tracer):
        pool = ReplicaPool(self.engine, n_replicas=1, mode="inline",
                           max_batch=MAX_BATCH)
        gateway = Gateway(pool, max_batch=MAX_BATCH,
                          observers=[self.checker], tracer=tracer)
        for _ in range(WARMUP_OPS):
            reason = self.check(self.op(gateway))
            if reason is not None:
                raise RuntimeError(f"serving warm-up failed: {reason}")
        return gateway

    def trace(self, tracer):
        self.gateway = self._gateway(tracer)

    def check(self, outcome):
        tickets, reference, mismatches_before = outcome
        if any(t.shed or not t.done for t in tickets):
            return "a ticket was shed or left unresolved"
        preds = np.array([t.prediction for t in tickets])
        if not np.array_equal(preds, reference):
            return "served predictions differ from TMModel.predict"
        if len(self.checker.mismatches) != mismatches_before:
            return "the differential checker recorded a mismatch"
        return None

    def quality(self):
        return _quality(self.accuracy, [(self.design, self.impl)])


class ServeBulk(_Serve):
    """Each operation: submit_many of 256 rows, flush, read every ticket."""

    name = "serve-bulk"
    fraction = 0.0
    rows_per_op = BULK_ROWS

    def row_indices(self, n_test):
        rng = np.random.default_rng(self.rows_seed)
        return rng.integers(0, n_test, size=(BULK_BATCHES, BULK_ROWS))

    def op(self, gateway=None):
        gateway = gateway or self.gateway
        k = self.i % BULK_BATCHES
        self.i += 1
        before = len(self.checker.mismatches)
        tickets = gateway.submit_many(self.X[k])
        gateway.flush()
        for t in tickets:
            t.result()
        return tickets, self.reference[k], before


class ServeOnline(_Serve):
    """Each operation: one single-row request, submitted and flushed."""

    name = "serve-online"
    fraction = 0.1

    def row_indices(self, n_test):
        rng = np.random.default_rng(self.rows_seed)
        return rng.integers(0, n_test, size=ONLINE_ROWS)

    def op(self, gateway=None):
        gateway = gateway or self.gateway
        k = self.i % ONLINE_ROWS
        self.i += 1
        before = len(self.checker.mismatches)
        ticket = gateway.submit(self.X[k])
        gateway.flush()
        ticket.result()
        return [ticket], self.reference[k:k + 1], before


WORKLOADS = {cls.name: cls
             for cls in (FlowMnist, DesignSweep, ServeBulk, ServeOnline)}
