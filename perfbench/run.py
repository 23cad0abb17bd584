"""Run one benchmark workload and print its metrics.

Usage, from the root of a repository checkout::

    python3 perfbench/run.py --workload flow-mnist --seed 1 --seconds 10 \\
        --trace 0

With ``--trace 0`` the run sets up, then repeats the workload's
operation for ``--seconds`` with tracing off and reports the end-to-end
metrics.  With ``--trace 1`` it sets up with tracing on, measures half
the time untraced and half traced, and reports the per-layer metrics,
including the tracing overhead between the two halves.

Times in the result are reference-machine times (see ``calibrate.py``);
the raw wall and CPU seconds of every operation are in the ``record``
line printed before the result.  The record also holds the environment
and, when traced, the measured and predicted dominant layers.  The last
line of standard output is the result object.  The exit code is 2 when
the program is missing next to the benchmark.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from calibrate import SpeedProbe  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Big enough that no span is evicted: serve-bulk records ~270 per
# operation.  Evictions are counted and fail the run.
TRACE_CAPACITY = 5_000_000


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="shrunk model sizes, for the self-tests")
    return ap.parse_args(argv)


def import_program():
    """Put the checkout's ``src`` first on the path; refuse any other copy."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program at {SRC / 'repro'}; run "
                         "from a repository checkout")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, "
                         f"not from {SRC}")


def environment():
    import numpy as np

    rev = "none"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        rev = done.stdout.strip() or "none"
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src.update(str(path.relative_to(SRC)).encode())
        src.update(path.read_bytes())
    return {
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "git_rev": rev,
        "src_sha256": src.hexdigest(),
    }


class Phase:
    """Operations timed in one measured phase."""

    def __init__(self):
        self.intervals = []   # (start, end) perf_counter of each operation
        self.cpus = []
        self.failures = []

    @property
    def n(self):
        return len(self.intervals)

    def op_s(self, probe):
        """Reference-machine seconds of every operation."""
        return [probe.scale(a, b) for a, b in self.intervals]

    def p50_ms(self, probe):
        return statistics.median(self.op_s(probe)) * 1e3

    def ops_per_s(self, probe):
        return self.n / sum(self.op_s(probe))

    def summary(self, probe):
        walls = [b - a for a, b in self.intervals]
        ops = self.op_s(probe)
        summary = {
            "ops": self.n,
            "failed": len(self.failures),
            "failures": self.failures[:5],
            "p50_ms": statistics.median(ops) * 1e3,
            "ops_per_s": self.ops_per_s(probe),
            "raw_p50_ms": statistics.median(walls) * 1e3,
            "raw_ops_per_s": self.n / sum(walls),
            "wall_s": sum(walls),
            "cpu_s": sum(self.cpus),
            "op_start_s": [round(a - T0, 5) for a, _ in self.intervals],
            "op_wall_s": [round(w, 7) for w in walls],
            "op_cpu_s": [round(c, 7) for c in self.cpus],
        }
        # The highest percentile with at least ten operations beyond it.
        if self.n >= 20:
            pct = min(99, int(100 * (1 - 10 / self.n)))
            cuts = statistics.quantiles(ops, n=100, method="inclusive")
            summary["tail"] = {"percentile": pct, "ms": cuts[pct - 1] * 1e3}
        return summary


def measure(workload, seconds, stack=None):
    """Repeat the operation while, at the mean pace so far, another one
    ends within ``seconds``; always at least once.  An operation longer
    than half of ``seconds`` thus runs exactly once."""
    phase = Phase()
    start = time.perf_counter()
    while not phase.n or (
            (time.perf_counter() - start) * (phase.n + 1) / phase.n
            <= seconds):
        c0 = time.process_time()
        w0 = time.perf_counter()
        try:
            if stack is None:
                outcome = workload.op()
            else:
                with stack.span("op"):
                    outcome = workload.op()
        except Exception as exc:  # a failed operation is counted, not fatal
            outcome, reason = None, f"raised {exc!r}"
        else:
            reason = None
        w1 = time.perf_counter()
        c1 = time.process_time()
        if reason is None:
            reason = workload.check(outcome)
        phase.intervals.append((w0, w1))
        phase.cpus.append(c1 - c0)
        if reason is not None:
            phase.failures.append(reason)
    return phase


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(args, probe):
    import_program()
    import layers
    import predictions
    from repro.obs import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(WORKLOADS)}")
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "why": predictions.WORKLOADS[args.workload],
              "loadavg_before": os.getloadavg()}
    workload = WORKLOADS[args.workload](args.seed, smoke=args.smoke)

    if args.trace:
        sink = layers.CountingSink()
        tracer = Tracer(clock=time.perf_counter, capacity=TRACE_CAPACITY,
                        sink=sink)
        stack = layers.SpanStack(tracer)
        imported = time.perf_counter()
        with layers.traced(stack), stack.span("setup"):
            workload.setup()
        setup_end = time.perf_counter()
        setup_spans = layers.spans_in(tracer.finished(), imported, setup_end)
    else:
        workload.setup()
        setup_end = time.perf_counter()
    record["raw_setup_s"] = setup_end - T0

    if not args.trace:
        phase = measure(workload, args.seconds)
        phases = [phase]
        metrics = {
            "setup_s": probe.scale(T0, setup_end),
            "op_p50_ms": phase.p50_ms(probe),
            "ops_per_s": phase.ops_per_s(probe),
            **workload.quality(),
            "peak_rss_mb": peak_rss_mb(),
        }
        units = {k: u for k, (u, _) in predictions.E2E.items()}
    else:
        untraced = measure(workload, args.seconds / 2)
        with layers.traced(stack):
            workload.trace(tracer)
            start = time.perf_counter()
            traced = measure(workload, args.seconds / 2, stack)
            end = time.perf_counter()
        phases = [untraced, traced]
        spans = layers.spans_in(tracer.finished(), start, end)
        metrics = layers.layer_report(spans, traced.n)
        setup = layers.layer_report(setup_spans, 1)
        for layer in layers.LAYERS:
            metrics[f"setup.{layer}_s"] = setup[f"{layer}.self_s"]
        metrics["setup.unattributed_s"] = setup["obs.unattributed_s"]
        metrics["obs.trace_overhead"] = (
            traced.p50_ms(probe) / untraced.p50_ms(probe) - 1)
        metrics["obs.spans_per_op"] = len(spans) / traced.n
        units = {k: u for k, (u, *_) in predictions.PER_LAYER.items()}
        dropped = sink.exported - len(tracer.finished())
        record["spans"] = {"exported": sink.exported, "dropped": dropped}
        if dropped:
            traced.failures.append(f"tracer ring dropped {dropped} spans")
        self_times = {layer: metrics[f"{layer}.self_s"]
                      for layer in layers.LAYERS}
        self_times["unattributed"] = metrics["obs.unattributed_s"]
        ranked = sorted(self_times, key=self_times.get, reverse=True)
        predicted = predictions.DOMINANT[args.workload]
        record["dominant"] = {
            "measured": ranked[:len(predicted)],
            "predicted": list(predicted),
            "match": set(ranked[:len(predicted)]) == set(predicted),
            "self_s_per_op": self_times,
        }
        record["predictions"] = {
            k: v[2] for k, v in predictions.PER_LAYER.items()}
    record["environment"] = environment()
    record["inputs_sha256"] = hashlib.sha256(
        json.dumps(workload.inputs(), sort_keys=True).encode()).hexdigest()
    record["phases"] = [p.summary(probe) for p in phases]
    record["quality"] = workload.quality()
    record["rows_per_s"] = phases[0].ops_per_s(probe) * workload.rows_per_op
    # Machine-speed samples, seconds since start -> probe milliseconds.
    n = len(probe.times)
    record["probe"] = {
        "at_s": [round(t - T0, 3) for t in probe.times[:n]],
        "ms": [round(s * 1e3, 4) for s in probe.seconds[:n]]}
    record["peak_rss_mb"] = peak_rss_mb()
    record["loadavg_after"] = os.getloadavg()

    missing = sorted(set(units) - set(metrics))
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    failed = sum(len(p.failures) for p in phases)
    result = {
        "correct": failed == 0,
        "attempted": sum(p.n for p in phases),
        "failed": failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]}
                    for k in units},
    }
    for p in record["phases"]:
        print(f"{args.workload}: {p['ops']} ops, p50 {p['p50_ms']:.4f} ms, "
              f"{p['ops_per_s']:.4f} ops/s, {p['failed']} failed")
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


def main(argv=None):
    args = parse_args(argv)
    probe = SpeedProbe().start()
    try:
        return run(args, probe)
    except SystemExit as exc:
        print(exc, file=sys.stderr)
        return 2
    finally:
        probe.stop()


if __name__ == "__main__":
    sys.exit(main())
