"""Training-throughput benchmark: samples/sec per backend.

Thin pytest wrapper around :func:`repro.tsetlin.bench.train_benchmark`
(shared with the ``bench-train`` CLI command — see that module for the
regime definitions and the interleaved min-of-N estimator).  Records a
perf trajectory for the training engine — cold, steady and the early
regime a default ``matador run`` pays — so future PRs can see
regressions, and gates the packed-word feedback path: the steady-state
regime must hold a >=40x vectorized-vs-reference speedup.

Every measured run is verified bit-identical across backends inside
``train_benchmark`` itself — a divergence raises before any rate is
recorded.
"""

from __future__ import annotations

from _harness import save_results
from repro.tsetlin.bench import train_benchmark

MIN_STEADY_SPEEDUP = 40.0


def test_train_throughput_per_backend():
    results = train_benchmark()
    save_results("train_throughput.json", results)

    assert results["cold_speedup"] > 1.0, results
    assert results["steady_speedup"] >= MIN_STEADY_SPEEDUP, results
