"""Training-throughput measurement shared by the CLI and the benchmarks.

One function, two consumers: the ``bench-train`` CLI command and
``benchmarks/test_train_throughput.py`` both call :func:`train_benchmark`,
so the number the CI artifact records is the number the CLI prints.

Three regimes are measured:

* **cold** — from-scratch training on an MNIST-scale synthetic task (10
  classes, 1568 features, 512 clauses/class): the dense random
  initialization keeps clause selection probabilities high, so every
  backend pays for the full Type I random blocks;
* **steady** — that task continued from a converged model, the regime
  long runs and online learning spend nearly all their time in: the
  reference still rematerializes the include matrix per sample while the
  vectorized packed planes and output caches make most updates free;
* **early** — one epoch of a fresh machine shaped like the default
  ``matador run`` (784 features, 60 clauses/class, 300 samples), where
  nearly every feedback event flips include bits.

The steady window is deliberately long (``steady_epochs``): the
vectorized backend's per-(class, sample) output cache warms up over the
first visits, so short windows under-report the steady-state rate.

Both backends are timed over the same window and take the minimum of
``repeats`` fits (fresh machine each, cache fill included), their repeats
interleaved so a burst of machine load hits both sides.  Every timed fit
is verified bit-identical to the regime's first reference fit before any
rate is reported.
"""

from __future__ import annotations

import time

import numpy as np

from .machine import TsetlinMachine

__all__ = ["train_benchmark", "format_train_benchmark"]

N_CLASSES = 10
N_FEATURES = 1568
N_CLAUSES = 512
T = 16
S = 5.0
N_SAMPLES = 100
WARM_EPOCHS = 25
# The default flow config (mnist, T=20) over half its training samples.
EARLY = {"n_features": 784, "n_clauses": 60, "T": 20, "n_samples": 300}

BACKENDS = ("reference", "vectorized")


def synthetic_task(seed=1, noise=0.02, n_features=N_FEATURES,
                   n_samples=N_SAMPLES):
    """Class prototypes + bit-flip noise: learnable to 100% accuracy."""
    rng = np.random.default_rng(seed)
    protos = rng.random((N_CLASSES, n_features)) < 0.5
    y = rng.integers(0, N_CLASSES, n_samples)
    flip = rng.random((n_samples, n_features)) < noise
    X = (protos[y] ^ flip).astype(np.uint8)
    return X, y


def _machine(backend, seed=123, n_features=N_FEATURES, n_clauses=N_CLAUSES,
             T=T):
    return TsetlinMachine(
        N_CLASSES, n_features, n_clauses=n_clauses, T=T, s=S, seed=seed,
        backend=backend,
    )


def _timed_regime(regime, make, X, y, epochs, warm_state, repeats):
    """Min-of-``repeats`` seconds per backend, the backends interleaved.

    Raises if any fit's state differs from the first (reference) fit's;
    returns the best times and the last machine per backend.
    """
    best = dict.fromkeys(BACKENDS, float("inf"))
    trained, first = {}, None
    for _ in range(repeats):
        for backend in BACKENDS:
            tm = trained[backend] = make(backend)
            if warm_state is not None:
                tm.team.state[:] = warm_state
                tm.backend.sync()
            t0 = time.perf_counter()
            tm.fit(X, y, epochs=epochs, track_metrics=False)
            best[backend] = min(best[backend], time.perf_counter() - t0)
            if first is None:
                first = tm.team.state.copy()
            elif not np.array_equal(tm.team.state, first):
                raise RuntimeError(f"backends diverged in the {regime} regime")
    return best, trained


def train_benchmark(cold_epochs=3, steady_epochs=40, repeats=2, seed=1,
                    noise=0.02):
    """Measure vectorized-vs-reference training throughput per regime.

    Parameters
    ----------
    cold_epochs, steady_epochs:
        Epochs per timed fit in each regime (early is always one).  The
        steady window is long by default (see the module docstring).
    repeats:
        Timed repetitions per backend and regime (min-of, fresh machine
        each, the two backends interleaved).
    seed, noise:
        Synthetic-task generation parameters.

    Returns a JSON-ready dict with per-regime samples/sec per backend
    plus ``cold_speedup`` / ``steady_speedup`` / ``early_speedup``.
    Raises ``RuntimeError`` if the two backends' trained states ever
    diverge.

    >>> from repro.tsetlin.bench import train_benchmark  # doctest: +SKIP
    >>> payload = train_benchmark()  # doctest: +SKIP
    >>> payload["steady_speedup"] >= 40.0  # doctest: +SKIP
    True
    """
    X, y = synthetic_task(seed=seed, noise=noise)

    # Converge once (vectorized — backends are bit-identical, so the warm
    # state is backend-independent) to obtain the steady-state start.
    warm = _machine("vectorized", seed=7)
    warm.fit(X, y, epochs=WARM_EPOCHS, track_metrics=False)
    warm_state = warm.team.state.copy()
    if warm.evaluate(X, y) != 1.0:
        raise RuntimeError("benchmark task failed to converge")

    results = {"config": {
        "n_classes": N_CLASSES, "n_features": N_FEATURES,
        "n_clauses": N_CLAUSES, "T": T, "s": S, "n_samples": N_SAMPLES,
        "cold_epochs": int(cold_epochs),
        "steady_epochs": int(steady_epochs),
        "early_epochs": 1, "early": dict(EARLY),
        "repeats": int(repeats),
    }}
    X_early, y_early = synthetic_task(seed, noise, EARLY["n_features"],
                                      EARLY["n_samples"])

    def early_machine(backend):
        return _machine(backend, n_features=EARLY["n_features"],
                        n_clauses=EARLY["n_clauses"], T=EARLY["T"])

    for regime, make, Xr, yr, epochs, start in (
        ("cold", _machine, X, y, cold_epochs, None),
        ("steady", _machine, X, y, steady_epochs, warm_state),
        ("early", early_machine, X_early, y_early, 1, None),
    ):
        best, trained = _timed_regime(regime, make, Xr, yr, epochs, start,
                                      repeats)
        for backend in BACKENDS:
            rate = len(Xr) * epochs / best[backend]
            results[f"{regime}_{backend}_samples_per_sec"] = round(rate, 1)
        ref, vec = trained["reference"], trained["vectorized"]
        if not np.array_equal(ref.predict(Xr), vec.predict(Xr)):
            raise RuntimeError(f"predictions diverged in the {regime} regime")
        results[f"{regime}_speedup"] = round(
            results[f"{regime}_vectorized_samples_per_sec"]
            / results[f"{regime}_reference_samples_per_sec"], 2
        )
    return results


def format_train_benchmark(payload):
    """Plain-text summary of a :func:`train_benchmark` payload.

    >>> print(format_train_benchmark({
    ...     "config": {"cold_epochs": 3, "steady_epochs": 40,
    ...                "early_epochs": 1},
    ...     "cold_reference_samples_per_sec": 150.0,
    ...     "cold_vectorized_samples_per_sec": 460.0,
    ...     "cold_speedup": 3.1,
    ...     "steady_reference_samples_per_sec": 155.0,
    ...     "steady_vectorized_samples_per_sec": 7130.0,
    ...     "steady_speedup": 46.0,
    ...     "early_reference_samples_per_sec": 550.0,
    ...     "early_vectorized_samples_per_sec": 825.0,
    ...     "early_speedup": 1.5}))
    training benchmark (samples/sec)
      cold   (3 epochs): reference      150  vectorized      460  (3.1x)
      steady (40 epochs): reference      155  vectorized     7130  (46.0x)
      early  (1 epochs): reference      550  vectorized      825  (1.5x)
    """
    cfg = payload["config"]
    lines = ["training benchmark (samples/sec)"]
    for regime, label in (("cold", "cold  "), ("steady", "steady"),
                          ("early", "early ")):
        lines.append(
            f"  {label} ({cfg[f'{regime}_epochs']} epochs): "
            f"reference {payload[f'{regime}_reference_samples_per_sec']:>8.0f}"
            f"  vectorized "
            f"{payload[f'{regime}_vectorized_samples_per_sec']:>8.0f}"
            f"  ({payload[f'{regime}_speedup']:.1f}x)"
        )
    return "\n".join(lines)
