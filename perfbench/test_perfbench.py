"""Self-tests of the benchmark: seeded inputs, metric names, failing checks."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_program()

import layers  # noqa: E402
import predictions  # noqa: E402
from workloads import WORKLOADS, ServeOnline  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path("perfbench") / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_are_a_pure_function_of_the_seed(name):
    cls = WORKLOADS[name]
    assert cls(5).inputs() == cls(5).inputs()
    assert cls(5).inputs() != cls(6).inputs()


def test_spec_matches_the_prediction_table():
    assert [w["name"] for w in SPEC["workloads"]] == [
        w for w in predictions.WORKLOADS if w not in predictions.UNGATED]
    assert {m["name"]: (m["unit"], m["better"])
            for m in SPEC["end_to_end"]} == predictions.E2E
    assert {m["name"]: (m["unit"], m["better"])
            for m in SPEC["per_layer"]} == {
        k: v[:2] for k, v in predictions.PER_LAYER.items()}
    e2e = set(predictions.E2E)
    for name, (_, _, moves, _) in predictions.PER_LAYER.items():
        for metric, workload in moves:
            assert metric in e2e and workload in predictions.WORKLOADS, name


@pytest.mark.parametrize("workload,trace", [
    ("serve-online", 0), ("serve-online", 1), ("flow-mnist", 1)])
def test_smoke_run_emits_every_named_metric(workload, trace):
    done = _run("--workload", workload, "--seed", "3", "--seconds", "0.5",
                "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    named = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in named}


def test_wrong_reference_prediction_fails_the_operation():
    workload = ServeOnline(3, smoke=True)
    workload.setup()
    assert not run.measure(workload, 0.2).failures
    workload.reference = workload.reference + 1
    phase = run.measure(workload, 0.2)
    assert phase.n >= 1 and len(phase.failures) == phase.n
    assert "differ from TMModel.predict" in phase.failures[0]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("--workload", "serve-online", "--seed", "1", "--seconds",
                "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_self_time_subtracts_nested_spans():
    def span(name, start, end):
        return {"name": name, "start_s": start, "end_s": end,
                "duration_s": end - start, "attrs": {},
                "span_id": name, "parent_id": None}

    records = [span("op", 0.0, 10.0), span("flow.verify", 1.0, 9.0),
               span("rtl.emit", 2.0, 3.0), span("simulator.equiv", 4.0, 8.0)]
    report = layers.layer_report(records, n_ops=2)
    assert report["flow.self_s"] == pytest.approx(1.5)
    assert report["rtl.self_s"] == pytest.approx(0.5)
    assert report["simulator.self_s"] == pytest.approx(2.0)
    assert report["obs.unattributed_s"] == pytest.approx(1.0)
    assert report["flow.verify_s"] == pytest.approx(4.0)
