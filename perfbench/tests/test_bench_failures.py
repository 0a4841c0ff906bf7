"""Failure accounting, output checks and launch guards, with negative controls."""

import json
import shutil
import subprocess
import sys

import pytest

from conftest import BENCH, PINNED_ENV, ROOT, tiny

import workloads


def test_nan_pixel_counts_one_failed_train_step(train_fixture):
    w, fixture = train_fixture
    clean = workloads.run_workload(w, fixture, 3, seconds=0.3)
    assert clean["failed"] == 0 and clean["correct"]

    poisoned = workloads.run_workload(w, fixture, 3, seconds=0.3, poison_at={w.warmup + 1})
    phase = poisoned["phase"]
    assert poisoned["failed"] == 1
    assert poisoned["attempted"] == w.warmup + phase.attempted
    assert phase.attempted == len(phase.times) + 1
    assert poisoned["failed_frac"] == pytest.approx(1 / poisoned["attempted"])
    assert poisoned["failed_frac"] > 0
    assert not poisoned["correct"]
    assert "non-finite loss" in poisoned["errors"][0]


def test_nan_pixel_fails_the_infer_output_check(tmp_path):
    w = tiny("infer-224", input_size=64, synth_size=96, synth_count=10, warmup=1)
    fixture = workloads.make_fixture(w, 5, tmp_path)
    result = workloads.run_workload(w, fixture, 5, seconds=0.2, poison_at={2})
    assert result["failed"] == 1
    assert result["attempted"] == 1 + result["phase"].attempted
    assert "non-finite probabilities" in result["errors"][0]
    assert not result["correct"]


def test_loss_check_fails_when_the_loss_does_not_fall(train_fixture):
    w, fixture = train_fixture
    runner = workloads.setup(tiny("train-64", loss_must_fall=True), fixture, 3)
    runner.losses = [0.5, 0.5, 0.5, 0.5]
    checks = {name: ok for name, ok, _ in runner.finish()}
    assert checks == {"loss_falls": False, "checkpoint_roundtrip": True}


def test_worker_refuses_unpinned_blas(tmp_path):
    env = {**PINNED_ENV, "OPENBLAS_NUM_THREADS": "2"}
    proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), "--workload", "train-64",
                           "--seed", "0", "--seconds", "1", "--trace", "0",
                           "--fixture", str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 3
    assert "OPENBLAS_NUM_THREADS" in proc.stderr
    assert proc.stdout == ""


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, f"{BENCH.name}/run.py", "--workload", "train-64",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_every_declared_metric(trace, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", "train-64",
                           "--seed", "7", "--seconds", "2", "--trace", str(trace)],
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in spec[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    assert "environment  python" in proc.stdout and "nproc" in proc.stdout
