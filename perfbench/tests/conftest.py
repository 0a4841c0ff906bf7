"""Shared helpers for the benchmark's own tests.

The benchmark modules and osegnet are imported by absolute path, so the
tests run the same from any working directory and under any PYTHONPATH.
"""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SRC = ROOT / "src"
for entry in (str(SRC), str(BENCH)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import environment  # noqa: E402
import workloads  # noqa: E402

PINNED_ENV = {**os.environ, **environment.PINNED, "PYTHONPATH": str(SRC)}


def tiny(name: str, **changes) -> workloads.Workload:
    """A registered workload shrunk to a few samples (and optionally resized)."""
    return dataclasses.replace(workloads.WORKLOADS[name], **changes)


def pinned_python(code: str, cwd) -> dict:
    """Run ``code`` in a fresh BLAS-pinned interpreter; it prints one JSON line."""
    prelude = f"import sys; sys.path[:0] = [{str(SRC)!r}, {str(BENCH)!r}]\n"
    proc = subprocess.run([sys.executable, "-c", prelude + code], cwd=cwd, env=PINNED_ENV,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def osegnet_cli(args, cwd) -> subprocess.CompletedProcess:
    proc = subprocess.run([sys.executable, "-m", "osegnet", *map(str, args)], cwd=cwd,
                          env=PINNED_ENV, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc


@pytest.fixture
def train_fixture(tmp_path):
    """A 20-sample 64 px set (16 train images, four steps an epoch)."""
    w = tiny("train-64", synth_count=20, warmup=2, loss_must_fall=False)
    return w, workloads.make_fixture(w, 3, tmp_path / "work")
