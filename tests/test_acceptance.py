"""Acceptance suite: the nine headline guarantees, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines.
Criteria 5 and 8 run the CLI (``python -m osegnet``) in subprocesses with BLAS
threads pinned to one, matching the determinism contract. The subprocesses get
the directory holding the package this suite imported at the front of
``PYTHONPATH``, so they run that same package from any working directory,
whether or not it is installed.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import osegnet
from osegnet.data import load_index, synth_generate
from osegnet.gradcheck import run_all
from osegnet.layers import OperLayer
from osegnet.losses import dice_loss, focal_loss, hybrid_loss
from osegnet.metrics import (ConfusionCounts, detect_sample, format_percent,
                             metrics_from_confusion, pixel_confusion)
from osegnet.model import KERNEL_SIZE, ModelConfig, build_model, count_params
from osegnet.tensor import Tensor, conv2d, conv2d_transpose

# The caller's PYTHONPATH may be relative (``PYTHONPATH=src``), which points
# nowhere from a subprocess's own working directory.
PACKAGE_PARENT = Path(osegnet.__file__).resolve().parents[1]
PINNED_ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1",
              "PYTHONPATH": os.pathsep.join(filter(None, [str(PACKAGE_PARENT),
                                                          os.environ.get("PYTHONPATH")]))}


def report(number: int, name: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {number} [{name}]: {verdict} ({detail})")
    assert ok, f"criterion {number} [{name}]: {detail}"


def cli(args, cwd) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "osegnet", *args], cwd=cwd,
                          env=PINNED_ENV, capture_output=True, text=True, timeout=580)


def csv_value(path: Path, column: str) -> float:
    header, row = path.read_text().strip().split("\n")
    return float(row.split(",")[header.split(",").index(column)])


def test_criterion_1_metric_arithmetic():
    started = time.monotonic()
    rows = [
        (dict(tp=2057, fp=40, tn=25556, fn=56),
         ("97.35", "99.84", "98.09", "97.72", "97.50", "99.65")),
        (dict(tp=2082, fp=113, tn=25483, fn=31),
         ("98.53", "99.56", "94.85", "96.66", "97.77", "99.48")),
    ]
    worst = 0.0
    ok = True
    for counts, expected in rows:
        r = metrics_from_confusion(ConfusionCounts(granularity="sample", **counts))
        values = (r.sensitivity, r.specificity, r.precision, r.f1, r.f2, r.accuracy)
        for v, e in zip(values, expected):
            gap = abs(v * 100 - float(e))
            worst = max(worst, gap)
            ok = ok and gap <= 0.005 and format_percent(v) == e
    elapsed = time.monotonic() - started
    ok = ok and elapsed < 1.0
    report(1, "metric arithmetic vs published rows", ok,
           f"worst gap {worst:.4f}pp, {elapsed:.2f}s")


def test_criterion_2_order_one_reduction():
    started = time.monotonic()
    rng = np.random.default_rng(0)
    worst = 0.0
    configs = 0
    for trial in range(50):
        cin = int(rng.integers(1, 5))
        cout = int(rng.integers(1, 5))
        size = int(rng.choice([4, 6, 8]))
        stride = int(rng.choice([1, 2]))
        x = Tensor(rng.uniform(-1, 1, (2, cin, size, size)).astype(np.float32))

        oper = OperLayer(np.random.default_rng(trial), cin, cout, 1, stride)
        oper.kernel.data[:] = rng.uniform(-1, 1, oper.kernel.shape).astype(np.float32)
        oper.bias.data[:] = rng.uniform(-0.5, 0.5, cout).astype(np.float32)
        plain = conv2d(x, oper.kernel, oper.bias, stride=stride)
        worst = max(worst, float(np.abs(oper(x).data - plain.data).max()))

        oper_t = OperLayer(np.random.default_rng(trial), cin, cout, 1, stride, transpose=True)
        oper_t.kernel.data[:] = rng.uniform(-1, 1, oper_t.kernel.shape).astype(np.float32)
        oper_t.bias.data[:] = rng.uniform(-0.5, 0.5, cout).astype(np.float32)
        plain_t = conv2d_transpose(x, oper_t.kernel, oper_t.bias, stride=stride)
        worst = max(worst, float(np.abs(oper_t(x).data - plain_t.data).max()))
        configs += 1
    elapsed = time.monotonic() - started
    ok = configs >= 50 and worst < 1e-6 and elapsed < 30.0
    report(2, "order-1 layers reduce to plain convolutions", ok,
           f"{configs} configs, max abs diff {worst:.2e}, {elapsed:.1f}s")


def test_criterion_3_gradient_suite():
    started = time.monotonic()
    results, passed = run_all(seed=0)
    elapsed = time.monotonic() - started
    worst = max(results, key=lambda r: r.max_rel / r.threshold)
    ok = passed and elapsed < 300.0
    report(3, "finite-difference gradient suite", ok,
           f"worst {worst.kind} at {worst.max_rel:.2e} vs {worst.threshold:.0e}, "
           f"{elapsed:.1f}s")
    for r in results:
        print("   " + r.line())


def test_criterion_4_parameter_affinity():
    started = time.monotonic()
    totals = {}
    for q in range(1, 6):
        model = build_model(ModelConfig(q_order=q, input_size=32), np.random.default_rng(0))
        totals[q] = count_params(model)[0]
    diffs = {totals[q] - totals[q - 1] for q in range(2, 6)}

    cfg = ModelConfig(input_size=32)
    k2 = KERNEL_SIZE ** 2
    chain = [cfg.encoder_channels[-1], *cfg.decoder_filters, 1]
    closed_form = sum(k2 * cin * cout for cin, cout in zip(chain, chain[1:]))

    elapsed = time.monotonic() - started
    ok = diffs == {closed_form} and elapsed < 1.0
    report(4, "parameter count affine in polynomial order", ok,
           f"increment {diffs} == closed form {closed_form}, {elapsed:.2f}s")


def test_criterion_5_toy_training_convergence(tmp_path):
    started = time.monotonic()
    data = tmp_path / "data"
    synth = cli(["synth", "--count", "250", "--size", "64", "--seed", "11",
                 "--out", str(data)], cwd=tmp_path)
    assert synth.returncode == 0, synth.stderr
    records = load_index(data / "index.tsv")
    n_train = sum(r.split == "train" for r in records)
    n_test = sum(r.split == "test" for r in records)

    run_dir = tmp_path / "run"
    train = cli(["train", "--index", str(data / "index.tsv"), "--q", "3",
                 "--input-size", "64", "--lr", "0.001", "--epochs", "30",
                 "--batch-size", "4", "--no-augment", "--seed", "0",
                 "--out", str(run_dir)], cwd=tmp_path)
    assert train.returncode == 0, train.stderr

    eval_dir = tmp_path / "eval"
    ev = cli(["eval", "--index", str(data / "index.tsv"), "--q", "3",
              "--input-size", "64", "--ckpt", str(run_dir / "checkpoint.ckpt"),
              "--out", str(eval_dir)], cwd=tmp_path)
    assert ev.returncode == 0, ev.stderr

    f1 = csv_value(eval_dir / "metrics_pixel.csv", "f1")
    detection_acc = csv_value(eval_dir / "metrics_sample.csv", "accuracy")
    elapsed = time.monotonic() - started
    ok = (n_train, n_test) == (200, 50) and f1 >= 0.90 and detection_acc >= 0.90 \
        and elapsed < 600.0
    report(5, "toy training convergence", ok,
           f"{n_train}/{n_test} split, held-out pixel F1 {f1:.4f}, "
           f"detection accuracy {detection_acc:.4f}, {elapsed:.0f}s")


def test_criterion_6_loss_properties():
    rng = np.random.default_rng(0)
    in_range = True
    for _ in range(200):
        n = int(rng.integers(1, 64))
        p = (rng.uniform(0, 1, n) > 0.5).astype(np.float32)
        q = rng.uniform(0, 1, n).astype(np.float32)
        v = dice_loss(Tensor(p), Tensor(q)).item()
        in_range = in_range and 0.0 <= v <= 1.0

    perfect = dice_loss(Tensor(np.array([1, 0, 1], np.float32)),
                        Tensor(np.array([1, 0, 1], np.float32))).item()

    f_pos = focal_loss(Tensor(np.array([1.0], np.float32)),
                       Tensor(np.array([0.9], np.float32))).item()
    f_neg = focal_loss(Tensor(np.array([0.0], np.float32)),
                       Tensor(np.array([0.9], np.float32))).item()

    p = Tensor((rng.uniform(0, 1, (2, 1, 4, 4)) > 0.5).astype(np.float32))
    q = Tensor(rng.uniform(0.05, 0.95, (2, 1, 4, 4)).astype(np.float32))
    hybrid = hybrid_loss(p, q).item()
    parts = np.float32(dice_loss(p, q).item()) + np.float32(focal_loss(p, q).item())
    bitwise = np.float32(hybrid) == np.float32(parts)

    ok = (in_range and perfect == 0.0
          and abs(f_pos - 2.634e-4) <= 1e-4 and abs(f_neg - 1.3988) <= 1e-4
          and bitwise)
    report(6, "loss properties and hand-derived values", ok,
           f"dice range ok={in_range}, perfect={perfect}, focal+={f_pos:.4e}, "
           f"focal-={f_neg:.5f}, hybrid bitwise={bitwise}")


def test_criterion_7_detection_rule():
    started = time.monotonic()
    zero_is_control = detect_sample(np.zeros((8, 8)), 0.5) is False
    spike = np.zeros((8, 8))
    spike[3, 5] = 0.51
    spike_detected = detect_sample(spike, 0.5) is True

    rng = np.random.default_rng(0)
    equivalent = True
    for _ in range(1000):
        pred = rng.uniform(0, 1, (6, 6)) ** rng.uniform(0.5, 8.0)
        gt = (rng.uniform(0, 1, (6, 6)) > rng.uniform(0.2, 0.8)).astype(np.float32)
        c = pixel_confusion(pred, gt, 0.5)
        equivalent = equivalent and detect_sample(pred, 0.5) == (c.tp + c.fp > 0)
    elapsed = time.monotonic() - started
    ok = zero_is_control and spike_detected and equivalent and elapsed < 10.0
    report(7, "detection decision rule", ok,
           f"zero->control {zero_is_control}, spike->detected {spike_detected}, "
           f"1000-mask equivalence {equivalent}, {elapsed:.1f}s")


def run_pipeline(base: Path) -> None:
    """synth -> train -> eval -> predict with relative paths from base."""
    base.mkdir(parents=True, exist_ok=True)
    steps = [
        ["synth", "--count", "30", "--size", "32", "--seed", "5", "--out", "ds"],
        ["train", "--index", "ds/index.tsv", "--q", "2", "--input-size", "32",
         "--epochs", "2", "--batch-size", "4", "--lr", "0.001", "--seed", "3",
         "--out", "run"],
        ["eval", "--index", "ds/index.tsv", "--q", "2", "--input-size", "32",
         "--ckpt", "run/checkpoint.ckpt", "--out", "ev"],
        ["predict", "--q", "2", "--input-size", "32", "--ckpt", "run/checkpoint.ckpt",
         "--image", "ds/images/s00004.pgm", "--binary", "--out", "pr"],
    ]
    for step in steps:
        proc = cli(step, cwd=base)
        assert proc.returncode == 0, (step[0], proc.stderr)


def test_criterion_8_determinism(tmp_path):
    started = time.monotonic()
    d1 = tmp_path / "d1"
    d2 = tmp_path / "d2"
    run_pipeline(d1)
    run_pipeline(d2)

    files1 = sorted(p.relative_to(d1) for p in d1.rglob("*") if p.is_file())
    files2 = sorted(p.relative_to(d2) for p in d2.rglob("*") if p.is_file())
    same_listing = files1 == files2

    mismatched = []
    for rel in files1:
        a = (d1 / rel).read_bytes()
        b = (d2 / rel).read_bytes()
        if rel.name == "train_log.csv":
            # identical up to wall-clock column
            strip = lambda blob: [",".join(line.split(",")[:3])
                                  for line in blob.decode().splitlines()]
            if strip(a) != strip(b):
                mismatched.append(str(rel))
        elif a != b:
            mismatched.append(str(rel))

    elapsed = time.monotonic() - started
    ok = same_listing and not mismatched
    report(8, "bit-identical pipelines for a fixed seed", ok,
           f"{len(files1)} files compared, mismatches {mismatched or 'none'}, "
           f"{elapsed:.0f}s")


def test_criterion_9_brute_force_oracle():
    started = time.monotonic()
    rng = np.random.default_rng(0)
    checked = 0
    agree = True
    for gt_bits in range(1 << 16):
        gt = ((gt_bits >> np.arange(16)) & 1).astype(np.float32).reshape(4, 4)
        pred = rng.uniform(0, 1, (4, 4))
        c = pixel_confusion(pred, gt, 0.5)
        hot = pred >= 0.5
        pos = gt == 1
        oracle = (int((hot & pos).sum()), int((hot & ~pos).sum()),
                  int((~hot & ~pos).sum()), int((~hot & pos).sum()))
        if (c.tp, c.fp, c.tn, c.fn) != oracle:
            agree = False
            break
        r = metrics_from_confusion(c)
        tp, fp, tn, fn = oracle
        direct = (
            tp / (tp + fn) if tp + fn else 0.0,
            tn / (tn + fp) if tn + fp else 0.0,
            tp / (tp + fp) if tp + fp else 0.0,
            (tp + tn) / 16,
        )
        if (r.sensitivity, r.specificity, r.precision, r.accuracy) != direct:
            agree = False
            break
        checked += 1
    elapsed = time.monotonic() - started
    ok = agree and checked == 1 << 16
    report(9, "exhaustive 4x4 confusion oracle", ok,
           f"{checked} ground truths x sampled predictions, exact agreement "
           f"{agree}, {elapsed:.0f}s")


# sha256 of one canonical Q=3 training step at 224 px (model seed 0; image
# and a 10% pixel mask from default_rng(batch), made as the CLI makes a
# batch), as two digests. The first covers the output, the loss and every
# parameter's name and gradient but the kernels', in registration order; the
# second each kernel's name and gradient. A kernel gradient below the split
# floor (here encoder block 1's) is one float32 GEMM over the batch's
# columns; at or above it (the other ten) the per-sample products are added
# in float32, in batch order. The rest of the step never sees either sum, so
# the first digest is also that of a float64 batch sum. Batch 4 and batch 8
# give the final layer and decoder block 5's transpose their training shapes
# at two batch sizes.
TRAIN_STEP_SHA256 = {
    4: ("43a27504a30c48a2ad94545f1d29df7c3b56728a17416c633f29eb79bdcdeace",
        "31b09d94c41513d2cde3244cbb48b04b3860a761f14c80c20436d163e75c02b2"),
    8: ("b5a1f7048872fc93ff11330aadea6ad9d644577843d6403373b6704f7c730358",
        "ddaaee1121947113c46d102d2ab4c7046cb51d35f96092e2c42a3d7b4c0cd2bd"),
}

TRAIN_STEP = """
import hashlib, sys
import numpy as np
import pytest
from osegnet.losses import hybrid_loss
from osegnet.model import ModelConfig, OSegNetModel
from osegnet.tensor import Tensor, no_graph

batch = int(sys.argv[1])
model = OSegNetModel(ModelConfig(q_order=3, input_size=224), np.random.default_rng(0))
rng = np.random.default_rng(batch)
with no_graph():
    x = Tensor(rng.uniform(0, 1, (batch, 1, 224, 224)).astype(np.float32))
    y = Tensor((rng.uniform(0, 1, (batch, 1, 224, 224)) < 0.1).astype(np.float32))
out = model.forward(x, training=True)
loss = hybrid_loss(y, out)
model.zero_grad()
loss.backward()
step = hashlib.sha256(out.data.tobytes() + loss.data.tobytes())
kernels = hashlib.sha256()
for name, t in model.named_parameters():
    (kernels if name.endswith(".kernel") else step).update(name.encode() + t.grad.tobytes())
print(step.hexdigest(), kernels.hexdigest())
"""


@pytest.fixture(scope="module", params=sorted(TRAIN_STEP_SHA256))
def train_step_digests(request, tmp_path_factory):
    """(batch, step digest, kernel digest) of TRAIN_STEP, from one child with
    BLAS pinned to one thread as criterion 8 runs the CLI."""
    batch = request.param
    proc = subprocess.run([sys.executable, "-c", TRAIN_STEP, str(batch)],
                          cwd=tmp_path_factory.mktemp("step"), env=PINNED_ENV,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return (batch, *proc.stdout.split())


def test_training_step_golden_bytes_at_224_px(train_step_digests):
    """One 224 px training step keeps the bits of its output, its loss and
    every gradient but the kernels'."""
    batch, step, _ = train_step_digests
    assert step == TRAIN_STEP_SHA256[batch][0]


def test_training_step_kernel_gradient_bytes_at_224_px(train_step_digests):
    """The same step keeps the bits of its kernel gradients: below the split
    floor one float32 GEMM over the batch, at or above it the float32 sum of
    the per-sample products in batch order. A float64 batch sum changes
    every one of the 11 kernels' bytes at both batch sizes."""
    batch, _, kernels = train_step_digests
    assert kernels == TRAIN_STEP_SHA256[batch][1]


# The traced peak of one canonical Q=3 batch-4 training step at 224 px: the
# forward, the loss and the backward, after the gradients are zeroed.
STEP_PEAK = """
import tracemalloc
import numpy as np
from osegnet.losses import hybrid_loss
from osegnet.model import ModelConfig, OSegNetModel
from osegnet.tensor import Tensor, no_graph

model = OSegNetModel(ModelConfig(q_order=3, input_size=224), np.random.default_rng(0))
rng = np.random.default_rng(4)
with no_graph():
    x = Tensor(rng.uniform(0, 1, (4, 1, 224, 224)).astype(np.float32))
    y = Tensor((rng.uniform(0, 1, (4, 1, 224, 224)) < 0.1).astype(np.float32))
model.zero_grad()
tracemalloc.start()
hybrid_loss(y, model.forward(x, training=True)).backward()
print(tracemalloc.get_traced_memory()[1])
"""


@pytest.fixture(scope="module")
def step_peak_mib(tmp_path_factory):
    """STEP_PEAK's reading in MiB, from one child with BLAS pinned to one thread."""
    proc = subprocess.run([sys.executable, "-c", STEP_PEAK], cwd=tmp_path_factory.mktemp("peak"),
                          env=PINNED_ENV, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout) / 2**20


def test_training_step_peak_at_224_px(step_peak_mib):
    """One 224 px batch-4 training step allocates at most 145 MiB at its
    peak. The step holds no batchnorm xhat and no im2col columns from the
    forward to the backward; holding them (32 MiB more) breaks the bound."""
    assert step_peak_mib <= 145, f"{step_peak_mib:.1f} MiB"


def test_training_step_peak_holds_no_batchnorm_output(step_peak_mib):
    """The same step peaks at 125 MiB at most: its graph holds each
    batchnorm's tanh output but not the batchnorm output under it, which a
    separate tanh node would keep alive (17.8 MiB at this shape)."""
    assert step_peak_mib <= 125, f"{step_peak_mib:.1f} MiB"


def test_training_step_peak_holds_no_loss_graph(step_peak_mib):
    """The same step peaks at 112 MiB at most: dice and focal are one node
    each, whose backward closures are dropped once walked, so nothing of
    the loss is alive through the final layer's backward. A loss subgraph
    of elementwise nodes would hold 12.3 MiB there, which breaks the bound."""
    assert step_peak_mib <= 112, f"{step_peak_mib:.1f} MiB"


def test_cli_subprocess_imports_the_tested_package(tmp_path):
    """Negative control for ``cli``: a child started like it, from a working
    directory outside the repo, must import the very package this suite tests,
    not fail to find it or pick up another installed copy."""
    proc = subprocess.run([sys.executable, "-c", "import osegnet; print(osegnet.__file__)"],
                          cwd=tmp_path, env=PINNED_ENV, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert Path(proc.stdout.strip()).resolve() == Path(osegnet.__file__).resolve()
