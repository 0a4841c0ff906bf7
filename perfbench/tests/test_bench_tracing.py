"""A traced run must measure the program without changing it."""

import sys

import numpy as np

import spans
import workloads
from osegnet.model import ModelConfig, OSegNetModel
from osegnet.tensor import Tensor


def _snapshot(model) -> dict:
    """Identity of every attribute a tracer may replace."""
    owners = {name: mod for name, mod in sys.modules.items()
              if name == "osegnet" or name.startswith("osegnet.")}
    snap = {name: dict(vars(mod)) for name, mod in owners.items()}
    for cls in (Tensor, OSegNetModel, sys.modules["osegnet.optim"].Adam):
        snap[cls.__qualname__] = dict(cls.__dict__)
    snap["model"] = dict(vars(model))
    return snap


def _same(before: dict, after: dict) -> list:
    changed = []
    for owner, attrs in before.items():
        for attr, value in attrs.items():
            if after[owner].get(attr) is not value:
                changed.append(f"{owner}.{attr}")
    return changed


def test_traced_run_is_bit_identical_and_consistent(train_fixture):
    w, fixture = train_fixture
    plain = workloads.setup(w, fixture, 3)
    workloads.run_phase(plain, iterations=8)

    traced = workloads.setup(w, fixture, 3)
    before = _snapshot(traced.model)
    tracer = spans.Tracer()
    phase = workloads.run_phase(traced, iterations=8, tracer=tracer)
    assert _same(before, _snapshot(traced.model)) == []

    # Same losses to the last bit: tracing changes no arithmetic.
    assert len(plain.losses) == 8
    assert traced.losses == plain.losses
    assert all(np.array_equal(a.data, b.data) for a, b in
               zip(plain.model.parameters(), traced.model.parameters()))

    # Every odd step was traced, and spans nest inside their parents.
    assert sorted(phase.traced_ns) == [1, 3, 5, 7]
    for name, start, end, parent, step in tracer.spans:
        assert start <= end
        if parent is not None:
            p = tracer.spans[parent]
            assert p[1] <= start and end <= p[2] and p[4] == step

    # The overlap-free per-layer figures of each traced iteration, built by
    # the same code that reports them, sum to no more than its wall time.
    assert workloads.layer_time_overruns(tracer, phase) == []
    totals = spans.step_totals(tracer.spans)
    for step in phase.traced_ns:
        assert workloads.iteration_ns(totals, (step,))["layers.final.bwd_ms"] > 0

    # Negative control: count one iteration's spans twice and the check fails.
    copies = {i: len(tracer.spans) + k for k, i in
              enumerate(i for i, span in enumerate(tracer.spans) if span[4] == 5)}
    doubled = spans.Tracer()
    doubled.spans = tracer.spans + [[name, start, end, copies.get(parent), step]
                                    for i, (name, start, end, parent, step)
                                    in enumerate(tracer.spans) if i in copies]
    assert [step for step, _, _ in workloads.layer_time_overruns(doubled, phase)] == [5]

    # The layers and ops the metrics are built from all reported spans.
    names = {s[0] for s in tracer.spans}
    for expected in ("layers.encoder.fwd", "layers.decoder.bwd", "layers.final.bwd",
                     "tensor.conv2d.bwd", "tensor.power_expand.fwd", "tensor.elementwise.bwd",
                     "tensor.activation.bwd", "tensor.backward", "optim.adam_step",
                     "model.save_checkpoint", "data.ingest"):
        assert expected in names
    metrics = workloads.layer_metrics(tracer, phase, workloads.HostReference())
    assert metrics["tensor.conv2d.calls"]["value"] == 6
    assert metrics["tensor.conv2d_transpose.calls"]["value"] == 5


def test_traced_setup_sees_the_cli_staging(train_fixture):
    w, fixture = train_fixture
    cli = sys.modules["osegnet.cli"]
    originals = {attr: getattr(cli, attr) for attr in
                 ("load_index", "load_pgm", "resize", "augment", "_ingest_batch")}
    tracer = spans.Tracer()
    with tracer.installed(spans.Tracer.SETUP):
        # The CLI's staging resolves these through osegnet.cli; all are wrapped.
        assert [a for a, fn in originals.items() if getattr(cli, a) is fn] == []
        workloads.setup(w, fixture, 3)
    calls = spans.step_totals(tracer.spans)[spans.Tracer.SETUP]["calls"]
    assert calls["data.load_index"] == 1
    assert calls["data.load_pgm"] >= 2 * 20  # every image and mask at least once


def test_uninstall_restores_attributes_after_a_failing_call():
    model = OSegNetModel(ModelConfig(q_order=2, input_size=32, encoder_channels=(2,) * 5),
                         np.random.default_rng(0))
    before = _snapshot(model)
    tracer = spans.Tracer()
    try:
        with tracer.installed(0, model):
            model.forward(Tensor(np.zeros((1, 1, 16, 16), dtype=np.float32)))
    except ValueError:
        pass
    assert _same(before, _snapshot(model)) == []
    assert tracer.spans and all(s[2] >= s[1] for s in tracer.spans)


def test_final_layer_im2col_is_165_4_mib_on_train_224():
    w = workloads.WORKLOADS["train-224"]
    model = OSegNetModel(workloads.model_config(w), np.random.default_rng(0))
    x = Tensor(np.zeros((w.batch_size, 1, w.input_size, w.input_size), dtype=np.float32))
    tracer = spans.Tracer()
    with tracer.installed(0, model):
        model.forward(x, training=True)
    final = [nbytes for _, op, layer, nbytes in tracer.buffers
             if op == "tensor.conv2d" and layer == "layers.final"]
    # 8 channels x Q=3 x 9 taps x 224^2 pixels x batch 4 x 4 bytes.
    assert final == [8 * 3 * 9 * 224 * 224 * 4 * 4]
    assert round(final[0] / spans.MIB, 1) == 165.4
