"""Model tests: config validation, forward contract, parameter accounting,
checkpoint format round-trips and corruption diagnostics."""

import hashlib
import struct
import tracemalloc

import numpy as np
import pytest

from osegnet import model as model_mod
from osegnet.losses import hybrid_loss
from osegnet.model import (CANONICAL_DECODER, CANONICAL_ENCODER, KERNEL_SIZE, CheckpointError,
                           ModelConfig, OSegNetModel, build_model, count_params,
                           load_checkpoint, save_checkpoint)
from osegnet.optim import Adam
from osegnet.tensor import ShapeError, Tensor, no_graph

TINY = dict(q_order=2, input_size=16, encoder_channels=(2, 3), decoder_filters=(3, 2))


def tiny_model(seed=0, **overrides):
    cfg = ModelConfig(**{**TINY, **overrides})
    return build_model(cfg, np.random.default_rng(seed)), cfg


def closed_form_counts(cfg):
    """Independent parameter count: conv, transpose, final, plus 2 bn tensors
    per block; buffers are the 2 running stats per bn."""
    k2 = KERNEL_SIZE ** 2
    q = cfg.q_order
    trainable = 0
    buffers = 0
    prev = 1
    for ch in cfg.encoder_channels:
        trainable += k2 * prev * ch + ch + 2 * ch
        buffers += 2 * ch
        prev = ch
    for f in cfg.decoder_filters:
        trainable += k2 * (prev * q) * f + f + 2 * f
        buffers += 2 * f
        prev = f
    trainable += k2 * (prev * q) * 1 + 1
    return trainable, buffers


class TestModelConfig:
    def test_defaults_are_canonical(self):
        cfg = ModelConfig()
        assert cfg.encoder_channels == CANONICAL_ENCODER
        assert cfg.decoder_filters == CANONICAL_DECODER
        assert cfg.depth == 5 and cfg.q_order == 3 and cfg.input_size == 224

    def test_q_order_bounds(self):
        for bad in (0, 6, -1, 2.5, "3"):
            with pytest.raises(ValueError):
                ModelConfig(q_order=bad, input_size=224)

    def test_input_size_divisibility_diagnostic(self):
        with pytest.raises(ValueError, match="divisible by 32"):
            ModelConfig(input_size=100)
        with pytest.raises(ValueError, match="divisible by 4"):
            ModelConfig(input_size=30, encoder_channels=(2, 3), decoder_filters=(3, 2))

    def test_shallow_encoder_requires_explicit_decoder(self):
        with pytest.raises(ValueError, match="decoder_filters"):
            ModelConfig(input_size=16, encoder_channels=(2, 3))

    def test_decoder_length_must_match_depth(self):
        with pytest.raises(ValueError, match="length"):
            ModelConfig(input_size=16, encoder_channels=(2, 3), decoder_filters=(3,))


class TestForward:
    def test_output_shape_and_range(self):
        model, _ = tiny_model()
        x = Tensor(np.random.default_rng(1).uniform(0, 1, (3, 1, 16, 16)).astype(np.float32))
        out = model(x)
        assert out.shape == (3, 1, 16, 16)
        assert np.all(out.data > 0.0) and np.all(out.data < 1.0)

    def test_final_layer_has_one_output_channel(self):
        for q in (1, 3):
            model, cfg = tiny_model(q_order=q)
            assert model.final.kernel.shape == (1, cfg.decoder_filters[-1] * q, 3, 3)
            x = Tensor(np.random.default_rng(q).uniform(0, 1, (2, 1, 16, 16)).astype(np.float32))
            assert model(x).shape == (2, 1, 16, 16)

    def test_canonical_architecture_runs_at_reduced_size(self):
        cfg = ModelConfig(q_order=2, input_size=32)
        model = build_model(cfg, np.random.default_rng(0))
        x = Tensor(np.random.default_rng(2).uniform(0, 1, (1, 1, 32, 32)).astype(np.float32))
        assert model(x).shape == (1, 1, 32, 32)

    def test_encoder_halves_each_stage(self):
        model, _ = tiny_model()
        h = Tensor(np.random.default_rng(3).uniform(0, 1, (1, 1, 16, 16)).astype(np.float32))
        sizes = []
        for conv, bn in model.encoder:
            h = bn(conv(h))
            sizes.append(h.shape[2])
        assert sizes == [8, 4]

    def test_wrong_spatial_size_diagnostic(self):
        model, _ = tiny_model()
        x = Tensor(np.zeros((1, 1, 8, 8), np.float32))
        with pytest.raises(ShapeError, match="16x16"):
            model(x)

    def test_wrong_rank_or_channels_rejected(self):
        model, _ = tiny_model()
        with pytest.raises(ShapeError):
            model(Tensor(np.zeros((1, 2, 16, 16), np.float32)))
        with pytest.raises(ShapeError):
            model(Tensor(np.zeros((16, 16), np.float32)))

    def test_batch_order_independence(self):
        model, _ = tiny_model()
        x = np.random.default_rng(4).uniform(0, 1, (4, 1, 16, 16)).astype(np.float32)
        out = model(Tensor(x)).data
        perm = [2, 0, 3, 1]
        out_perm = model(Tensor(x[perm])).data
        assert np.abs(out_perm - out[perm]).max() < 1e-6

    def test_same_seed_builds_identical_models(self):
        a, _ = tiny_model(seed=5)
        b, _ = tiny_model(seed=5)
        for (na, ta), (nb, tb) in zip(a.named_parameters(), b.named_parameters()):
            assert na == nb and np.array_equal(ta.data, tb.data)

    def test_inference_repeatable_bitwise(self):
        model, _ = tiny_model(seed=6)
        x = Tensor(np.random.default_rng(7).uniform(0, 1, (2, 1, 16, 16)).astype(np.float32))
        assert np.array_equal(model(x).data, model(x).data)


class TestParameterAccounting:
    def test_tiny_model_frozen_counts(self):
        model, _ = tiny_model()
        assert count_params(model) == (409, 20)

    def test_closed_form_matches_all_orders(self):
        for q in range(1, 6):
            cfg = ModelConfig(q_order=q, input_size=32)
            model = build_model(cfg, np.random.default_rng(0))
            assert count_params(model) == closed_form_counts(cfg)

    def test_canonical_growth_per_order_is_constant(self):
        totals = []
        for q in range(1, 6):
            cfg = ModelConfig(q_order=q, input_size=32)
            totals.append(closed_form_counts(cfg)[0])
        diffs = {b - a for a, b in zip(totals, totals[1:])}
        assert diffs == {392904}

    def test_canonical_buffer_count(self):
        cfg = ModelConfig(input_size=32)
        model = build_model(cfg, np.random.default_rng(0))
        assert count_params(model)[1] == 1488

    def test_names_are_unique_and_ordered(self):
        model, _ = tiny_model()
        names = [n for n, _ in model.named_parameters()]
        assert len(names) == len(set(names))
        assert names[0] == "encoder.stage1.kernel"
        assert names[-1] == "decoder.final.bias"
        assert any(n.startswith("decoder.block1.") for n in names)

    def test_zero_grad_clears_all(self):
        model, _ = tiny_model()
        x = Tensor(np.random.default_rng(8).uniform(0, 1, (1, 1, 16, 16)).astype(np.float32))
        model(x, training=True).sum().backward()
        assert any(t.grad.any() for t in model.parameters())
        model.zero_grad()
        assert not any(t.grad.any() for t in model.parameters())


def write_raw_checkpoint(path, q_order, entries, version=1):
    """Independent writer used to probe the documented file format."""
    with open(path, "wb") as fh:
        fh.write(b"OSGN")
        fh.write(struct.pack("<III", version, q_order, len(entries)))
        for name, arr in entries:
            encoded = name.encode("ascii")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<B", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def write_oversized_record(path, dims):
    """A one-record checkpoint whose declared dims need more data than the file holds."""
    name = b"encoder.stage1.kernel"
    path.write_bytes(b"OSGN" + struct.pack("<IIIH", 1, 2, 1, len(name)) + name
                     + struct.pack(f"<B{len(dims)}I", len(dims), *dims) + bytes(16))


def model_entries(model):
    return ([(n, t.data) for n, t in model.named_parameters()]
            + [(n, a) for n, a in model.named_buffers()])


# sha256 of a fresh canonical 32 px model's checkpoint (seed 0). Parameter
# names, shapes, initial values and the order they are drawn in are all part
# of what a seeded run writes, so any change to them shows here.
GOLDEN_SHA256 = {
    1: "cf5861a27fa0b431a12479da9426becfbf101e088877d92f47cdb7b2d2edf42f",
    3: "196aa33c5e664bf5b2dbf0573580bbc18d52a56d7f425cb154ff5d2561743294",
}


class TestCheckpoint:
    @pytest.mark.parametrize("q", sorted(GOLDEN_SHA256))
    def test_fresh_model_checkpoint_golden_bytes(self, tmp_path, q):
        model = OSegNetModel(ModelConfig(q_order=q, input_size=32), np.random.default_rng(0))
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_SHA256[q]

    def test_roundtrip_preserves_forward_bitwise(self, tmp_path):
        model, cfg = tiny_model(seed=9)
        x = Tensor(np.random.default_rng(10).uniform(0, 1, (2, 1, 16, 16)).astype(np.float32))
        model(x, training=True).sum().backward()  # perturb running stats
        before = model(x).data.copy()
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path, cfg)
        assert np.array_equal(loaded(x).data, before)

    def test_loaded_model_trains_like_the_saved_one(self, tmp_path):
        # load_checkpoint builds its model without gradient buffers; a
        # training step must still give the saved model's bytes.
        model, cfg = tiny_model(seed=14)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path, cfg)
        x = Tensor(np.random.default_rng(15).uniform(0, 1, (2, 1, 16, 16)).astype(np.float32))
        for m in (model, loaded):
            opt = Adam(m.named_parameters(), lr=1e-3)
            m.zero_grad()
            m(x, training=True).sum().backward()
            opt.step()
        for (n, a), (_, b) in zip(model.named_parameters(), loaded.named_parameters()):
            assert a.data.tobytes() == b.data.tobytes(), n
            assert a.grad.tobytes() == b.grad.tobytes(), n

    def test_independent_writer_is_loadable(self, tmp_path):
        model, cfg = tiny_model(seed=11)
        path = tmp_path / "raw.ckpt"
        write_raw_checkpoint(path, cfg.q_order, model_entries(model))
        loaded = load_checkpoint(path, cfg)
        for (n, t), (_, s) in zip(model.named_parameters(), loaded.named_parameters()):
            assert np.array_equal(t.data, s.data), n

    def test_header_layout_frozen(self, tmp_path):
        model, cfg = tiny_model()
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        blob = path.read_bytes()
        assert blob[:4] == b"OSGN"
        version, q, count = struct.unpack_from("<III", blob, 4)
        assert (version, q, count) == (1, 2, len(model_entries(model)))

    def test_bad_magic_diagnostic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"XXXX" + b"\x00" * 12)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path, ModelConfig(**TINY))

    def test_unsupported_version(self, tmp_path):
        model, cfg = tiny_model()
        path = tmp_path / "v9.ckpt"
        write_raw_checkpoint(path, cfg.q_order, model_entries(model), version=9)
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path, cfg)

    def test_truncation_diagnostic(self, tmp_path):
        model, cfg = tiny_model()
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        blob = path.read_bytes()
        (tmp_path / "cut.ckpt").write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(tmp_path / "cut.ckpt", cfg)

    # 4 * prod(dims) is past int64's range in the first case and 14.4 GB in the
    # second; the file holds 16 data bytes.
    @pytest.mark.parametrize("dims", [(2**32 - 1, 2**32 - 1), (60000, 60000)])
    def test_declared_size_past_the_end_is_truncation(self, tmp_path, dims):
        path = tmp_path / "huge.ckpt"
        write_oversized_record(path, dims)
        with pytest.raises(CheckpointError, match="truncated checkpoint: .* declares .* 16 left"):
            load_checkpoint(path, ModelConfig(**TINY))

    def test_trailing_bytes_rejected(self, tmp_path):
        model, cfg = tiny_model()
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(CheckpointError, match="trailing"):
            load_checkpoint(path, cfg)

    def test_order_mismatch_names_offending_tensor(self, tmp_path):
        model, _ = tiny_model()  # q=2 weights on disk
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        with pytest.raises(CheckpointError, match=r"shape mismatch for decoder\.block1\.kernel"):
            load_checkpoint(path, ModelConfig(**{**TINY, "q_order": 3}))

    def test_header_q_order_must_match_the_config(self, tmp_path):
        # Q=2 tensors under a header that says Q=5: every shape matches the
        # Q=2 config, so only the header can tell.
        model, cfg = tiny_model()
        path = tmp_path / "q5.ckpt"
        write_raw_checkpoint(path, 5, model_entries(model))
        with pytest.raises(CheckpointError, match="q_order 5, config has 2"):
            load_checkpoint(path, cfg)

    def test_missing_tensor_diagnostic(self, tmp_path):
        model, cfg = tiny_model()
        entries = model_entries(model)
        path = tmp_path / "short.ckpt"
        write_raw_checkpoint(path, cfg.q_order, entries[:-1])
        with pytest.raises(CheckpointError, match="missing tensor"):
            load_checkpoint(path, cfg)

    def test_extra_tensor_diagnostic(self, tmp_path):
        model, cfg = tiny_model()
        entries = model_entries(model) + [("bogus.extra", np.zeros(3, np.float32))]
        path = tmp_path / "extra.ckpt"
        write_raw_checkpoint(path, cfg.q_order, entries)
        with pytest.raises(CheckpointError, match="unexpected tensor bogus.extra"):
            load_checkpoint(path, cfg)

    def test_duplicate_tensor_diagnostic(self, tmp_path):
        model, cfg = tiny_model()
        entries = model_entries(model)
        path = tmp_path / "dup.ckpt"
        write_raw_checkpoint(path, cfg.q_order, entries + [entries[0]])
        with pytest.raises(CheckpointError, match="duplicate"):
            load_checkpoint(path, cfg)

    def test_failed_save_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        path = tmp_path / "m.ckpt"
        save_checkpoint(tiny_model(seed=1)[0], path)
        before = path.read_bytes()
        entries = model_mod._checkpoint_entries
        # A non-ASCII name fails to encode after every real tensor is written.
        monkeypatch.setattr(model_mod, "_checkpoint_entries",
                            lambda m: entries(m) + [("b\u00e4d", np.zeros(3, np.float32))])
        with pytest.raises(UnicodeEncodeError):
            save_checkpoint(tiny_model(seed=2)[0], path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]

    def test_buffers_roundtrip(self, tmp_path):
        model, cfg = tiny_model(seed=12)
        x = Tensor(np.random.default_rng(13).uniform(0, 1, (2, 1, 16, 16)).astype(np.float32))
        model(x, training=True)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path, cfg)
        for (n, a), (_, b) in zip(model.named_buffers(), loaded.named_buffers()):
            assert np.array_equal(a, b), n


def graph_nodes(node):
    """Nodes reachable from node through parents, node included."""
    seen = {id(node)}
    stack = [node]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def canonical_32(q=3):
    return OSegNetModel(ModelConfig(q_order=q, input_size=32), np.random.default_rng(0))


def set_running_stats(model, rng):
    for name, arr in model.named_buffers():
        if name.endswith("running_mean"):
            arr[...] = rng.uniform(-0.3, 0.3, arr.shape)
        else:
            arr[...] = rng.uniform(0.2, 2.0, arr.shape)


def training_grads(model, x):
    """Bytes of every parameter gradient after one training step's backward."""
    out = model(x, training=True)
    nodes = graph_nodes(out)
    model.zero_grad()
    out.sum().backward()
    return nodes, [t.grad.tobytes() for t in model.parameters()]


# sha256 of a fresh canonical 32 px model's inference output (seed 0, running
# statistics and a batch of two from default_rng(23)). Inference records no
# graph but computes the same arithmetic, so these match the graph-building
# forward bit for bit.
INFERENCE_SHA256 = {
    1: "b76a88db061f1cc77edd2b78584917de10719e086a39dac11a0adf876cf9c330",
    3: "79fe2a033f2267719b2d9a7c7a4849e95d3ccfda3fbce0a60b500f29e54ecf1c",
}


def final_layer_f64(layer, h):
    """The final layer and sigmoid in float64, without the engine: the powers
    of h, same zero padding (odd k, stride 1) and a sliding-window
    correlation. Also returns each output's sum of |terms| of the sum."""
    n, c, size, _ = h.shape
    q, kernel = layer.q_order, layer.kernel.data.astype(np.float64)
    k = kernel.shape[2]
    h64 = h.astype(np.float64)
    pows = np.stack([h64 ** (p + 1) for p in range(q)], axis=2).reshape(n, c * q, size, size)
    padded = np.pad(pows, ((0, 0), (0, 0), (k // 2, k // 2), (k // 2, k // 2)))
    windows = np.lib.stride_tricks.sliding_window_view(padded, (k, k), axis=(2, 3))
    z = np.einsum("nchwij,ocij->nohw", windows, kernel) + layer.bias.data
    terms = np.einsum("nchwij,ocij->nohw", np.abs(windows), np.abs(kernel)) + np.abs(layer.bias.data)
    return 1.0 / (1.0 + np.exp(-z)), terms


class TestInferenceMode:
    """forward(training=False) builds no autodiff graph."""

    @pytest.mark.parametrize("q", sorted(INFERENCE_SHA256))
    def test_inference_output_golden_bytes(self, monkeypatch, q):
        model = canonical_32(q)
        rng = np.random.default_rng(23)
        set_running_stats(model, rng)
        x = Tensor(rng.uniform(0, 1, (2, 1, 32, 32)).astype(np.float32))
        final, inputs = model.final, []
        monkeypatch.setattr(model, "final", lambda h: inputs.append(h.data) or final(h))
        out = model(x, training=False)
        assert hashlib.sha256(out.data.tobytes()).hexdigest() == INFERENCE_SHA256[q]
        # The pinned bytes are the final layer's output within the float32
        # forward-error bound of its float64 value: gamma_n * sum|terms| with
        # n = C*Q*k*k products, the bias and two roundings of the powers,
        # through the sigmoid's slope of at most 1/4, plus 4 eps32 for the
        # float32 sigmoid itself.
        exact, terms = final_layer_f64(final, inputs[0])
        n = final.kernel.data[0].size + 3
        u = np.finfo(np.float32).eps / 2
        bound = n * u / (1 - n * u) * terms / 4 + 8 * u
        assert np.all(np.abs(out.data - exact) <= bound)

    def test_output_has_no_graph_and_backward_raises(self):
        model = canonical_32()
        x = Tensor(np.random.default_rng(24).uniform(0, 1, (2, 1, 32, 32)).astype(np.float32))
        training_grads(model, x)  # non-zero gradients to watch
        before = [t.grad.tobytes() for t in model.parameters()]
        out = model(x, training=False)
        assert out._parents == () and out._backward_fn is None and out.grad is None
        assert graph_nodes(out) == 1
        with pytest.raises(RuntimeError, match="inference mode"):
            out.sum().backward()
        assert [t.grad.tobytes() for t in model.parameters()] == before

    def test_training_after_inference_builds_the_full_graph(self):
        x = Tensor(np.random.default_rng(25).uniform(0, 1, (2, 1, 32, 32)).astype(np.float32))
        fresh_nodes, fresh = training_grads(canonical_32(), x)
        model = canonical_32()
        model(x, training=False)
        nodes, grads = training_grads(model, x)
        assert nodes == fresh_nodes == 71
        assert grads == fresh

    def test_the_loss_adds_three_nodes_to_the_graph(self):
        # dice and focal are one node each on the prediction, and their sum a
        # third; the mask, made under no_graph() as the CLI makes it, is none.
        rng = np.random.default_rng(28)
        x = Tensor(rng.uniform(0, 1, (2, 1, 32, 32)).astype(np.float32))
        with no_graph():
            y = Tensor((rng.uniform(0, 1, (2, 1, 32, 32)) < 0.1).astype(np.float32))
        out = canonical_32()(x, training=True)
        assert graph_nodes(hybrid_loss(y, out)) == graph_nodes(out) + 3 == 74

    def test_training_after_a_failed_inference_builds_the_full_graph(self, monkeypatch):
        x = Tensor(np.random.default_rng(25).uniform(0, 1, (2, 1, 32, 32)).astype(np.float32))
        fresh_nodes, fresh = training_grads(canonical_32(), x)
        model = canonical_32()
        up, bn = model.decoder[2]

        def broken(h):
            raise FloatingPointError("decoder block 3 failed")

        monkeypatch.setattr(model, "decoder", [*model.decoder[:2], (broken, bn), *model.decoder[3:]])
        with pytest.raises(FloatingPointError, match="block 3"):
            model(x, training=False)
        monkeypatch.undo()
        assert model.decoder[2] == (up, bn)
        nodes, grads = training_grads(model, x)
        assert nodes == fresh_nodes == 71
        assert grads == fresh

    def test_batch_made_under_no_graph_gets_no_gradient(self):
        # The CLI ingests its batch under no_graph(): a training step computes
        # no input gradient for it, and every parameter gradient keeps the
        # bytes a recording input gives.
        images = np.random.default_rng(27).uniform(0, 1, (2, 1, 32, 32)).astype(np.float32)
        recording = Tensor(images)
        _, want = training_grads(canonical_32(), recording)
        with no_graph():
            batch = Tensor(images)
        _, got = training_grads(canonical_32(), batch)
        assert batch.grad is None and recording.grad.any()
        assert got == want

    def test_inference_holds_no_buffers_after_the_call(self):
        # Training keeps every activation the backward reads alive through
        # the graph; the negative control shows the probe sees them.
        model = OSegNetModel(ModelConfig(q_order=3, input_size=224), np.random.default_rng(0))
        x = Tensor(np.random.default_rng(26).uniform(0, 1, (1, 1, 224, 224)).astype(np.float32))

        def live_after(training):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                out = model(x, training=training)
                return tracemalloc.get_traced_memory()[0] - base, out
            finally:
                tracemalloc.stop()

        held, out = live_after(False)
        assert held < 1 << 20, held
        del out
        held, out = live_after(True)
        assert held >= backward_reads(model.config, batch=1), held


def backward_reads(cfg, batch):
    """Bytes of the float32 arrays a training graph made from a batch holds
    for its backward: each batchnorm's input and output (its tanh's), each
    power stack, Q powers of a decoder block's or the final layer's input,
    and the final layer's output and its sigmoid."""
    size = cfg.input_size
    bn = [(c, size >> (i + 1)) for i, c in enumerate(cfg.encoder_channels)]
    bn += [(f, size >> (cfg.depth - j - 1)) for j, f in enumerate(cfg.decoder_filters)]
    stacks = bn[cfg.depth - 1:]  # the bottleneck, then each decoder block's output
    pixels = 2 * sum(c * s * s for c, s in bn) + cfg.q_order * sum(c * s * s for c, s in stacks)
    return 4 * batch * (pixels + 2 * size * size)
