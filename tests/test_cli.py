"""CLI tests: argument plumbing, exit codes, artifacts of every subcommand."""

import struct
import weakref

import numpy as np
import pytest

from osegnet import cli
from osegnet.cli import RunConfig, main, read_config_file, resolve_config
from osegnet.data import load_pgm, save_pgm, synth_generate
from osegnet.model import ModelConfig, OSegNetModel, build_model, load_checkpoint
from osegnet.tensor import Tensor

SMALL = ["--encoder-channels", "4,4,4,4,4", "--input-size", "32", "--q", "1"]


@pytest.fixture()
def dataset(tmp_path):
    root = tmp_path / "ds"
    synth_generate(10, 32, seed=3, out_dir=root)
    return root / "index.tsv"


def run_cli(*argv):
    return main([str(a) for a in argv])


def flag(key):
    return "--q" if key == "q_order" else "--" + key.replace("_", "-")


class TestConfigFile:
    def test_parses_types_and_comments(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# run settings\n"
            "lr = 0.01  # fast\n"
            "epochs = 7\n"
            "augment = off\n"
            "encoder_channels = 4, 8, 16\n"
            "data_index = some/index.tsv\n",
            encoding="utf-8")
        values = read_config_file(cfg)
        assert values == {"lr": 0.01, "epochs": 7, "augment": False,
                          "encoder_channels": (4, 8, 16), "data_index": "some/index.tsv"}

    def test_unknown_key_rejected_with_line(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("learning_rate = 0.1\n", encoding="utf-8")
        with pytest.raises(ValueError, match=":1:"):
            read_config_file(cfg)

    def test_missing_equals_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("lr 0.1\n", encoding="utf-8")
        with pytest.raises(ValueError, match="key = value"):
            read_config_file(cfg)

    def test_bad_boolean_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("augment = maybe\n", encoding="utf-8")
        with pytest.raises(ValueError, match="boolean"):
            read_config_file(cfg)

    def test_flag_overrides_file_overrides_default(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("lr = 0.01\nepochs = 9\n", encoding="utf-8")

        class Args:
            config = str(cfg)
            lr = 0.5
        resolved = resolve_config(Args())
        assert resolved.lr == 0.5       # flag wins
        assert resolved.epochs == 9     # file beats default
        assert resolved.batch_size == RunConfig().batch_size  # default survives


class TestRunValues:
    """A bad resolved value is a usage error naming its key, raised before a
    command reads its data or writes any output."""

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("key,value", [("batch_size", 0), ("batch_size", -2), ("epochs", -1),
                                           ("threshold", 1.5), ("threshold", 0.0), ("lr", -1),
                                           ("lr", "nan"), ("lr", "inf"), ("gamma", -1),
                                           ("gamma", "nan"), ("gamma", "inf"), ("alpha", 1.5),
                                           ("seed", -1)])
    def test_train_rejects_before_writing(self, dataset, tmp_path, capsys, key, value, source):
        if source == "flag":
            given = (flag(key), value)
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"{key} = {value}\n", encoding="utf-8")
            given = ("--config", cfg)
        short = () if key == "epochs" else ("--epochs", 1)  # in case the value is let through
        out = tmp_path / "run"
        assert run_cli("train", *SMALL, "--index", dataset, *short, *given, "--out", out) == 2
        assert capsys.readouterr().err.startswith(f"usage error: {key} must")
        assert not out.exists()  # no run.log, config.txt or checkpoint

    @pytest.mark.parametrize("command,key,value", [("eval", "batch_size", 0),
                                                   ("eval", "threshold", 1.0),
                                                   ("predict", "threshold", 1.5),
                                                   ("eval", "q_order", 9),
                                                   ("predict", "q_order", 9),
                                                   ("eval", "input_size", 48),
                                                   ("eval --predictor oracle", "q_order", 0)])
    def test_eval_and_predict_reject_before_reading(self, dataset, tmp_path, capsys, command,
                                                    key, value):
        # The checkpoint is missing: reading it would fail with exit 1.
        if command.startswith("eval"):
            source = ("--index", dataset)
        else:
            source = ("--image", dataset.parent / "images" / "s00004.pgm", "--binary")
        out = tmp_path / "out"
        assert run_cli(*command.split(), *SMALL, *source, "--ckpt", tmp_path / "none.ckpt",
                       flag(key), value, "--out", out) == 2
        assert capsys.readouterr().err.startswith(f"usage error: {key} must")
        assert not out.exists()


class TestSynthCommand:
    def test_writes_dataset_and_log(self, tmp_path, capsys):
        out = tmp_path / "ds"
        assert run_cli("synth", "--count", 5, "--size", 32, "--seed", 1, "--out", out) == 0
        assert (out / "index.tsv").is_file()
        assert len(list((out / "images").glob("*.pgm"))) == 5
        log = (out / "run.log").read_text()
        assert "command = synth" in log and "count = 5" in log
        assert str(out / "index.tsv") in capsys.readouterr().out

    def test_missing_out_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("synth", "--count", "5", "--size", "32")
        assert exc.value.code == 2

    def test_bad_size_is_usage_error(self, tmp_path):
        assert run_cli("synth", "--count", 5, "--size", 33, "--out", tmp_path / "x") == 2

    def test_negative_seed_is_usage_error_before_writing(self, tmp_path, capsys):
        out = tmp_path / "ds"
        assert run_cli("synth", "--count", 5, "--size", 32, "--seed", -1, "--out", out) == 2
        assert capsys.readouterr().err.startswith("usage error: seed must")
        assert not out.exists()  # no images/, masks/ or index


# config.txt of `train --index <index> --epochs 0` at every other default;
# run.log is the same settings between its header and the run's counts.
ZERO_EPOCH_CONFIG = """\
q_order = 3
input_size = 224
encoder_channels = 16,32,64,128,256
lr = 0.0001
epochs = 0
batch_size = 4
seed = 0
augment = True
gamma = 2.0
alpha = 0.25
threshold = 0.5
data_index = <index>
"""
ZERO_EPOCH_RUN_LOG = ("artifact version 0.1.0\ncommand = train\n" + ZERO_EPOCH_CONFIG + """\
train_samples = 8
trainable_params = 1572769
non_trainable_params = 1488
adam = beta1 0.9, beta2 0.999, eps 1e-07
""")


class TestTrainCommand:
    def test_zero_epoch_run_log_and_config_golden_bytes(self, dataset, tmp_path):
        out = tmp_path / "run"
        assert run_cli("train", "--index", dataset, "--epochs", 0, "--out", out) == 0
        for name, golden in (("config.txt", ZERO_EPOCH_CONFIG), ("run.log", ZERO_EPOCH_RUN_LOG)):
            assert (out / name).read_bytes() == golden.replace("<index>", str(dataset)).encode(), name

    def test_zero_epochs_writes_initial_checkpoint(self, dataset, tmp_path):
        out = tmp_path / "run"
        code = run_cli("train", *SMALL, "--index", dataset, "--epochs", 0,
                       "--seed", 7, "--out", out)
        assert code == 0
        cfg = ModelConfig(q_order=1, input_size=32, encoder_channels=(4, 4, 4, 4, 4))
        loaded = load_checkpoint(out / "checkpoint.ckpt", cfg)
        fresh = build_model(cfg, np.random.default_rng(7))
        for (name, a), (_, b) in zip(fresh.named_parameters(), loaded.named_parameters()):
            assert np.array_equal(a.data, b.data), name
        log = (out / "train_log.csv").read_text().splitlines()
        assert log == ["epoch,mean_loss,train_pixel_f1,elapsed_ms"]

    def test_loss_drops_over_short_run(self, dataset, tmp_path):
        out = tmp_path / "run"
        code = run_cli("train", *SMALL, "--index", dataset, "--epochs", 3,
                       "--lr", 0.003, "--no-augment", "--seed", 0, "--out", out)
        assert code == 0
        rows = (out / "train_log.csv").read_text().splitlines()[1:]
        assert len(rows) == 3
        losses = [float(r.split(",")[1]) for r in rows]
        assert losses[-1] < losses[0]
        log = (out / "run.log").read_text()
        assert "trainable_params" in log and "command = train" in log

    def test_augment_flag_recorded(self, dataset, tmp_path):
        out = tmp_path / "run"
        run_cli("train", *SMALL, "--index", dataset, "--epochs", 0,
                "--no-augment", "--out", out)
        assert "augment = False" in (out / "config.txt").read_text()

    def test_nonfinite_loss_aborts_keeping_checkpoint(self, dataset, tmp_path,
                                                      monkeypatch, capsys):
        def poisoned(*a, **k):
            return Tensor(np.array([np.nan], dtype=np.float32))

        monkeypatch.setattr("osegnet.cli.hybrid_loss", poisoned)
        out = tmp_path / "run"
        code = run_cli("train", *SMALL, "--index", dataset, "--epochs", 2, "--out", out)
        assert code == 1
        assert "aborting: non-finite loss at epoch 1" in capsys.readouterr().err
        assert (out / "checkpoint.ckpt").is_file()  # init checkpoint survives

    def test_one_sample_trailing_batch_at_1x1_fails_keeping_initial_checkpoint(
            self, tmp_path, capsys):
        # 6 samples leave 5 to train: batches of 4 and 1. At 32 px the 5-stage
        # encoder ends at 1x1, so the trailing batch gives batchnorm one value
        # per channel. A batch size of 5 is the control.
        synth_generate(6, 32, seed=2, out_dir=tmp_path / "ds")
        index = tmp_path / "ds" / "index.tsv"
        args = ("train", *SMALL, "--index", index, "--no-augment", "--seed", 4)
        assert run_cli(*args, "--epochs", 0, "--out", tmp_path / "init") == 0
        capsys.readouterr()
        out = tmp_path / "run"
        assert run_cli(*args, "--epochs", 1, "--batch-size", 4, "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: batchnorm:") and "(1, 4, 1, 1)" in err
        initial = (tmp_path / "init" / "checkpoint.ckpt").read_bytes()
        assert (out / "checkpoint.ckpt").read_bytes() == initial
        assert run_cli(*args, "--epochs", 1, "--batch-size", 5, "--out", tmp_path / "ok") == 0
        assert (tmp_path / "ok" / "checkpoint.ckpt").read_bytes() != initial

    def test_each_step_graph_is_freed_before_the_next_batch(self, dataset, tmp_path, monkeypatch):
        # One graph at a time: a step's output (and so its graph) is gone
        # when the next batch is ingested. Tensor has no __weakref__ slot, so
        # the weak references are to the outputs' arrays.
        outputs, alive_at_ingest = [], []
        forward, ingest = OSegNetModel.forward, cli._ingest_batch

        def forward_spy(model, x, training=False):
            out = forward(model, x, training=training)
            outputs.append(weakref.ref(out.data))
            return out

        def ingest_spy(pairs):
            alive_at_ingest.append([ref() is not None for ref in outputs])
            return ingest(pairs)

        monkeypatch.setattr(OSegNetModel, "forward", forward_spy)
        monkeypatch.setattr(cli, "_ingest_batch", ingest_spy)
        code = run_cli("train", *SMALL, "--index", dataset, "--epochs", 2, "--no-augment",
                       "--out", tmp_path / "run")
        assert code == 0 and len(outputs) >= 4
        assert alive_at_ingest == [[False] * step for step in range(len(outputs))]

    def test_train_log_reads_each_output_before_its_backward(self, dataset, tmp_path, monkeypatch):
        # A backward that releases the graph it walks leaves no interior
        # node's data to read afterwards. Here every walked interior node,
        # the sigmoid output among them, gets new data after the backward;
        # the train log and checkpoint must be those of an unpatched run.
        args = ("train", *SMALL, "--index", dataset, "--epochs", 1, "--no-augment", "--seed", 5)
        assert run_cli(*args, "--out", tmp_path / "plain") == 0
        backward = Tensor.backward

        def releasing_backward(self):
            interior, stack, seen = [], [self], set()
            while stack:
                node = stack.pop()
                if id(node) not in seen:
                    seen.add(id(node))
                    interior += [node] if node._parents and node is not self else []
                    stack.extend(node._parents)
            backward(self)
            for node in interior:
                node.data = np.ones_like(node.data)

        monkeypatch.setattr(Tensor, "backward", releasing_backward)
        assert run_cli(*args, "--out", tmp_path / "released") == 0

        def without_elapsed(run):
            text = (tmp_path / run / "train_log.csv").read_text()
            return [line.rsplit(",", 1)[0] for line in text.splitlines()]

        assert without_elapsed("released") == without_elapsed("plain")
        assert len(without_elapsed("plain")) == 2
        assert ((tmp_path / "released" / "checkpoint.ckpt").read_bytes()
                == (tmp_path / "plain" / "checkpoint.ckpt").read_bytes())

    def test_encoder_channels_need_five_widths(self, tmp_path, capsys):
        # Rejected as a usage error before the (missing) index is read.
        for widths in ("4,4,4", "4,4,4,4,4,4"):
            code = run_cli("train", "--encoder-channels", widths, "--input-size", 64,
                           "--index", tmp_path / "none.tsv", "--out", tmp_path / "run")
            assert code == 2
            assert "--encoder-channels / encoder_channels must list 5 stage widths" in \
                capsys.readouterr().err
        cfg = tmp_path / "run.cfg"
        cfg.write_text("encoder_channels = 4,4\n", encoding="utf-8")
        assert run_cli("train", "--config", cfg, "--index", tmp_path / "none.tsv",
                       "--out", tmp_path / "run") == 2
        assert "got 2" in capsys.readouterr().err

    def test_missing_index_fails_with_io_code(self, tmp_path):
        code = run_cli("train", *SMALL, "--index", tmp_path / "none.tsv",
                       "--epochs", 1, "--out", tmp_path / "run")
        assert code == 1

    def test_failed_read_leaves_no_out_dir(self, tmp_path):
        out = tmp_path / "tr"
        assert run_cli("train", "--index", tmp_path / "nope.tsv", "--out", out) == 1
        assert not out.exists()

    def test_config_file_drives_training(self, dataset, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"data_index = {dataset}\nepochs = 0\nq_order = 1\ninput_size = 32\n"
            "encoder_channels = 4,4,4,4,4\nseed = 5\n", encoding="utf-8")
        out = tmp_path / "run"
        assert run_cli("train", "--config", cfg, "--out", out) == 0
        assert "seed = 5" in (out / "run.log").read_text()


class TestEvalCommand:
    def test_oracle_predictor_is_perfect(self, dataset, tmp_path, capsys):
        out = tmp_path / "ev"
        code = run_cli("eval", *SMALL, "--index", dataset, "--predictor", "oracle",
                       "--out", out)
        assert code == 0
        pixel = (out / "metrics_pixel.csv").read_text().splitlines()[1].split(",")
        sample = (out / "metrics_sample.csv").read_text().splitlines()[1].split(",")
        assert pixel[0] == "pixel" and sample[0] == "sample"
        assert float(pixel[9]) == 1.0   # f1
        assert float(sample[8]) == 1.0  # accuracy
        assert pixel[11] == ""  # no pixel metric undefined
        # Both test samples have a lesion, so sample specificity is 0/0.
        assert (sample[2], sample[3], sample[11]) == ("0", "0", "specificity")
        stdout = capsys.readouterr().out
        assert "actual positive" in stdout
        assert "f1 = 100.00%" in stdout
        assert "pixel    undefined" not in stdout

    def test_zero_predictor_has_zero_sensitivity(self, dataset, tmp_path, capsys):
        out = tmp_path / "ev"
        code = run_cli("eval", *SMALL, "--index", dataset, "--predictor", "zero",
                       "--out", out)
        assert code == 0
        pixel = (out / "metrics_pixel.csv").read_text().splitlines()[1].split(",")
        assert float(pixel[5]) == 0.0  # sensitivity
        assert float(pixel[6]) == 1.0  # specificity
        assert float(pixel[7]) == 0.0  # precision, 0/0 ...
        assert pixel[11].split(";") == ["precision"]  # ... and flagged
        assert "pixel    undefined: precision\n" in capsys.readouterr().out

    def test_counts_injection_reproduces_published_row(self, tmp_path, capsys):
        out = tmp_path / "ev"
        code = run_cli("eval", "--counts", "2057,40,25556,56", "--out", out)
        assert code == 0
        stdout = capsys.readouterr().out
        assert "97.35 99.84 98.09 97.72 97.50 99.65" in stdout
        assert (out / "metrics_sample.csv").is_file()

    def test_bad_counts_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "ev"
        assert run_cli("eval", "--counts", "1,2,3", "--out", out) == 2
        assert "usage error" in capsys.readouterr().err
        assert not out.exists()

    def test_all_zero_counts_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "ev"
        assert run_cli("eval", "--counts", "0,0,0,0", "--out", out) == 2
        assert "all-zero" in capsys.readouterr().err
        assert not out.exists()

    def test_model_predictor_requires_ckpt(self, dataset, tmp_path, capsys, monkeypatch):
        out = tmp_path / "ev"
        monkeypatch.setattr(cli, "load_index", lambda *a: pytest.fail("read the index"))
        code = run_cli("eval", *SMALL, "--index", dataset, "--out", out)
        assert code == 2
        assert "--ckpt" in capsys.readouterr().err
        assert not out.exists()

    def test_failed_read_leaves_no_out_dir(self, tmp_path):
        out = tmp_path / "ev"
        assert run_cli("eval", "--predictor", "oracle", "--index", tmp_path / "nope.tsv",
                       "--out", out) == 1
        assert not out.exists()

    def test_model_predictor_end_to_end(self, dataset, tmp_path):
        run_dir = tmp_path / "run"
        run_cli("train", *SMALL, "--index", dataset, "--epochs", 0, "--out", run_dir)
        out = tmp_path / "ev"
        code = run_cli("eval", *SMALL, "--index", dataset, "--ckpt",
                       run_dir / "checkpoint.ckpt", "--out", out)
        assert code == 0
        assert (out / "metrics_pixel.csv").is_file()
        assert (out / "metrics_sample.csv").is_file()

    def test_model_eval_inputs_get_no_gradient_buffer(self, dataset, tmp_path, monkeypatch):
        run_dir = tmp_path / "run"
        run_cli("train", *SMALL, "--index", dataset, "--epochs", 0, "--out", run_dir)
        batches, ingest = [], cli._ingest_batch

        def spy(pairs):
            batches.append(ingest(pairs))
            return batches[-1]

        monkeypatch.setattr(cli, "_ingest_batch", spy)
        code = run_cli("eval", *SMALL, "--index", dataset, "--ckpt",
                       run_dir / "checkpoint.ckpt", "--out", tmp_path / "ev")
        assert code == 0 and batches
        assert all(x.grad is None and y.grad is None for x, y in batches)

    def test_encoder_channels_need_five_widths(self, tmp_path, capsys):
        # Rejected before the (missing) index or checkpoint is read.
        code = run_cli("eval", "--encoder-channels", "4,4,4,4", "--input-size", 32,
                       "--index", tmp_path / "none.tsv", "--ckpt", tmp_path / "none.ckpt",
                       "--out", tmp_path / "ev")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: --encoder-channels / encoder_channels") and "got 4" in err

    def test_checkpoint_record_past_the_end_is_a_runtime_error(self, dataset, tmp_path, capsys):
        # Its declared data, 4 * (2**32 - 1)**2 bytes, is past int64's range.
        name = b"encoder.stage1.kernel"
        ckpt = tmp_path / "huge.ckpt"
        ckpt.write_bytes(b"OSGN" + struct.pack("<IIIH", 1, 1, 1, len(name)) + name
                         + struct.pack("<BII", 2, 2**32 - 1, 2**32 - 1))
        code = run_cli("eval", *SMALL, "--index", dataset, "--ckpt", ckpt, "--out", tmp_path / "ev")
        assert code == 1
        assert capsys.readouterr().err.startswith("error: truncated checkpoint")

    def test_train_only_index_rejected(self, tmp_path):
        root = tmp_path / "ds"
        synth_generate(3, 32, seed=1, out_dir=root)  # 3 samples: all train
        with pytest.warns(UserWarning, match="empty test split"):
            code = run_cli("eval", *SMALL, "--index", root / "index.tsv",
                           "--predictor", "oracle", "--out", tmp_path / "ev")
        assert code == 1


class TestPredictCommand:
    @pytest.fixture()
    def trained(self, dataset, tmp_path):
        run_dir = tmp_path / "run"
        run_cli("train", *SMALL, "--index", dataset, "--epochs", 0, "--seed", 2,
                "--out", run_dir)
        return run_dir / "checkpoint.ckpt"

    def test_writes_probability_mask(self, dataset, trained, tmp_path, capsys):
        image = dataset.parent / "images" / "s00004.pgm"
        out = tmp_path / "pr"
        code = run_cli("predict", *SMALL, "--ckpt", trained, "--image", image,
                       "--out", out)
        assert code == 0
        mask = load_pgm(out / "s00004_mask.pgm")
        assert mask.shape == (32, 32)
        assert str(out / "s00004_mask.pgm") in capsys.readouterr().out

    def test_binary_flag_writes_thresholded_mask(self, dataset, trained, tmp_path):
        image = dataset.parent / "images" / "s00004.pgm"
        out = tmp_path / "pr"
        code = run_cli("predict", *SMALL, "--ckpt", trained, "--image", image,
                       "--binary", "--out", out)
        assert code == 0
        binary = load_pgm(out / "s00004_mask_bin.pgm")
        assert set(np.unique(binary)) <= {0, 255}

    def test_repeat_runs_byte_identical(self, dataset, trained, tmp_path):
        image = dataset.parent / "images" / "s00004.pgm"
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            run_cli("predict", *SMALL, "--ckpt", trained, "--image", image, "--out", out)
            blobs.append((out / "s00004_mask.pgm").read_bytes())
        assert blobs[0] == blobs[1]

    def test_input_gets_no_gradient_buffer(self, dataset, trained, tmp_path, monkeypatch):
        inputs, forward = [], OSegNetModel.forward

        def spy(model, x, training=False):
            inputs.append(x)
            return forward(model, x, training=training)

        monkeypatch.setattr(OSegNetModel, "forward", spy)
        image = dataset.parent / "images" / "s00004.pgm"
        code = run_cli("predict", *SMALL, "--ckpt", trained, "--image", image,
                       "--out", tmp_path / "pr")
        assert code == 0 and len(inputs) == 1
        assert inputs[0].shape == (1, 1, 32, 32) and inputs[0].grad is None

    def test_size_mismatch_suggests_resize(self, trained, tmp_path, capsys):
        big = tmp_path / "big.pgm"
        save_pgm(np.zeros((64, 64), np.uint8), big)
        code = run_cli("predict", *SMALL, "--ckpt", trained, "--image", big,
                       "--out", tmp_path / "pr")
        assert code == 1
        assert "resize the image" in capsys.readouterr().err

    def test_missing_checkpoint_fails(self, dataset, tmp_path):
        image = dataset.parent / "images" / "s00004.pgm"
        code = run_cli("predict", *SMALL, "--ckpt", tmp_path / "none.ckpt",
                       "--image", image, "--out", tmp_path / "pr")
        assert code == 1

    def test_failed_read_leaves_no_out_dir(self, tmp_path):
        out = tmp_path / "pr"
        assert run_cli("predict", "--ckpt", tmp_path / "nope.ckpt", "--image", tmp_path / "nope.pgm",
                       "--out", out) == 1
        assert not out.exists()

    def test_image_directory_is_an_io_error(self, dataset, trained, tmp_path, capsys):
        code = run_cli("predict", *SMALL, "--ckpt", trained,
                       "--image", dataset.parent / "images", "--out", tmp_path / "pr")
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err


class TestGradcheckCommand:
    def test_clean_run_passes(self, capsys):
        assert run_cli("gradcheck", "--seed", "0") == 0
        out = capsys.readouterr().out
        for kind in ("conv", "oper", "oper-transpose", "batchnorm", "dice", "focal"):
            assert f"\n{kind} " in "\n" + out or out.startswith(f"{kind} ")
        assert "e2e.oper" in out
        assert "all gradient checks passed" in out

    def test_corrupt_negative_control_fails_naming_kind(self, capsys):
        assert run_cli("gradcheck", "--corrupt", "dice") == 1
        captured = capsys.readouterr()
        assert "FAIL" in captured.out
        assert "dice" in captured.err

    def test_out_dir_gets_run_log(self, tmp_path):
        out = tmp_path / "gc"
        assert run_cli("gradcheck", "--out", out) == 0
        assert "command = gradcheck" in (out / "run.log").read_text()


class TestTopLevel:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("--version")
        assert exc.value.code == 0
        assert "osegnet" in capsys.readouterr().out

    def test_unknown_command_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("frobnicate")
        assert exc.value.code == 2

    def test_unknown_config_key_maps_to_usage_exit(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("warp_speed = 9\n", encoding="utf-8")
        code = run_cli("train", "--config", cfg, "--out", tmp_path / "run")
        assert code == 2
        assert "usage error" in capsys.readouterr().err
