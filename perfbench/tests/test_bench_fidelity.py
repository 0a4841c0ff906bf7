"""The benchmark's runners must do exactly what the osegnet CLI does.

Each comparison runs both sides in fresh BLAS-pinned processes, as the
determinism contract requires for bit-identical output.
"""

import pytest

from conftest import osegnet_cli, pinned_python, tiny

import workloads

SEED = 3


@pytest.mark.parametrize("name", ["train-64", "train-224"])
def test_train_runner_checkpoint_matches_cli(tmp_path, name):
    # train-224's settings (augment on, lr 1e-4) at 64 px keep the run short.
    w = tiny(name, input_size=64, synth_size=64, synth_count=20)
    fixture = workloads.make_fixture(w, SEED, tmp_path / "bench")
    result = pinned_python(f"""
import dataclasses, json, workloads
w = dataclasses.replace(workloads.WORKLOADS[{name!r}], input_size=64, synth_size=64,
                        synth_count=20)
runner = workloads.setup(w, workloads.fixture_at(w, {str(fixture.work_dir)!r}), {SEED})
steps = 0
while not runner.epoch_done():
    assert runner.step().error is None
    steps += 1
runner.end_epoch()
print(json.dumps({{"steps": steps}}))
""", cwd=tmp_path)
    assert result["steps"] == 4

    flags = ["--augment" if w.augment else "--no-augment"]
    osegnet_cli(["train", "--index", fixture.index, "--q", workloads.Q_ORDER,
                 "--input-size", w.input_size, "--lr", w.lr, "--epochs", 1,
                 "--batch-size", w.batch_size, *flags, "--seed", SEED,
                 "--out", tmp_path / "cli"], cwd=tmp_path)

    bench_bytes = (fixture.work_dir / "checkpoint.ckpt").read_bytes()
    cli_bytes = (tmp_path / "cli" / "checkpoint.ckpt").read_bytes()
    assert bench_bytes == cli_bytes


def test_infer_runner_counts_match_cli_eval(tmp_path):
    w = tiny("infer-224", synth_count=10)  # two 256 px test images
    fixture = workloads.make_fixture(w, SEED, tmp_path / "bench")
    counts = pinned_python(f"""
import dataclasses, json, workloads
w = dataclasses.replace(workloads.WORKLOADS["infer-224"], synth_count=10)
runner = workloads.setup(w, workloads.fixture_at(w, {str(fixture.work_dir)!r}), {SEED})
total = {{"tp": 0, "fp": 0, "tn": 0, "fn": 0}}
for _ in runner.staged:
    step = runner.step()
    assert runner.check(step) is None
    for key in total:
        total[key] += getattr(step.counts, key)
print(json.dumps(total))
""", cwd=tmp_path)

    osegnet_cli(["eval", "--index", fixture.index, "--q", workloads.Q_ORDER,
                 "--input-size", w.input_size, "--ckpt", fixture.checkpoint,
                 "--out", tmp_path / "eval"], cwd=tmp_path)
    header, row = (tmp_path / "eval" / "metrics_pixel.csv").read_text().strip().split("\n")
    cli = dict(zip(header.split(","), row.split(",")))
    assert counts == {key: int(cli[key]) for key in ("tp", "fp", "tn", "fn")}
    assert sum(counts.values()) == 2 * 224 * 224
