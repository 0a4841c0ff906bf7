"""Command-line harness: synth, train, eval, predict, gradcheck.

Every command resolves a RunConfig (defaults < config file < flags), writes
a run.log with the fully resolved configuration into its output directory,
and uses exit codes 0 (success), 1 (numeric or runtime failure), 2 (usage).
Logs carry no timestamps: identical invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .data import (AugmentConfig, IndexFileError, PgmError, augment, load_index, load_pgm,
                   resize, sample_stream, save_pgm, synth_generate, to_bytes, to_unit)
from .gradcheck import ISOLATED_KINDS, TINY_Q_ORDER, TINY_SIZE, run_all
from .losses import LossConfig, hybrid_loss
from .metrics import (ConfusionCounts, _check_threshold, confusion_table, format_percent,
                      metrics_csv, metrics_from_confusion, pixel_confusion, sample_confusion)
from .model import (CANONICAL_DECODER, CANONICAL_ENCODER, CheckpointError, ModelConfig,
                    build_model, count_params, load_checkpoint, save_checkpoint)
from .optim import BETA1, BETA2, EPS, Adam, _check_lr
from .tensor import ShapeError, Tensor, no_graph


@dataclass
class RunConfig:
    q_order: int = ModelConfig.q_order
    input_size: int = ModelConfig.input_size
    encoder_channels: tuple = CANONICAL_ENCODER
    lr: float = 1e-4
    epochs: int = 50
    batch_size: int = 4
    seed: int = 0
    augment: bool = True
    gamma: float = LossConfig.gamma
    alpha: float = LossConfig.alpha
    threshold: float = 0.5
    data_index: str = "index.tsv"

    def model_config(self) -> ModelConfig:
        return ModelConfig(q_order=self.q_order, input_size=self.input_size,
                           encoder_channels=self.encoder_channels)

    def loss_config(self) -> LossConfig:
        return LossConfig(gamma=self.gamma, alpha=self.alpha)

    def lines(self) -> list:
        out = []
        for f in fields(self):
            v = getattr(self, f.name)
            if f.name == "encoder_channels":
                v = ",".join(str(c) for c in v)
            out.append(f"{f.name} = {v}")
        return out


def _parse_value(name: str, raw: str):
    kind = {f.name: f.type for f in fields(RunConfig)}[name]
    raw = raw.strip()
    if name == "encoder_channels":
        return tuple(int(p) for p in raw.split(",") if p.strip())
    if kind == "int":
        return int(raw)
    if kind == "float":
        return float(raw)
    if kind == "bool":
        if raw.lower() in ("true", "1", "yes", "on"):
            return True
        if raw.lower() in ("false", "0", "no", "off"):
            return False
        raise ValueError(f"cannot parse boolean {raw!r}")
    return raw


def read_config_file(path) -> dict:
    """Line-oriented ``key = value`` with # comments."""
    known = {f.name for f in fields(RunConfig)}
    values = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in known:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = _parse_value(key, value)
    return values


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Defaults < config file < flags. A bad value raises ValueError, a usage
    error, before a command reads its data or writes any output."""
    cfg = RunConfig()
    if getattr(args, "config", None):
        cfg = replace(cfg, **read_config_file(args.config))
    overrides = {}
    for f in fields(RunConfig):
        flag = getattr(args, f.name, None)
        if flag is not None:
            overrides[f.name] = flag
    if isinstance(overrides.get("encoder_channels"), str):
        overrides["encoder_channels"] = _parse_value("encoder_channels", overrides["encoder_channels"])
    cfg = replace(cfg, **overrides)
    if len(cfg.encoder_channels) != len(CANONICAL_DECODER):
        # The decoder filters are fixed at the canonical five; no flag sets them.
        raise ValueError(f"--encoder-channels / encoder_channels must list "
                         f"{len(CANONICAL_DECODER)} stage widths, got {len(cfg.encoder_channels)}")
    if cfg.batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {cfg.batch_size}")
    if cfg.epochs < 0:
        raise ValueError(f"epochs must be >= 0, got {cfg.epochs}")
    if cfg.seed < 0:
        raise ValueError(f"seed must be >= 0, got {cfg.seed}")
    _check_threshold(cfg.threshold)
    _check_lr(cfg.lr)
    # Built only for their validators: q_order, input_size, widths, gamma, alpha.
    cfg.model_config()
    cfg.loss_config()
    return cfg


def write_run_log(out_dir: Path, command: str, cfg: RunConfig, extra: list = ()) -> None:
    lines = [f"artifact version {__version__}", f"command = {command}"]
    lines += cfg.lines()
    lines += list(extra)
    (out_dir / "run.log").write_text("\n".join(lines) + "\n", encoding="utf-8")


# -- dataset staging -------------------------------------------------------------


def _stage_records(records, size: int):
    """Decode and resize every sample once; keep uint8 pairs in memory."""
    staged = []
    for r in records:
        image = resize(load_pgm(r.image_path), size, "bilinear")
        mask = resize(load_pgm(r.mask_path), size, "nearest")
        staged.append((r, image, mask))
    return staged


def _ingest_batch(pairs) -> tuple[Tensor, Tensor]:
    images = np.stack([to_unit(img)[None] for _, img, _ in pairs])
    masks = np.stack([(msk > 127).astype(np.float32)[None] for _, _, msk in pairs])
    # Inputs are not trained: they get no gradient buffer, in training or inference.
    with no_graph():
        return Tensor(images), Tensor(masks)


# -- commands ---------------------------------------------------------------------


def cmd_synth(args) -> int:
    cfg = resolve_config(args)
    out_dir = Path(args.out)
    index_path = synth_generate(args.count, args.size, cfg.seed, out_dir)
    write_run_log(out_dir, "synth", cfg,
                  [f"count = {args.count}", f"size = {args.size}"])
    print(index_path)
    return 0


def cmd_train(args) -> int:
    cfg = resolve_config(args)
    records = [r for r in load_index(cfg.data_index) if r.split == "train"]
    if not records:
        raise IndexFileError(f"{cfg.data_index}: no train records")
    staged = _stage_records(records, cfg.input_size)
    # Made once the inputs are read, so a failed read leaves no --out behind.
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    rng = np.random.default_rng(cfg.seed)
    model = build_model(cfg.model_config(), rng)
    opt = Adam(model.named_parameters(), lr=cfg.lr)
    loss_cfg = cfg.loss_config()
    aug_cfg = AugmentConfig(enabled=cfg.augment)

    trainable, non_trainable = count_params(model)
    write_run_log(out_dir, "train", cfg,
                  [f"train_samples = {len(staged)}",
                   f"trainable_params = {trainable}",
                   f"non_trainable_params = {non_trainable}",
                   f"adam = beta1 {BETA1}, beta2 {BETA2}, eps {EPS}"])
    ckpt_path = out_dir / "checkpoint.ckpt"
    save_checkpoint(model, ckpt_path)
    (out_dir / "config.txt").write_text("\n".join(cfg.lines()) + "\n", encoding="utf-8")

    log_path = out_dir / "train_log.csv"
    with open(log_path, "w", encoding="utf-8") as log:
        log.write("epoch,mean_loss,train_pixel_f1,elapsed_ms\n")
        for epoch in range(1, cfg.epochs + 1):
            started = time.monotonic()
            order = np.random.default_rng([cfg.seed, 2, epoch]).permutation(len(staged))
            losses = []
            epoch_counts = ConfusionCounts(granularity="pixel")
            for lo in range(0, len(order), cfg.batch_size):
                batch = []
                for idx in order[lo:lo + cfg.batch_size]:
                    rec, image, mask = staged[idx]
                    if cfg.augment:
                        stream = sample_stream(cfg.seed, f"{rec.id}/{epoch}")
                        image, mask = augment(image, mask, aug_cfg, stream)
                    batch.append((rec, image, mask))
                x, y = _ingest_batch(batch)
                out = model.forward(x, training=True)
                loss = hybrid_loss(y, out, loss_cfg)
                value = loss.item()
                if not np.isfinite(value):
                    print(f"aborting: non-finite loss at epoch {epoch}; "
                          f"last-good checkpoint kept at {ckpt_path}", file=sys.stderr)
                    return 1
                # The output is read before the backward, which may release
                # the graph it walks; a failed step counts nothing.
                counts = pixel_confusion(out.data, y.data, cfg.threshold)
                model.zero_grad()
                loss.backward()
                try:
                    opt.step()
                except FloatingPointError as exc:
                    print(f"aborting: {exc} at epoch {epoch}; "
                          f"last-good checkpoint kept at {ckpt_path}", file=sys.stderr)
                    return 1
                losses.append(value)
                epoch_counts += counts
                # Drop this step's graph before the next batch is built, so one
                # graph at a time is alive.
                del x, y, out, loss
            f1 = metrics_from_confusion(epoch_counts).f1
            elapsed_ms = int((time.monotonic() - started) * 1000)
            log.write(f"{epoch},{np.mean(losses):.6f},{f1:.6f},{elapsed_ms}\n")
            log.flush()
            save_checkpoint(model, ckpt_path)
    print(ckpt_path)
    return 0


def _predict_batched(model, staged, batch_size: int):
    """Inference-mode probability masks for staged samples, id order."""
    preds = []
    for lo in range(0, len(staged), batch_size):
        chunk = staged[lo:lo + batch_size]
        x, _ = _ingest_batch(chunk)
        out = model.forward(x, training=False)
        preds.extend(out.data[i, 0] for i in range(len(chunk)))
    return preds


def cmd_eval(args) -> int:
    cfg = resolve_config(args)
    # The eval flags' usage errors, like resolve_config's, come before any read or write.
    if args.counts:
        try:
            tp, fp, tn, fn = (int(p) for p in args.counts.split(","))
        except ValueError:
            raise ValueError(f"--counts wants 'tp,fp,tn,fn' integers, got {args.counts!r}") from None
        counts = ConfusionCounts(tp=tp, fp=fp, tn=tn, fn=fn, granularity="sample")
        report = metrics_from_confusion(counts)
    elif args.predictor == "model" and not args.ckpt:
        raise ValueError("--ckpt is required unless --predictor oracle/zero or --counts is used")
    out_dir = Path(args.out)

    if args.counts:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "metrics_sample.csv").write_text(metrics_csv(counts, report), encoding="utf-8")
        write_run_log(out_dir, "eval", cfg, [f"injected_counts = {args.counts}"])
        print(confusion_table(counts))
        row = [format_percent(v) for v in (report.sensitivity, report.specificity,
                                           report.precision, report.f1, report.f2,
                                           report.accuracy)]
        print("sensitivity specificity precision f1 f2 accuracy (%)")
        print(" ".join(row))
        _print_undefined("sample", report)
        return 0

    records = [r for r in load_index(cfg.data_index) if r.split == "test"]
    if not records:
        raise IndexFileError(f"{cfg.data_index}: eval needs a non-empty test split")
    records.sort(key=lambda r: r.id)
    staged = _stage_records(records, cfg.input_size)

    if args.predictor == "model":
        model = load_checkpoint(args.ckpt, cfg.model_config())
        preds = _predict_batched(model, staged, cfg.batch_size)
    elif args.predictor == "oracle":
        preds = [(msk > 127).astype(np.float32) for _, _, msk in staged]
    else:
        preds = [np.zeros((cfg.input_size, cfg.input_size), dtype=np.float32) for _ in staged]
    out_dir.mkdir(parents=True, exist_ok=True)  # once the index, images and checkpoint are read

    gts = [(msk > 127).astype(np.float32) for _, _, msk in staged]
    pixel_counts = ConfusionCounts(granularity="pixel")
    for pred, gt in zip(preds, gts):
        pixel_counts += pixel_confusion(pred, gt, cfg.threshold)
    sample_counts = sample_confusion(preds, gts, cfg.threshold)

    pixel_report = metrics_from_confusion(pixel_counts)
    sample_report = metrics_from_confusion(sample_counts)
    (out_dir / "metrics_pixel.csv").write_text(metrics_csv(pixel_counts, pixel_report), encoding="utf-8")
    (out_dir / "metrics_sample.csv").write_text(metrics_csv(sample_counts, sample_report), encoding="utf-8")
    write_run_log(out_dir, "eval", cfg,
                  [f"predictor = {args.predictor}", f"test_samples = {len(staged)}"])
    print(confusion_table(pixel_counts))
    print(confusion_table(sample_counts))
    print(f"pixel    f1 = {format_percent(pixel_report.f1)}%  "
          f"sensitivity = {format_percent(pixel_report.sensitivity)}%")
    print(f"sample   accuracy = {format_percent(sample_report.accuracy)}%  "
          f"sensitivity = {format_percent(sample_report.sensitivity)}%")
    _print_undefined("pixel", pixel_report)
    _print_undefined("sample", sample_report)
    return 0


def _print_undefined(granularity: str, report) -> None:
    """Name the metrics that read 0 only because their denominator was zero."""
    if report.undefined:
        print(f"{granularity:<9}undefined: {', '.join(report.undefined)}")


def cmd_predict(args) -> int:
    cfg = resolve_config(args)
    model = load_checkpoint(args.ckpt, cfg.model_config())
    image = load_pgm(args.image)
    if image.shape != (cfg.input_size, cfg.input_size):
        raise ShapeError(
            f"{args.image} is {image.shape[1]}x{image.shape[0]} but the model wants "
            f"{cfg.input_size}x{cfg.input_size}; resize the image (or set input_size) first")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)  # once the checkpoint and image are read
    with no_graph():  # the input is not trained: no gradient buffer
        x = Tensor(to_unit(image)[None, None])
    probs = model.forward(x, training=False).data[0, 0]

    stem = Path(args.image).stem
    mask_path = out_dir / f"{stem}_mask.pgm"
    save_pgm(to_bytes(probs), mask_path)
    written = [mask_path]
    if args.binary:
        binary = np.where(probs >= cfg.threshold, 255, 0).astype(np.uint8)
        bin_path = out_dir / f"{stem}_mask_bin.pgm"
        save_pgm(binary, bin_path)
        written.append(bin_path)
    write_run_log(out_dir, "predict", cfg,
                  [f"image = {args.image}", f"binary = {args.binary}"])
    for p in written:
        print(p)
    return 0


def cmd_gradcheck(args) -> int:
    cfg = resolve_config(args)
    results, passed = run_all(seed=cfg.seed, q_order=args.q, size=args.size,
                              corrupt_kind=args.corrupt)
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        write_run_log(out_dir, "gradcheck", cfg,
                      [f"q = {args.q}", f"size = {args.size}"])
    for r in results:
        print(r.line())
    if not passed:
        worst = max((r for r in results if not r.passed), key=lambda r: r.max_rel)
        print(f"gradient check FAILED at {worst.kind} ({worst.worst})", file=sys.stderr)
        return 1
    print("all gradient checks passed")
    return 0


# -- argument parsing ----------------------------------------------------------------


def _add_common(sub: argparse.ArgumentParser, out_required: bool = True) -> None:
    sub.add_argument("--config", help="key = value configuration file")
    sub.add_argument("--seed", type=int, help="run seed")
    sub.add_argument("--out", required=out_required, help="output directory")


def _add_model_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--q", dest="q_order", type=int, help="polynomial order of decoder layers")
    sub.add_argument("--input-size", dest="input_size", type=int)
    sub.add_argument("--encoder-channels", dest="encoder_channels",
                     help="comma-separated stage widths")
    sub.add_argument("--threshold", type=float, help="mask binarization threshold")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="osegnet",
                                     description="operational encoder-decoder segmentation")
    parser.add_argument("--version", action="version", version=f"osegnet {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("synth", help="generate a synthetic ellipse dataset")
    _add_common(p)
    p.add_argument("--count", type=int, required=True, help="number of samples")
    p.add_argument("--size", type=int, required=True, help="square image size (multiple of 32)")
    p.set_defaults(func=cmd_synth)

    p = subs.add_parser("train", help="train a model")
    _add_common(p)
    _add_model_flags(p)
    p.add_argument("--index", dest="data_index", help="dataset index file")
    p.add_argument("--lr", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--augment", dest="augment", action="store_const", const=True, default=None)
    p.add_argument("--no-augment", dest="augment", action="store_const", const=False)
    p.add_argument("--gamma", type=float)
    p.add_argument("--alpha", type=float)
    p.set_defaults(func=cmd_train)

    p = subs.add_parser("eval", help="evaluate a checkpoint on the test split")
    _add_common(p)
    _add_model_flags(p)
    p.add_argument("--index", dest="data_index")
    p.add_argument("--ckpt", help="checkpoint file")
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--predictor", choices=("model", "oracle", "zero"), default="model",
                   help="model inference, ground-truth oracle, or all-zero baseline")
    p.add_argument("--counts", help="skip inference and report metrics for 'tp,fp,tn,fn'")
    p.set_defaults(func=cmd_eval)

    p = subs.add_parser("predict", help="predict a mask for one image")
    _add_common(p)
    _add_model_flags(p)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--image", required=True)
    p.add_argument("--binary", action="store_true", help="also write the thresholded mask")
    p.set_defaults(func=cmd_predict)

    p = subs.add_parser("gradcheck", help="finite-difference gradient verification")
    _add_common(p, out_required=False)
    p.add_argument("--q", type=int, default=TINY_Q_ORDER, help="polynomial order of the tiny model")
    p.add_argument("--size", type=int, default=TINY_SIZE, help="tiny model input size")
    p.add_argument("--corrupt", choices=ISOLATED_KINDS,
                   help="negative control: skew this kind's gradients to force a failure")
    p.set_defaults(func=cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, CheckpointError, OSError) as exc:
        if isinstance(exc, ValueError) and not isinstance(exc, (ShapeError, PgmError, IndexFileError)):
            # Bad configuration or flag values are usage errors.
            print(f"usage error: {exc}", file=sys.stderr)
            return 2
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
