"""The benchmark's workloads and the runners that step osegnet through them.

The runners call the same functions as ``osegnet train`` / ``eval`` /
``predict``, in the same order, including the CLI's own staging
(``osegnet.cli._stage_records``) and batch ingest (``_ingest_batch``). Every
one is resolved through its module at call time, so a traced run can wrap it
and a change to the program shows in the benchmark.

Every workload is a closed loop: one client issues a step, waits for it to
finish, checks its output, then issues the next.
"""

from __future__ import annotations

import gc
import hashlib
import resource
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from osegnet import cli as C
from osegnet import data as D
from osegnet import losses as L
from osegnet import metrics as MT
from osegnet import model as M
from osegnet import optim as O

import spans

THRESHOLD = 0.5  # the CLI's default --threshold
Q_ORDER = 3      # polynomial order of the decoder layers in every workload


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str            # "train" or "infer"
    input_size: int      # model input size
    synth_size: int      # size the fixture images are synthesized at
    synth_count: int     # synthetic samples; every fifth is a test sample
    lr: float = 1e-3
    augment: bool = False
    batch_size: int = 4
    warmup: int = 5      # untimed iterations before the clock starts
    loss_must_fall: bool = False


WORKLOADS = {
    # The criterion-5 toy configuration: small tensors, so per-op Python
    # overhead, the graph walk, the loss and Adam take a large share.
    "train-64": Workload("train-64", "train", 64, 64, 250, lr=1e-3, augment=False,
                         loss_must_fall=True),
    # The CLI's default training configuration: memory traffic of the
    # full-resolution operational layers dominates; the only augment user.
    "train-224": Workload("train-224", "train", 224, 224, 250, lr=1e-4, augment=True,
                          warmup=2),
    # The eval/predict path: checkpoint load and a real bilinear resize in
    # set-up, then forward-only batch-1 inference.
    "infer-224": Workload("infer-224", "infer", 224, 256, 100, batch_size=1),
}


def model_config(w: Workload) -> M.ModelConfig:
    return M.ModelConfig(q_order=Q_ORDER, input_size=w.input_size)


@dataclass
class Fixture:
    index: Path
    checkpoint: Path | None
    work_dir: Path


def fixture_at(w: Workload, work_dir) -> Fixture:
    work_dir = Path(work_dir)
    return Fixture(work_dir / "data" / "index.tsv",
                   work_dir / "model.ckpt" if w.mode == "infer" else None, work_dir)


def make_fixture(w: Workload, seed: int, work_dir) -> Fixture:
    """Write the workload's inputs; all of them follow from ``seed``."""
    fixture = fixture_at(w, work_dir)
    D.synth_generate(w.synth_count, w.synth_size, seed, fixture.index.parent)
    if fixture.checkpoint is not None:
        M.save_checkpoint(M.OSegNetModel(model_config(w), np.random.default_rng(seed)),
                          fixture.checkpoint)
    return fixture


# -- runners ----------------------------------------------------------------------


@dataclass
class Step:
    images: int
    output: object = None          # the model output node
    error: str | None = None       # set when the step itself failed
    sample: str | None = None
    probs: np.ndarray | None = None
    binary: np.ndarray | None = None
    counts: MT.ConfusionCounts | None = None


class TrainRunner:
    """``osegnet train``'s loop, one batch per step, checkpoint per epoch."""

    def __init__(self, w: Workload, staged, model, opt, seed: int, checkpoint: Path):
        self.w = w
        self.staged = staged
        self.model = model
        self.opt = opt
        self.seed = seed
        self.checkpoint = checkpoint
        self.loss_cfg = L.LossConfig()
        self.aug_cfg = D.AugmentConfig(enabled=w.augment)
        self.epoch = 1
        self.cursor = 0
        self.order = self._order()
        self.losses: list = []
        self.counts = MT.ConfusionCounts(granularity="pixel")

    def _order(self):
        return np.random.default_rng([self.seed, 2, self.epoch]).permutation(len(self.staged))

    def step(self, poison: bool = False) -> Step:
        picked = self.order[self.cursor:self.cursor + self.w.batch_size]
        self.cursor += len(picked)
        batch = []
        for idx in picked:
            rec, image, mask = self.staged[idx]
            if self.w.augment:
                stream = D.sample_stream(self.seed, f"{rec.id}/{self.epoch}")
                image, mask = D.augment(image, mask, self.aug_cfg, stream)
            batch.append((rec, image, mask))
        x, y = C._ingest_batch(batch)
        if poison:
            x.data.flat[0] = np.nan
        out = self.model.forward(x, training=True)
        loss = L.hybrid_loss(y, out, self.loss_cfg)
        value = loss.item()
        if not np.isfinite(value):
            return Step(len(batch), out, error=f"non-finite loss {value}")
        self.model.zero_grad()
        loss.backward()
        self.opt.step()
        self.losses.append(value)
        self.counts += MT.pixel_confusion(out.data, y.data, THRESHOLD)
        return Step(len(batch), out)

    def check(self, step: Step) -> str | None:
        return None  # the loss is checked inside step(), as the CLI does

    def epoch_done(self) -> bool:
        return self.cursor >= len(self.order)

    def end_epoch(self) -> None:
        M.save_checkpoint(self.model, self.checkpoint)
        self.epoch += 1
        self.cursor = 0
        self.order = self._order()

    def finish(self) -> list:
        """Run-level output checks: (name, ok, detail)."""
        checks = []
        if self.w.loss_must_fall:
            quarter = max(len(self.losses) // 4, 1)
            first = float(np.mean(self.losses[:quarter])) if self.losses else float("nan")
            last = float(np.mean(self.losses[-quarter:])) if self.losses else float("nan")
            checks.append(("loss_falls", bool(last < first),
                           f"mean loss first {quarter} steps {first:.5f}, last {quarter} {last:.5f}"))
        M.save_checkpoint(self.model, self.checkpoint)
        reloaded = M.load_checkpoint(self.checkpoint, model_config(self.w))
        same = all(np.array_equal(a.data, b.data) for (_, a), (_, b) in
                   zip(self.model.named_parameters(), reloaded.named_parameters()))
        same = same and all(np.array_equal(a, b) for (_, a), (_, b) in
                            zip(self.model.named_buffers(), reloaded.named_buffers()))
        checks.append(("checkpoint_roundtrip", same, "reloaded checkpoint equals the model"))
        return checks


class InferRunner:
    """``osegnet eval`` / ``predict``: one test image per step, batch 1."""

    def __init__(self, w: Workload, staged, model):
        self.w = w
        self.staged = staged
        self.model = model
        self.cursor = 0
        self.digests: dict = {}

    def step(self, poison: bool = False) -> Step:
        rec, image, mask = self.staged[self.cursor % len(self.staged)]
        self.cursor += 1
        x, y = C._ingest_batch([(rec, image, mask)])
        if poison:
            x.data.flat[0] = np.nan
        out = self.model.forward(x, training=False)
        probs = out.data[0, 0]
        binary = np.where(probs >= THRESHOLD, 255, 0).astype(np.uint8)
        counts = MT.pixel_confusion(probs, y.data[0, 0], THRESHOLD)
        return Step(1, out, sample=rec.id, probs=probs, binary=binary, counts=counts)

    def check(self, step: Step) -> str | None:
        probs = step.probs
        if not np.all(np.isfinite(probs)):
            return f"{step.sample}: non-finite probabilities"
        if probs.min() < 0.0 or probs.max() > 1.0:
            return f"{step.sample}: probabilities outside [0, 1]"
        if step.counts.total != probs.size:
            return f"{step.sample}: confusion counts cover {step.counts.total} of {probs.size} pixels"
        if np.count_nonzero(step.binary) != step.counts.tp + step.counts.fp:
            return f"{step.sample}: thresholded mask disagrees with the confusion counts"
        digest = hashlib.blake2b(probs.tobytes(), digest_size=16).digest()
        if self.digests.setdefault(step.sample, digest) != digest:
            return f"{step.sample}: prediction differs from an earlier pass"
        return None

    def epoch_done(self) -> bool:
        return False

    def finish(self) -> list:
        seen = min(self.cursor, len(self.staged))
        return [("split_covered", seen == len(self.staged),
                 f"{seen} of {len(self.staged)} test images predicted")]


def setup(w: Workload, fixture: Fixture, seed: int):
    """Everything the CLI does before its first step; returns the runner."""
    if w.mode == "train":
        records = [r for r in D.load_index(fixture.index) if r.split == "train"]
        staged = C._stage_records(records, w.input_size)
        model = M.build_model(model_config(w), np.random.default_rng(seed))
        opt = O.Adam(model.named_parameters(), lr=w.lr)
        checkpoint = fixture.work_dir / "checkpoint.ckpt"
        M.save_checkpoint(model, checkpoint)
        return TrainRunner(w, staged, model, opt, seed, checkpoint)
    records = [r for r in D.load_index(fixture.index) if r.split == "test"]
    records.sort(key=lambda r: r.id)
    staged = C._stage_records(records, w.input_size)
    model = M.load_checkpoint(fixture.checkpoint, model_config(w))
    return InferRunner(w, staged, model)


# -- host speed reference -----------------------------------------------------------


class HostReference:
    """Fixed work, independent of osegnet, timed right after every iteration.

    The CPU speed of a shared host drifts by up to a third over seconds to
    minutes as other tenants load the same cores, which moves every wall
    time a run reports. The reference mixes the kinds of work a step does: a
    single-threaded float32 matmul, Python loops of numpy ops on small and on
    tiny arrays, and a memory copy larger than the private caches. Its time moves with the host
    as a step's does, so each timing is reported scaled to a host on which
    the reference takes ``NOMINAL_NS``.
    """

    NOMINAL_NS = 5_000_000
    WINDOW = 5  # iterations whose reference times are pooled (median)

    def __init__(self):
        rng = np.random.default_rng(0)
        self.a = rng.random((64, 1152), dtype=np.float32)
        self.b = rng.random((1152, 1024), dtype=np.float32)
        self.product = np.empty((64, 1024), dtype=np.float32)
        self.small = rng.random((4, 16, 32, 32), dtype=np.float32)
        self.x = np.empty_like(self.small)
        self.tiny = rng.random((4, 8, 8), dtype=np.float32)
        self.t = np.empty_like(self.tiny)
        self.block = np.ones(2 * 1024 * 1024, dtype=np.float32)
        self.copy = np.empty_like(self.block)

    def measure(self) -> int:
        # Every result goes to a buffer allocated above: a fresh allocation
        # would time the allocator's state, which differs between processes.
        t0 = time.perf_counter_ns()
        np.matmul(self.a, self.b, out=self.product)
        x = self.x
        np.copyto(x, self.small)
        for _ in range(25):
            np.multiply(x, 0.5, out=x)
            np.add(x, 0.1, out=x)
            np.tanh(x, out=x)
        t = self.t
        np.copyto(t, self.tiny)
        for _ in range(100):
            np.multiply(t, 0.5, out=t)
            np.add(t, 0.1, out=t)
            np.tanh(t, out=t)
        np.copyto(self.copy, self.block)
        return time.perf_counter_ns() - t0

    def scales(self, ref_ns: list) -> list:
        """Per-iteration factor NOMINAL / (median reference time around it)."""
        half = self.WINDOW // 2
        return [self.NOMINAL_NS / statistics.median(ref_ns[max(i - half, 0):i + half + 1])
                for i in range(len(ref_ns))]


# -- the closed loop ----------------------------------------------------------------


@dataclass
class Phase:
    attempted: int = 0
    failed: int = 0
    images: int = 0
    loop_ns: list = field(default_factory=list)     # per iteration, reference excluded
    ref_ns: list = field(default_factory=list)      # reference time after each iteration
    times: list = field(default_factory=list)       # (index, ns): untraced, successful
    traced_ns: dict = field(default_factory=dict)   # step id -> ns: traced, successful
    traced_index: dict = field(default_factory=dict)  # step id -> iteration index
    graph_nodes: list = field(default_factory=list)
    errors: list = field(default_factory=list)


def run_phase(runner, seconds: float | None = None, iterations: int | None = None,
              tracer: spans.Tracer | None = None, poison_at=(), first_step: int = 0,
              reference: HostReference | None = None) -> Phase:
    """Step the runner until ``seconds`` have passed or ``iterations`` ran.

    With a tracer, every second iteration runs traced and the rest untraced,
    so both sets of timings come from the same stretch of the run.
    """
    reference = reference or HostReference()
    phase = Phase()
    start = time.perf_counter()
    deadline = None if seconds is None else start + seconds
    while (deadline is None or time.perf_counter() < deadline) and \
            (iterations is None or phase.attempted < iterations):
        index = phase.attempted
        step_id = first_step + index
        traced = tracer is not None and step_id % 2 == 1
        context = tracer.installed(step_id, runner.model) if traced else nullcontext()
        step = None
        with context:
            t0 = time.perf_counter_ns()
            root = tracer.open("iteration") if traced else None
            try:
                step = runner.step(poison=step_id in poison_at)
                error = step.error
            except Exception as exc:  # a failing step is counted; the run goes on
                error = f"{type(exc).__name__}: {exc}"
            finally:
                if root is not None:
                    tracer.close(root)
            elapsed = time.perf_counter_ns() - t0
        phase.attempted += 1
        phase.images += step.images if step is not None else runner.w.batch_size
        if error is None:
            error = runner.check(step)
        if error is not None:
            phase.failed += 1
            if len(phase.errors) < 5:
                phase.errors.append(f"step {step_id}: {error}")
        elif traced:
            phase.traced_ns[step_id] = elapsed
            phase.traced_index[step_id] = index
            phase.graph_nodes.append(spans.graph_nodes(step.output))
        else:
            phase.times.append((index, elapsed))
        del step
        if runner.epoch_done():
            boundary = tracer.installed(spans.Tracer.EPOCH_BOUNDARY) if tracer else nullcontext()
            with boundary:
                runner.end_epoch()
        phase.loop_ns.append(time.perf_counter_ns() - t0)
        phase.ref_ns.append(reference.measure())
    return phase


# -- metrics -------------------------------------------------------------------------


def percentile_90(values) -> float:
    return statistics.quantiles(values, n=10)[-1] if len(values) > 1 else values[0]


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _metric(value, unit: str, samples: int) -> dict:
    return {"value": float(value), "unit": unit, "samples": int(samples)}


def end_to_end_metrics(setup_s: list, phase: Phase, reference: HostReference) -> tuple:
    """Host-normalized end-to-end metrics, and the same figures unscaled."""
    scale = reference.scales(phase.ref_ns)
    ms = [ns * scale[i] / 1e6 for i, ns in phase.times]
    raw_ms = [ns / 1e6 for _, ns in phase.times]
    if not ms:
        return {}, {}
    wall_s = sum(ns * f for ns, f in zip(phase.loop_ns, scale)) / 1e9
    metrics = {
        "setup_s": _metric(statistics.median(setup_s), "s", len(setup_s)),
        "iter_ms_p50": _metric(statistics.median(ms), "ms", len(ms)),
        "iter_ms_p90": _metric(percentile_90(ms), "ms", len(ms)),
        "images_per_s": _metric(phase.images / wall_s, "1/s", phase.images),
        "peak_rss_mib": _metric(peak_rss_mib(), "MiB", 1),
    }
    raw = {
        "iter_ms_p50": statistics.median(raw_ms),
        "iter_ms_p90": percentile_90(raw_ms),
        "images_per_s": phase.images / (sum(phase.loop_ns) / 1e9),
        "host_factor": statistics.median(phase.ref_ns) / reference.NOMINAL_NS,
    }
    return metrics, raw


# Per-iteration time metrics: span prefix -> (forward span, backward span).
_FWD_BWD = ("layers.final", "layers.decoder", "layers.encoder", "tensor.conv2d",
            "tensor.conv2d_transpose", "tensor.power_expand", "tensor.batchnorm",
            "tensor.activation", "tensor.elementwise")
_PER_ITERATION = ("optim.adam_step", "model.zero_grad", "losses.hybrid_loss", "model.forward",
                  "data.augment", "data.ingest", "metrics.pixel_confusion")
_PER_SETUP = ("data.load_index", "data.load_pgm", "data.resize", "model.load_checkpoint")

# Per-iteration time metrics whose spans never overlap: a layer's span holds
# its convolutions, batchnorms and power expansions; activations, the loss,
# the optimizer, ingest and confusion run outside every layer; the walk is
# the self time of ``Tensor.backward``. Their sum over one iteration cannot
# exceed the iteration's wall time.
OVERLAP_FREE = tuple(f"layers.{part}.{kind}_ms" for part in ("encoder", "decoder", "final")
                     for kind in ("fwd", "bwd")) + (
    "tensor.activation.fwd_ms", "tensor.activation.bwd_ms", "losses.hybrid_loss.ms",
    "model.zero_grad.ms", "optim.adam_step.ms", "tensor.backward.walk_ms",
    "data.augment.ms", "data.ingest.ms", "metrics.pixel_confusion.ms")


def _summed(totals: dict, steps, kind: str) -> dict:
    out: dict = {}
    for step in steps:
        for name, value in totals.get(step, {}).get(kind, {}).items():
            out[name] = out.get(name, 0) + value
    return out


def iteration_ns(totals: dict, steps) -> dict:
    """Every per-iteration time metric in ns, averaged over ``steps``.

    ``totals`` is :func:`spans.step_totals` of the traced run.
    """
    n = max(len(steps), 1)
    ns = _summed(totals, steps, "ns")
    out = {f"{prefix}.{kind}_ms": ns.get(f"{prefix}.{kind}", 0) / n
           for prefix in _FWD_BWD for kind in ("fwd", "bwd")}
    out.update({f"{name}.ms": ns.get(name, 0) / n for name in _PER_ITERATION})
    out["tensor.backward.walk_ms"] = _summed(totals, steps, "self_ns").get("tensor.backward", 0) / n
    return out


def layer_time_overruns(tracer: spans.Tracer, phase: Phase) -> list:
    """Traced iterations whose overlap-free layer times sum past their wall time.

    Returns ``(step, summed ns, wall ns)`` per offending iteration; a span
    counted twice, or a figure built from the wrong spans, shows up here.
    """
    totals = spans.step_totals(tracer.spans)
    overruns = []
    for step, wall_ns in sorted(phase.traced_ns.items()):
        per_step = iteration_ns(totals, (step,))
        summed = sum(per_step[name] for name in OVERLAP_FREE)
        if summed > wall_ns:
            overruns.append((step, summed, wall_ns))
    return overruns


def layer_metrics(tracer: spans.Tracer, phase: Phase, reference: HostReference) -> dict:
    """Per-layer metrics from a traced phase; times are per traced iteration.

    Times are scaled by the run's median host factor, so they read in the
    same host-normalized milliseconds as the end-to-end metrics.
    """
    steps = sorted(phase.traced_ns)
    n = max(len(steps), 1)
    scale = reference.scales(phase.ref_ns)
    ms = statistics.median(scale) / 1e6 if scale else 1e-6  # one span ns in normalized ms
    totals = spans.step_totals(tracer.spans)

    out = {}

    def put(name, value, unit, samples):
        out[name] = _metric(value, unit, samples)

    for name, ns in iteration_ns(totals, steps).items():
        put(name, ns * ms, "ms", n)

    calls = _summed(totals, steps, "calls")
    for prefix in ("tensor.conv2d", "tensor.conv2d_transpose"):
        put(f"{prefix}.calls", calls.get(f"{prefix}.fwd", 0) / n, "count", n)
    sizes = {}
    largest = 0
    traced = set(steps)
    for step, prefix, _, nbytes in tracer.buffers:
        if step in traced:
            sizes[prefix] = sizes.get(prefix, 0) + nbytes
            largest = max(largest, nbytes)
    put("tensor.conv2d.cols_mib", sizes.get("tensor.conv2d", 0) / n / spans.MIB, "MiB_computed", n)
    put("tensor.conv2d_transpose.cols_mib",
        sizes.get("tensor.conv2d_transpose", 0) / n / spans.MIB, "MiB_computed", n)
    put("tensor.power_expand.out_mib",
        sizes.get("tensor.power_expand", 0) / n / spans.MIB, "MiB_computed", n)
    put("tensor.buffer_mib_max", largest / spans.MIB, "MiB_computed", n)
    nodes = phase.graph_nodes
    put("tensor.graph_nodes", statistics.median(nodes) if nodes else 0, "count", len(nodes))

    setup_ns = _summed(totals, (spans.Tracer.SETUP,), "ns")
    for name in _PER_SETUP:
        put(f"{name}.ms", setup_ns.get(name, 0) * ms, "ms", 1)
    put("data.load_pgm.calls", _summed(totals, (spans.Tracer.SETUP,), "calls").get("data.load_pgm", 0),
        "count", 1)
    boundaries = (spans.Tracer.SETUP, spans.Tracer.EPOCH_BOUNDARY)
    n_saves = _summed(totals, boundaries, "calls").get("model.save_checkpoint", 0)
    put("model.save_checkpoint.ms",
        _summed(totals, boundaries, "ns").get("model.save_checkpoint", 0) / max(n_saves, 1) * ms,
        "ms", n_saves)

    traced_ms = [ns * scale[phase.traced_index[s]] for s, ns in phase.traced_ns.items()]
    plain = [ns * scale[i] for i, ns in phase.times]
    overhead = (statistics.median(traced_ms) / statistics.median(plain) - 1.0) * 100.0 \
        if traced_ms and plain else 0.0
    put("trace.overhead_pct", overhead, "%", min(len(traced_ms), len(plain)))
    return out


# -- one run ----------------------------------------------------------------------------


SETUP_REPEATS = 15


def run_workload(w: Workload, fixture: Fixture, seed: int, seconds: float, trace: bool = False,
                 spans_path: Path | None = None, poison_at=()) -> dict:
    """Set up, warm up, run the timed closed loop and check the outputs.

    Untraced runs set up ``SETUP_REPEATS`` times in the one process, each
    timing scaled by the host reference measured right after it, and report
    the median as ``setup_s``; the first (cold) set-up is also reported,
    unscaled, as ``setup_first_s``. Traced runs set up once, traced, for the
    data.* spans.
    """
    reference = HostReference()
    tracer = spans.Tracer() if trace else None
    setup_s = []
    first_setup_ns = None
    if tracer is None:
        for _ in range(SETUP_REPEATS):
            runner = None  # let the previous set-up go before the next one
            gc.collect()   # and collect it outside the timing
            t0 = time.perf_counter_ns()
            runner = setup(w, fixture, seed)
            elapsed = time.perf_counter_ns() - t0
            first_setup_ns = first_setup_ns or elapsed
            ref = statistics.median(reference.measure() for _ in range(5))
            setup_s.append(elapsed * reference.NOMINAL_NS / ref / 1e9)
    else:
        with tracer.installed(spans.Tracer.SETUP):
            runner = setup(w, fixture, seed)

    warm = run_phase(runner, iterations=w.warmup, poison_at=poison_at, reference=reference)
    timed = run_phase(runner, seconds=seconds, tracer=tracer, poison_at=poison_at,
                      first_step=warm.attempted, reference=reference)
    checks = runner.finish()

    attempted = warm.attempted + timed.attempted
    failed = warm.failed + timed.failed
    checks.insert(0, ("no_failed_iterations", failed == 0,
                      f"{failed} of {attempted} iterations failed"))
    checks.append(("timed_samples", bool(timed.times),
                   f"{len(timed.times)} untraced timed iterations"))

    raw = {}
    if tracer is None:
        metrics, raw = end_to_end_metrics(setup_s, timed, reference)
        if raw:
            raw["setup_first_s"] = first_setup_ns / 1e9
    else:
        overruns = layer_time_overruns(tracer, timed)
        checks.append(("layer_times_within_wall", not overruns,
                       f"{len(overruns)} of {len(timed.traced_ns)} traced iterations have "
                       f"overlap-free layer times summing past their wall time"))
        metrics = layer_metrics(tracer, timed, reference)
        if spans_path is not None:
            tracer.dump(spans_path)
    return {
        "workload": w.name,
        "seed": seed,
        "trace": bool(trace),
        "correct": all(ok for _, ok, _ in checks),
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted if attempted else 0.0,
        "errors": warm.errors + timed.errors,
        "checks": [list(c) for c in checks],
        "metrics": metrics,
        "unscaled": raw,
        "phase": timed,
        "tracer": tracer,
    }
