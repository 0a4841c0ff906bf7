"""osegnet benchmark: run workloads, print every metric, check the outputs.

    python3 perfbench/run.py --workload train-64|train-224|infer-224|all \
        --seed N --seconds S --trace 0|1

For each workload this writes the synthetic inputs for ``--seed`` into a
scratch directory of the checkout, then starts ``worker.py`` in a fresh
process with OPENBLAS/OMP/MKL threads pinned to 1. The worker sets up,
warms up and runs a closed loop for ``--seconds``. ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` reports the per-layer metrics of a traced
run and writes its spans to ``.perfbench_out/``.

Human-readable lines come first (environment, each metric with its unit and
sample count, each output check); the last line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is
0 when a result was printed, 1 when a workload process failed and 2 on
usage errors, including a checkout without the osegnet sources.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import environment

HERE = Path(__file__).resolve().parent
WORK_DIR = environment.ROOT / ".perfbench_work"
SPANS_DIR = environment.ROOT / ".perfbench_out"
WORKER_GRACE_S = 120  # set-up, warm-up and checks on top of the timed phase


def _parse(argv):
    parser = argparse.ArgumentParser(description="osegnet benchmark")
    parser.add_argument("--workload", default="all",
                        help="train-64, train-224, infer-224, or all (default)")
    parser.add_argument("--seed", type=int, default=0, help="seeds the synthetic inputs")
    parser.add_argument("--seconds", type=float, default=35.0, help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = traced run reporting per-layer metrics")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _run_workload(workloads, name: str, args) -> dict | None:
    w = workloads.WORKLOADS[name]
    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-seed{args.seed}-", dir=WORK_DIR))
    try:
        workloads.make_fixture(w, args.seed, work)
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--fixture", str(work)]
        if args.trace:
            SPANS_DIR.mkdir(exist_ok=True)
            cmd += ["--spans", str(SPANS_DIR / f"spans-{name}-seed{args.seed}.jsonl")]
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=environment.ROOT,
                                  env={**os.environ, **environment.PINNED},
                                  timeout=args.seconds + WORKER_GRACE_S)
        except subprocess.TimeoutExpired:
            print(f"error: workload {name} did not finish in time", file=sys.stderr)
            return None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return None
        return json.loads(lines[-1])
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _report(result: dict) -> None:
    env = result["env"]
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"{'traced' if result['trace'] else 'untraced'}")
    print(f"environment  python {env['python']}  numpy {env['numpy']}  blas {env['blas']} "
          f"(threads {env['blas_threads']})  nproc {env['nproc']}  osegnet {env['osegnet']}")
    for name, m in result["metrics"].items():
        print(f"  {name:36s} {m['value']:14.4f} {m['unit']:13s} n={m['samples']}")
    if result["unscaled"]:
        u = result["unscaled"]
        print(f"  unscaled: iter_ms_p50 {u['iter_ms_p50']:.4f} ms, iter_ms_p90 "
              f"{u['iter_ms_p90']:.4f} ms, images_per_s {u['images_per_s']:.4f} 1/s, "
              f"first set-up {u['setup_first_s']:.4f} s; "
              f"host reference at {u['host_factor']:.3f}x nominal")
    print(f"  {'failed_frac':36s} {result['failed_frac']:14.4f} {'':13s} "
          f"({result['failed']} failed of {result['attempted']} attempted)")
    for name, ok, detail in result["checks"]:
        print(f"  check {name}: {'ok' if ok else 'FAILED'} ({detail})")
    for error in result["errors"]:
        print(f"  error {error}")


def main(argv=None) -> int:
    args = _parse(argv)
    # Pinned before numpy is imported below, and inherited by every worker.
    os.environ.update(environment.PINNED)
    if not (environment.SRC / "osegnet" / "__init__.py").is_file():
        print(f"error: osegnet sources not found under {environment.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(environment.SRC))
    import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        print(f"error: unknown workload {unknown[0]!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2

    results = []
    for name in names:
        result = _run_workload(workloads, name, args)
        if result is None:
            return 1
        _report(result)
        results.append(result)

    def metric_name(result, name):
        return name if len(results) == 1 else f"{result['workload']}.{name}"

    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {metric_name(r, name): {"value": m["value"], "unit": m["unit"]}
                    for r in results for name, m in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
