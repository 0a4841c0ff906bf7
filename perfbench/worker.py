"""Run one benchmark workload in this fresh process.

``run.py`` starts one of these per workload with the BLAS thread variables
pinned to 1 and the workload's inputs already written. The result is printed
as one JSON line on stdout. Refuses to run (exit 3) if BLAS is not pinned.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 \
        --fixture DIR [--spans FILE]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import environment


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--fixture", type=Path, required=True)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args(argv)

    # The pin must hold before numpy is first imported.
    unpinned = environment.unpinned_variables()
    if unpinned:
        print(f"error: BLAS threads are not pinned: {', '.join(unpinned)} must be 1",
              file=sys.stderr)
        return 3
    sys.path.insert(0, str(environment.SRC))
    import workloads  # imports numpy and osegnet

    env = environment.describe()
    if env["blas_threads"] not in (None, 1):
        print(f"error: BLAS runs {env['blas_threads']} threads despite the pin", file=sys.stderr)
        return 3
    env["osegnet"] = os.path.dirname(sys.modules["osegnet"].__file__)

    w = workloads.WORKLOADS[args.workload]
    fixture = workloads.fixture_at(w, args.fixture)
    result = workloads.run_workload(w, fixture, args.seed, args.seconds, trace=bool(args.trace),
                                    spans_path=args.spans)
    result.pop("phase")
    result.pop("tracer")
    result["env"] = env
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
