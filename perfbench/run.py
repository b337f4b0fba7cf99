"""Pipeline benchmark for mmadvrec: set-up, train, attack and diagnose.

    python3 perfbench/run.py --workload concat_pretrain --seed 7 --seconds 30 --trace 0

Run from the root of a checkout: the program is imported from ``src/``. The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics, or with
``--trace 1`` the per-layer metrics of a separately traced run. See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
# One BLAS thread: small matmuls gain nothing from a second thread on two
# cores, and a single thread keeps the run-to-run spread down.
BLAS_THREADS = "1"
# The names in workloads.py, repeated because that module imports numpy,
# which must not load before the BLAS thread count is set.
WORKLOAD_NAMES = ("concat_pretrain", "concat_uatmc", "graph_large")


def _log(line):
    print(line, flush=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="time shared among the train, attack and diagnose stages")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "mmadvrec" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))

    import pipeline
    import tracing

    _log(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
         f"trace={args.trace} blas_threads={BLAS_THREADS}")
    result = pipeline.run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT, _log)
    if args.trace:
        metrics = {name: {"value": value, "unit": tracing.layer_unit(name)}
                   for name, value in result["layers"].items()}
    else:
        metrics = {name: {"value": value, "unit": pipeline.E2E_UNITS[name]}
                   for name, value in result["scaled"].items()}
    print(json.dumps({"correct": not result["problems"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
