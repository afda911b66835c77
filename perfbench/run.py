"""Benchmark entry point.

    python3 perfbench/run.py --workload {tcn-train,ppo-train,eval-long} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/``. The last line of standard output is the result object; the
line before it records the environment, the named metrics and, in the
traced run, the attribution. ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer ones. Exits 2 without a result when the
checkout has no ``src/optiqkd``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from workloads import SIZES, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def pin_threads() -> None:
    """One BLAS thread and the package's default of one worker thread.
    Must run before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("OPTIQKD_THREADS", None)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(SIZES), default="full",
                        help="op sizes; tiny is for the smoke test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    src = ROOT / "src"
    if not (src / "optiqkd" / "__init__.py").is_file():
        print(f"perfbench: no package source at {src}/optiqkd", file=sys.stderr)
        return 2
    pin_threads()
    sys.path.insert(0, str(src))
    import optiqkd
    if Path(optiqkd.__file__).resolve().parent != (src / "optiqkd").resolve():
        print(f"perfbench: imported optiqkd from {optiqkd.__file__}, not {src}", file=sys.stderr)
        return 2
    import bench

    info, result = bench.run(ROOT, args.workload, args.seed, args.seconds,
                             bool(args.trace), args.size)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
