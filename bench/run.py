"""fedgate benchmark: one command per workload run, outputs checked.

Usage, from the repository root:

    python3 bench/run.py --workload access --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --write-spec      # regenerate BENCHMARK.json

Workloads: access, flood, train-wide, train-deep. ``--trace 0`` prints every
end-to-end metric, ``--trace 1`` every per-layer metric; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. The exit code is 0 only when every output check
passed. The program is imported from ``src/`` next to this directory; run
files land in ``.bench_run/``.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads, so matrix products use one core
# of the two and do not vary with the machine's core count between commits.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# A fixed string-hash seed gives every run the same dict and set layouts;
# randomised layouts alone move timings by several percent between runs.
# The interpreter reads it only at start-up, so the runner re-executes itself
# (same process, no child) when it is not set.
if os.environ.get("PYTHONHASHSEED") != "0":
    os.environ["PYTHONHASHSEED"] = "0"
    os.execv(sys.executable, [sys.executable, *sys.argv])

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("access", "flood", "train-wide", "train-deep")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="fedgate benchmark")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true", help="write BENCHMARK.json and exit")
    args = parser.parse_args(argv)

    if args.write_spec:
        import spec

        print(spec.write(ROOT / "BENCHMARK.json"))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "fedgate" / "__init__.py").is_file():
        print(f"fedgate sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import suite

    return suite.run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)


if __name__ == "__main__":
    raise SystemExit(main())
