"""Benchmark entry point for meshnet.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: the package is imported from
``src/``, and the run exits with status 2 when the sources are missing.
With ``--trace 0`` the run sets the workload up three times (reporting the
median set-up time), then runs ops for ``--seconds`` and prints the
end-to-end metrics, every time in CPU seconds.  With ``--trace 1`` it runs half the time untraced and
half traced, then a tracemalloc pass and the layer-cost probe, and prints
the per-layer metrics.  The last line of standard output is the result
object; the line before it holds provenance, the tail percentile with its
sample count, and digests of the workload's outputs.  The full report,
every span included, is written to ``.bench_out/``.
"""

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOAD_NAMES = ("train_ico3", "eqgap_small", "ingest_ico4")
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None):
    parser = argparse.ArgumentParser(description="meshnet benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "meshnet", "__init__.py")):
        print(f"perfbench: no meshnet sources under {src}", file=sys.stderr)
        return 2
    # BLAS reads its thread count when numpy loads, so pin it first.  One
    # thread: ops are timed in CPU seconds, which extra threads would inflate
    # with their spin-waiting.  The seed variable would change the default
    # config, and so config_hash.
    for var in BLAS_ENV:
        os.environ[var] = "1"
    os.environ.pop("MESHNET_SEED", None)
    sys.path.insert(0, src)
    import bench

    out_dir = os.path.join(ROOT, ".bench_out")
    result, details, report = bench.measure(args.workload, args.seed, args.seconds,
                                            bool(args.trace), out_dir)
    path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(report, fh)
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
