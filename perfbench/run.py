"""owlprose benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the package is imported from its
``src/`` and the generators from ``tests/genutil.py``; without them the
command exits with status 2 and prints no result. ``perfbench/README.md``
describes the workloads and metrics.
"""

import argparse
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "owlprose" / "__init__.py"
GENERATORS = ROOT / "tests" / "genutil.py"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="owlprose benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not PACKAGE.is_file() or not GENERATORS.is_file():
        print(f"perfbench: no owlprose source tree at {ROOT} "
              "(need src/owlprose and tests/genutil.py)", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import owlprose

    if pathlib.Path(owlprose.__file__).resolve() != PACKAGE.resolve():
        print(f"perfbench: imported owlprose from {owlprose.__file__}, not {PACKAGE}",
              file=sys.stderr)
        return 2

    import measure
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    return measure.main(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
