"""Record the output digests the benchmark checks at its default seed.

    python3 perfbench/record_digests.py

Run it only at a commit whose output is known to be right: every later run
at the default seed must reproduce these outputs byte for byte. It runs one
cycle of every workload and fails without writing if any check fails.
"""

import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import measure  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    measure.count_auto_declared()
    table = {}
    for name in workloads.WORKLOADS:
        workload = measure.prepare(name, measure.DEFAULT_SEED)
        workload.setup()
        loop = workloads.Loop({}, complete=False)
        for op in workload.ops():
            loop.run_op(op)
        if loop.failures:
            key, message = loop.failures[0]
            print(f"{name}: {key}: {message}", file=sys.stderr)
            return 1
        table[name] = {key: workloads.digest(text) for key, text in sorted(loop.texts.items())}
    path = measure.HERE / "digests.json"
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {sum(map(len, table.values()))} digests to {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
