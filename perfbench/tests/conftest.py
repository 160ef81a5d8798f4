"""Put the package, the shared generators and the benchmark modules on the
path; run with ``python3 -m pytest perfbench/tests``."""

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]
for path in (ROOT / "perfbench", ROOT / "tests", ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
