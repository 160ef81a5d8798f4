"""Set-up probe: import owlprose and parse what a workload reads once, in a
fresh interpreter, and print the seconds that took.

Usage: python3 setup_probe.py SRC_DIR [ONTOLOGY LEXICON]

The clock starts when this script starts, so interpreter start-up, which no
change to the package can affect, is left out.
"""

import time

START = time.perf_counter()

import logging  # noqa: E402
import sys  # noqa: E402


def main(argv: list[str]) -> int:
    sys.path.insert(0, argv[0])
    quiet = logging.getLogger("owlprose.parser")
    quiet.addHandler(logging.NullHandler())
    quiet.propagate = False
    import owlprose.parser as parser

    if len(argv) == 3:
        parser.parse_ontology(parser.SourceDocument.from_path(argv[1]))
        parser.load_lexicon(parser.SourceDocument.from_path(argv[2]))
    print(repr(time.perf_counter() - START))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
