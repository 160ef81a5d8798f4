"""Command-line interface: verbalize classes, survey a corpus, score re-codings.

Usage:
    owlprose verbalize --ontology FILE [--lexicon FILE] --class SELECTOR
    owlprose survey DIRECTORY
    owlprose eval --reference FILE --candidate FILE --class ID

The class selector is a single id (":Settlement"), "@FILE" naming a file with
one id per line, or "all". Every selected frame comes from one pass over the
ontology's axioms. Batch selections are verbalized in sorted id order with
each paragraph preceded by its class id; each paragraph is written as soon as
it is made, and an unknown id in a batch is reported without losing the
others. Diagnostics go to stderr; only data is written to stdout. Exit
status: 0 on success, 1 on parse trouble, an unreadable input, output that
stdout's encoding cannot hold or a stdout that cannot be written (a closed
pipe, a full device), 2 on an unknown class.

The parser and the model, which every command needs, load with this module;
each command imports the rest of what it runs, so ``--version`` and
``--help`` load nothing more and ``eval`` never loads the planner.
"""

from __future__ import annotations

import argparse
import logging
import os
import pathlib
import sys

from . import DEFAULT_CAP, __version__
from .model import UnknownClass, collect_frame, frames
from .parser import (
    GRAMMAR_VERSION,
    LexiconFormatError,
    ParseError,
    SourceDocument,
    UndeclaredEntity,
    load_lexicon,
    parse_ontology,
)

log = logging.getLogger("owlprose")


def _read_id_list(path: str) -> list[str]:
    return [line.strip() for _, line in SourceDocument.from_path(path).rows()]


def positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be a whole number, not {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {value}")
    return value


def cmd_verbalize(args: argparse.Namespace) -> int:
    from .classifier import classify_frame_axiom
    from .planner import build_rst, render_debug
    from .realizer import RealizeOptions, realize

    ontology = parse_ontology(SourceDocument.from_path(args.ontology), strict=args.strict)
    lexicon = {}
    lexicon_path = args.lexicon or os.environ.get("OWLPROSE_LEXICON")
    if lexicon_path:
        lexicon = load_lexicon(SourceDocument.from_path(lexicon_path))

    if args.class_id == "all":
        ids, batch = sorted(ontology.classes), True
    elif args.class_id.startswith("@"):
        ids, batch = sorted(_read_id_list(args.class_id[1:])), True
    else:
        ids, batch = [args.class_id], False

    options = RealizeOptions(
        elide_rolegroup=args.elide_rolegroup, guess_articles=args.guess_articles
    )
    index = frames(ontology)
    unknown = 0
    separator = ""  # a blank line between batch paragraphs
    for class_id in ids:
        frame = index.get(class_id)
        if frame is None:
            print(f"owlprose: unknown class {class_id}", file=sys.stderr)
            unknown += 1
            continue
        classified = [classify_frame_axiom(axiom, class_id) for axiom in frame.axioms]
        tree = build_rst(frame, classified)
        if args.rst_debug:
            print(render_debug(tree), file=sys.stderr)
        paragraph = realize(tree, lexicon, options)
        if args.format == "records":
            body = "\n".join(f"{label}\t{text}" for label, text in paragraph.records)
        else:
            body = paragraph.text
        sys.stdout.write(f"{separator}{class_id}\n{body}\n" if batch else f"{body}\n")
        separator = "\n"
    return 2 if unknown else 0


def cmd_survey(args: argparse.Namespace) -> int:
    from .survey import emit_report, survey

    directory = pathlib.Path(args.directory)
    if not directory.is_dir():
        print(f"owlprose: not a readable directory: {directory}", file=sys.stderr)
        return 1
    skipped = 0

    def corpus():
        """Each readable file's ontology, parsed when the survey reaches it."""
        nonlocal skipped
        for path in sorted(directory.rglob("*.ofs")):
            if not (path.is_file() or path.is_dir()):  # reading a FIFO would block
                log.warning("skipping %s: not a regular file", path)
                skipped += 1
                continue
            try:
                yield parse_ontology(SourceDocument.from_path(path), strict=args.strict)
            except (ParseError, UndeclaredEntity) as exc:  # the message names the file
                log.warning("skipping %s", exc)
                skipped += 1
            except OSError as exc:
                log.warning("skipping %s: %s", path, exc.strerror)
                skipped += 1

    stats = survey(corpus())
    if skipped:
        print(f"skipped {skipped} file(s)", file=sys.stderr)
    sys.stdout.write(emit_report(stats))
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    from .evaluate import emit_report, score_submission

    reference = parse_ontology(SourceDocument.from_path(args.reference), strict=args.strict)
    candidate = parse_ontology(SourceDocument.from_path(args.candidate), strict=args.strict)
    side_frames = {}
    for side, path, ontology in (
        ("reference", args.reference, reference), ("candidate", args.candidate, candidate)
    ):
        try:
            side_frames[side] = collect_frame(ontology, args.class_id)
        except UnknownClass:
            print(f"owlprose: unknown class {args.class_id} in the {side} file {path}",
                  file=sys.stderr)
    if len(side_frames) < 2:
        return 2
    report = score_submission(side_frames["candidate"], side_frames["reference"], cap=args.cap)
    if report.truncated:
        print(
            f"owlprose: equivalence family larger than cap={args.cap}; "
            "the score is a lower bound",
            file=sys.stderr,
        )
    if args.mean_only:
        print(f"{report.mean:.4f}")
    else:
        sys.stdout.write(emit_report(report))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="owlprose",
        description="Verbalize OWL-EL class descriptions as English paragraphs.",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"owlprose {__version__} (grammar {GRAMMAR_VERSION})",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--strict",
        action="store_true",
        help="reject undeclared entities instead of auto-declaring them",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verbalize = sub.add_parser(
        "verbalize", parents=[common], help="render class descriptions as paragraphs"
    )
    verbalize.add_argument("--ontology", required=True, help="ontology file to read")
    verbalize.add_argument(
        "--lexicon",
        help="lexicon TSV (default: the OWLPROSE_LEXICON environment variable)",
    )
    verbalize.add_argument(
        "--class",
        dest="class_id",
        required=True,
        metavar="SELECTOR",
        help='class id, "@FILE" with one id per line, or "all"',
    )
    verbalize.add_argument(
        "--elide-rolegroup",
        action="store_true",
        help="skip RoleGroup wrappers instead of verbalizing them",
    )
    verbalize.add_argument(
        "--guess-articles",
        action="store_true",
        help="apply a/an by initial vowel when the lexicon gives no article",
    )
    verbalize.add_argument(
        "--rst-debug", action="store_true", help="print the discourse tree to stderr"
    )
    verbalize.add_argument(
        "--format", choices=("text", "records"), default="text",
        help="plain paragraphs or one labeled record per sentence",
    )
    verbalize.set_defaults(func=cmd_verbalize)

    survey_cmd = sub.add_parser(
        "survey", parents=[common], help="tally axiom patterns over a directory"
    )
    survey_cmd.add_argument("directory", help="directory walked for *.ofs files")
    survey_cmd.set_defaults(func=cmd_survey)

    eval_cmd = sub.add_parser(
        "eval", parents=[common], help="score a re-coding against a reference"
    )
    eval_cmd.add_argument("--reference", required=True, help="reference ontology file")
    eval_cmd.add_argument("--candidate", required=True, help="candidate ontology file")
    eval_cmd.add_argument("--class", dest="class_id", required=True, help="class id to score")
    eval_cmd.add_argument(
        "--mean-only", action="store_true", help="print only the mean score"
    )
    eval_cmd.add_argument(
        "--cap", type=positive_int, default=DEFAULT_CAP,
        help="most equivalent versions to scan (default %(default)s)",
    )
    eval_cmd.set_defaults(func=cmd_eval)
    return parser


def _flush_stdout() -> None:
    """Write out what stdout still holds, so that a failed write (a closed
    pipe, a full disk) ends in main's one-line message rather than in a note
    at exit. What could not be written is dropped: stdout's descriptor is
    pointed at the null device for the interpreter's own flush at exit."""
    try:
        sys.stdout.flush()
    except OSError:
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)
        raise


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, format="%(levelname)s: %(message)s")
    try:
        try:
            args = build_parser().parse_args(argv)
            return args.func(args)
        finally:
            _flush_stdout()
    # UnicodeEncodeError: stdout's encoding lacks a character of a name
    except (ParseError, UndeclaredEntity, LexiconFormatError, OSError, UnicodeEncodeError) as exc:
        print(f"owlprose: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
