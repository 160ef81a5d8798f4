"""Print one "name sha256" line per output surface of the package, so that
two checkouts can be compared for byte-identical output with one diff.

Run from any directory; the script uses the src/, tests/ and perfbench/ of
the checkout it lives in:

    python3 tools/output_digest.py > after.txt
    python3 ../parent/tools/output_digest.py > before.txt
    diff before.txt after.txt

The surfaces:

  verbalize-text     owlprose verbalize stdout for each fixture class, with
                     the manifest's flags
  verbalize-records  the same in --format records
  rst-debug          the --rst-debug trees the records runs print to stderr
  verbalize-all      owlprose verbalize --class all over each fixture, with
                     the manifest's flags: text stdout, records stdout and
                     the --rst-debug stderr
  survey             owlprose survey fixtures/ stdout
  survey-generated   owlprose survey stdout and stderr over a directory of
                     seeded tests/genutil.gen_ontology files and one
                     300-class perfbench/inputs.synthetic_ontology file
  self-eval          owlprose eval stdout, each fixture against itself
  classify           group and directness of every frame axiom of 1000 seeded
                     tests/genutil.gen_ontology ontologies
  eval-generated     evaluate.emit_report output plus repr((mean,
                     best_version_index, truncated)) for 200 seeded gen_frame
                     references, each against a permuted, a one-dropped and a
                     one-substituted candidate, at caps 1, 5 and 20
  realize            text and records of 6000 seeded tests/genutil.gen_frame
                     frames, with and without a lexicon, with no realizer
                     flags and with both
  equivalents        the first 200 versions evaluate._equivalent_stream gives
                     for each of 1500 seeded frames, as the texts it gives
  parse-errors       str() of the ParseError, in lenient and in strict mode,
                     or of the UndeclaredEntity in strict mode, for 2000
                     seeded tests/genutil.gen_ontology documents, each broken
                     by one edit: a bad character or a parenthesis inserted,
                     the text cut at a random offset, or a lone ":" inserted
  parse              repr of what parsing gives, in lenient and in strict
                     mode, for 2000 seeded tests/genutil.laid_out_document
                     texts: the ontology and its auto-declare warnings, or the
                     exception's type, message, line, column and expected set

Each owlprose command line runs in this process through cli.main, with its
stdout and stderr captured; the script starts no child process. A line that
differs names the surface to look into; its raw output is one command away.

The lines of the last accepted output are kept in tools/output_digest.txt.
To compare the checkout with them:

    python3 tools/output_digest.py --check

prints nothing and exits 0 when every line is equal, and otherwise names
each surface that differs on stderr and exits 1. A change that alters output
on purpose records the new lines with

    python3 tools/output_digest.py > tools/output_digest.txt

tests/test_output_digest.py makes the same comparison for every line, through
surfaces() and differing(), so the test suite fails on any differing surface.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import logging
import pathlib
import random
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
PINNED = ROOT / "tools" / "output_digest.txt"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT)]

import genutil  # noqa: E402
from perfbench import inputs  # noqa: E402
from owlprose.classifier import classify  # noqa: E402
from owlprose.evaluate import _equivalent_stream, emit_report, score_submission  # noqa: E402
from owlprose.model import ClassFrame, LexEntry, frames  # noqa: E402
from owlprose.parser import (  # noqa: E402
    ParseError,
    UndeclaredEntity,
    parse_ontology,
    serialize_axiom,
)
from owlprose.planner import build_rst  # noqa: E402
from owlprose.realizer import RealizeOptions, realize  # noqa: E402

REALIZE_FRAMES = 6000
STREAM_FRAMES = 1500
STREAM_VERSIONS = 200
SURVEY_FILES = 40
SYNTHETIC_CLASSES = 300
CLASSIFY_ONTOLOGIES = 1000
EVAL_FRAMES = 200
EVAL_CAPS = (1, 5, 20)
BROKEN_DOCUMENTS = 2000
LAID_OUT_DOCUMENTS = 2000


def owlprose(*args: str) -> tuple:
    """Run the command line in this process by genutil.run_cli, which sends
    the log records to the captured stderr as a fresh interpreter does, and
    return its (stdout, stderr); fail on a nonzero exit."""
    status, out, err = genutil.run_cli(args)
    if status != 0:
        raise RuntimeError(f"owlprose {' '.join(args)} exited {status}: {err}")
    return out, err


def generated_lexicon() -> dict:
    """Names for the genutil pools, mixing articles, phrases and joiners."""
    classes, props, inds = genutil.make_pools()
    lexicon = {
        id_: LexEntry(f"class {id_[2:]}", article=("a", "an", None)[i % 3])
        for i, id_ in enumerate(classes)
    }
    lexicon[genutil.DESIGNATED] = LexEntry("fever")
    phrases = (("is part of", None), ("has site", None), ("is located", "in"))
    for id_, (phrase, joiner) in zip(props, phrases):
        lexicon[id_] = LexEntry(id_[1:], property_phrase=phrase, joiner=joiner)
    for id_ in inds:
        lexicon[id_] = LexEntry(f"member {id_[2:]}")
    return lexicon


def fixture_surfaces() -> dict:
    """The surfaces made from fixtures/: name -> sha256 object."""
    manifest = json.loads((FIXTURES / "manifest.json").read_text(encoding="utf-8"))
    digests = {
        name: hashlib.sha256()
        for name in ("verbalize-text", "verbalize-records", "rst-debug", "verbalize-all",
                     "self-eval")
    }
    for name, entry in sorted(manifest.items()):
        ontology = str(FIXTURES / entry["ontology"])
        args = [
            "verbalize", "--ontology", ontology,
            "--lexicon", str(FIXTURES / entry["lexicon"]),
            "--class", entry["designated"],
            *(f"--{flag.replace('_', '-')}" for flag, on in entry["flags"].items() if on),
        ]
        text, _ = owlprose(*args)
        records, trees = owlprose(*args, "--format", "records", "--rst-debug")
        args[args.index("--class") + 1] = "all"
        all_text, _ = owlprose(*args)
        all_records, all_trees = owlprose(*args, "--format", "records", "--rst-debug")
        scored, _ = owlprose(
            "eval", "--reference", ontology, "--candidate", ontology,
            "--class", entry["designated"],
        )
        for surface, output in (
            ("verbalize-text", text),
            ("verbalize-records", records),
            ("rst-debug", trees),
            ("verbalize-all", all_text),
            ("verbalize-all", all_records),
            ("verbalize-all", all_trees),
            ("self-eval", scored),
        ):
            digests[surface].update(f"{name}\n{output}\n".encode())
    digests["survey"] = hashlib.sha256(owlprose("survey", str(FIXTURES))[0].encode())
    return digests


def survey_generated_surface():
    rng = random.Random(13)
    with tempfile.TemporaryDirectory() as tmp:
        directory = pathlib.Path(tmp)
        for index in range(SURVEY_FILES):
            ontology = genutil.gen_ontology(rng, max_axioms=24)
            text = inputs.ontology_text(
                sorted(ontology.classes), sorted(ontology.properties),
                sorted(ontology.individuals), ontology.axioms,
            )
            (directory / f"generated_{index:02d}.ofs").write_text(text, encoding="utf-8")
        text, _ = inputs.synthetic_ontology(random.Random(17), SYNTHETIC_CLASSES, 4)
        (directory / "synthetic.ofs").write_text(text, encoding="utf-8")
        stdout, stderr = owlprose("survey", tmp)
        # the auto-declare warnings name the file, which sits in a fresh directory
        stderr = stderr.replace(tmp, "DIR")
    return hashlib.sha256(f"{stdout}\n{stderr}".encode())


def realize_surface():
    digest = hashlib.sha256()
    rng = random.Random(7)
    lexicons = ({}, generated_lexicon())
    option_sets = (RealizeOptions(), RealizeOptions(elide_rolegroup=True, guess_articles=True))
    for _ in range(REALIZE_FRAMES):
        frame = genutil.gen_frame(rng)
        classified = [classify(axiom, frame.designated) for axiom in frame.axioms]
        for lexicon, options in itertools.product(lexicons, option_sets):
            paragraph = realize(build_rst(frame, classified), lexicon, options)
            digest.update(f"{paragraph.text}\n{paragraph.records!r}\n".encode())
    return digest


def equivalents_surface():
    digest = hashlib.sha256()
    rng = random.Random(11)
    for _ in range(STREAM_FRAMES):
        frame = genutil.gen_frame(rng)
        stream = itertools.islice(_equivalent_stream(frame.axioms), STREAM_VERSIONS)
        for texts in stream:
            digest.update(("\t".join(texts) + "\n").encode())
        digest.update(b"\n")
    return digest


def classify_surface():
    digest = hashlib.sha256()
    rng = random.Random(19)
    for _ in range(CLASSIFY_ONTOLOGIES):
        ontology = genutil.gen_ontology(rng, max_axioms=16)
        for iri, frame in sorted(frames(ontology).items()):
            for axiom in frame.axioms:
                classified = classify(axiom, iri)
                fields = (iri, serialize_axiom(axiom), classified.group, str(classified.direct))
                digest.update(("\t".join(fields) + "\n").encode())
    return digest


def eval_candidates(rng: random.Random, frame: ClassFrame) -> list:
    """A permuted candidate (conjuncts reordered, axioms shuffled), one with an
    axiom dropped and one with an axiom replaced by another frame axiom."""
    permuted = list(genutil.conjunct_permuted_candidate(frame).axioms)
    rng.shuffle(permuted)
    dropped = list(frame.axioms)
    del dropped[rng.randrange(len(dropped))]
    substituted = list(frame.axioms)
    classes, props, inds = genutil.make_pools()
    substituted[rng.randrange(len(substituted))] = genutil.gen_frame_axiom(
        rng, classes + [genutil.DESIGNATED], props, inds
    )
    return [ClassFrame(frame.designated, axioms) for axioms in (permuted, dropped, substituted)]


def eval_generated_surface():
    digest = hashlib.sha256()
    rng = random.Random(23)
    for _ in range(EVAL_FRAMES):
        reference = genutil.gen_frame(rng)
        for candidate in eval_candidates(rng, reference):
            for cap in EVAL_CAPS:
                report = score_submission(candidate, reference, cap=cap)
                summary = repr((report.mean, report.best_version_index, report.truncated))
                digest.update(f"{emit_report(report)}{summary}\n".encode())
    return digest


def broken_document(rng: random.Random) -> str:
    """A generated ontology's text, some of its declarations dropped so that
    strict mode has undeclared ids to find, broken by one edit."""
    ontology = genutil.drop_declarations(rng, genutil.gen_ontology(rng), 0.2)
    return genutil.broken_by_one_edit(rng, genutil.ontology_text(ontology))


def parse_errors_surface():
    digest = hashlib.sha256()
    rng = random.Random(29)
    parser_log = logging.getLogger("owlprose.parser")
    level = parser_log.level
    parser_log.setLevel(logging.ERROR)  # no auto-declare warning per id on stderr
    try:
        for _ in range(BROKEN_DOCUMENTS):
            text = broken_document(rng)
            for strict in (False, True):
                try:
                    parse_ontology(text, strict=strict)
                    outcome = "parsed"
                except (ParseError, UndeclaredEntity) as exc:
                    outcome = f"{type(exc).__name__}: {exc}"
                digest.update(f"{outcome}\n".encode())
    finally:
        parser_log.setLevel(level)
    return digest


def parse_surface():
    digest = hashlib.sha256()
    rng = random.Random(37)
    for _ in range(LAID_OUT_DOCUMENTS):
        text = genutil.laid_out_document(rng)
        for strict in (False, True):
            digest.update(f"{genutil.parse_outcome(text, strict)!r}\n".encode())
    return digest


def surfaces() -> dict:
    """Every output surface: name -> hex sha256, in the pinned file's order."""
    digests = fixture_surfaces()
    digests["survey-generated"] = survey_generated_surface()
    digests["realize"] = realize_surface()
    digests["equivalents"] = equivalents_surface()
    digests["classify"] = classify_surface()
    digests["eval-generated"] = eval_generated_surface()
    digests["parse-errors"] = parse_errors_surface()
    digests["parse"] = parse_surface()
    return {name: digest.hexdigest() for name, digest in digests.items()}


def differing(lines: dict) -> list:
    """The surfaces whose line differs from tools/output_digest.txt, or that
    only one side has."""
    pinned = dict(
        line.split(" ", 1) for line in PINNED.read_text(encoding="utf-8").splitlines() if line
    )
    return [name for name in {**pinned, **lines} if pinned.get(name) != lines.get(name)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="one sha256 line per output surface")
    parser.add_argument(
        "--check", action="store_true",
        help=f"compare with {PINNED.name} instead of printing; exit 1 if a surface differs",
    )
    args = parser.parse_args(argv)
    lines = surfaces()
    if not args.check:
        for name, digest in lines.items():
            print(name, digest)
        return 0
    names = differing(lines)
    for name in names:
        print(f"{name}: differs from {PINNED.relative_to(ROOT)}", file=sys.stderr)
    return 1 if names else 0


if __name__ == "__main__":
    sys.exit(main())
