"""Command-line behavior: selectors, formats, exit codes, stream separation."""

import inspect
import json
import logging
import os
import pathlib
import random
import subprocess
import sys
import tempfile
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from owlprose import cli, evaluate, model
from owlprose.cli import main
from owlprose.model import Ontology
from owlprose.parser import MAX_NESTING, SourceDocument, parse_ontology
from owlprose.survey import emit_report, survey

import genutil

ROOT = pathlib.Path(__file__).resolve().parent.parent

ONTOLOGY = """\
Ontology(
  Declaration(Class(:Fever))
  Declaration(Class(:Disease))
  Declaration(Class(:Ague))
  SubClassOf(:Fever :Disease)
  SubClassOf(:Ague :Fever)
)
"""

LEXICON = ":Fever\tfever\n:Disease\tdisease\n:Ague\tague\n"


@pytest.fixture
def ontology_path(tmp_path):
    path = tmp_path / "tiny.ofs"
    path.write_text(ONTOLOGY, encoding="utf-8")
    return str(path)


@pytest.fixture
def lexicon_path(tmp_path):
    path = tmp_path / "tiny.tsv"
    path.write_text(LEXICON, encoding="utf-8")
    return str(path)


def verbalize(*extra):
    return main(["verbalize", *extra])


def test_single_class_prints_one_paragraph(capsys, ontology_path, lexicon_path):
    status = verbalize(
        "--ontology", ontology_path, "--lexicon", lexicon_path, "--class", ":Fever"
    )
    assert status == 0
    out, err = capsys.readouterr()
    assert out == (
        "Fever is a kind of disease. "
        "A more specialised kind of fever is ague.\n"
    )
    assert err == ""


def test_batch_prefixes_ids_and_sorts(capsys, ontology_path, lexicon_path):
    status = verbalize(
        "--ontology", ontology_path, "--lexicon", lexicon_path, "--class", "all"
    )
    assert status == 0
    out, _ = capsys.readouterr()
    chunks = out.split("\n\n")
    assert [c.splitlines()[0] for c in chunks] == [":Ague", ":Disease", ":Fever"]


def test_batch_chunks_match_single_runs(capsys, ontology_path, lexicon_path):
    verbalize("--ontology", ontology_path, "--lexicon", lexicon_path, "--class", "all")
    batch, _ = capsys.readouterr()
    for chunk in batch.rstrip("\n").split("\n\n"):
        class_id, _, body = chunk.partition("\n")
        verbalize(
            "--ontology", ontology_path, "--lexicon", lexicon_path, "--class", class_id
        )
        single, _ = capsys.readouterr()
        assert single == body + "\n"


def test_id_file_selector(capsys, tmp_path, ontology_path, lexicon_path):
    id_file = tmp_path / "ids.txt"
    id_file.write_text("# the two leaf classes\n:Fever\n:Ague\n", encoding="utf-8")
    status = verbalize(
        "--ontology", ontology_path, "--lexicon", lexicon_path,
        "--class", f"@{id_file}",
    )
    assert status == 0
    out, _ = capsys.readouterr()
    chunks = out.split("\n\n")
    assert [c.splitlines()[0] for c in chunks] == [":Ague", ":Fever"]


def test_batch_reports_unknown_ids_and_keeps_the_rest(capsys, tmp_path, ontology_path,
                                                     lexicon_path):
    known, mixed = tmp_path / "known.txt", tmp_path / "mixed.txt"
    known.write_text(":Fever\n:Ague\n", encoding="utf-8")
    mixed.write_text(":Zilch\n:Fever\n:Nope\n:Ague\n", encoding="utf-8")
    assert verbalize(
        "--ontology", ontology_path, "--lexicon", lexicon_path, "--class", f"@{known}"
    ) == 0
    expected, _ = capsys.readouterr()
    status = verbalize(
        "--ontology", ontology_path, "--lexicon", lexicon_path, "--class", f"@{mixed}"
    )
    assert status == 2
    out, err = capsys.readouterr()
    assert out == expected
    assert err.splitlines() == ["owlprose: unknown class :Nope", "owlprose: unknown class :Zilch"]


run = genutil.run_cli  # (exit status, stdout, stderr) of one in-process command


def concatenated_single_runs(base: list, ids) -> tuple:
    """What a batch over the ids must give: one single-class run per id in
    sorted order, each paragraph under its id line, blank lines between."""
    status, chunks, err = 0, [], ""
    for class_id in sorted(ids):
        single_status, out, single_err = run([*base, "--class", class_id])
        status = max(status, single_status)
        if out:
            chunks.append(f"{class_id}\n{out}")
        err += single_err
    return status, "\n".join(chunks), err


@pytest.mark.parametrize("seed", [3, 8, 21])
@pytest.mark.parametrize("extra", [(), ("--format", "records", "--rst-debug")])
def test_batch_on_a_generated_ontology_equals_single_runs(tmp_path, seed, extra):
    ontology = genutil.gen_ontology(random.Random(seed), max_axioms=24)
    path = tmp_path / "generated.ofs"
    path.write_text(genutil.ontology_text(ontology), encoding="utf-8")
    base = ["verbalize", "--ontology", str(path), *extra]
    assert run([*base, "--class", "all"]) == concatenated_single_runs(base, ontology.classes)

    # a duplicate and two unknown ids
    ids = sorted(ontology.classes)[::2]
    ids += [ids[0], ":Zilch", ":Nope"]
    id_file = tmp_path / "ids.txt"
    id_file.write_text("\n".join(ids) + "\n", encoding="utf-8")
    expected = concatenated_single_runs(base, ids)
    assert expected[0] == 2
    assert run([*base, "--class", f"@{id_file}"]) == expected


def test_whole_ontology_commands_walk_each_frame_once(tmp_path, monkeypatch):
    """Linear work, counted: survey and verbalize --class all call class_ids
    exactly once per axiom, where a scan per class would call it classes x
    axioms times and a membership check per frame axiom once more for each.
    Every binding of class_ids in the package is counted."""
    rng = random.Random(300)
    classes, props, inds = genutil.make_pools(300, 12, 12)
    axioms = [genutil.gen_axiom(rng, classes, props, inds, rng.randint(0, 2)) for _ in range(1200)]
    ontology = Ontology(set(classes), set(props), set(inds), axioms)
    (tmp_path / "corpus").mkdir()
    path = tmp_path / "corpus" / "large.ofs"
    path.write_text(genutil.ontology_text(ontology), encoding="utf-8")

    calls = []
    class_ids = model.class_ids
    counted = lambda axiom: calls.append(1) or class_ids(axiom)
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "owlprose" and getattr(module, "class_ids", None) is class_ids:
            monkeypatch.setattr(module, "class_ids", counted)
    for argv in (
        ["survey", str(tmp_path / "corpus")],
        ["verbalize", "--ontology", str(path), "--class", "all"],
    ):
        calls.clear()
        assert run(argv)[0] == 0
        assert len(calls) == len(axioms), argv


def test_records_format_labels_each_sentence(capsys, ontology_path, lexicon_path):
    verbalize(
        "--ontology", ontology_path, "--lexicon", lexicon_path,
        "--class", ":Fever", "--format", "records",
    )
    out, _ = capsys.readouterr()
    assert out == (
        "Sc\tFever is a kind of disease.\n"
        "Sc\tA more specialised kind of fever is ague.\n"
    )


def test_rst_debug_goes_to_stderr(capsys, tmp_path, ontology_path, lexicon_path):
    verbalize(
        "--ontology", ontology_path, "--lexicon", lexicon_path,
        "--class", ":Fever", "--rst-debug",
    )
    out, err = capsys.readouterr()
    assert "sc-super" in err
    assert "sc-super" not in out
    # a simple and a complex direct axiom: the complex block carries the connector
    mixed = tmp_path / "mixed.ofs"
    mixed.write_text(
        ONTOLOGY.replace(
            "  SubClassOf(:Ague :Fever)\n",
            "  Declaration(Class(:City))\n"
            "  Declaration(ObjectProperty(:partOf))\n"
            "  SubClassOf(:Fever ObjectSomeValuesFrom(:partOf :City))\n",
        ),
        encoding="utf-8",
    )
    assert verbalize("--ontology", str(mixed), "--class", ":Fever", "--rst-debug") == 0
    out, err = capsys.readouterr()
    assert "  satellite elaboration complex-direct [Additionally]" in err.splitlines()
    assert out.startswith("Fever is a kind of Disease. Additionally, ")
    assert "complex-direct" not in out


def test_lexicon_env_fallback(capsys, monkeypatch, ontology_path, lexicon_path):
    monkeypatch.setenv("OWLPROSE_LEXICON", lexicon_path)
    verbalize("--ontology", ontology_path, "--class", ":Fever")
    out, _ = capsys.readouterr()
    assert out.startswith("Fever is a kind of disease.")


def test_missing_lexicon_falls_back_to_ids(capsys, monkeypatch, ontology_path):
    monkeypatch.delenv("OWLPROSE_LEXICON", raising=False)
    verbalize("--ontology", ontology_path, "--class", ":Fever")
    out, _ = capsys.readouterr()
    assert out.startswith("Fever is a kind of Disease.")


def test_unknown_class_exits_2(capsys, ontology_path):
    status = verbalize("--ontology", ontology_path, "--class", ":Nope")
    assert status == 2
    _, err = capsys.readouterr()
    assert "unknown class :Nope" in err


def test_parse_error_exits_1(capsys, tmp_path):
    bad = tmp_path / "bad.ofs"
    bad.write_text("SubClassOf(:A", encoding="utf-8")
    status = verbalize("--ontology", str(bad), "--class", ":A")
    assert status == 1
    _, err = capsys.readouterr()
    assert err.startswith("owlprose: ")


NOT_UTF8 = b"SubClassOf(:A \xff:B)\n"


@pytest.mark.parametrize("command", ["verbalize", "lexicon", "eval"])
def test_undecodable_input_exits_1_with_one_line(capsys, tmp_path, ontology_path, command):
    bad = tmp_path / "latin1.ofs"
    bad.write_bytes(NOT_UTF8)
    argv = {
        "verbalize": ["verbalize", "--ontology", str(bad), "--class", ":A"],
        "lexicon": ["verbalize", "--ontology", ontology_path, "--lexicon", str(bad),
                    "--class", ":Fever"],
        "eval": ["eval", "--reference", str(bad), "--candidate", str(bad), "--class", ":A"],
    }[command]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"owlprose: {bad}: byte 0xff is not valid UTF-8 at line 1, column 15\n"


@pytest.mark.parametrize("marked", ["ontology", "lexicon", "ids"])
def test_a_byte_order_mark_is_dropped(capsys, tmp_path, marked):
    """A file saved with a UTF-8 byte-order mark, as spreadsheet CSV exports
    are, reads as the same file without one: the lexicon's first row, the
    ontology's first token and the first listed id keep their meaning."""
    texts = {"ontology": ONTOLOGY, "lexicon": LEXICON, "ids": ":Fever\n:Ague\n"}
    outputs = []
    for bom in (False, True):
        paths = {}
        for name, text in texts.items():
            paths[name] = tmp_path / f"{name}-{bom}"
            encoding = "utf-8-sig" if bom and name == marked else "utf-8"
            paths[name].write_text(text, encoding=encoding)
        status = verbalize("--ontology", str(paths["ontology"]), "--lexicon",
                           str(paths["lexicon"]), "--class", f"@{paths['ids']}")
        outputs.append((status, *capsys.readouterr()))
    assert outputs[1] == outputs[0]
    assert outputs[0][0] == 0 and outputs[0][2] == ""
    assert "A more specialised kind of fever is ague." in outputs[0][1]


@pytest.mark.parametrize("char", list(genutil.NOT_LINE_ENDS), ids=lambda c: f"U+{ord(c):04X}")
def test_an_id_list_line_is_one_id(capsys, ontology_path, tmp_path, char):
    """Only line ends end an id in an id list: a line that holds another
    character str.splitlines breaks at is one unknown id, not two ids."""
    ids = tmp_path / "ids.txt"
    ids.write_text(f":Fever{char}:Ague\n", encoding="utf-8")
    assert verbalize("--ontology", ontology_path, "--class", f"@{ids}") == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"owlprose: unknown class :Fever{char}:Ague\n"


def test_an_id_list_with_cr_line_ends_and_a_mark_selects_the_same_classes(
    capsys, ontology_path, tmp_path
):
    outputs = []
    for data in (b":Fever\n# note\n\n:Ague\n", b"\xef\xbb\xbf:Fever\r# note\r\n\r:Ague"):
        ids = tmp_path / "ids.txt"
        ids.write_bytes(data)
        status = verbalize("--ontology", ontology_path, "--class", f"@{ids}")
        outputs.append((status, *capsys.readouterr()))
    assert outputs[1] == outputs[0]
    status, out, err = outputs[0]
    assert (status, err) == (0, "")
    assert [chunk.splitlines()[0] for chunk in out.split("\n\n")] == [":Ague", ":Fever"]


def test_undecodable_byte_after_a_byte_order_mark_counts_columns_after_it(capsys, tmp_path):
    bad = tmp_path / "marked.ofs"
    bad.write_bytes(b"\xef\xbb\xbf" + NOT_UTF8)
    assert main(["verbalize", "--ontology", str(bad), "--class", ":A"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"owlprose: {bad}: byte 0xff is not valid UTF-8 at line 1, column 15\n"


def deep_ontology(tmp_path, depth: int):
    """:F under intersections nested depth deep, each in the last operand of
    the one outside it: the shape that costs the realizer most frames."""
    path = tmp_path / f"deep{depth}.ofs"
    expression = "ObjectIntersectionOf(:A " * depth + ":C" + ")" * depth
    path.write_text(f"Declaration(Class(:F))\nSubClassOf(:F\n{expression})\n", encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("command", ["verbalize", "eval"])
def test_nesting_bound_in_verbalize_and_eval(capsys, tmp_path, command):
    for depth in (MAX_NESTING, MAX_NESTING + 1):
        path = deep_ontology(tmp_path, depth)
        argv = {
            "verbalize": ["verbalize", "--ontology", path, "--class", ":F"],
            "eval": ["eval", "--reference", path, "--candidate", path, "--class", ":F"],
        }[command]
        status = main(argv)
        out, err = capsys.readouterr()
        if depth == MAX_NESTING:
            assert status == 0
            assert out.startswith("F is a kind of") or out.endswith("mean,1.0000\n")
        else:
            assert status == 1
            assert out == ""
            assert err == (
                f"owlprose: {path}: expression nested deeper than {MAX_NESTING} levels "
                f"at line 3, column {len('ObjectIntersectionOf(:A ') * MAX_NESTING + 1}\n"
            )


def test_nesting_bound_in_survey(capsys, caplog, tmp_path):
    deep_ontology(tmp_path, MAX_NESTING)
    assert main(["survey", str(tmp_path)]) == 0
    out, err = capsys.readouterr()
    assert "Scr,3,1.0000,1.0000" in out.splitlines()
    assert "skipped" not in err
    too_deep = deep_ontology(tmp_path, MAX_NESTING + 1)
    with caplog.at_level(logging.WARNING, logger="owlprose"):
        assert main(["survey", str(tmp_path)]) == 0
    out, err = capsys.readouterr()
    assert "Scr,3,1.0000,1.0000" in out.splitlines()
    assert "skipped 1 file(s)" in err
    assert [r.getMessage() for r in caplog.records if "skipping" in r.getMessage()] == [
        f"skipping {too_deep}: expression nested deeper than {MAX_NESTING} levels "
        f"at line 3, column {len('ObjectIntersectionOf(:A ') * MAX_NESTING + 1}"
    ]


def test_strict_mode_reaches_the_parser(capsys, tmp_path):
    undeclared = tmp_path / "undeclared.ofs"
    undeclared.write_text("SubClassOf(:A :B)\n", encoding="utf-8")
    assert verbalize("--ontology", str(undeclared), "--class", ":A", "--strict") == 1
    capsys.readouterr()
    assert verbalize("--ontology", str(undeclared), "--class", ":A") == 0
    capsys.readouterr()


def test_missing_ontology_file_exits_1(capsys, tmp_path):
    status = verbalize("--ontology", str(tmp_path / "absent.ofs"), "--class", ":A")
    assert status == 1
    capsys.readouterr()


# ---------------------------------------------------------------------------
# survey
# ---------------------------------------------------------------------------


def test_survey_reports_and_counts_skips(capsys, caplog, tmp_path):
    (tmp_path / "good.ofs").write_text("SubClassOf(:A :B)\n", encoding="utf-8")
    bad = tmp_path / "bad.ofs"
    bad.write_text("SubClassOf(:A\n", encoding="utf-8")
    (tmp_path / "unrelated.txt").write_text("not an ontology", encoding="utf-8")
    with caplog.at_level(logging.WARNING, logger="owlprose"):
        status = main(["survey", str(tmp_path)])
    assert status == 0
    out, err = capsys.readouterr()
    assert "skipped 1 file(s)" in err
    [warning] = [r.getMessage() for r in caplog.records if "skipping" in r.getMessage()]
    assert warning.startswith(f"skipping {bad}: unexpected end of input at line 2")
    assert warning.count(str(bad)) == 1
    lines = out.splitlines()
    assert lines[0] == "pattern,count,fraction,fraction_nonempty"
    assert "Sc,2,1.0000,1.0000" in lines


def test_survey_skips_an_undecodable_file(capsys, tmp_path):
    (tmp_path / "good.ofs").write_text("SubClassOf(:A :B)\n", encoding="utf-8")
    (tmp_path / "latin1.ofs").write_bytes(NOT_UTF8)
    assert main(["survey", str(tmp_path)]) == 0
    out, err = capsys.readouterr()
    assert "skipped 1 file(s)" in err
    assert "Sc,2,1.0000,1.0000" in out.splitlines()


def test_survey_walks_subdirectories(capsys, tmp_path):
    nested = tmp_path / "sub"
    nested.mkdir()
    (nested / "deep.ofs").write_text("SubClassOf(:A :B)\n", encoding="utf-8")
    assert main(["survey", str(tmp_path)]) == 0
    out, _ = capsys.readouterr()
    assert "Sc,2,1.0000,1.0000" in out.splitlines()


def test_survey_skips_an_unreadable_match(capsys, caplog, tmp_path):
    (tmp_path / "good.ofs").write_text("SubClassOf(:A :B)\n", encoding="utf-8")
    broken = tmp_path / "broken.ofs"
    broken.mkdir()  # matched by *.ofs, but reading it raises OSError
    with caplog.at_level(logging.WARNING, logger="owlprose"):
        assert main(["survey", str(tmp_path)]) == 0
    out, err = capsys.readouterr()
    assert "skipped 1 file(s)" in err
    [warning] = [r.getMessage() for r in caplog.records if "skipping" in r.getMessage()]
    assert warning == f"skipping {broken}: Is a directory"
    assert "Sc,2,1.0000,1.0000" in out.splitlines()


def test_survey_rejects_a_missing_directory(capsys, tmp_path):
    status = main(["survey", str(tmp_path / "nowhere")])
    assert status == 1
    _, err = capsys.readouterr()
    assert "not a readable directory" in err


def test_survey_parses_each_file_after_the_last_is_released(tmp_path, monkeypatch):
    """survey streams the corpus: when a file is parsed, no ontology parsed
    before it is alive, and the report is the survey of the parsed list."""
    rng = random.Random(41)
    for i in range(4):
        text = genutil.ontology_text(genutil.gen_ontology(rng))
        (tmp_path / f"f{i}.ofs").write_text(text, encoding="utf-8")
    (tmp_path / "f2b.ofs").write_text("SubClassOf(:A\n", encoding="utf-8")
    paths = sorted(tmp_path.glob("*.ofs"))
    listed = [parse_ontology(SourceDocument.from_path(p)) for p in paths if p.name != "f2b.ofs"]

    parsed, alive_at_parse = [], []

    def tracked(document, **kwargs):
        alive_at_parse.append(sum(ref() is not None for ref in parsed))
        ontology = parse_ontology(document, **kwargs)
        parsed.append(weakref.ref(ontology))
        return ontology

    monkeypatch.setattr(cli, "parse_ontology", tracked)
    status, out, err = run(["survey", str(tmp_path)])
    assert (status, out) == (0, emit_report(survey(listed)))
    assert err.endswith("skipped 1 file(s)\n") and "skipping" in err
    assert len(alive_at_parse) == len(paths) and len(parsed) == len(listed)
    assert alive_at_parse == [0] * len(paths)


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def test_eval_self_scores_one(capsys, ontology_path):
    status = main(
        ["eval", "--reference", ontology_path, "--candidate", ontology_path,
         "--class", ":Fever"]
    )
    assert status == 0
    out, _ = capsys.readouterr()
    assert out.splitlines()[0] == "reference_axiom,candidate_axiom,score"
    assert out.splitlines()[-1] == "mean,1.0000"


def test_eval_mean_only(capsys, ontology_path):
    main(
        ["eval", "--reference", ontology_path, "--candidate", ontology_path,
         "--class", ":Fever", "--mean-only"]
    )
    out, _ = capsys.readouterr()
    assert out == "1.0000\n"


def test_eval_scores_a_reference_frame_with_no_axioms_one(capsys, tmp_path, ontology_path):
    reference = tmp_path / "reference.ofs"
    reference.write_text("Ontology(\n  Declaration(Class(:Fever))\n)\n", encoding="utf-8")
    status = main(
        ["eval", "--reference", str(reference), "--candidate", ontology_path,
         "--class", ":Fever"]
    )
    assert status == 0
    out, err = capsys.readouterr()
    assert out == "reference_axiom,candidate_axiom,score\nmean,1.0000\n"
    assert err == ""


def test_eval_names_the_broken_file(capsys, tmp_path, ontology_path):
    truncated = tmp_path / "candidate.ofs"
    truncated.write_text(ONTOLOGY[: ONTOLOGY.index(":Ague :Fever") + 5], encoding="utf-8")
    status = main(
        ["eval", "--reference", ontology_path, "--candidate", str(truncated), "--class", ":Fever"]
    )
    assert status == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"owlprose: {truncated}: unexpected end of input at line 6")
    assert err.count("\n") == 1 and ontology_path not in err


def test_eval_unknown_class_exits_2(capsys, ontology_path):
    status = main(
        ["eval", "--reference", ontology_path, "--candidate", ontology_path,
         "--class", ":Nope"]
    )
    assert status == 2
    capsys.readouterr()


def test_eval_names_the_file_that_lacks_the_class(capsys, tmp_path, ontology_path):
    other = tmp_path / "other.ofs"
    other.write_text("Declaration(Class(:Fever))\nDeclaration(Class(:Ague))\n", encoding="utf-8")
    for reference, candidate, class_id, lacking in (
        (ontology_path, str(other), ":Disease", [("candidate", other)]),
        (str(other), ontology_path, ":Disease", [("reference", other)]),
        (str(other), str(other), ":Disease", [("reference", other), ("candidate", other)]),
    ):
        status = main(
            ["eval", "--reference", reference, "--candidate", candidate, "--class", class_id]
        )
        assert status == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [
            f"owlprose: unknown class {class_id} in the {side} file {path}"
            for side, path in lacking
        ]


def test_eval_notes_a_truncated_scan(capsys, tmp_path):
    reference, candidate = tmp_path / "reference.ofs", tmp_path / "candidate.ofs"
    declarations = "".join(f"Declaration(Class(:{c}))\n" for c in "FABC")
    reference.write_text(
        declarations + "SubClassOf(:F ObjectIntersectionOf(:A :B))\n", encoding="utf-8"
    )
    candidate.write_text(declarations + "SubClassOf(:F :C)\n", encoding="utf-8")
    status = main(["eval", "--reference", str(reference), "--candidate", str(candidate),
                   "--class", ":F", "--cap", "1"])
    assert status == 0
    out, err = capsys.readouterr()
    assert out.splitlines()[0] == "reference_axiom,candidate_axiom,score"
    assert out.splitlines()[-1].startswith("mean,")
    assert err == (
        "owlprose: equivalence family larger than cap=1; the score is a lower bound\n"
    )


def test_eval_scores_a_small_reference_against_a_large_candidate(capsys, tmp_path):
    # the assignment keeps only the candidate subsets two rows can reach,
    # never one slot per subset of all 70 candidates
    reference, candidate = tmp_path / "reference.ofs", tmp_path / "candidate.ofs"
    ids = ["F", "A", "B"] + [f"C{k}" for k in range(70)]
    declarations = "".join(f"Declaration(Class(:{c}))\n" for c in ids)
    reference.write_text(
        declarations + "SubClassOf(:F :A)\nEquivalentClasses(:F :B)\n", encoding="utf-8"
    )
    candidate.write_text(
        declarations + "".join(f"SubClassOf(:F :C{k})\n" for k in range(70)), encoding="utf-8"
    )
    status = main(["eval", "--reference", str(reference), "--candidate", str(candidate),
                   "--class", ":F"])
    assert status == 0
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert lines[0] == "reference_axiom,candidate_axiom,score"
    assert [line.split(",")[0] for line in lines[1:3]] == [
        "SubClassOf(:F :A)", "EquivalentClasses(:F :B)",
    ]
    assert len(lines) == 4 and lines[3].startswith("mean,")
    assert err == ""


@pytest.mark.parametrize("cap", ["0", "-3"])
def test_eval_rejects_a_cap_below_1(capsys, ontology_path, cap):
    with pytest.raises(SystemExit) as exit_info:
        main(["eval", "--reference", ontology_path, "--candidate", ontology_path,
              "--class", ":Fever", "--cap", cap])
    assert exit_info.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "--cap" in err and "at least 1" in err


@pytest.mark.parametrize("cap", ["abc", "1.5", ""])
def test_eval_names_a_cap_that_is_not_a_whole_number(capsys, ontology_path, cap):
    with pytest.raises(SystemExit) as exit_info:
        main(["eval", "--reference", ontology_path, "--candidate", ontology_path,
              "--class", ":Fever", "--cap", cap])
    assert exit_info.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"argument --cap: must be a whole number, not {cap!r}" in err
    assert "positive_int" not in err


def test_version_string(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--version"])
    assert exit_info.value.code == 0
    out, _ = capsys.readouterr()
    assert out == "owlprose 0.1.0 (grammar 1)\n"


def fresh(*args, timeout=60, **environ) -> subprocess.CompletedProcess:
    """python -m owlprose.cli with the arguments, in a fresh interpreter with
    only src/ on the path and the given environment variables set."""
    return subprocess.run(
        [sys.executable, "-m", "owlprose.cli", *args],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src"), **environ),
        capture_output=True, encoding="utf-8", timeout=timeout,
    )


def test_the_entry_point_runs_in_a_fresh_interpreter():
    """python -m owlprose.cli, with only src/ on the path, prints what the
    in-process run prints."""
    argv = [
        "verbalize", "--ontology", str(FIXTURES / "table2_travel.ofs"),
        "--lexicon", str(FIXTURES / "table2_travel.tsv"), "--class", ":Settlement",
    ]
    child = fresh(*argv)
    assert (child.returncode, child.stderr) == (0, "")
    assert child.stdout == run(argv)[1]
    version = fresh("--version")
    assert (version.returncode, version.stdout) == (0, "owlprose 0.1.0 (grammar 1)\n")


def test_an_in_process_run_keeps_the_log_records(tmp_path):
    """run gives the stderr a fresh interpreter prints, log records included:
    the survey's skip warning and the auto-declare warnings, in order."""
    (tmp_path / "good.ofs").write_text("SubClassOf(:A :B)\n", encoding="utf-8")
    bad = tmp_path / "bad.ofs"
    bad.write_text("SubClassOf(:A\n", encoding="utf-8")
    child = fresh("survey", str(tmp_path))
    status, out, err = run(["survey", str(tmp_path)])
    assert (status, out, err) == (child.returncode, child.stdout, child.stderr)
    assert f"WARNING: skipping {bad}: unexpected end of input at line 2" in err
    assert err.endswith("skipped 1 file(s)\n")


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="the platform has no FIFOs")
def test_survey_skips_a_fifo(tmp_path):
    """A FIFO named like an ontology is skipped, not read: reading it would
    wait for a writer that never comes."""
    (tmp_path / "good.ofs").write_text("SubClassOf(:A :B)\n", encoding="utf-8")
    fifo = tmp_path / "x.ofs"
    os.mkfifo(fifo)
    child = fresh("survey", str(tmp_path), timeout=10)
    assert child.returncode == 0
    assert child.stderr.splitlines()[-2:] == [
        f"WARNING: skipping {fifo}: not a regular file", "skipped 1 file(s)"
    ]
    assert "Sc,2,1.0000,1.0000" in child.stdout.splitlines()


def test_a_name_stdout_cannot_encode_ends_in_one_line(tmp_path, ontology_path):
    """With an ASCII stdout, a lexicon name holding "é" ends the run with one
    message and exit status 1, not a traceback."""
    lexicon = tmp_path / "cafe.tsv"
    lexicon.write_text(":Fever\tcafé fever\n", encoding="utf-8")
    child = fresh("verbalize", "--ontology", ontology_path, "--lexicon", str(lexicon),
                  "--class", ":Fever", PYTHONIOENCODING="ascii")
    assert (child.returncode, child.stdout) == (1, "")
    [message] = child.stderr.splitlines()
    assert message.startswith("owlprose: 'ascii' codec can't encode character '\\xe9'")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="the platform has no /dev/full")
@pytest.mark.parametrize("argv", [
    ["--version"],
    ["verbalize", "--ontology", str(ROOT / "fixtures" / "appendix_01.ofs"),
     "--class", ":LowerTrunkStructure"],
    ["survey", str(ROOT / "fixtures")],
    ["eval", "--reference", str(ROOT / "fixtures" / "appendix_01.ofs"),
     "--candidate", str(ROOT / "fixtures" / "appendix_01.ofs"),
     "--class", ":LowerTrunkStructure"],
], ids=lambda argv: argv[0])
def test_a_failed_final_flush_ends_in_one_line(argv):
    """With buffered stdout on a full device, the write fails only when
    stdout is flushed; that still ends in one message and exit status 1."""
    with open("/dev/full", "w", encoding="utf-8") as full:
        child = subprocess.run(
            [sys.executable, "-m", "owlprose.cli", *argv],
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONUNBUFFERED=""),
            stdout=full, stderr=subprocess.PIPE, encoding="utf-8", timeout=60,
        )
    assert child.returncode == 1
    [message] = child.stderr.splitlines()
    assert message.startswith("owlprose: [Errno 28]")


def test_eval_help_states_evaluates_default_cap(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["eval", "--help"])
    assert exit_info.value.code == 0
    help_text = " ".join(capsys.readouterr().out.split())
    assert f"most equivalent versions to scan (default {evaluate.DEFAULT_CAP})" in help_text
    args = cli.build_parser().parse_args(
        ["eval", "--reference", "r", "--candidate", "c", "--class", ":A"]
    )
    assert args.cap == evaluate.DEFAULT_CAP
    cap = inspect.signature(evaluate.score_submission).parameters["cap"]
    assert cap.default == evaluate.DEFAULT_CAP


# ---------------------------------------------------------------------------
# any input
# ---------------------------------------------------------------------------

FIXTURES = ROOT / "fixtures"
DESIGNATED = {
    entry["ontology"]: entry["designated"]
    for entry in json.loads((FIXTURES / "manifest.json").read_text(encoding="utf-8")).values()
}
OPENERS = ("ObjectIntersectionOf(:A ", "ObjectSomeValuesFrom(:p ")


@st.composite
def any_input(draw):
    """(bytes of the input, a class id, an intact file to pair it with):
    random bytes, a fixture cut short, or nesting around MAX_NESTING."""
    kind = draw(st.sampled_from(["bytes", "truncated", "nested"]))
    if kind == "bytes":
        return draw(st.binary(max_size=300)), ":A", FIXTURES / "appendix_01.ofs"
    if kind == "truncated":
        name = draw(st.sampled_from(sorted(DESIGNATED)))
        data = (FIXTURES / name).read_bytes()
        return data[: draw(st.integers(0, len(data)))], DESIGNATED[name], FIXTURES / name
    depth = draw(st.integers(MAX_NESTING - 2, MAX_NESTING + 2))
    openers = draw(st.lists(st.sampled_from(OPENERS), min_size=depth, max_size=depth))
    text = f"Declaration(Class(:F))\nSubClassOf(:F\n{''.join(openers)}:C{')' * depth})\n"
    data = text.encode()
    return data[: draw(st.integers(len(data) - 4, len(data)))], ":F", FIXTURES / "appendix_01.ofs"


@settings(max_examples=40, deadline=None)
@given(any_input())
def test_no_input_ends_in_a_traceback(case):
    data, class_id, intact = case
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp, "input.ofs")
        path.write_bytes(data)
        runs = [
            ["verbalize", "--ontology", str(path), "--class", "all"],
            ["verbalize", "--ontology", str(path), "--class", class_id, "--strict"],
            ["verbalize", "--ontology", str(intact), "--class", f"@{path}"],
            ["verbalize", "--ontology", str(intact), "--class", "all", "--lexicon", str(path)],
            ["survey", tmp],
            ["eval", "--reference", str(intact), "--candidate", str(path),
             "--class", class_id, "--cap", "3"],
            ["eval", "--reference", str(path), "--candidate", str(path), "--class", class_id],
        ]
        for argv in runs:
            status, _, err = run(argv)
            assert status in (0, 1, 2), argv
            if status == 1:
                # the log records a fresh interpreter prints (auto-declare
                # warnings) come first, then the one-line message
                *records, message = err.split("\n")[:-1]
                assert message.startswith("owlprose: "), argv
                assert err.endswith("\n"), argv
                assert all(line.startswith("WARNING: ") for line in records), argv
