"""The acceptance gate.

Each test here carries a criterion number in its name; the conftest summary
aggregates them into one PASS/FAIL line per criterion at the end of the run.
Fixture paragraphs are compared after whitespace collapse, randomized checks
run against the independent oracles in genutil, and the timed criteria assert
their budgets directly.
"""

import random
import time

import pytest

import genutil
from owlprose.classifier import classify, pattern_label
from owlprose.evaluate import enumerate_equivalents, levenshtein, score_submission
from owlprose.model import Intersection, Named, SubClassOf, collect_frame
from owlprose.parser import SourceDocument, parse_ontology, serialize_axiom
from owlprose.planner import build_rst, leaves
from owlprose.realizer import realize
from owlprose.survey import survey

APPENDIX = [f"appendix_{i:02d}" for i in range(1, 11)]
TABLE2 = ["table2_travel", "table2_snomed", "table2_efo"]

FLAG_OPTIONS = {
    "elide_rolegroup": "--elide-rolegroup",
    "guess_articles": "--guess-articles",
}


def collapse(text: str) -> str:
    return " ".join(text.split())


def run_verbalize(fixture_dir, entry) -> str:
    argv = [
        "verbalize",
        "--ontology", str(fixture_dir / entry["ontology"]),
        "--lexicon", str(fixture_dir / entry["lexicon"]),
        "--class", entry["designated"],
    ]
    for flag, option in FLAG_OPTIONS.items():
        if entry["flags"].get(flag):
            argv.append(option)
    status, out, _ = genutil.run_cli(argv)
    assert status == 0
    return out


def load_frame(fixture_dir, entry):
    ontology = parse_ontology(SourceDocument.from_path(fixture_dir / entry["ontology"]))
    return collect_frame(ontology, entry["designated"])


def test_criterion_1_appendix_paragraphs_reproduce(manifest, fixture_dir):
    start = time.perf_counter()
    for name in APPENDIX:
        entry = manifest[name]
        produced = run_verbalize(fixture_dir, entry)
        assert collapse(produced) == collapse(entry["expected"]), name
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"appendix reproduction took {elapsed:.2f}s"


@pytest.mark.parametrize("name", TABLE2)
def test_criterion_2_comparison_paragraphs_reproduce(manifest, fixture_dir, name):
    entry = manifest[name]
    assert collapse(run_verbalize(fixture_dir, entry)) == collapse(entry["expected"])


@pytest.mark.parametrize("name", APPENDIX + TABLE2)
def test_criterion_3_self_and_permuted_scores_are_exactly_one(
    manifest, fixture_dir, name
):
    frame = load_frame(fixture_dir, manifest[name])
    assert score_submission(frame, frame).mean == 1.0
    permuted = genutil.conjunct_permuted_candidate(frame)
    assert score_submission(permuted, frame).mean == 1.0


def test_criterion_4_edit_distance_matches_recursive_oracle():
    rng = random.Random(44004)
    start = time.perf_counter()
    for _ in range(500):
        a = "".join(rng.choice("abc") for _ in range(rng.randint(0, 8)))
        b = "".join(rng.choice("abc") for _ in range(rng.randint(0, 8)))
        assert levenshtein(a, b) == genutil.lev_oracle(a, b), (a, b)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"distance comparison took {elapsed:.2f}s"


def test_criterion_5_pattern_labels_match_oracle_and_survey_is_order_free():
    rng = random.Random(55005)
    start = time.perf_counter()
    corpus = [genutil.gen_ontology(rng) for _ in range(200)]
    for ontology in corpus:
        for class_id in ontology.classes:
            frame = collect_frame(ontology, class_id)
            assert pattern_label(frame) == genutil.oracle_pattern(frame)
    baseline = survey(corpus)
    shuffled = list(corpus)
    rng.shuffle(shuffled)
    reordered = survey(shuffled)
    assert reordered.per_pattern == baseline.per_pattern
    assert reordered.role_containment == baseline.role_containment
    assert reordered.group_containment == baseline.group_containment
    assert reordered.total_classes == baseline.total_classes
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"pattern survey checks took {elapsed:.2f}s"


CATEGORY = {
    "sc-super": 0,
    "sc-specialised": 0,
    "ec": 0,
    "dc": 0,
    "ca": 1,
    "scr": 1,
    "ecr": 1,
    "indirect-scr": 2,
    "indirect-ecr": 2,
}
PRECEDENCE = {"Sc": 0, "Ec": 1, "Dc": 2, "Ca": 3, "Scr": 4, "Ecr": 5}
NEVER_REALIZED = {"Car", "Dcr", "Du"}


def test_criterion_6_planner_respects_category_and_group_order():
    rng = random.Random(66006)
    for _ in range(500):
        frame = genutil.gen_frame(rng)
        classified = [classify(ax, frame.designated) for ax in frame.axioms]
        tree = build_rst(frame, classified)
        planned = leaves(tree)
        categories = [CATEGORY[leaf.label] for leaf in planned]
        assert categories == sorted(categories), frame
        for category in (0, 1):
            in_category = [
                PRECEDENCE[ca.group]
                for leaf in planned
                if CATEGORY[leaf.label] == category
                for ca in leaf.axioms
            ]
            assert in_category == sorted(in_category), frame
        indirect = [
            PRECEDENCE[leaf.axioms[0].group]
            for leaf in planned
            if CATEGORY[leaf.label] == 2
        ]
        assert indirect == sorted(indirect), frame
        for leaf in planned:
            for ca in leaf.axioms:
                assert ca.group not in NEVER_REALIZED, frame
        realize(tree, {})  # the plan must always be realizable


def test_criterion_7_enumerator_audit_against_brute_force(record_property):
    axiom = SubClassOf(
        Named(":A"), Intersection((Named(":B"), Named(":C"), Named(":D")))
    )
    family = enumerate_equivalents([axiom])
    oracle = genutil.split_permutation_oracle(
        Named(":A"), (Named(":B"), Named(":C"), Named(":D"))
    )
    audit = f"enumerator={len(family.versions)} oracle={len(oracle)} cited=16"
    record_property("criterion_7_audit", audit)
    print(audit)
    assert len(family.versions) == len(oracle)


def test_criterion_8_serialization_round_trips_exactly():
    rng = random.Random(88008)
    classes, props, inds = genutil.make_pools()
    for _ in range(1000):
        axiom = genutil.gen_axiom(rng, classes, props, inds, depth=rng.randint(0, 3))
        text = serialize_axiom(axiom)
        parsed = parse_ontology(text)
        assert parsed.axioms == [axiom], text
        assert serialize_axiom(parsed.axioms[0]) == text
