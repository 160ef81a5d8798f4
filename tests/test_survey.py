"""Corpus survey: pattern tallies, containment counts, the CSV report."""

import random

from hypothesis import given, settings, strategies as st

from owlprose.model import (
    ClassAssertion,
    DisjointUnion,
    EquivalentClasses,
    Existential,
    Named,
    Ontology,
    SubClassOf,
)
from owlprose.survey import ROLES, PatternStats, emit_report, survey

import genutil


def build_corpus():
    """Five classes over two ontologies: two pure Sc, one ScScr, one Du-only
    class and one class with no axioms at all."""
    first = Ontology(
        classes={":A", ":B", ":C"},
        properties={":p"},
        axioms=[
            SubClassOf(Named(":A"), Named(":B")),  # Sc for :A and :B
            SubClassOf(Named(":C"), Existential(":p", Named(":C"))),  # Scr for :C
            SubClassOf(Named(":C"), Named(":B")),  # Sc for :C and :B
        ],
    )
    second = Ontology(
        classes={":D", ":E"},
        axioms=[DisjointUnion(":D", (Named(":D1"), Named(":D2")))],
    )
    return [first, second]


def test_survey_tallies_patterns_per_class():
    stats = survey(build_corpus())
    assert stats.total_classes == 5
    assert stats.per_pattern == {"Sc": 2, "ScScr": 1, "Du": 1, "": 1}
    assert stats.nonempty_classes == 4


def test_survey_counts_containment_once_per_class():
    stats = survey(build_corpus())
    # :B sits in two Sc axioms but counts once
    assert stats.group_containment == {"Sc": 3, "Scr": 1, "Du": 1}
    assert stats.role_containment == {"taxonomy": 3, "alternatives": 1}


def test_roles_partition_the_group_labels():
    members = [group for role in ROLES.values() for group in role]
    assert sorted(members) == ["Ca", "Car", "Dc", "Dcr", "Du", "Ec", "Ecr", "Sc", "Scr"]


def test_report_rows_and_sections():
    text = emit_report(survey(build_corpus()))
    sections = text.split("\n\n")
    assert len(sections) == 3
    pattern_lines = sections[0].splitlines()
    assert pattern_lines[0] == "pattern,count,fraction,fraction_nonempty"
    assert pattern_lines[1] == "Sc,2,0.4000,0.5000"
    # singletons tie on count and sort by label; the empty pattern leads
    assert pattern_lines[2] == ",1,0.2000,0.0000"
    assert pattern_lines[3] == "Du,1,0.2000,0.2500"
    assert pattern_lines[4] == "ScScr,1,0.2000,0.2500"
    role_lines = sections[1].splitlines()
    assert role_lines[0] == "role,fraction,fraction_nonempty"
    assert role_lines[1] == "taxonomy,0.6000,0.7500"
    group_lines = sections[2].splitlines()
    assert group_lines[0] == "group,fraction,fraction_nonempty"
    assert group_lines[1] == "Sc,0.6000,0.7500"
    assert text.endswith("\n")


def test_empty_survey_emits_headers_only():
    text = emit_report(survey([]))
    assert text == (
        "pattern,count,fraction,fraction_nonempty\n"
        "\n"
        "role,fraction,fraction_nonempty\n"
        "\n"
        "group,fraction,fraction_nonempty\n"
    )


def test_pattern_counts_sum_to_total_classes():
    rng = random.Random(20260816)
    corpus = [genutil.gen_ontology(rng) for _ in range(20)]
    stats = survey(corpus)
    assert sum(stats.per_pattern.values()) == stats.total_classes
    assert stats.total_classes == sum(len(o.classes) for o in corpus)


def test_survey_is_invariant_under_corpus_order():
    rng = random.Random(7)
    corpus = [genutil.gen_ontology(rng) for _ in range(10)]
    stats = survey(corpus)
    shuffled = list(corpus)
    rng.shuffle(shuffled)
    again = survey(shuffled)
    assert again.per_pattern == stats.per_pattern
    assert again.role_containment == stats.role_containment
    assert again.group_containment == stats.group_containment
    assert again.total_classes == stats.total_classes


@st.composite
def corpora(draw):
    """Up to five ontologies: generated ones, some with classes left
    undeclared, and empty ones."""
    corpus = []
    for seed, kind in draw(st.lists(
        st.tuples(st.integers(0, 2**32 - 1), st.sampled_from(("full", "partial", "empty"))),
        max_size=5,
    )):
        rng = random.Random(seed)
        if kind == "empty":
            corpus.append(Ontology())
        else:
            ontology = genutil.gen_ontology(rng, max_axioms=12)
            share = 0.3 if kind == "partial" else 0.0
            corpus.append(genutil.drop_declarations(rng, ontology, share))
    return corpus


@settings(max_examples=150, deadline=None)
@given(corpora())
def test_survey_matches_the_oracle(corpus):
    stats = survey(corpus)
    expected = genutil.survey_oracle(corpus)
    assert stats.per_pattern == expected["per_pattern"]
    assert stats.role_containment == expected["role_containment"]
    assert stats.group_containment == expected["group_containment"]
    assert stats.total_classes == expected["total_classes"]
