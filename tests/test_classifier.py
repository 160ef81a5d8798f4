"""Axiom classification: groups, directness, pattern labels."""

import random

import pytest
from hypothesis import given, strategies as st

import genutil
from owlprose.classifier import (
    NotInFrame,
    classify,
    classify_frame_axiom,
    frame_groups,
    group_of,
    pattern_label,
)
from owlprose.model import (
    ClassAssertion,
    ClassFrame,
    DisjointClasses,
    DisjointUnion,
    EquivalentClasses,
    Existential,
    Intersection,
    Named,
    SubClassOf,
    frames,
)

D = ":F"
F, A, B = Named(D), Named(":A"), Named(":B")
COMPLEX = Existential(":p", A)


@pytest.mark.parametrize(
    "axiom, group, direct",
    [
        (SubClassOf(F, A), "Sc", True),
        (SubClassOf(A, F), "Sc", False),
        (SubClassOf(F, COMPLEX), "Scr", True),
        (SubClassOf(A, Intersection((B, F))), "Scr", False),
        (EquivalentClasses((F, A)), "Ec", True),
        (EquivalentClasses((A, F)), "Ec", False),
        (EquivalentClasses((F, COMPLEX)), "Ecr", True),
        (EquivalentClasses((COMPLEX, Intersection((F, A)))), "Ecr", False),
        (DisjointClasses((F, A, B)), "Dc", True),
        (DisjointClasses((A, F)), "Dc", False),
        (DisjointClasses((F, COMPLEX)), "Dcr", True),
        (ClassAssertion(F, ":x"), "Ca", True),
        (ClassAssertion(Intersection((F, A)), ":x"), "Car", True),
        (DisjointUnion(D, (A, B)), "Du", True),
        (DisjointUnion(":A", (F, B)), "Du", False),
        # edge cases: the class named twice, or only inside a complex assertion
        (SubClassOf(F, F), "Sc", True),
        (EquivalentClasses((A, F, F)), "Ec", False),
        (ClassAssertion(Existential(":p", Intersection((A, F))), ":x"), "Car", True),
        (DisjointUnion(D, (F, COMPLEX)), "Du", True),
    ],
)
def test_group_and_directness(axiom, group, direct):
    ca = classify(axiom, D)
    assert (ca.group, ca.direct) == (group, direct)
    assert (genutil.oracle_group(axiom, D), genutil.oracle_direct(axiom, D)) == (group, direct)


def test_designated_occurrence_does_not_count_toward_complexity():
    # the only non-Named operand position holds the designated class itself
    assert classify(SubClassOf(F, A), D).group == "Sc"
    # but any other structured operand does
    assert classify(SubClassOf(F, Intersection((A, B))), D).group == "Scr"


def test_disjoint_union_is_always_simple():
    axiom = DisjointUnion(D, (COMPLEX, Intersection((A, B))))
    assert classify(axiom, D).group == "Du"


def test_classify_rejects_foreign_axiom():
    with pytest.raises(NotInFrame):
        classify(SubClassOf(A, B), D)


def test_pattern_label_sorts_and_dedups():
    frame = ClassFrame(
        D,
        [
            SubClassOf(F, A),
            SubClassOf(F, B),
            SubClassOf(F, COMPLEX),
            EquivalentClasses((F, A)),
        ],
    )
    assert frame_groups(frame) == frozenset({"Sc", "Scr", "Ec"})
    assert pattern_label(frame) == "EcScScr"


def test_pattern_label_of_empty_frame_is_empty():
    assert pattern_label(ClassFrame(D, [])) == ""


@given(st.integers(0, 10**9))
def test_classify_agrees_with_case_analysis_oracle(seed):
    rng = random.Random(seed)
    frame = genutil.gen_frame(rng, n_axioms=4)
    for axiom in frame.axioms:
        ca = classify(axiom, D)
        assert (ca.group, ca.direct) == (
            genutil.oracle_group(axiom, D),
            genutil.oracle_direct(axiom, D),
        )


@given(st.integers(0, 10**9))
def test_frame_core_agrees_with_classify(seed):
    """On every axiom of every frame, the unchecked core and classify give the
    same group, directness and axiom object; the group is the axiom's alone;
    classify still rejects every axiom outside the frame."""
    ontology = genutil.gen_ontology(random.Random(seed), max_axioms=12)
    for iri, frame in frames(ontology).items():
        for axiom in frame.axioms:
            core, checked = classify_frame_axiom(axiom, iri), classify(axiom, iri)
            assert (core.group, core.direct) == (checked.group, checked.direct)
            assert core.axiom is axiom and checked.axiom is axiom
            assert core.group == group_of(axiom) == genutil.oracle_group(axiom, iri)
        assert frame_groups(frame) == {genutil.oracle_group(ax, iri) for ax in frame.axioms}
        assert pattern_label(frame) == genutil.oracle_pattern(frame)
        for axiom in ontology.axioms:
            if iri not in genutil.class_ids_oracle(axiom):
                with pytest.raises(NotInFrame):
                    classify(axiom, iri)
