"""Core data model: validation, operand access, mention search, frames."""

import pytest

from owlprose.model import (
    ClassAssertion,
    DisjointClasses,
    DisjointUnion,
    EquivalentClasses,
    Existential,
    Intersection,
    Named,
    Ontology,
    SubClassOf,
    UnknownClass,
    collect_frame,
    expressions_of,
    mentions,
)

A, B, C = Named(":A"), Named(":B"), Named(":C")


def test_intersection_requires_two_operands():
    with pytest.raises(ValueError):
        Intersection((A,))
    Intersection((A, B))  # two is fine


@pytest.mark.parametrize("maker", [EquivalentClasses, DisjointClasses])
def test_nary_axioms_require_two_operands(maker):
    with pytest.raises(ValueError):
        maker((A,))


def test_disjoint_union_requires_two_disjuncts():
    with pytest.raises(ValueError):
        DisjointUnion(":A", (B,))


def test_expressions_of_covers_every_axiom_kind():
    assert expressions_of(SubClassOf(A, B)) == (A, B)
    assert expressions_of(EquivalentClasses((A, B, C))) == (A, B, C)
    assert expressions_of(DisjointClasses((A, B))) == (A, B)
    assert expressions_of(ClassAssertion(A, ":rome")) == (A,)
    assert expressions_of(DisjointUnion(":A", (B, C))) == (A, B, C)


def test_mentions_searches_nested_fillers():
    axiom = SubClassOf(A, Intersection((B, Existential(":p", C))))
    assert mentions(axiom, ":C")
    assert not mentions(axiom, ":D")


def test_mentions_sees_disjoint_union_class():
    axiom = DisjointUnion(":A", (B, C))
    assert mentions(axiom, ":A")
    assert mentions(axiom, ":B")


def test_mentions_ignores_individuals():
    assert not mentions(ClassAssertion(A, ":rome"), ":rome")


def test_collect_frame_keeps_ontology_order():
    axioms = [
        SubClassOf(A, B),
        SubClassOf(B, C),  # does not mention :A
        DisjointClasses((A, C)),
    ]
    ontology = Ontology(classes={":A", ":B", ":C"}, axioms=axioms)
    frame = collect_frame(ontology, ":A")
    assert frame.designated == ":A"
    assert frame.axioms == [axioms[0], axioms[2]]


def test_collect_frame_rejects_undeclared_class():
    ontology = Ontology(classes={":A"})
    with pytest.raises(UnknownClass):
        collect_frame(ontology, ":Nope")


def test_collect_frame_empty_frame_is_allowed():
    ontology = Ontology(classes={":A"})
    assert collect_frame(ontology, ":A").axioms == []
