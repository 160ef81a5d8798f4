"""Core data model: validation, operand access, mention search, frames."""

import gc
import random

import pytest
from hypothesis import given, settings, strategies as st

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
    class_ids,
    collect_frame,
    expressions_of,
    frames,
    mentions,
)
from owlprose.parser import load_lexicon, parse_ontology

import genutil

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


def check_walk(ontology):
    """class_ids, mentions and frames against the oracles, on one ontology."""
    index = frames(ontology)
    assert index.keys() == ontology.classes
    probes = ontology.classes | ontology.individuals | {":Nowhere"}
    for axiom in ontology.axioms:
        expected = genutil.class_ids_oracle(axiom)
        assert class_ids(axiom) == expected
        for iri in probes | expected:
            assert mentions(axiom, iri) == (iri in expected)
    for iri, frame in index.items():
        assert frame.designated == iri
        oracle = genutil.frame_oracle(ontology, iri).axioms
        assert len(frame.axioms) == len(oracle)
        assert all(got is want for got, want in zip(frame.axioms, oracle))


HAND_BUILT = {
    "undeclared disjunct": Ontology(
        classes={":A", ":B"},
        axioms=[DisjointUnion(":A", (B, Named(":U"))), SubClassOf(Named(":U"), A)],
    ),
    "nested fillers": Ontology(
        classes={":A", ":B", ":C"},
        axioms=[
            SubClassOf(A, Existential(":p", Intersection((B, Existential(":q", C))))),
            EquivalentClasses((B, Existential(":p", Existential(":q", C)))),
        ],
    ),
    "named twice": Ontology(
        classes={":A", ":B"},
        axioms=[
            SubClassOf(A, Intersection((B, Existential(":p", A)))),
            DisjointClasses((A, Existential(":p", A))),
        ],
    ),
    "individual shares a class id": Ontology(
        classes={":A", ":B"},
        individuals={":B"},
        axioms=[ClassAssertion(A, ":B"), SubClassOf(B, A)],
    ),
    "empty": Ontology(),
}


@pytest.mark.parametrize("name", sorted(HAND_BUILT))
def test_walk_matches_the_oracle_on_hand_built_cases(name):
    check_walk(HAND_BUILT[name])


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), share=st.sampled_from((0.0, 0.3)))
def test_walk_matches_the_oracle_on_generated_ontologies(seed, share):
    rng = random.Random(seed)
    ontology = genutil.gen_ontology(rng, max_axioms=12)
    check_walk(genutil.drop_declarations(rng, ontology, share))


# each example runs two full collections, about 40 ms in a pytest process
@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), share=st.sampled_from((0.0, 0.3)))
def test_a_parsed_model_holds_no_reference_cycle(seed, share):
    """Reference counting alone frees what a parse, a lexicon load and
    frames build: with the cyclic collector off, dropping all of it leaves
    the collector nothing to find. The lexicon has one row per declared id;
    about that share of the classes lose their declaration, so the parse
    auto-declares those the axioms mention."""
    rng = random.Random(seed)
    ontology = genutil.drop_declarations(rng, genutil.gen_ontology(rng), share)
    text = genutil.ontology_text(ontology)
    ids = sorted(ontology.classes) + sorted(ontology.properties) + sorted(ontology.individuals)
    lexicon = "".join(
        f"{iri}\tname of {iri[1:]}\t{rng.choice(('', 'a', 'an', 'the'))}\tis related to\tin\n"
        for iri in ids
    )
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        parsed = parse_ontology(text)
        entries = load_lexicon(lexicon)
        index = frames(parsed)
        del parsed, entries, index
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
