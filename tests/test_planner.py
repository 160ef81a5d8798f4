"""Discourse planning: leaf routing, the named-super fold, tree shape."""

import random

from hypothesis import given, strategies as st

import genutil
from owlprose.classifier import classify
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
)
from owlprose import planner, realizer
from owlprose.planner import build_rst, leaves, render_debug

D = ":F"
F, A, B, C = Named(D), Named(":A"), Named(":B"), Named(":C")
COMPLEX = Existential(":p", A)


def classify_all(axioms):
    return [classify(ax, D) for ax in axioms]


def plan(axioms):
    """(label, classified axioms) for each leaf of the planned frame."""
    tree = build_rst(ClassFrame(D, list(axioms)), classify_all(axioms))
    return [(leaf.label, leaf.axioms) for leaf in leaves(tree)]


def test_leaves_route_and_sort_by_precedence():
    axioms = [
        EquivalentClasses((F, A)),  # Ec, simple direct
        SubClassOf(F, COMPLEX),  # Scr1, complex direct
        SubClassOf(F, A),  # Sc, simple direct
        ClassAssertion(F, ":x"),  # Ca, complex direct block
        SubClassOf(A, Intersection((B, F))),  # Scr2, indirect
    ]
    planned = plan(axioms)
    assert [label for label, _ in planned] == ["sc-super", "ec", "ca", "scr", "indirect-scr"]
    assert [[ca.group for ca in group] for _, group in planned] == [
        ["Sc"], ["Ec"], ["Ca"], ["Scr"], ["Scr"]
    ]


def test_simple_indirect_axioms_are_always_converted():
    axioms = [
        SubClassOf(A, F),
        EquivalentClasses((A, F)),
        DisjointClasses((B, F, A)),
    ]
    planned = plan(axioms)
    # stated from the frame class's side, on the leaves direct axioms use,
    # each as the frame's own axiom
    assert [label for label, _ in planned] == ["sc-specialised", "ec", "dc"]
    for (_, [ca]), axiom in zip(planned, axioms, strict=True):
        assert ca.axiom is axiom and not ca.direct


def test_car_dcr_du_are_dropped():
    axioms = [
        ClassAssertion(Intersection((F, A)), ":x"),
        DisjointClasses((F, COMPLEX)),
        DisjointUnion(D, (A, B)),
    ]
    assert [classify(ax, D).group for ax in axioms] == ["Car", "Dcr", "Du"]
    tree = build_rst(ClassFrame(D, axioms), classify_all(axioms))
    assert tree.children == []
    assert leaves(tree) == []


def test_named_super_intersection_splits_into_conjuncts():
    # one planned axiom on the kind-of leaf, which lists its conjuncts
    axiom = SubClassOf(F, Intersection((A, B, C)))
    [(label, [ca])] = plan([axiom])
    assert label == "sc-super"
    assert ca.axiom is axiom and ca.group == "Sc" and ca.direct


def test_super_intersection_with_structure_is_not_split():
    axiom = SubClassOf(F, Intersection((A, COMPLEX)))
    [(label, group)] = plan([axiom])
    assert label == "scr"
    assert [ca.axiom for ca in group] == [axiom]


def test_indirect_scr_is_not_split():
    # same named-only intersection, but the frame class sits on the sub side
    axiom = SubClassOf(B, Intersection((A, F)))
    [(label, group)] = plan([axiom])
    assert label == "indirect-scr"
    assert [ca.axiom for ca in group] == [axiom]


@given(st.integers(0, 10**9))
def test_plan_covers_the_frame_and_adds_nothing(seed):
    frame = genutil.gen_frame(random.Random(seed))
    tree = build_rst(frame, [classify(ax, frame.designated) for ax in frame.axioms])
    planned = sorted(id(ca.axiom) for leaf in leaves(tree) for ca in leaf.axioms)
    expected = sorted(
        id(axiom)
        for axiom in frame.axioms
        if genutil.oracle_group(axiom, frame.designated) not in ("Car", "Dcr", "Du")
    )
    assert planned == expected


FULL_FRAME = [
    SubClassOf(F, A),
    SubClassOf(B, F),
    EquivalentClasses((F, C)),
    DisjointClasses((F, B)),
    ClassAssertion(F, ":x"),
    SubClassOf(F, COMPLEX),
    EquivalentClasses((F, Intersection((A, COMPLEX)))),
    SubClassOf(C, Intersection((B, F))),
    EquivalentClasses((COMPLEX, F)),
]


def test_tree_shape_for_a_full_frame():
    frame = ClassFrame(D, FULL_FRAME)
    tree = build_rst(frame, classify_all(FULL_FRAME))
    assert tree.designated == D
    assert [block.label for block in tree.children] == [
        "simple-direct",
        "complex-direct",
        "indirect-list",
    ]
    assert [leaf.label for leaf in leaves(tree)] == [
        "sc-super",
        "sc-specialised",
        "ec",
        "dc",
        "ca",
        "scr",
        "ecr",
        "indirect-scr",
        "indirect-ecr",
    ]
    assert tree.children[1].connector == "Additionally"
    indirect = tree.children[2]
    assert all(len(leaf.axioms) == 1 for leaf in indirect.children)


def test_realize_runs_the_templates_in_plan_order(monkeypatch):
    ran = []
    for label, template in list(realizer._TEMPLATES.items()):
        def spy(p, leaf, template=template):
            ran.append(leaf.label)
            template(p, leaf)

        monkeypatch.setitem(realizer._TEMPLATES, label, spy)
    tree = build_rst(ClassFrame(D, FULL_FRAME), classify_all(FULL_FRAME))
    realizer.realize(tree, {})
    assert ran == [leaf.label for leaf in leaves(tree)]


def test_the_skeleton_is_the_one_table_of_leaves():
    rows = [row for *_, leaf_specs in planner._SKELETON for row in leaf_specs]
    assert sorted(label for label, *_ in rows) == sorted(realizer._TEMPLATES)
    pairs = [pair for *_, row_pairs in rows for pair in row_pairs]
    assert len(pairs) == len(set(pairs))
    rng = random.Random(23023)
    for _ in range(200):
        frame = genutil.gen_frame(rng)
        for ca in classify_all(frame.axioms):
            tree = build_rst(ClassFrame(D, [ca.axiom]), [ca])
            assert bool(leaves(tree)) == (ca.group not in ("Car", "Dcr", "Du")), ca


def test_connector_absent_without_simple_direct_text():
    axioms = [SubClassOf(F, COMPLEX)]
    tree = build_rst(ClassFrame(D, axioms), classify_all(axioms))
    assert [block.label for block in tree.children] == ["complex-direct"]
    assert tree.children[0].connector is None


def test_empty_frame_builds_a_bare_root():
    tree = build_rst(ClassFrame(D, []), [])
    assert tree.children == []
    assert leaves(tree) == []


def test_render_debug_lists_one_node_per_line():
    frame = ClassFrame(D, [SubClassOf(F, A)])
    tree = build_rst(frame, classify_all(frame.axioms))
    text = render_debug(tree)
    lines = text.splitlines()
    assert lines[0].startswith("nucleus - class :F")
    assert any("sc-super (1 axiom)" in line for line in lines)
    assert all(line.startswith(("nucleus", "satellite", " ")) for line in lines)
