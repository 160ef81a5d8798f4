"""Classification of frame axioms: group label, complexity and directness.

Group labels pair the axiom kind with a complexity marker: Sc/Scr for
SubClassOf, Ec/Ecr for EquivalentClasses, Dc/Dcr for DisjointClasses, Ca/Car
for ClassAssertion, and Du for DisjointUnion (which has no complex variant).
An axiom is complex when any of its top-level operands is not a named class.
A group label depends on the axiom alone (``group_of``), so a survey computes
it once per axiom, whichever classes the axiom describes.

Directness depends on the designated class: an axiom is direct when the
designated class is its subject, the first of its top-level expressions
(``model.expressions_of``); a ClassAssertion is always direct.

``classify`` first checks that the axiom mentions the designated class and
raises NotInFrame when it does not; ``classify_frame_axiom`` is the same
classification without that check, for axioms taken from the class's own
frame, which ``model.frames`` has already proved mention it.
"""

from __future__ import annotations

from typing import NamedTuple

from .model import (
    Axiom,
    ClassAssertion,
    ClassFrame,
    DisjointClasses,
    DisjointUnion,
    EquivalentClasses,
    Named,
    SubClassOf,
    expressions_of,
    mentions,
)


class NotInFrame(ValueError):
    """The axiom does not mention the designated class."""


class ClassifiedAxiom(NamedTuple):
    """An axiom with its group label and orientation w.r.t. a designated class."""

    axiom: Axiom
    group: str
    direct: bool


# group label stem per axiom kind; complex axioms add "r", except DisjointUnion
_STEMS = {
    SubClassOf: "Sc",
    EquivalentClasses: "Ec",
    DisjointClasses: "Dc",
    ClassAssertion: "Ca",
    DisjointUnion: "Du",
}


def group_of(axiom: Axiom) -> str:
    """The axiom's group label: its kind's stem, plus "r" when a top-level
    expression is not a named class, never for DisjointUnion."""
    stem = _STEMS[type(axiom)]
    if stem != "Du":
        for expr in expressions_of(axiom):
            if not isinstance(expr, Named):
                return stem + "r"
    return stem


def classify_frame_axiom(axiom: Axiom, designated: str) -> ClassifiedAxiom:
    """``classify`` for an axiom of the designated class's frame: the caller
    vouches that the axiom mentions the class, so nothing checks it."""
    subject = expressions_of(axiom)[0]
    direct = isinstance(axiom, ClassAssertion) or (
        isinstance(subject, Named) and subject.iri == designated
    )
    return ClassifiedAxiom(axiom, group_of(axiom), direct)


def classify(axiom: Axiom, designated: str) -> ClassifiedAxiom:
    """Assign the group label and directness relative to the designated class.

    Raises NotInFrame when the axiom does not mention the class."""
    if not mentions(axiom, designated):
        raise NotInFrame(f"axiom does not mention {designated}")
    return classify_frame_axiom(axiom, designated)


def frame_groups(frame: ClassFrame) -> frozenset:
    """Distinct group labels of the frame's axioms."""
    return frozenset(classify(ax, frame.designated).group for ax in frame.axioms)


def pattern_label(frame: ClassFrame) -> str:
    """Distinct group labels of the frame's axioms, sorted and concatenated."""
    return "".join(sorted(frame_groups(frame)))
