"""Classification of frame axioms: group label, complexity and directness.

Group labels pair the axiom kind with a complexity marker: Sc/Scr for
SubClassOf, Ec/Ecr for EquivalentClasses, Dc/Dcr for DisjointClasses, Ca/Car
for ClassAssertion, and Du for DisjointUnion (which has no complex variant).
An axiom is complex when any of its top-level operands is not a named class.

Directness: an axiom is direct when the designated class is its subject, the
first of its top-level expressions (``model.expressions_of``); a
ClassAssertion is always direct.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True)
class ClassifiedAxiom:
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


def classify(axiom: Axiom, designated: str) -> ClassifiedAxiom:
    """Assign the group label and directness relative to the designated class."""
    if not mentions(axiom, designated):
        raise NotInFrame(f"axiom does not mention {designated}")
    described = Named(designated)
    group = _STEMS[type(axiom)]
    expressions = expressions_of(axiom)
    if group != "Du" and any(not isinstance(expr, Named) for expr in expressions):
        group += "r"
    direct = isinstance(axiom, ClassAssertion) or expressions[0] == described
    return ClassifiedAxiom(axiom, group, direct)


def frame_groups(frame: ClassFrame) -> frozenset:
    """Distinct group labels of the frame's axioms."""
    return frozenset(classify(ax, frame.designated).group for ax in frame.axioms)


def pattern_label(frame: ClassFrame) -> str:
    """Distinct group labels of the frame's axioms, sorted and concatenated."""
    return "".join(sorted(frame_groups(frame)))
