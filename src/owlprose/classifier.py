"""Classification of frame axioms: group label, complexity and directness.

Group labels pair the axiom kind with a complexity marker: Sc/Scr for
SubClassOf, Ec/Ecr for EquivalentClasses, Dc/Dcr for DisjointClasses, Ca/Car
for ClassAssertion, and Du for DisjointUnion (which has no complex variant).
An axiom is complex when any of its top-level operands, other than the
designated class itself, is not a named class.

Directness: a SubClassOf is direct when the designated class is the sub side;
EquivalentClasses/DisjointClasses are direct when the designated class is the
first listed argument; ClassAssertion is always direct; DisjointUnion is
direct when the designated class is the union class.
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


def _is_complex(axiom: Axiom, designated: str) -> bool:
    return any(
        not isinstance(expr, Named)
        for expr in expressions_of(axiom)
        if expr != Named(designated)
    )


def classify(axiom: Axiom, designated: str) -> ClassifiedAxiom:
    """Assign the group label and directness relative to the designated class."""
    if not mentions(axiom, designated):
        raise NotInFrame(f"axiom does not mention {designated}")
    complex_ = _is_complex(axiom, designated)
    if isinstance(axiom, SubClassOf):
        group = "Scr" if complex_ else "Sc"
        direct = axiom.sub == Named(designated)
    elif isinstance(axiom, EquivalentClasses):
        group = "Ecr" if complex_ else "Ec"
        direct = axiom.operands[0] == Named(designated)
    elif isinstance(axiom, DisjointClasses):
        group = "Dcr" if complex_ else "Dc"
        direct = axiom.operands[0] == Named(designated)
    elif isinstance(axiom, ClassAssertion):
        group = "Car" if complex_ else "Ca"
        direct = True
    elif isinstance(axiom, DisjointUnion):
        group = "Du"
        direct = axiom.union_class == designated
    else:
        raise TypeError(f"not an axiom: {axiom!r}")
    return ClassifiedAxiom(axiom, group, direct)


def frame_groups(frame: ClassFrame) -> frozenset:
    """Distinct group labels of the frame's axioms."""
    return frozenset(classify(ax, frame.designated).group for ax in frame.axioms)


def pattern_label(frame: ClassFrame) -> str:
    """Distinct group labels of the frame's axioms, sorted and concatenated."""
    return "".join(sorted(frame_groups(frame)))
