"""Discourse planning: route each classified axiom to a leaf of the
nucleus/satellite tree the realizer walks (RST, Mann & Thompson 1988).

The tree has up to three blocks, in paragraph order: simple-direct,
complex-direct and the indirect list. Leaves follow the group precedence Sc,
Ec, Dc, Ca, Scr, Ecr inside each block, and axioms within a leaf keep frame
order. Each planned axiom is the frame's own object, on one leaf. Indirect
simple axioms share the direct leaves (an indirect SubClassOf names a
specialisation), so only complex indirect axioms (Scr2/Ecr2) reach the
trailing list, one leaf per axiom. Car, Dcr and Du axioms are never planned.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .classifier import ClassifiedAxiom
from .model import ClassFrame, Named, conjuncts

NUCLEUS = "nucleus"
SATELLITE = "satellite"

ELABORATION = "elaboration"
CONDITION = "condition"
LIST = "list"

_DROPPED_GROUPS = ("Car", "Dcr", "Du")

# Blocks in paragraph order: label, kind, relation, the connector the block
# opens with when another block precedes it, and its leaves in plan order as
# (label, kind, relation). A LIST leaf holds one axiom.
_SKELETON = (
    ("simple-direct", NUCLEUS, None, None, (
        ("sc-super", NUCLEUS, None),
        ("sc-specialised", NUCLEUS, None),
        ("ec", SATELLITE, ELABORATION),
        ("dc", SATELLITE, ELABORATION),
    )),
    ("complex-direct", SATELLITE, ELABORATION, "Additionally", (
        ("ca", SATELLITE, ELABORATION),
        ("scr", NUCLEUS, None),
        ("ecr", SATELLITE, CONDITION),
    )),
    ("indirect-list", SATELLITE, ELABORATION, None, (
        ("indirect-scr", NUCLEUS, LIST),
        ("indirect-ecr", NUCLEUS, LIST),
    )),
)


@dataclass
class RstNode:
    """One node of the discourse tree.

    Leaves carry axioms and no children; the relation is the node's relation
    to its parent (None for the root and for plain nucleus children). The
    root also records which class the tree describes.
    """

    kind: str  # NUCLEUS or SATELLITE
    relation: str | None
    label: str
    axioms: list = field(default_factory=list)
    children: list = field(default_factory=list)
    connector: str | None = None
    designated: str | None = None


def _route(ca: ClassifiedAxiom) -> tuple[str, ClassifiedAxiom] | None:
    """The leaf label for one classified axiom, or None when it is dropped."""
    if ca.group in _DROPPED_GROUPS:
        return None
    if ca.group == "Sc":
        return ("sc-super" if ca.direct else "sc-specialised", ca)
    label = ca.group.lower()
    if not ca.direct and ca.group in ("Scr", "Ecr"):
        return (f"indirect-{label}", ca)
    if ca.group == "Scr" and all(isinstance(op, Named) for op in conjuncts(ca.axiom.super)):
        # A direct Scr's super is never named, so this is an intersection of
        # named classes. A subclass of an intersection is a subclass of every
        # conjunct, and the conjuncts then aggregate into the kind-of sentence
        # instead of spawning a separate complex sentence.
        return ("sc-super", ca._replace(group="Sc"))
    return (label, ca)  # ec, dc, ca, scr, ecr


def build_rst(frame: ClassFrame, classified: list[ClassifiedAxiom]) -> RstNode:
    """Arrange the classified frame into the paragraph tree.

    Simple-direct leaves form the main nucleus (kind-of statements first,
    then specialisations, then equivalences and disjointness satellites);
    complex-direct leaves form an elaboration satellite that opens with
    "Additionally" after simple-direct text; indirect axioms form a trailing
    list, one nucleus per axiom.
    """
    routed = {}
    for ca in classified:
        if route := _route(ca):
            routed.setdefault(route[0], []).append(route[1])

    root = RstNode(NUCLEUS, None, f"class {frame.designated}", designated=frame.designated)
    for block_label, block_kind, block_relation, connector, leaf_specs in _SKELETON:
        children = []
        for label, kind, relation in leaf_specs:
            axioms = routed.get(label)
            if axioms:
                pieces = [[ca] for ca in axioms] if relation == LIST else [axioms]
                children.extend(RstNode(kind, relation, label, axioms=p) for p in pieces)
        if children:
            block = RstNode(block_kind, block_relation, block_label, children=children)
            block.connector = connector if root.children else None
            root.children.append(block)
    return root


def leaves(node: RstNode) -> list[RstNode]:
    """In-order leaf list (nodes that carry axioms)."""
    if not node.children:
        return [node] if node.axioms else []
    result = []
    for child in node.children:
        result.extend(leaves(child))
    return result


def render_debug(node: RstNode, indent: int = 0) -> str:
    """Indented one-node-per-line rendering for --rst-debug and tests."""
    relation = node.relation or "-"
    line = "  " * indent + f"{node.kind} {relation} {node.label}"
    if node.connector:
        line += f" [{node.connector}]"
    if node.axioms:
        line += f" ({len(node.axioms)} axiom{'s' if len(node.axioms) != 1 else ''})"
    parts = [line]
    for child in node.children:
        parts.append(render_debug(child, indent + 1))
    return "\n".join(parts)
