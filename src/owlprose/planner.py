"""Discourse planning: route each classified axiom to a leaf of the
nucleus/satellite tree the realizer walks (RST, Mann & Thompson 1988).

``_SKELETON`` is the one table of the plan. It lists up to three blocks, in
paragraph order: simple-direct, complex-direct and the indirect list. Each
leaf row names the (group, direct) pairs it takes, so routing an axiom is one
lookup, and leaves follow the group precedence Sc, Ec, Dc, Ca, Scr, Ecr
inside each block. Axioms within a leaf keep frame order, and each planned
axiom is the frame's own object, on one leaf. Indirect simple axioms share the
direct leaves (an indirect SubClassOf names a specialisation), so only complex
indirect axioms (Scr2/Ecr2) reach the trailing list, one leaf per axiom. No
row lists Car, Dcr or Du, so those axioms are never planned.

One rule sits outside the table: a direct Scr whose super is an intersection
of named classes is folded into the kind-of leaf as an Sc axiom.
"""

from __future__ import annotations

from .classifier import ClassifiedAxiom
from .model import ClassFrame, Named, _Record, conjuncts

NUCLEUS = "nucleus"
SATELLITE = "satellite"

ELABORATION = "elaboration"
CONDITION = "condition"
LIST = "list"

# Blocks in paragraph order: label, kind, relation, the connector the block
# opens with when another block precedes it, and its leaves in plan order as
# (label, kind, relation, the (group, direct) pairs routed to the leaf). A
# LIST leaf holds one axiom. A pair no row lists (Car, Dcr, Du) is not planned.
_SKELETON = (
    ("simple-direct", NUCLEUS, None, None, (
        ("sc-super", NUCLEUS, None, (("Sc", True),)),
        ("sc-specialised", NUCLEUS, None, (("Sc", False),)),
        ("ec", SATELLITE, ELABORATION, (("Ec", True), ("Ec", False))),
        ("dc", SATELLITE, ELABORATION, (("Dc", True), ("Dc", False))),
    )),
    ("complex-direct", SATELLITE, ELABORATION, "Additionally", (
        ("ca", SATELLITE, ELABORATION, (("Ca", True),)),
        ("scr", NUCLEUS, None, (("Scr", True),)),
        ("ecr", SATELLITE, CONDITION, (("Ecr", True),)),
    )),
    ("indirect-list", SATELLITE, ELABORATION, None, (
        ("indirect-scr", NUCLEUS, LIST, (("Scr", False),)),
        ("indirect-ecr", NUCLEUS, LIST, (("Ecr", False),)),
    )),
)

# The leaf label of each (group, direct) pair that a _SKELETON row lists.
_LEAF_OF = {
    pair: label for *_, leaf_specs in _SKELETON for label, *_, pairs in leaf_specs for pair in pairs
}


class RstNode(_Record):
    """One node of the discourse tree.

    Leaves carry axioms and no children; the relation is the node's relation
    to its parent (None for the root and for plain nucleus children). The
    root also records which class the tree describes.
    """

    def __init__(
        self,
        kind: str,  # NUCLEUS or SATELLITE
        relation: str | None,
        label: str,
        axioms=None,
        children=None,
        connector: str | None = None,
        designated: str | None = None,
    ):
        self.kind = kind
        self.relation = relation
        self.label = label
        self.axioms = [] if axioms is None else axioms
        self.children = [] if children is None else children
        self.connector = connector
        self.designated = designated


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
        if ca.group == "Scr" and ca.direct and all(
            isinstance(op, Named) for op in conjuncts(ca.axiom.super)
        ):
            # A direct Scr's super is never named, so this is an intersection
            # of named classes. A subclass of an intersection is a subclass of
            # every conjunct, and the conjuncts then aggregate into the
            # kind-of sentence instead of spawning a separate complex one.
            ca = ca._replace(group="Sc")
        if label := _LEAF_OF.get((ca.group, ca.direct)):
            routed.setdefault(label, []).append(ca)

    root = RstNode(NUCLEUS, None, f"class {frame.designated}", designated=frame.designated)
    for block_label, block_kind, block_relation, connector, leaf_specs in _SKELETON:
        children = []
        for label, kind, relation, _ in leaf_specs:
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
