"""In-memory model of the OWL-EL subset: class expressions, axioms, ontologies
and per-class frames.

A class's frame is every axiom that mentions it, at any depth, in ontology
order; ``class_ids`` is the one definition of "mentions". ``collect_frame``
scans the axioms for one class; ``frames`` builds the frame of every declared
class in a single pass, for the whole-ontology commands.

Identifiers are plain ``:``-prefixed tokens kept as strings (including the
colon); human-readable names live in the lexicon, not here.

Expressions and axioms are frozen dataclasses with slots: an instance has no
``__dict__``, and equality and hashing still compare field values. The parser
makes one Named per class id per parsed document, so every mention of an id
in that document is the same object, and a tuple, set or dict comparison of
two such mentions stops at the identity check. A Named built anywhere else
(by the equivalence family, by a test, by another parse) is equal to it by
value, as before. Lexicon entries are frozen dataclasses with slots too, so
a lexicon keeps no ``__dict__`` per id; Ontology and ClassFrame are mutable
dataclasses.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class UnknownClass(KeyError):
    """Raised when a frame is requested for a class the ontology never declares."""


# ---------------------------------------------------------------------------
# Class expressions
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Named:
    """A named class, referenced by its identifier."""

    iri: str


@dataclass(frozen=True, slots=True)
class Intersection:
    """Conjunction of two or more class expressions, in source order."""

    operands: tuple[ClassExpression, ...]

    def __post_init__(self):
        if len(self.operands) < 2:
            raise ValueError("intersection needs at least two operands")


@dataclass(frozen=True, slots=True)
class Existential:
    """Existential restriction: ``property some filler``."""

    prop: str
    filler: ClassExpression


ClassExpression = Named | Intersection | Existential


# ---------------------------------------------------------------------------
# Axioms
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class SubClassOf:
    sub: ClassExpression
    super: ClassExpression


@dataclass(frozen=True, slots=True)
class EquivalentClasses:
    operands: tuple

    def __post_init__(self):
        if len(self.operands) < 2:
            raise ValueError("EquivalentClasses needs at least two operands")


@dataclass(frozen=True, slots=True)
class DisjointClasses:
    operands: tuple

    def __post_init__(self):
        if len(self.operands) < 2:
            raise ValueError("DisjointClasses needs at least two operands")


@dataclass(frozen=True, slots=True)
class ClassAssertion:
    expr: ClassExpression
    individual: str


@dataclass(frozen=True, slots=True)
class DisjointUnion:
    union_class: str
    disjuncts: tuple

    def __post_init__(self):
        if len(self.disjuncts) < 2:
            raise ValueError("DisjointUnion needs at least two disjuncts")


Axiom = SubClassOf | EquivalentClasses | DisjointClasses | ClassAssertion | DisjointUnion


def expressions_of(axiom: Axiom) -> tuple:
    """The top-level class expressions (operands) of an axiom, subject first.

    The first expression is the axiom's subject: the sub of a SubClassOf, the
    first operand of EquivalentClasses/DisjointClasses, the union class of a
    DisjointUnion (wrapped in Named). ClassAssertion contributes only its
    class expression, not the individual.

    This is the one statement of each axiom kind's layout: the classifier,
    the realizer and class_ids read it, and parser.serialize_axiom writes an
    axiom's arguments in this order.
    """
    if isinstance(axiom, SubClassOf):
        return (axiom.sub, axiom.super)
    if isinstance(axiom, (EquivalentClasses, DisjointClasses)):
        return axiom.operands
    if isinstance(axiom, ClassAssertion):
        return (axiom.expr,)
    if isinstance(axiom, DisjointUnion):
        return (Named(axiom.union_class),) + axiom.disjuncts
    raise TypeError(f"not an axiom: {axiom!r}")


def conjuncts(expr: ClassExpression) -> tuple:
    """The operands of an intersection, or the expression alone."""
    return expr.operands if isinstance(expr, Intersection) else (expr,)


def _add_class_ids(expr: ClassExpression, out: set) -> None:
    if isinstance(expr, Named):
        out.add(expr.iri)
    elif isinstance(expr, Intersection):
        for operand in expr.operands:
            _add_class_ids(operand, out)
    elif isinstance(expr, Existential):
        _add_class_ids(expr.filler, out)
    else:
        raise TypeError(f"not a class expression: {expr!r}")


def class_ids(axiom: Axiom) -> set:
    """Every class id the axiom mentions, at any depth: the DisjointUnion class
    included, the individual of a ClassAssertion never."""
    out: set = set()
    for expr in expressions_of(axiom):
        _add_class_ids(expr, out)
    return out


def mentions(axiom: Axiom, iri: str) -> bool:
    """True iff the class id occurs anywhere in the axiom, at any depth."""
    return iri in class_ids(axiom)


# ---------------------------------------------------------------------------
# Lexicon entries
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class LexEntry:
    """One lexicon row: surface name plus optional article, property phrase
    and joiner for an id (class, property or individual); the lexicon dict
    is keyed by that id."""

    preferred_name: str
    article: str | None = None  # "a" | "an" | "the" | None
    property_phrase: str | None = None
    joiner: str | None = None


# ---------------------------------------------------------------------------
# Ontology and frames
# ---------------------------------------------------------------------------

@dataclass
class Ontology:
    """Declared ids plus the axiom list, in document order."""

    classes: set = field(default_factory=set)
    properties: set = field(default_factory=set)
    individuals: set = field(default_factory=set)
    axioms: list = field(default_factory=list)


@dataclass
class ClassFrame:
    """The designated class and every axiom mentioning it, in ontology order."""

    designated: str
    axioms: list = field(default_factory=list)


def collect_frame(ontology: Ontology, iri: str) -> ClassFrame:
    """All axioms of the ontology that mention the class, in ontology order.

    Raises UnknownClass when the class is not declared.
    """
    if iri not in ontology.classes:
        raise UnknownClass(iri)
    return ClassFrame(iri, [ax for ax in ontology.axioms if mentions(ax, iri)])


def frames(ontology: Ontology) -> dict:
    """Every declared class's frame, keyed by class id, built in one pass over
    the axioms: each axiom joins, in ontology order, the frame of every
    declared class it mentions. Mentioned but undeclared ids get no frame."""
    index = {iri: ClassFrame(iri) for iri in ontology.classes}
    for axiom in ontology.axioms:
        for iri in class_ids(axiom):
            frame = index.get(iri)
            if frame is not None:
                frame.axioms.append(axiom)
    return index
