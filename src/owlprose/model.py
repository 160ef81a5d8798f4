"""In-memory model of the OWL-EL subset: class expressions, axioms, ontologies
and per-class frames.

A class's frame is every axiom that mentions it, at any depth, in ontology
order; ``class_ids`` is the one definition of "mentions". ``collect_frame``
scans the axioms for one class; ``frames`` builds the frame of every declared
class in a single pass, for the whole-ontology commands.

Identifiers are plain ``:``-prefixed tokens kept as strings (including the
colon); human-readable names live in the lexicon, not here.

Expressions, axioms and lexicon entries are frozen value classes with slots:
an instance has no ``__dict__``, a field cannot be set or deleted, and two
values are equal when they have the same class and equal field values. Each
class states its fields once, as its ``__slots__``, and writes only its
``__init__`` (checks, defaults and keywords). ``_Value`` holds the one
``__eq__`` and ``__hash__`` of every frozen class in the package; they, the
repr, pickling and ``copy`` all read the field list that ``_Value`` works out
when a class is created, so importing the package generates no code.
Ontology and ClassFrame are mutable records: equal by value and unhashable.

The parser makes one Named per class id per parsed document, so every
mention of an id in that document is the same object, and a tuple, set or
dict comparison of two such mentions stops at the identity check. A Named
built anywhere else (by the equivalence family, by a test, by another
parse) is equal to it by value.
"""

from __future__ import annotations

from operator import attrgetter


class UnknownClass(KeyError):
    """Raised when a frame is requested for a class the ontology never declares."""


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------

class _Record:
    """What every record class shares: the repr ``Name(field=value, ...)``,
    and for a mutable record, equality by class and field values and no hash.

    A frozen value's fields are its base's, then the ``__slots__`` its class
    declares, in constructor order: a subclass that declares no slot has its
    base's fields. ``_Value`` works them out once per class, as ``_fields``.
    A mutable record declares no slots and keeps ``_fields`` empty: its
    fields are its attributes in the order its ``__init__`` sets them."""

    __slots__ = ()
    _fields = ()

    def __repr__(self):
        names = self._fields or vars(self)
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return vars(self) == vars(other)
        return NotImplemented

    __hash__ = None


class _Value(_Record):
    """A frozen record: equal to an instance of the same class whose field
    values are equal, and hashed by its field values. Its fields are set
    once, by ``__init__`` through ``object.__setattr__``, and are then
    read-only. Pickling and ``copy`` rebuild an instance from its field
    values without calling ``__init__``.

    When a class is created, ``__init_subclass__`` works out its fields by
    ``_Record``'s rule and ``_key``, the ``attrgetter`` that reads them: the
    field value itself for a one-field class, a tuple of the values
    otherwise."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields += cls.__dict__.get("__slots__", ())
        cls._key = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            key = self._key
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __getstate__(self):
        return [getattr(self, name) for name in self._fields]

    def __setstate__(self, state):
        for name, value in zip(self._fields, state):
            object.__setattr__(self, name, value)


# ---------------------------------------------------------------------------
# Class expressions
# ---------------------------------------------------------------------------

class Named(_Value):
    """A named class, referenced by its identifier."""

    __slots__ = ("iri",)

    def __init__(self, iri: str):
        object.__setattr__(self, "iri", iri)


class Intersection(_Value):
    """Conjunction of two or more class expressions, in source order."""

    __slots__ = ("operands",)

    def __init__(self, operands: tuple[ClassExpression, ...]):
        if len(operands) < 2:
            raise ValueError("intersection needs at least two operands")
        object.__setattr__(self, "operands", operands)


class Existential(_Value):
    """Existential restriction: ``property some filler``."""

    __slots__ = ("prop", "filler")

    def __init__(self, prop: str, filler: ClassExpression):
        object.__setattr__(self, "prop", prop)
        object.__setattr__(self, "filler", filler)


ClassExpression = Named | Intersection | Existential


# ---------------------------------------------------------------------------
# Axioms
# ---------------------------------------------------------------------------

class SubClassOf(_Value):
    __slots__ = ("sub", "super")

    def __init__(self, sub: ClassExpression, super: ClassExpression):
        object.__setattr__(self, "sub", sub)
        object.__setattr__(self, "super", super)


class EquivalentClasses(_Value):
    __slots__ = ("operands",)

    def __init__(self, operands: tuple):
        if len(operands) < 2:
            raise ValueError("EquivalentClasses needs at least two operands")
        object.__setattr__(self, "operands", operands)


class DisjointClasses(_Value):
    __slots__ = ("operands",)

    def __init__(self, operands: tuple):
        if len(operands) < 2:
            raise ValueError("DisjointClasses needs at least two operands")
        object.__setattr__(self, "operands", operands)


class ClassAssertion(_Value):
    __slots__ = ("expr", "individual")

    def __init__(self, expr: ClassExpression, individual: str):
        object.__setattr__(self, "expr", expr)
        object.__setattr__(self, "individual", individual)


class DisjointUnion(_Value):
    __slots__ = ("union_class", "disjuncts")

    def __init__(self, union_class: str, disjuncts: tuple):
        if len(disjuncts) < 2:
            raise ValueError("DisjointUnion needs at least two disjuncts")
        object.__setattr__(self, "union_class", union_class)
        object.__setattr__(self, "disjuncts", disjuncts)


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

class LexEntry(_Value):
    """One lexicon row: surface name plus optional article, property phrase
    and joiner for an id (class, property or individual); the lexicon dict
    is keyed by that id."""

    __slots__ = ("preferred_name", "article", "property_phrase", "joiner")

    def __init__(
        self,
        preferred_name: str,
        article: str | None = None,  # "a" | "an" | "the" | None
        property_phrase: str | None = None,
        joiner: str | None = None,
    ):
        object.__setattr__(self, "preferred_name", preferred_name)
        object.__setattr__(self, "article", article)
        object.__setattr__(self, "property_phrase", property_phrase)
        object.__setattr__(self, "joiner", joiner)


# ---------------------------------------------------------------------------
# Ontology and frames
# ---------------------------------------------------------------------------

class Ontology(_Record):
    """Declared ids plus the axiom list, in document order."""

    def __init__(self, classes=None, properties=None, individuals=None, axioms=None):
        self.classes = set() if classes is None else classes
        self.properties = set() if properties is None else properties
        self.individuals = set() if individuals is None else individuals
        self.axioms = [] if axioms is None else axioms


class ClassFrame(_Record):
    """The designated class and every axiom mentioning it, in ontology order."""

    def __init__(self, designated: str, axioms=None):
        self.designated = designated
        self.axioms = [] if axioms is None else axioms


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
