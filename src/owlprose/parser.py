"""Parser and serializer for the canonical textual ontology format, plus the
TSV lexicon loader.

The ontology format is a functional-style subset::

    Ontology(
      Declaration(Class(:Settlement))
      Declaration(ObjectProperty(:partOf))
      Declaration(NamedIndividual(:rome))
      SubClassOf(:City :Settlement)
      EquivalentClasses(:A ObjectIntersectionOf(:B ObjectSomeValuesFrom(:p :C)))
      DisjointClasses(:A :B)
      ClassAssertion(:City :rome)
      DisjointUnion(:A :B :C)
    )

The ``Ontology(...)`` wrapper is optional: a document may also be a bare
sequence of declarations and axioms (or empty). Identifiers are ``:``-prefixed
tokens without whitespace; ``#`` starts a comment running to end of line.

By default, ids referenced by axioms without a declaration are auto-declared
with a warning (their kind inferred from position); strict mode rejects them
with UndeclaredEntity.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass

from .model import (
    Axiom,
    ClassAssertion,
    ClassExpression,
    DisjointClasses,
    DisjointUnion,
    EquivalentClasses,
    Existential,
    Intersection,
    LexEntry,
    Named,
    Ontology,
    SubClassOf,
)

log = logging.getLogger(__name__)

GRAMMAR_VERSION = "1"

_ITEM_KEYWORDS = (
    "Declaration",
    "SubClassOf",
    "EquivalentClasses",
    "DisjointClasses",
    "ClassAssertion",
    "DisjointUnion",
)

_CONSTRUCTORS = ("ObjectIntersectionOf", "ObjectSomeValuesFrom")

# Deepest nesting of ObjectIntersectionOf/ObjectSomeValuesFrom accepted. Every
# recursive consumer of an expression (serializer, frame collection, realizer,
# the equivalence family) spends at most about five interpreter frames per
# level, so this keeps all of them well under the default recursion limit.
MAX_NESTING = 100


class ParseError(ValueError):
    """Syntax error with the document's path, the position and the token set
    that was expected."""

    def __init__(self, message: str, path: str, line: int, column: int, expected=()):
        self.path = path
        self.line = line
        self.column = column
        self.expected = tuple(expected)
        detail = f"{path}: {message} at line {line}, column {column}"
        if self.expected:
            detail += " (expected " + " or ".join(self.expected) + ")"
        super().__init__(detail)


class UndeclaredEntity(ValueError):
    """An axiom referenced an id with no declaration (strict mode only)."""


class LexiconFormatError(ValueError):
    """A lexicon row had the wrong shape or an invalid article."""


@dataclass(frozen=True)
class SourceDocument:
    """A text plus where it came from, for error messages."""

    text: str
    path: str = "<string>"

    @classmethod
    def from_path(cls, path) -> "SourceDocument":
        """Read a UTF-8 file with universal newlines; a byte that does not
        decode raises ParseError at its line and column."""
        with open(path, "rb") as handle:
            data = handle.read()
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            before = _universal_newlines(data[: exc.start].decode("utf-8"))
            raise ParseError(
                f"byte 0x{data[exc.start]:02x} is not valid UTF-8",
                str(path),
                *_position(before, len(before)),
            ) from None
        return cls(_universal_newlines(text), str(path))


def _universal_newlines(text: str) -> str:
    """Line ends as text-mode open() reads them: \\r\\n and \\r become \\n."""
    return text.replace("\r\n", "\n").replace("\r", "\n")


# ---------------------------------------------------------------------------
# Tokenizer and recursive-descent parser
# ---------------------------------------------------------------------------

# A token is (kind, text, offset): kind is "id", "keyword", "eof" or the
# parenthesis itself. Positions are worked out from the offset only for errors.
_TOKEN_RE = re.compile(
    r"""
    (?P<skip>\s+|\#[^\n]*)
  | (?P<paren>[()])
  | (?P<id>:[^\s()#]+)
  | (?P<keyword>[A-Za-z][A-Za-z0-9]*)
  | (?P<bad>.)
    """,
    re.VERBOSE,
)


def _position(text: str, offset: int) -> tuple[int, int]:
    """Line and column, both counted from 1, of a character offset."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


class _Parser:
    """Tokenizes a whole document up front, then parses it by recursive
    descent into a fresh Ontology."""

    def __init__(self, doc: SourceDocument, strict: bool):
        self.text = doc.text
        self.path = doc.path
        self.strict = strict
        self.ontology = Ontology()
        # declaration keyword -> the kind named in warnings, the id set it fills
        self.declarations = {
            "Class": ("class", self.ontology.classes),
            "ObjectProperty": ("property", self.ontology.properties),
            "NamedIndividual": ("individual", self.ontology.individuals),
        }
        self.tokens = []
        for match in _TOKEN_RE.finditer(self.text):
            kind, value = match.lastgroup, match.group()
            if kind == "bad":
                token = (kind, value, match.start())
                raise self.error(token, message=f"unexpected character {value!r}")
            if kind != "skip":
                self.tokens.append((value if kind == "paren" else kind, value, match.start()))
        self.tokens.append(("eof", "", len(self.text)))
        self.pos = 0

    def error(self, token, expected=(), message: str | None = None) -> ParseError:
        """The ParseError at a token; the message defaults to naming the token
        (or the end of input) as unexpected."""
        kind, value, offset = token
        if message is None:
            message = "unexpected end of input" if kind == "eof" else f"unexpected {value!r}"
        return ParseError(message, self.path, *_position(self.text, offset), expected)

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        self.pos += 1
        return self.tokens[self.pos - 1]

    def expect(self, kind: str, value: str | None = None):
        token = self.tokens[self.pos]
        if token[0] != kind or (value is not None and token[1] != value):
            raise self.error(token, (kind if value is None else value,))
        self.pos += 1
        return token

    def reference(self, token, declaration: str) -> str:
        """The id of token; an undeclared id is auto-declared as the kind
        the declaration keyword names, or rejected in strict mode."""
        iri, ontology = token[1], self.ontology
        if iri in ontology.classes or iri in ontology.properties or iri in ontology.individuals:
            return iri
        if self.strict:
            line = _position(self.text, token[2])[0]
            raise UndeclaredEntity(f"{self.path}: {iri} referenced at line {line} but never declared")
        kind, pool = self.declarations[declaration]
        log.warning("%s: auto-declaring undeclared %s %s", self.path, kind, iri)
        pool.add(iri)
        return iri

    # -- grammar ----------------------------------------------------------

    def parse_document(self) -> Ontology:
        wrapped = self.peek()[:2] == ("keyword", "Ontology")
        if wrapped:
            self.advance()
            self.expect("(")
        while self.peek()[0] != "eof" and not (wrapped and self.peek()[0] == ")"):
            self.parse_item()
        if wrapped:
            self.expect(")")
        self.expect("eof")
        return self.ontology

    def parse_item(self):
        kind, keyword, _ = token = self.advance()
        if keyword not in _ITEM_KEYWORDS:
            message = f"unexpected keyword {keyword!r}" if kind == "keyword" else None
            raise self.error(token, _ITEM_KEYWORDS, message)
        self.expect("(")
        if keyword == "Declaration":
            token = self.advance()
            if token[1] not in self.declarations:
                raise self.error(token, tuple(self.declarations))
            _, ids = self.declarations[token[1]]
            self.expect("(")
            iri = self.expect("id")[1]
            self.expect(")")
            self.expect(")")
            ids.add(iri)
            return
        if keyword == "SubClassOf":
            axiom = SubClassOf(self.parse_expression(), self.parse_expression())
        elif keyword == "EquivalentClasses":
            axiom = EquivalentClasses(self.parse_operands())
        elif keyword == "DisjointClasses":
            axiom = DisjointClasses(self.parse_operands())
        elif keyword == "ClassAssertion":
            expr = self.parse_expression()
            axiom = ClassAssertion(expr, self.reference(self.expect("id"), "NamedIndividual"))
        else:
            union_class = self.reference(self.expect("id"), "Class")
            axiom = DisjointUnion(union_class, self.parse_operands())
        self.expect(")")
        self.ontology.axioms.append(axiom)

    def parse_operands(self, depth: int = 1) -> tuple:
        """Two or more expressions, as many as follow."""
        operands = [self.parse_expression(depth), self.parse_expression(depth)]
        while self.peek()[0] in ("id", "keyword"):
            operands.append(self.parse_expression(depth))
        return tuple(operands)

    def parse_expression(self, depth: int = 1) -> ClassExpression:
        """One expression; a constructor here sits at nesting level depth."""
        kind, value, _ = token = self.advance()
        if kind == "id":
            return Named(self.reference(token, "Class"))
        if kind != "keyword" or value not in _CONSTRUCTORS:
            raise self.error(token, (":id",) + _CONSTRUCTORS)
        if depth > MAX_NESTING:
            raise self.error(token, message=f"expression nested deeper than {MAX_NESTING} levels")
        self.expect("(")
        if value == "ObjectIntersectionOf":
            expr = Intersection(self.parse_operands(depth + 1))
        else:
            prop = self.reference(self.expect("id"), "ObjectProperty")
            expr = Existential(prop, self.parse_expression(depth + 1))
        self.expect(")")
        return expr


def parse_ontology(doc: SourceDocument | str, strict: bool = False) -> Ontology:
    """Parse a document into an Ontology, axioms in document order."""
    if isinstance(doc, str):
        doc = SourceDocument(doc)
    return _Parser(doc, strict).parse_document()


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def serialize_expression(expr: ClassExpression) -> str:
    if isinstance(expr, Named):
        return expr.iri
    if isinstance(expr, Intersection):
        inner = " ".join(serialize_expression(op) for op in expr.operands)
        return f"ObjectIntersectionOf({inner})"
    if isinstance(expr, Existential):
        return f"ObjectSomeValuesFrom({expr.prop} {serialize_expression(expr.filler)})"
    raise TypeError(f"not a class expression: {expr!r}")


def serialize_axiom(axiom: Axiom) -> str:
    """Canonical single-line rendering; parsing it back recovers the axiom."""
    if isinstance(axiom, SubClassOf):
        return f"SubClassOf({serialize_expression(axiom.sub)} {serialize_expression(axiom.super)})"
    if isinstance(axiom, EquivalentClasses):
        inner = " ".join(serialize_expression(op) for op in axiom.operands)
        return f"EquivalentClasses({inner})"
    if isinstance(axiom, DisjointClasses):
        inner = " ".join(serialize_expression(op) for op in axiom.operands)
        return f"DisjointClasses({inner})"
    if isinstance(axiom, ClassAssertion):
        return f"ClassAssertion({serialize_expression(axiom.expr)} {axiom.individual})"
    if isinstance(axiom, DisjointUnion):
        inner = " ".join(serialize_expression(d) for d in axiom.disjuncts)
        return f"DisjointUnion({axiom.union_class} {inner})"
    raise TypeError(f"not an axiom: {axiom!r}")


# ---------------------------------------------------------------------------
# Lexicon
# ---------------------------------------------------------------------------

_ARTICLES = ("a", "an", "the")


def load_lexicon(doc: SourceDocument | str) -> dict[str, LexEntry]:
    """Load a TSV lexicon: id, preferred_name[, article[, property_phrase[, joiner]]].

    Empty cells mean "absent". Later rows override earlier ones for the same
    id. Full-line ``#`` comments and blank lines are skipped.
    """
    if isinstance(doc, str):
        doc = SourceDocument(doc)
    entries: dict[str, LexEntry] = {}
    for lineno, line in enumerate(doc.text.splitlines(), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        cells = line.split("\t")
        if not 2 <= len(cells) <= 5:
            raise LexiconFormatError(
                f"{doc.path}:{lineno}: expected 2 to 5 tab-separated columns, got {len(cells)}"
            )
        cells += [""] * (5 - len(cells))
        id_, name, article, phrase, joiner = (cell.strip() for cell in cells)
        if not id_:
            raise LexiconFormatError(f"{doc.path}:{lineno}: empty id column")
        if not name:
            raise LexiconFormatError(f"{doc.path}:{lineno}: empty preferred_name column")
        if article and article not in _ARTICLES:
            raise LexiconFormatError(
                f"{doc.path}:{lineno}: article must be one of a/an/the or empty, got {article!r}"
            )
        entries[id_] = LexEntry(
            preferred_name=name,
            article=article or None,
            property_phrase=phrase or None,
            joiner=joiner or None,
        )
    return entries
