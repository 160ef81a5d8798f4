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
from dataclasses import dataclass, field

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

_AXIOM_KEYWORDS = (
    "SubClassOf",
    "EquivalentClasses",
    "DisjointClasses",
    "ClassAssertion",
    "DisjointUnion",
)

_DECL_KINDS = ("Class", "ObjectProperty", "NamedIndividual")

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
                before.count("\n") + 1,
                len(before) - before.rfind("\n"),
            ) from None
        return cls(_universal_newlines(text), str(path))


def _universal_newlines(text: str) -> str:
    """Line ends as text-mode open() reads them: \\r\\n and \\r become \\n."""
    return text.replace("\r\n", "\n").replace("\r", "\n")


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Token:
    kind: str  # "(", ")", "keyword", "id", "eof"
    value: str
    line: int
    column: int


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<open>\()
  | (?P<close>\))
  | (?P<id>:[^\s()#]+)
  | (?P<keyword>[A-Za-z][A-Za-z0-9]*)
    """,
    re.VERBOSE,
)


def _tokenize(text: str, path: str):
    tokens = []
    line, line_start = 1, 0
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ParseError(
                f"unexpected character {text[pos]!r}", path, line, pos - line_start + 1
            )
        kind = match.lastgroup
        value = match.group()
        column = pos - line_start + 1
        if kind == "open":
            tokens.append(_Token("(", value, line, column))
        elif kind == "close":
            tokens.append(_Token(")", value, line, column))
        elif kind in ("id", "keyword"):
            tokens.append(_Token(kind, value, line, column))
        # whitespace and comments are skipped, but newlines advance the counter
        newlines = value.count("\n")
        if newlines:
            line += newlines
            line_start = pos + value.rfind("\n") + 1
        pos = match.end()
    tokens.append(_Token("eof", "", line, len(text) - line_start + 1))
    return tokens


# ---------------------------------------------------------------------------
# Recursive-descent parser
# ---------------------------------------------------------------------------

class _Parser:
    def __init__(self, tokens, strict: bool, path: str):
        self.tokens = tokens
        self.pos = 0
        self.strict = strict
        self.path = path
        self.ontology = Ontology()
        # ids referenced before any declaration, id → inferred kind
        self.auto: dict[str, str] = {}

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expect(self, kind: str, value: str | None = None) -> _Token:
        token = self.peek()
        if token.kind != kind or (value is not None and token.value != value):
            expected = value if value is not None else kind
            raise ParseError(
                f"unexpected {token.value!r}" if token.kind != "eof" else "unexpected end of input",
                self.path,
                token.line,
                token.column,
                expected=(expected,),
            )
        return self.advance()

    # -- entities ---------------------------------------------------------

    def register(self, iri: str, kind: str):
        pool = {
            "class": self.ontology.classes,
            "property": self.ontology.properties,
            "individual": self.ontology.individuals,
        }[kind]
        pool.add(iri)

    def reference(self, iri: str, kind: str, token: _Token):
        declared = (
            iri in self.ontology.classes
            or iri in self.ontology.properties
            or iri in self.ontology.individuals
        )
        if declared:
            return
        if self.strict:
            raise UndeclaredEntity(
                f"{self.path}: {iri} referenced at line {token.line} but never declared"
            )
        if iri not in self.auto:
            self.auto[iri] = kind
            log.warning("%s: auto-declaring undeclared %s %s", self.path, kind, iri)
            self.register(iri, kind)

    # -- grammar ----------------------------------------------------------

    def parse_document(self) -> Ontology:
        token = self.peek()
        wrapped = token.kind == "keyword" and token.value == "Ontology"
        if wrapped:
            self.advance()
            self.expect("(")
        while True:
            token = self.peek()
            if token.kind == "eof":
                break
            if token.kind == ")" and wrapped:
                break
            self.parse_item()
        if wrapped:
            self.expect(")")
        self.expect("eof")
        return self.ontology

    def parse_item(self):
        token = self.peek()
        if token.kind != "keyword":
            raise ParseError(
                f"unexpected {token.value!r}",
                self.path,
                token.line,
                token.column,
                expected=("Declaration",) + _AXIOM_KEYWORDS,
            )
        if token.value == "Declaration":
            self.parse_declaration()
        elif token.value in _AXIOM_KEYWORDS:
            self.ontology.axioms.append(self.parse_axiom())
        else:
            raise ParseError(
                f"unexpected keyword {token.value!r}",
                self.path,
                token.line,
                token.column,
                expected=("Declaration",) + _AXIOM_KEYWORDS,
            )

    def parse_declaration(self):
        self.expect("keyword", "Declaration")
        self.expect("(")
        kind_token = self.peek()
        if kind_token.kind != "keyword" or kind_token.value not in _DECL_KINDS:
            raise ParseError(
                f"unexpected {kind_token.value!r}",
                self.path,
                kind_token.line,
                kind_token.column,
                expected=_DECL_KINDS,
            )
        self.advance()
        self.expect("(")
        id_token = self.expect("id")
        self.expect(")")
        self.expect(")")
        kind = {
            "Class": "class",
            "ObjectProperty": "property",
            "NamedIndividual": "individual",
        }[kind_token.value]
        self.register(id_token.value, kind)

    def parse_axiom(self) -> Axiom:
        keyword = self.advance()
        self.expect("(")
        if keyword.value == "SubClassOf":
            sub = self.parse_expression()
            super_ = self.parse_expression()
            axiom = SubClassOf(sub, super_)
        elif keyword.value in ("EquivalentClasses", "DisjointClasses"):
            operands = [self.parse_expression(), self.parse_expression()]
            while self.peek().kind in ("id", "keyword"):
                operands.append(self.parse_expression())
            maker = EquivalentClasses if keyword.value == "EquivalentClasses" else DisjointClasses
            axiom = maker(tuple(operands))
        elif keyword.value == "ClassAssertion":
            expr = self.parse_expression()
            ind_token = self.expect("id")
            self.reference(ind_token.value, "individual", ind_token)
            axiom = ClassAssertion(expr, ind_token.value)
        elif keyword.value == "DisjointUnion":
            union_token = self.expect("id")
            self.reference(union_token.value, "class", union_token)
            disjuncts = [self.parse_expression(), self.parse_expression()]
            while self.peek().kind in ("id", "keyword"):
                disjuncts.append(self.parse_expression())
            axiom = DisjointUnion(union_token.value, tuple(disjuncts))
        else:  # unreachable: parse_item filtered the keyword
            raise AssertionError(keyword.value)
        self.expect(")")
        return axiom

    def parse_expression(self, depth: int = 1) -> ClassExpression:
        """One expression; a constructor here sits at nesting level depth."""
        token = self.peek()
        if token.kind == "id":
            self.advance()
            self.reference(token.value, "class", token)
            return Named(token.value)
        if depth > MAX_NESTING and token.kind == "keyword" and token.value in _CONSTRUCTORS:
            raise ParseError(
                f"expression nested deeper than {MAX_NESTING} levels",
                self.path,
                token.line,
                token.column,
            )
        if token.kind == "keyword" and token.value == "ObjectIntersectionOf":
            self.advance()
            self.expect("(")
            operands = [self.parse_expression(depth + 1), self.parse_expression(depth + 1)]
            while self.peek().kind in ("id", "keyword"):
                operands.append(self.parse_expression(depth + 1))
            self.expect(")")
            return Intersection(tuple(operands))
        if token.kind == "keyword" and token.value == "ObjectSomeValuesFrom":
            self.advance()
            self.expect("(")
            prop_token = self.expect("id")
            self.reference(prop_token.value, "property", prop_token)
            filler = self.parse_expression(depth + 1)
            self.expect(")")
            return Existential(prop_token.value, filler)
        raise ParseError(
            f"unexpected {token.value!r}" if token.kind != "eof" else "unexpected end of input",
            self.path,
            token.line,
            token.column,
            expected=(":id",) + _CONSTRUCTORS,
        )


def parse_ontology(doc: SourceDocument | str, strict: bool = False) -> Ontology:
    """Parse a document into an Ontology, axioms in document order."""
    if isinstance(doc, str):
        doc = SourceDocument(doc)
    tokens = _tokenize(doc.text, doc.path)
    return _Parser(tokens, strict, doc.path).parse_document()


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
    for lineno, raw in enumerate(doc.text.splitlines(), start=1):
        line = raw.rstrip("\n")
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
            id=id_,
            preferred_name=name,
            article=article or None,
            property_phrase=phrase or None,
            joiner=joiner or None,
        )
    return entries
