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

The parser reads the tokens once, left to right, and works out a token's line
and column only when it raises an error there.

By default, ids referenced by axioms without a declaration are auto-declared
with a warning (their kind inferred from position); strict mode rejects them
with UndeclaredEntity.
"""

from __future__ import annotations

import logging
import re
from itertools import filterfalse, islice

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
    _Value,
    expressions_of,
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


class SourceDocument(_Value):
    """A text plus where it came from, for error messages.

    The one place where a text becomes a document: one leading byte-order
    mark is dropped, and \\r\\n and \\r become \\n, as text-mode open()
    with the utf-8-sig codec reads them. A file and a string with the same
    UTF-8 bytes make the same document."""

    __slots__ = ("text", "path")

    def __init__(self, text: str, path: str = "<string>"):
        text = text.removeprefix("\ufeff")
        object.__setattr__(self, "text", text.replace("\r\n", "\n").replace("\r", "\n"))
        object.__setattr__(self, "path", path)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.text, self.path) == (other.text, other.path)
        return NotImplemented

    def __hash__(self):
        return hash((self.text, self.path))

    @classmethod
    def from_path(cls, path) -> "SourceDocument":
        """Read and decode a UTF-8 file. A byte that does not decode raises
        ParseError at its line and column in the document made of the text
        before it."""
        with open(path, "rb") as handle:
            data = handle.read()
        try:
            return cls(data.decode("utf-8"), str(path))
        except UnicodeDecodeError as exc:
            before = cls(data[: exc.start].decode("utf-8")).text
            message = f"byte 0x{data[exc.start]:02x} is not valid UTF-8"
            raise ParseError(message, str(path), *_position(before, len(before))) from None

    def rows(self):
        """(line number, line) for each line that is neither blank nor a
        full-line ``#`` comment. Rows end only at \\n: other characters
        that Unicode counts as line breaks, such as \\x1c or U+2028, stay
        in their row, so line numbers count lines as ParseError does."""
        for lineno, line in enumerate(self.text.split("\n"), start=1):
            if line.strip() and not line.lstrip().startswith("#"):
                yield lineno, line


# ---------------------------------------------------------------------------
# Tokenizer and recursive-descent parser
# ---------------------------------------------------------------------------

# The text of one token: a parenthesis, an id or a keyword. No token holds a
# "#", so every "#" starts a comment and _tokens can cut comments first.
_TOKEN = r"[()]|:[^\s()#]+|[A-Za-z][A-Za-z0-9]*"
_WHOLE_TOKEN_RE = re.compile(_TOKEN)
_COMMENT_RE = re.compile(r"\#[^\n]*")

# One match per token, skipped run or bad character. A token is its text: its
# kind follows from its first character (see _kind), and the end of input is
# the empty token "". Offsets are not kept; an error finds its token's offset
# by a finditer walk over the whole text. Every alternative matches one run
# with no nested repetition, so that walk is linear in the text's length.
_TOKEN_RE = re.compile(
    rf"""
    \s+|{_COMMENT_RE.pattern}
  | (?P<token>{_TOKEN})
  | (?P<bad>.)
    """,
    re.VERBOSE,
)


def _tokens(text: str) -> list | None:
    """The text's tokens as a _TOKEN_RE walk finds them, one string object
    per distinct text; or None when the text holds a bad character.

    With its comments cut and its parentheses padded with spaces, the text
    splits at exactly the characters \\s matches (str.split and \\s agree on
    whitespace). Each distinct piece is checked once, and most are one whole
    token. Any other piece is a keyword glued to an id, as in "Class:X",
    which _WHOLE_TOKEN_RE.findall takes apart as the walk would, or it holds
    a bad character, which that findall skips where the walk reports it."""
    if "#" in text:
        text = _COMMENT_RE.sub("", text)
    texts: dict = {}
    pieces = text.replace("(", " ( ").replace(")", " ) ").split()
    tokens = list(map(texts.setdefault, pieces, pieces))
    glued = list(filterfalse(_WHOLE_TOKEN_RE.fullmatch, texts))
    if not glued:
        return tokens
    parts = {piece: _WHOLE_TOKEN_RE.findall(piece) for piece in glued}
    if any("".join(found) != piece for piece, found in parts.items()):
        return None
    return [texts.setdefault(t, t) for piece in tokens for t in parts.get(piece, (piece,))]


# first character of a token -> its kind; any other first character is a letter
_KINDS = {"": "eof", "(": "(", ")": ")", ":": "id"}


def _kind(token: str) -> str:
    """The token's kind: "eof", the parenthesis itself, "id" or "keyword"."""
    return _KINDS.get(token[:1], "keyword")


def _position(text: str, offset: int) -> tuple[int, int]:
    """Line and column, both counted from 1, of a character offset."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


class _Parser:
    """Tokenizes a whole document up front, then parses it by recursive
    descent into a fresh Ontology.

    The descent reads the tokens once, left to right, from one iterator:
    each grammar step is handed the token already taken and checks it in
    place, so nothing looks ahead. A token's position in the text is worked
    out only when an error names it."""

    def __init__(self, doc: SourceDocument, strict: bool):
        self.text = doc.text
        self.path = doc.path
        self.strict = strict
        # one string object per distinct token text: every mention of an id is
        # then the same object, and set lookups over ids match by identity
        self.tokens = _tokens(self.text)
        if self.tokens is None:
            bad = next(m for m in _TOKEN_RE.finditer(self.text) if m.lastgroup == "bad")
            position = _position(self.text, bad.start())
            raise ParseError(f"unexpected character {bad.group()!r}", self.path, *position)
        self.tokens.append("")

    def error(self, index: int, expected=(), message: str | None = None) -> ParseError:
        """The ParseError at the token with that index; the message defaults
        to naming the token (or the end of input) as unexpected."""
        token = self.tokens[index]
        if message is None:
            message = f"unexpected {token!r}" if token else "unexpected end of input"
        return ParseError(message, self.path, *_position(self.text, self.offset(index)), expected)

    def offset(self, index: int) -> int:
        """Where the token with that index starts, found by walking the text
        again; the end of input sits at the text's end."""
        starts = (m.start() for m in _TOKEN_RE.finditer(self.text) if m.lastgroup == "token")
        return next(islice(starts, index, None), len(self.text))

    def parse_document(self) -> Ontology:
        """The ontology of the whole token list, which ends in the end-of-input
        token "". Every check fails on "", so no step takes past it.

        Each token is compared where it is taken: "(" and ")" by equality, an
        id by its first character ":". A class id met before resolves through
        the named dict before any call; the grammar functions run only for a
        first mention, a constructor or an error."""
        tokens, strict = self.tokens, self.strict
        ontology = Ontology()
        classes, properties = ontology.classes, ontology.properties
        individuals = ontology.individuals
        append = ontology.axioms.append
        # declaration keyword -> the kind named in warnings, the id set it fills
        declarations = {
            "Class": ("class", classes),
            "ObjectProperty": ("property", properties),
            "NamedIndividual": ("individual", individuals),
        }
        # class id -> the one Named of this document for it, made at the id's
        # first mention as a class expression
        named: dict = {}
        known = named.get
        rest = iter(tokens)
        take = rest.__next__

        def taken() -> int:
            """The index of the token taken last."""
            return len(tokens) - rest.__length_hint__() - 1

        def reference(iri: str, declaration: str) -> str:
            """The id taken last; an undeclared id is auto-declared as the
            kind the declaration keyword names, or rejected in strict mode."""
            if iri in classes or iri in properties or iri in individuals:
                return iri
            if strict:
                line = _position(self.text, self.offset(taken()))[0]
                raise UndeclaredEntity(
                    f"{self.path}: {iri} referenced at line {line} but never declared"
                )
            kind, pool = declarations[declaration]
            log.warning("%s: auto-declaring undeclared %s %s", self.path, kind, iri)
            pool.add(iri)
            return iri

        def expression(token: str, depth: int) -> ClassExpression:
            """The expression that starts at the token taken last, which is
            not a class id met before; a constructor here sits at nesting
            level depth."""
            if token[:1] == ":":
                expr = named[token] = Named(reference(token, "Class"))
                return expr
            if token not in _CONSTRUCTORS:
                raise self.error(taken(), (":id",) + _CONSTRUCTORS)
            if depth > MAX_NESTING:
                raise self.error(
                    taken(), message=f"expression nested deeper than {MAX_NESTING} levels"
                )
            if take() != "(":
                raise self.error(taken(), ("(",))
            if token == "ObjectIntersectionOf":
                return Intersection(operands(depth + 1))
            prop = take()
            if prop[:1] != ":":
                raise self.error(taken(), ("id",))
            if prop not in properties:
                reference(prop, "ObjectProperty")
            token = take()
            expr = Existential(prop, known(token) or expression(token, depth + 1))
            if take() != ")":
                raise self.error(taken(), (")",))
            return expr

        def operands(depth: int) -> tuple:
            """Two or more expressions, as many as follow, and the ")" after
            them."""
            token = take()
            found = [known(token) or expression(token, depth)]
            token = take()
            found.append(known(token) or expression(token, depth))
            token = take()
            while token != ")":
                if token == "(" or not token:
                    raise self.error(taken(), (")",))
                found.append(known(token) or expression(token, depth))
                token = take()
            return tuple(found)

        try:
            token = take()
            wrapped = token == "Ontology"
            if wrapped:
                if take() != "(":
                    raise self.error(taken(), ("(",))
                token = take()
            end = ")" if wrapped else ""  # besides "", the token that ends the items
            while token and token != end:
                # one declaration, whose id joins its kind's id set, or one
                # axiom, appended to the ontology's axioms
                if token not in _ITEM_KEYWORDS:
                    keyword = _kind(token) == "keyword"
                    message = f"unexpected keyword {token!r}" if keyword else None
                    raise self.error(taken(), _ITEM_KEYWORDS, message)
                if take() != "(":
                    raise self.error(taken(), ("(",))
                if token == "SubClassOf":
                    token = take()
                    sub = known(token) or expression(token, 1)
                    token = take()
                    axiom = SubClassOf(sub, known(token) or expression(token, 1))
                    if take() != ")":
                        raise self.error(taken(), (")",))
                    append(axiom)
                elif token == "Declaration":
                    # ( Kind ( :id ) ): the first token out of place raises
                    declared = take()
                    if declared not in declarations:
                        raise self.error(taken(), tuple(declarations))
                    if take() != "(":
                        raise self.error(taken(), ("(",))
                    iri = take()
                    if iri[:1] != ":":
                        raise self.error(taken(), ("id",))
                    if take() != ")" or take() != ")":
                        raise self.error(taken(), (")",))
                    declarations[declared][1].add(iri)
                elif token == "EquivalentClasses":
                    append(EquivalentClasses(operands(1)))
                elif token == "DisjointClasses":
                    append(DisjointClasses(operands(1)))
                elif token == "ClassAssertion":
                    token = take()
                    expr = known(token) or expression(token, 1)
                    individual = take()
                    if individual[:1] != ":":
                        raise self.error(taken(), ("id",))
                    if individual not in individuals:
                        reference(individual, "NamedIndividual")
                    if take() != ")":
                        raise self.error(taken(), (")",))
                    append(ClassAssertion(expr, individual))
                else:
                    union_class = take()
                    if union_class[:1] != ":":
                        raise self.error(taken(), ("id",))
                    if union_class not in classes:
                        reference(union_class, "Class")
                    append(DisjointUnion(union_class, operands(1)))
                token = take()
            if wrapped:
                if token != ")":
                    raise self.error(taken(), (")",))
                token = take()
            if token:
                raise self.error(taken(), ("eof",))
        finally:
            # expression and operands reach each other through these cells:
            # emptying them breaks that cycle, so reference counting alone
            # frees the parse once it returns or raises
            del expression, operands
        return ontology


def parse_ontology(doc: SourceDocument | str, strict: bool = False) -> Ontology:
    """Parse a document into an Ontology, axioms in document order."""
    if isinstance(doc, str):
        doc = SourceDocument(doc)
    return _Parser(doc, strict).parse_document()


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def term_text(keyword: str, parts) -> str:
    """One term of the format from its parts' texts: the keyword, then the
    parts separated by single spaces, in parentheses. Every constructor and
    axiom is written this way; evaluate builds the texts of the equivalent
    versions with it from the texts of their parts."""
    return f"{keyword}({' '.join(parts)})"


def serialize_expression(expr: ClassExpression) -> str:
    if isinstance(expr, Named):
        return expr.iri
    if isinstance(expr, Intersection):
        return term_text("ObjectIntersectionOf", map(serialize_expression, expr.operands))
    if isinstance(expr, Existential):
        return term_text("ObjectSomeValuesFrom", (expr.prop, serialize_expression(expr.filler)))
    raise TypeError(f"not a class expression: {expr!r}")


def serialize_axiom(axiom: Axiom) -> str:
    """Canonical single-line rendering; parsing it back recovers the axiom.

    The keyword is the axiom's class name. The arguments are the expressions
    model.expressions_of gives, in its order, then a ClassAssertion's
    individual; a DisjointUnion's union class comes as a Named, which
    serializes to its id. A non-axiom raises TypeError from expressions_of."""
    parts = [serialize_expression(expr) for expr in expressions_of(axiom)]
    if isinstance(axiom, ClassAssertion):
        parts.append(axiom.individual)
    return term_text(type(axiom).__name__, parts)


# ---------------------------------------------------------------------------
# Lexicon
# ---------------------------------------------------------------------------

_ARTICLES = ("a", "an", "the")


def load_lexicon(doc: SourceDocument | str) -> dict[str, LexEntry]:
    """Load a TSV lexicon: id, preferred_name[, article[, property_phrase[, joiner]]].

    Empty cells mean "absent". Later rows override earlier ones for the same
    id. Full-line ``#`` comments and blank lines are skipped, and rows are
    the document's (``SourceDocument.rows``).
    """
    if isinstance(doc, str):
        doc = SourceDocument(doc)
    entries: dict[str, LexEntry] = {}
    for lineno, line in doc.rows():
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
