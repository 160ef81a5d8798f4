"""Parser, serializer and lexicon loader."""

import logging
import pathlib
import random
import re
import tempfile
import time

import pytest
from hypothesis import example, given, settings, strategies as st

import genutil
from owlprose import parser
from owlprose.model import (
    ClassAssertion,
    DisjointUnion,
    EquivalentClasses,
    Existential,
    Intersection,
    Named,
    SubClassOf,
    expressions_of,
)
from owlprose.parser import (
    MAX_NESTING,
    LexiconFormatError,
    ParseError,
    SourceDocument,
    UndeclaredEntity,
    load_lexicon,
    parse_ontology,
    serialize_axiom,
    serialize_expression,
)

FULL_DOC = """\
Ontology(
  Declaration(Class(:City))
  Declaration(Class(:Settlement))
  Declaration(ObjectProperty(:partOf))
  Declaration(NamedIndividual(:rome))
  SubClassOf(:City :Settlement)
  EquivalentClasses(:City ObjectIntersectionOf(:Settlement ObjectSomeValuesFrom(:partOf :Settlement)))
  ClassAssertion(:City :rome)
)
"""


def test_full_document_round_trips_each_axiom_kind():
    ontology = parse_ontology(FULL_DOC)
    assert ontology.classes == {":City", ":Settlement"}
    assert ontology.properties == {":partOf"}
    assert ontology.individuals == {":rome"}
    assert [type(ax) for ax in ontology.axioms] == [
        SubClassOf,
        EquivalentClasses,
        ClassAssertion,
    ]
    assert ontology.axioms[0] == SubClassOf(Named(":City"), Named(":Settlement"))


def test_wrapper_is_optional_and_empty_document_is_valid():
    bare = parse_ontology("SubClassOf(:A :B)")
    assert len(bare.axioms) == 1
    assert parse_ontology("").axioms == []
    assert parse_ontology("   \n  # just a comment\n").axioms == []


def test_comments_run_to_end_of_line():
    doc = "SubClassOf(:A :B) # trailing\n# full line\nDisjointClasses(:A :B)"
    assert len(parse_ontology(doc).axioms) == 2


def test_class_assertion_takes_expression_first():
    ontology = parse_ontology("ClassAssertion(ObjectSomeValuesFrom(:p :A) :rome)")
    axiom = ontology.axioms[0]
    assert axiom.expr == Existential(":p", Named(":A"))
    assert axiom.individual == ":rome"


def test_disjoint_union_shape():
    axiom = parse_ontology("DisjointUnion(:A :B :C)").axioms[0]
    assert axiom == DisjointUnion(":A", (Named(":B"), Named(":C")))


def test_parse_error_reports_position():
    with pytest.raises(ParseError) as err:
        parse_ontology(SourceDocument("SubClassOf(:A", "broken.ofs"))
    assert err.value.line == 1
    assert err.value.column > 0
    assert err.value.path == "broken.ofs"
    assert str(err.value).startswith("broken.ofs: unexpected end of input at line 1")


def test_truncated_declaration_reports_end_of_input():
    with pytest.raises(ParseError) as err:
        parse_ontology(SourceDocument("Declaration(\n", "cut.ofs"))
    assert str(err.value) == (
        "cut.ofs: unexpected end of input at line 2, column 1 "
        "(expected Class or ObjectProperty or NamedIndividual)"
    )


SEPARATORS = ("", " ", "\n", "  \t", "\n\n  ", " # note é ∀ (x)\n")


def layout(rng: random.Random):
    """A valid document with every id declared before use, laid out with
    random separators. Returns the text, its tokens, the start offset of each
    token and the index of the first token after the declarations."""
    classes, props, inds = genutil.make_pools()
    accent = rng.choice(["", "é", "∀x"])
    axioms = [
        genutil.gen_axiom(rng, classes, props, inds, depth=rng.randint(0, 2))
        for _ in range(rng.randint(1, 5))
    ]
    declarations = " ".join(
        [f"Declaration(Class({c}))" for c in classes]
        + [f"Declaration(ObjectProperty({p}))" for p in props]
        + [f"Declaration(NamedIndividual({i}))" for i in inds]
    )
    tokens = re.findall(r"[()]|[^\s()]+", declarations)
    first_axiom = len(tokens)
    for axiom in axioms:
        tokens += re.findall(r"[()]|[^\s()]+", serialize_axiom(axiom))
    if rng.random() < 0.5:
        tokens = ["Ontology", "("] + tokens + [")"]
        first_axiom += 2
    tokens = [t + accent if t.startswith(":") else t for t in tokens]
    text, starts = "", []
    for previous, token in zip([None] + tokens, tokens):
        separator = rng.choice(SEPARATORS)
        if not separator and previous not in (None, "(", ")") and token not in ("(", ")"):
            separator = " "
        text += separator
        starts.append(len(text))
        text += token
    return text, tokens, starts, first_axiom


@given(st.integers(0, 10**9), st.sampled_from(["\n", "\r\n", "\r"]))
def test_error_positions_match_the_offset(seed, newline):
    """A bad character, a misplaced "(" and, in strict mode, an undeclared id
    are each reported at the line and column of the offset they were put at."""
    rng = random.Random(seed)
    text, tokens, starts, first_axiom = layout(rng)
    cases = []
    g = rng.randrange(len(tokens) + 1)
    offset = starts[g] if g < len(tokens) else len(text)
    bad = rng.choice("$é∀1_;%")
    cases.append((text[:offset] + " " + bad + text[offset:], offset + 1, False))
    gaps = [k for k in range(len(tokens) + 1) if k == 0 or not tokens[k - 1][0].isalpha()]
    g = rng.choice(gaps)
    offset = starts[g] if g < len(tokens) else len(text)
    cases.append((text[:offset] + "(" + text[offset:], offset, False))
    ids = [k for k in range(first_axiom, len(tokens)) if tokens[k].startswith(":")]
    k = rng.choice(ids)
    undeclared = text[: starts[k]] + ":Undeclaredé" + text[starts[k] + len(tokens[k]) :]
    cases.append((undeclared, starts[k], True))
    for broken, offset, strict in cases:
        line, column = genutil.line_column(broken, offset)
        with tempfile.TemporaryDirectory() as tmp:
            path = f"{tmp}/doc.ofs"
            with open(path, "w", encoding="utf-8", newline="") as handle:
                handle.write(broken.replace("\n", newline))
            doc = SourceDocument.from_path(path)
        assert doc.text == broken
        if strict:
            with pytest.raises(UndeclaredEntity) as err:
                parse_ontology(doc, strict=True)
            assert f"referenced at line {line} but never declared" in str(err.value)
        else:
            with pytest.raises(ParseError) as err:
                parse_ontology(doc)
            assert (err.value.line, err.value.column) == (line, column)
            assert str(err.value).startswith(f"{path}: unexpected ")


# Pieces a text is built from: tokens, whitespace (Unicode too), line ends and
# comments that hold what would otherwise be tokens or bad characters.
TOKEN_PIECES = (
    "(", ")", ":x", ":Aé", ":p0", "SubClassOf", "Ontology", "a1", "Zz9",
    " ", "\t", "\n", "\r", "\r\n", "\x1c", "\u2003", "\u3000",
    "# ( :x é", "#(", "#",
)
BAD_PIECES = (":", "é", "1", "$", "_")


def token_kind(token: str) -> str:
    """A token's kind by its first character: "eof" for the end of input "",
    the parenthesis itself, "id" after ":", and "keyword" otherwise."""
    if not token:
        return "eof"
    if token in "()":
        return token
    return "id" if token[0] == ":" else "keyword"


def assert_tokens_match_the_oracle(text: str):
    """Valid text gives the oracle's token texts and kinds, one string object
    per distinct text; invalid text fails with the message, line and column
    of the oracle's first bad character. The oracle reads the text as a
    document holds it, every line end made \\n."""
    text_held = genutil.with_newlines(text)
    expected = genutil.tokens_oracle(text_held)
    kind, value, offset = expected[-1]
    if kind == "eof":
        tokens = parser._tokens(SourceDocument(text))
        assert [(token_kind(token), token) for token in tokens] == [
            (oracle_kind, oracle_text) for oracle_kind, oracle_text, _ in expected
        ]
        assert len(set(map(id, tokens))) == len(set(tokens))
        return
    line, column = genutil.line_column(text_held, offset)
    with pytest.raises(ParseError) as err:
        parse_ontology(SourceDocument(text, "doc.ofs"))
    assert (err.value.line, err.value.column) == (line, column)
    assert str(err.value) == (
        f"doc.ofs: unexpected character {value!r} at line {line}, column {column}"
    )


@given(
    st.lists(st.sampled_from(TOKEN_PIECES), max_size=40),
    st.lists(st.tuples(st.integers(0, 40), st.sampled_from(BAD_PIECES)), max_size=3),
)
@example(["#", "\r", ":x", "\r\n", "("], [])  # a lone CR ends a comment
@example(["a1", ":x", ")"], [(1, "é"), (3, "1")])  # "é" ends the keyword and is bad
def test_tokens_match_the_finditer_oracle(pieces, bad_pieces):
    """Text built from tokens, whitespace, comments and bad characters."""
    for position, piece in bad_pieces:
        pieces.insert(min(position, len(pieces)), piece)
    assert_tokens_match_the_oracle("".join(pieces))


@settings(deadline=None)
@given(st.integers(0, 10**9))
def test_tokens_of_laid_out_documents_match_the_oracle(seed):
    """Laid-out documents with comments, every kind of line end and
    whitespace, glued tokens, non-ASCII ids and bad characters."""
    assert_tokens_match_the_oracle(genutil.laid_out_document(random.Random(seed)))


class _RecordingPattern:
    """A compiled pattern that records the length of each text its findall
    and finditer are given."""

    def __init__(self, pattern, lengths: list):
        self.pattern, self.lengths = pattern, lengths

    def findall(self, text, *args):
        self.lengths.append(len(text))
        return self.pattern.findall(text, *args)

    def finditer(self, text, *args):
        self.lengths.append(len(text))
        return self.pattern.finditer(text, *args)

    def __getattr__(self, name):
        return getattr(self.pattern, name)


@pytest.mark.parametrize(
    "text, tokens",
    [
        (
            "# a commented document\nSubClassOf(:A :B) # note ( :x é\n# end\n",
            ["SubClassOf", "(", ":A", ":B", ")"],
        ),
        (
            "Declaration(Class:X)\nSubClassOf(:X ObjectSomeValuesFrom(:p :Y))\n",
            ["Declaration", "(", "Class", ":X", ")",
             "SubClassOf", "(", ":X", "ObjectSomeValuesFrom", "(", ":p", ":Y", ")", ")"],
        ),
    ],
    ids=["comments", "glued"],
)
def test_a_valid_document_is_tokenized_with_no_walk_over_the_whole_text(text, tokens):
    """Neither comments nor a keyword glued to an id send a regular-expression
    walk over the whole text: the only walks are over glued pieces."""
    lengths: list = []
    with pytest.MonkeyPatch.context() as patch:
        for name in ("_TOKEN_RE", "_WHOLE_TOKEN_RE"):
            patch.setattr(parser, name, _RecordingPattern(getattr(parser, name), lengths))
        assert parser._tokens(SourceDocument(text)) == tokens + [""]
    assert all(length <= len("Class:X") for length in lengths)


def test_tokenizing_stays_linear_on_a_long_adversarial_document():
    """About 300 KB of long whitespace runs, a 100 KB keyword, a long id and
    a long comment: with one bad character at the very end, the tokenizer
    reports it; without it, the parse fails at the long keyword."""
    valid = (
        "Ontology(" + " \t" * 40_000 + "\n" * 10_000 + "\u3000" * 10_000
        + "Declaration" + "a1" * 50_000 + " :" + "x" * 40_000
        + " #" + "( :x é" * 5_000 + "\n" + "\r\n" * 5_000
    )
    text = valid + "$"
    start = time.perf_counter()
    with pytest.raises(ParseError) as err:
        parse_ontology(SourceDocument(text, "long.ofs"))
    assert time.perf_counter() - start < 5.0
    line, column = genutil.line_column(text, len(text) - 1)
    assert str(err.value) == f"long.ofs: unexpected character '$' at line {line}, column {column}"
    keyword = "Declaration" + "a1" * 50_000
    start = time.perf_counter()
    with pytest.raises(ParseError) as err:
        parse_ontology(SourceDocument(valid, "long.ofs"))
    assert time.perf_counter() - start < 5.0
    line, column = genutil.line_column(valid, valid.index(keyword))
    assert str(err.value) == (
        f"long.ofs: unexpected keyword {keyword!r} at line {line}, column {column} "
        "(expected " + " or ".join(parser._ITEM_KEYWORDS) + ")"
    )


def nested_existentials(depth: int) -> str:
    return "ObjectSomeValuesFrom(:p " * depth + ":C" + ")" * depth


def test_nesting_at_the_bound_parses():
    expr = parse_ontology(f"SubClassOf(:A {nested_existentials(MAX_NESTING)})").axioms[0].super
    depth = 0
    while isinstance(expr, Existential):
        expr, depth = expr.filler, depth + 1
    assert depth == MAX_NESTING


def test_nesting_past_the_bound_fails_at_the_opening_token():
    opener = "ObjectIntersectionOf(:B "
    text = (
        "SubClassOf(:A\n"
        + opener * MAX_NESTING
        + nested_existentials(1)
        + ")" * MAX_NESTING
        + ")"
    )
    with pytest.raises(ParseError) as err:
        parse_ontology(SourceDocument(text, "deep.ofs"))
    assert (err.value.line, err.value.column) == (2, len(opener) * MAX_NESTING + 1)
    assert str(err.value).startswith(
        f"deep.ofs: expression nested deeper than {MAX_NESTING} levels"
    )


def test_unbalanced_and_unknown_keyword_are_rejected():
    with pytest.raises(ParseError):
        parse_ontology("SubClassOf(:A :B))")
    with pytest.raises(ParseError):
        parse_ontology("Nonsense(:A :B)")


def test_intersection_needs_two_operands():
    with pytest.raises(ParseError):
        parse_ontology("SubClassOf(:A ObjectIntersectionOf(:B))")


def test_lenient_mode_auto_declares_with_warning(caplog):
    doc = "SubClassOf(:A ObjectSomeValuesFrom(:p :B))\nClassAssertion(:A :rome)"
    with caplog.at_level(logging.WARNING, logger="owlprose.parser"):
        ontology = parse_ontology(doc)
    assert ontology.classes == {":A", ":B"}
    assert ontology.properties == {":p"}
    assert ontology.individuals == {":rome"}
    assert any("auto-declaring" in rec.getMessage() for rec in caplog.records)


def test_auto_declare_warns_once_per_id_at_its_first_mention(caplog):
    """A class id's later mentions reuse its Named without a warning; an id
    first met as a property or an individual is not declared again as a
    class."""
    doc = (
        "SubClassOf(:A ObjectSomeValuesFrom(:p :B))\n"
        "EquivalentClasses(:B :A ObjectIntersectionOf(:A :C))\n"
        "ClassAssertion(:C :i)\n"
        "DisjointClasses(:i :p :D)\n"
        "DisjointUnion(:E :A :E)\n"
    )
    with caplog.at_level(logging.WARNING, logger="owlprose.parser"):
        ontology = parse_ontology(doc)
    assert [rec.getMessage() for rec in caplog.records] == [
        f"<string>: auto-declaring undeclared {kind} {iri}"
        for kind, iri in [
            ("class", ":A"), ("property", ":p"), ("class", ":B"), ("class", ":C"),
            ("individual", ":i"), ("class", ":D"), ("class", ":E"),
        ]
    ]
    assert ontology.classes == {":A", ":B", ":C", ":D", ":E"}
    assert (ontology.properties, ontology.individuals) == ({":p"}, {":i"})


def test_strict_mode_raises_at_the_first_undeclared_mention():
    doc = "Declaration(Class(:A))\nSubClassOf(:A :A)\nSubClassOf(:A :B)\nSubClassOf(:B :A)\n"
    with pytest.raises(UndeclaredEntity) as err:
        parse_ontology(doc, strict=True)
    assert str(err.value) == "<string>: :B referenced at line 3 but never declared"


def parsed_nameds(axiom) -> list:
    """Every Named object the parser put into the axiom, at any depth; a
    DisjointUnion's class is an id string, not a Named."""
    stack = list(axiom.disjuncts if isinstance(axiom, DisjointUnion) else expressions_of(axiom))
    nameds = []
    while stack:
        expr = stack.pop()
        if isinstance(expr, Named):
            nameds.append(expr)
        elif isinstance(expr, Intersection):
            stack.extend(expr.operands)
        else:
            stack.append(expr.filler)
    return nameds


@settings(deadline=None)
@given(st.integers(0, 10**9), st.floats(0.0, 1.0))
def test_each_class_id_is_one_named_per_document(seed, dropped):
    """Within one parsed document every mention of a class id is the same
    Named object, declared or auto-declared; another parse of the text makes
    its own, equal by value."""
    rng = random.Random(seed)
    ontology = genutil.drop_declarations(rng, genutil.gen_ontology(rng), dropped)
    text = genutil.ontology_text(ontology)
    first = {}
    for axiom in parse_ontology(text).axioms:
        for named in parsed_nameds(axiom):
            assert first.setdefault(named.iri, named) is named
    for axiom in parse_ontology(text).axioms:
        for named in parsed_nameds(axiom):
            assert named == first[named.iri] and named is not first[named.iri]


ITEM = (
    "(expected Declaration or SubClassOf or EquivalentClasses or DisjointClasses"
    " or ClassAssertion or DisjointUnion)"
)
EXPRESSION = "(expected :id or ObjectIntersectionOf or ObjectSomeValuesFrom)"


@pytest.mark.parametrize(
    "doc, message",
    [
        ("Declaration(Class :A))", "unexpected ':A' at line 1, column 19 (expected ()"),
        (
            "Declaration(Klass(:A))",
            "unexpected 'Klass' at line 1, column 13 "
            "(expected Class or ObjectProperty or NamedIndividual)",
        ),
        ("Declaration(Class(A))", "unexpected 'A' at line 1, column 19 (expected id)"),
        ("Declaration(Class((:A))", "unexpected '(' at line 1, column 19 (expected id)"),
        (
            "Declaration(Class(:A) SubClassOf(:A :B)",
            "unexpected 'SubClassOf' at line 1, column 23 (expected ))",
        ),
        ("Declaration(Class(:A)", "unexpected end of input at line 1, column 22 (expected ))"),
        # the item keyword
        ("Nonsense(:A :B)", f"unexpected keyword 'Nonsense' at line 1, column 1 {ITEM}"),
        (
            "Declaration(Class(:A))\nOntology(\n)",
            f"unexpected keyword 'Ontology' at line 2, column 1 {ITEM}",
        ),
        (":A", f"unexpected ':A' at line 1, column 1 {ITEM}"),
        ("SubClassOf(:A :B) )", f"unexpected ')' at line 1, column 19 {ITEM}"),
        # each "("
        ("Ontology :A", "unexpected ':A' at line 1, column 10 (expected ()"),
        ("Ontology", "unexpected end of input at line 1, column 9 (expected ()"),
        ("Declaration Class(:A))", "unexpected 'Class' at line 1, column 13 (expected ()"),
        ("SubClassOf :A :B)", "unexpected ':A' at line 1, column 12 (expected ()"),
        (
            "SubClassOf(:A ObjectIntersectionOf :B :C)",
            "unexpected ':B' at line 1, column 36 (expected ()",
        ),
        # each ")"
        ("SubClassOf(:A :B :C)", "unexpected ':C' at line 1, column 18 (expected ))"),
        ("SubClassOf(:A :B", "unexpected end of input at line 1, column 17 (expected ))"),
        ("ClassAssertion(:A :i :j)", "unexpected ':j' at line 1, column 22 (expected ))"),
        ("EquivalentClasses(:A :B :C (", "unexpected '(' at line 1, column 28 (expected ))"),
        ("DisjointUnion(:A :B :C", "unexpected end of input at line 1, column 23 (expected ))"),
        (
            "SubClassOf(:A ObjectIntersectionOf(:B :C ()",
            "unexpected '(' at line 1, column 42 (expected ))",
        ),
        (
            "Ontology(\n  Declaration(Class(:A))\n  SubClassOf(:A ObjectSomeValuesFrom(:p\n"
            "    ObjectIntersectionOf(:A :B)\n    :C))\n)",
            "unexpected ':C' at line 5, column 5 (expected ))",
        ),
        # the ClassAssertion individual, the DisjointUnion class, the Existential property
        ("ClassAssertion(:A Foo)", "unexpected 'Foo' at line 1, column 19 (expected id)"),
        (
            "ClassAssertion(:A\n  ObjectIntersectionOf(:B :C))",
            "unexpected 'ObjectIntersectionOf' at line 2, column 3 (expected id)",
        ),
        (
            "DisjointUnion(ObjectIntersectionOf(:A :B) :C :D)",
            "unexpected 'ObjectIntersectionOf' at line 1, column 15 (expected id)",
        ),
        (
            "SubClassOf(:A ObjectSomeValuesFrom(ObjectIntersectionOf(:B :C) :D))",
            "unexpected 'ObjectIntersectionOf' at line 1, column 36 (expected id)",
        ),
        (
            "SubClassOf(:A ObjectSomeValuesFrom(Class :D))",
            "unexpected 'Class' at line 1, column 36 (expected id)",
        ),
        # the start of an expression
        ("SubClassOf(( :A)", f"unexpected '(' at line 1, column 12 {EXPRESSION}"),
        ("SubClassOf(Class :A)", f"unexpected 'Class' at line 1, column 12 {EXPRESSION}"),
        ("SubClassOf(", f"unexpected end of input at line 1, column 12 {EXPRESSION}"),
        (
            "SubClassOf(:A ObjectSomeValuesFrom(:p))",
            f"unexpected ')' at line 1, column 38 {EXPRESSION}",
        ),
        # the second operand
        ("SubClassOf(:A)", f"unexpected ')' at line 1, column 14 {EXPRESSION}"),
        ("EquivalentClasses(:A)", f"unexpected ')' at line 1, column 21 {EXPRESSION}"),
        ("DisjointClasses(:A\n)", f"unexpected ')' at line 2, column 1 {EXPRESSION}"),
        ("DisjointUnion(:A :B)", f"unexpected ')' at line 1, column 20 {EXPRESSION}"),
        (
            "SubClassOf(:A ObjectIntersectionOf(:B))",
            f"unexpected ')' at line 1, column 38 {EXPRESSION}",
        ),
        # the Ontology( close and the trailing end of input
        (
            "Ontology(SubClassOf(:A :B)",
            "unexpected end of input at line 1, column 27 (expected ))",
        ),
        ("Ontology(", "unexpected end of input at line 1, column 10 (expected ))"),
        (
            "Ontology(\nSubClassOf(:A :B)\n) :X",
            "unexpected ':X' at line 3, column 3 (expected eof)",
        ),
        ("Ontology(SubClassOf(:A :B)))", "unexpected ')' at line 1, column 28 (expected eof)"),
    ],
)
def test_a_malformed_declaration_fails_at_its_first_wrong_token(doc, message):
    """Every place the grammar takes a token, a declaration's and an axiom's
    alike: the error names the first token out of place, its line and column
    and what the grammar expected there."""
    with pytest.raises(ParseError) as err:
        parse_ontology(doc)
    assert str(err.value) == f"<string>: {message}"


def test_strict_mode_rejects_undeclared_ids():
    with pytest.raises(UndeclaredEntity):
        parse_ontology("SubClassOf(:A :B)", strict=True)
    doc = "Declaration(Class(:A))\nDeclaration(Class(:B))\nSubClassOf(:A :B)"
    assert len(parse_ontology(doc, strict=True).axioms) == 1


def test_source_document_from_path(tmp_path):
    path = tmp_path / "tiny.ofs"
    path.write_text("SubClassOf(:A :B)\n", encoding="utf-8")
    doc = SourceDocument.from_path(path)
    assert doc.path == str(path)
    assert len(parse_ontology(doc).axioms) == 1


def test_source_document_reads_universal_newlines(tmp_path):
    path = tmp_path / "mixed.ofs"
    path.write_bytes(b"SubClassOf(:A :B)\r\n# x\rSubClassOf(:B :C)\n")
    assert SourceDocument.from_path(path).text == "SubClassOf(:A :B)\n# x\nSubClassOf(:B :C)\n"


def test_undecodable_byte_is_a_parse_error_at_its_position(tmp_path):
    path = tmp_path / "latin1.ofs"
    # the column counts characters, so the two-byte e-acute is one column
    path.write_bytes(b"SubClassOf(:A :B)\r\n# caf\xc3\xa9 \xff\n")
    with pytest.raises(ParseError) as err:
        SourceDocument.from_path(path)
    assert (err.value.line, err.value.column) == (2, 8)
    assert str(path) in str(err.value)
    assert "0xff" in str(err.value)


def test_one_byte_order_mark_is_dropped(tmp_path):
    path = tmp_path / "marked.ofs"
    path.write_bytes(b"\xef\xbb\xbfSubClassOf(:A :B)\r\n")
    assert SourceDocument.from_path(path).text == "SubClassOf(:A :B)\n"
    # a second mark is text, and its column counts from after the first
    path.write_bytes(b"\xef\xbb\xbf" * 2 + b"SubClassOf(:A :B)\n")
    with pytest.raises(ParseError) as err:
        parse_ontology(SourceDocument.from_path(path))
    assert (err.value.line, err.value.column) == (1, 1)
    assert "'\\ufeff'" in str(err.value)


def read_in_text_mode(data: bytes) -> str:
    """The bytes as Python's own text mode reads them from a file: UTF-8,
    one leading byte-order mark dropped, universal newlines."""
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp, "doc")
        path.write_bytes(data)
        with open(path, encoding="utf-8-sig") as handle:
            return handle.read()


def lexicon_outcome(text: str):
    try:
        return load_lexicon(text)
    except LexiconFormatError as exc:
        return type(exc).__name__, str(exc)


@settings(deadline=None)
@given(st.integers(0, 10**9), st.booleans())
def test_a_string_reads_as_its_utf8_bytes_read_in_text_mode(seed, bom):
    """parse_ontology and load_lexicon make of a string what they make of
    the text Python's text mode reads from the string's UTF-8 bytes: the
    same result, or the same error type, message, line, column and expected
    set. The strings are laid-out documents and lexicons, with every kind
    of line end, with and without a leading byte-order mark."""
    rng = random.Random(seed)
    mark = "\ufeff" if bom else ""
    for text in (mark + genutil.laid_out_document(rng), mark + genutil.laid_out_lexicon(rng)):
        read = read_in_text_mode(text.encode("utf-8"))
        for strict in (False, True):
            assert genutil.parse_outcome(text, strict) == genutil.parse_outcome(read, strict)
        assert lexicon_outcome(text) == lexicon_outcome(read)


def test_serialize_expression_nests():
    expr = Intersection((Named(":A"), Existential(":p", Named(":B"))))
    assert (
        serialize_expression(expr)
        == "ObjectIntersectionOf(:A ObjectSomeValuesFrom(:p :B))"
    )


@given(st.integers(0, 10**9))
def test_serialize_parse_round_trip(seed):
    rng = random.Random(seed)
    classes, props, inds = genutil.make_pools()
    axiom = genutil.gen_axiom(rng, classes, props, inds, depth=rng.randint(0, 3))
    parsed = parse_ontology(serialize_axiom(axiom))
    assert parsed.axioms == [axiom]


# ---------------------------------------------------------------------------
# Lexicon
# ---------------------------------------------------------------------------

LEXICON = """\
# id\tpreferred name\tarticle\tproperty phrase
:City\tcity\ta
:partOf\tpart of\t\tis part of
:AcuteFever\tacute fever\tan
"""


def test_load_lexicon_basic_rows():
    lexicon = load_lexicon(LEXICON)
    assert lexicon[":City"].preferred_name == "city"
    assert lexicon[":City"].article == "a"
    assert lexicon[":partOf"].article is None
    assert lexicon[":partOf"].property_phrase == "is part of"
    assert lexicon[":AcuteFever"].article == "an"


def test_load_lexicon_later_rows_override():
    lexicon = load_lexicon(":A\tfirst\n:A\tsecond\n")
    assert lexicon[":A"].preferred_name == "second"


def test_load_lexicon_five_column_joiner():
    lexicon = load_lexicon(":p\tlocated\tthe\tis located\tin\n")
    assert lexicon[":p"].joiner == "in"


def test_load_lexicon_rejects_bad_article():
    with pytest.raises(LexiconFormatError):
        load_lexicon(":A\tthing\tsome\n")


# an empty id or preferred_name cell counts as a missing column
LEXICON_ROW_ERRORS = {
    ":OnlyId\n": "expected 2 to 5 tab-separated columns, got 1",
    ":Id\ta\tb\tc\td\te\n": "expected 2 to 5 tab-separated columns, got 6",
    "\tthing\n": "empty id column",
    ":A\t\n": "empty preferred_name column",
}


@pytest.mark.parametrize("row", list(LEXICON_ROW_ERRORS))
def test_load_lexicon_rejects_wrong_column_count(row):
    with pytest.raises(LexiconFormatError) as error:
        load_lexicon(row)
    assert str(error.value) == f"<string>:1: {LEXICON_ROW_ERRORS[row]}"


def test_load_lexicon_accepts_source_document(tmp_path):
    path = tmp_path / "lex.tsv"
    path.write_text(":A\tthing\n", encoding="utf-8")
    lexicon = load_lexicon(SourceDocument.from_path(path))
    assert lexicon[":A"].preferred_name == "thing"


@pytest.mark.parametrize("char", list(genutil.NOT_LINE_ENDS), ids=lambda c: f"U+{ord(c):04X}")
def test_load_lexicon_rows_end_only_at_line_ends(char, tmp_path):
    lexicon = load_lexicon(f":A\tOne{char}Two\tan\n")
    assert list(lexicon) == [":A"]
    assert lexicon[":A"].preferred_name == f"One{char}Two"
    assert lexicon[":A"].article == "an"
    # the bad row is on line 2, as ParseError would count it
    path = tmp_path / "lex.tsv"
    path.write_bytes(f":A\tApple{char}Pie\n:B\n".encode())
    with pytest.raises(LexiconFormatError) as error:
        load_lexicon(SourceDocument.from_path(path))
    assert str(error.value) == f"{path}:2: expected 2 to 5 tab-separated columns, got 1"


def test_load_lexicon_counts_cr_and_crlf_in_a_string_as_line_ends():
    with pytest.raises(LexiconFormatError) as error:
        load_lexicon(":A\ta\r:B\tb\r\n\r\n:C\n")
    assert str(error.value) == "<string>:4: expected 2 to 5 tab-separated columns, got 1"
