"""Core data model: validation, operand access, mention search, frames, and
the value semantics of every record class."""

import copy
import gc
import pickle
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

import owlprose.model as model
from owlprose.classifier import NotInFrame, classify
from owlprose.evaluate import score_submission
from owlprose.model import (
    ClassAssertion,
    ClassFrame,
    DisjointClasses,
    DisjointUnion,
    EquivalentClasses,
    Existential,
    Intersection,
    LexEntry,
    Named,
    Ontology,
    SubClassOf,
    UnknownClass,
    class_ids,
    collect_frame,
    expressions_of,
    frames,
    mentions,
)
from owlprose.parser import (
    MAX_NESTING,
    ParseError,
    SourceDocument,
    UndeclaredEntity,
    load_lexicon,
    parse_ontology,
    serialize_axiom,
)
from owlprose.realizer import RealizeOptions

import genutil

A, B, C = Named(":A"), Named(":B"), Named(":C")


def test_intersection_requires_two_operands():
    with pytest.raises(ValueError):
        Intersection((A,))
    Intersection((A, B))  # two is fine


@pytest.mark.parametrize("maker", [EquivalentClasses, DisjointClasses])
def test_nary_axioms_require_two_operands(maker):
    with pytest.raises(ValueError):
        maker((A,))


def test_disjoint_union_requires_two_disjuncts():
    with pytest.raises(ValueError):
        DisjointUnion(":A", (B,))


def test_expressions_of_covers_every_axiom_kind():
    assert expressions_of(SubClassOf(A, B)) == (A, B)
    assert expressions_of(EquivalentClasses((A, B, C))) == (A, B, C)
    assert expressions_of(DisjointClasses((A, B))) == (A, B)
    assert expressions_of(ClassAssertion(A, ":rome")) == (A,)
    assert expressions_of(DisjointUnion(":A", (B, C))) == (A, B, C)


def test_mentions_searches_nested_fillers():
    axiom = SubClassOf(A, Intersection((B, Existential(":p", C))))
    assert mentions(axiom, ":C")
    assert not mentions(axiom, ":D")


def test_mentions_sees_disjoint_union_class():
    axiom = DisjointUnion(":A", (B, C))
    assert mentions(axiom, ":A")
    assert mentions(axiom, ":B")


def test_mentions_ignores_individuals():
    assert not mentions(ClassAssertion(A, ":rome"), ":rome")


def test_collect_frame_keeps_ontology_order():
    axioms = [
        SubClassOf(A, B),
        SubClassOf(B, C),  # does not mention :A
        DisjointClasses((A, C)),
    ]
    ontology = Ontology(classes={":A", ":B", ":C"}, axioms=axioms)
    frame = collect_frame(ontology, ":A")
    assert frame.designated == ":A"
    assert frame.axioms == [axioms[0], axioms[2]]


def test_collect_frame_rejects_undeclared_class():
    ontology = Ontology(classes={":A"})
    with pytest.raises(UnknownClass):
        collect_frame(ontology, ":Nope")


def test_collect_frame_empty_frame_is_allowed():
    ontology = Ontology(classes={":A"})
    assert collect_frame(ontology, ":A").axioms == []


def check_walk(ontology):
    """class_ids, mentions, collect_frame and frames against the oracles, on
    one ontology. A property id is probed too: an Existential's property is
    never a class mention."""
    index = frames(ontology)
    assert index.keys() == ontology.classes
    probes = ontology.classes | ontology.properties | ontology.individuals | {":Nowhere"}
    for axiom in ontology.axioms:
        expected = genutil.class_ids_oracle(axiom)
        assert class_ids(axiom) == expected
        for iri in probes | expected:
            assert mentions(axiom, iri) == (iri in expected)
    for iri, frame in index.items():
        assert frame.designated == iri
        oracle = genutil.frame_oracle(ontology, iri).axioms
        for got in (frame.axioms, collect_frame(ontology, iri).axioms):
            assert len(got) == len(oracle)
            assert all(one is want for one, want in zip(got, oracle))


class SubNamed(Named):
    """A subclass that declares no slot of its own, at module level so that
    pickle finds it by name."""

    __slots__ = ()


class SubExistential(Existential):
    __slots__ = ()


class SubSubClassOf(SubClassOf):
    __slots__ = ()


class SubEquivalentClasses(EquivalentClasses):
    __slots__ = ()


class SubDisjointClasses(DisjointClasses):
    __slots__ = ()


class SubClassAssertion(ClassAssertion):
    __slots__ = ()


class SubDisjointUnion(DisjointUnion):
    __slots__ = ()


HAND_BUILT = {
    "undeclared disjunct": Ontology(
        classes={":A", ":B"},
        axioms=[DisjointUnion(":A", (B, Named(":U"))), SubClassOf(Named(":U"), A)],
    ),
    "nested fillers": Ontology(
        classes={":A", ":B", ":C"},
        properties={":p", ":q"},
        axioms=[
            SubClassOf(A, Existential(":p", Intersection((B, Existential(":q", C))))),
            EquivalentClasses((B, Existential(":p", Existential(":q", C)))),
        ],
    ),
    "named twice": Ontology(
        classes={":A", ":B"},
        properties={":p"},
        axioms=[
            SubClassOf(A, Intersection((B, Existential(":p", A)))),
            DisjointClasses((A, Existential(":p", A))),
        ],
    ),
    "individual shares a class id": Ontology(
        classes={":A", ":B"},
        individuals={":B"},
        axioms=[ClassAssertion(A, ":B"), SubClassOf(B, A)],
    ),
    "property shares a class id": Ontology(
        classes={":A", ":B", ":C"},
        properties={":A"},
        axioms=[SubClassOf(B, Existential(":A", C)), ClassAssertion(Existential(":A", B), ":i")],
    ),
    # instances of subclasses are walked as their base classes
    "value subclasses": Ontology(
        classes={":A", ":B", ":C"},
        properties={":p"},
        axioms=[
            SubSubClassOf(SubNamed(":A"), SubExistential(":p", B)),
            SubClassOf(SubNamed(":A"), B),
            EquivalentClasses((C, SubExistential(":p", Intersection((SubNamed(":A"), B))))),
            DisjointUnion(":C", (SubNamed(":B"), A)),
        ],
    ),
    "empty": Ontology(),
}


@pytest.mark.parametrize("name", sorted(HAND_BUILT))
def test_walk_matches_the_oracle_on_hand_built_cases(name):
    check_walk(HAND_BUILT[name])


def deep_expression(bottom: str):
    """An expression MAX_NESTING constructors deep, alternating Existential
    and an Intersection whose deeper operand comes after the decoy :D, with
    ``bottom`` named only at the bottom."""
    expr = Named(bottom)
    for level in range(MAX_NESTING):
        expr = Existential(":p", expr) if level % 2 else Intersection((Named(":D"), expr))
    return expr


DEEP = deep_expression(":X")
DEEP_POSITIONS = {
    "SubClassOf sub": SubClassOf(DEEP, Named(":D")),
    "SubClassOf super": SubClassOf(Named(":D"), DEEP),
    "EquivalentClasses operand": EquivalentClasses((Named(":D"), DEEP)),
    "DisjointClasses operand": DisjointClasses((Named(":D"), DEEP)),
    "ClassAssertion expression": ClassAssertion(DEEP, ":i"),
    "DisjointUnion disjunct": DisjointUnion(":D", (Named(":E"), DEEP)),
}


@pytest.mark.parametrize("position", sorted(DEEP_POSITIONS))
def test_walk_finds_a_mention_at_the_bottom_of_the_deepest_expression(position):
    """The only mention of :X lies MAX_NESTING constructors down, the
    deepest the parser reads, so the walk must pass every level to find it."""
    ontology = Ontology(
        classes={":X", ":D", ":E"},
        properties={":p"},
        individuals={":i"},
        axioms=[DEEP_POSITIONS[position]],
    )
    assert parse_ontology(genutil.ontology_text(ontology)) == ontology
    assert mentions(ontology.axioms[0], ":X")
    check_walk(ontology)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), share=st.sampled_from((0.0, 0.3)))
def test_walk_matches_the_oracle_on_generated_ontologies(seed, share):
    rng = random.Random(seed)
    ontology = genutil.gen_ontology(rng, max_axioms=12)
    check_walk(genutil.drop_declarations(rng, ontology, share))


def test_a_frame_scan_calls_mentions_once_per_axiom_and_builds_no_id_set(monkeypatch):
    """collect_frame reaches model.mentions through the module attribute,
    which a tracer can wrap to count the scan, once per axiom; neither the
    scan nor classify's membership check calls class_ids or expressions_of."""
    calls = Counter()

    def count(name):
        original = getattr(model, name)

        def counted(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(model, name, counted)

    for name in ("mentions", "class_ids", "expressions_of"):
        count(name)
    rng = random.Random(7)
    for _ in range(20):
        ontology = genutil.drop_declarations(rng, genutil.gen_ontology(rng, max_axioms=12), 0.3)
        for iri in sorted(ontology.classes):
            before = calls["mentions"]
            collect_frame(ontology, iri)
            assert calls["mentions"] - before == len(ontology.axioms)
            for axiom in ontology.axioms:
                try:
                    classify(axiom, iri)
                except NotInFrame:
                    pass
    assert calls["mentions"] > 0
    assert calls["class_ids"] == calls["expressions_of"] == 0


@pytest.mark.parametrize(
    "walk", [class_ids, lambda axiom: mentions(axiom, ":Nowhere")], ids=["class_ids", "mentions"]
)
def test_a_value_that_is_not_an_axiom_or_an_expression_raises_type_error(walk):
    for value in (A, ":A", None, ClassFrame(":A", [SubClassOf(A, B)])):
        with pytest.raises(TypeError, match="^not an axiom: "):
            walk(value)
    for axiom in (
        SubClassOf(A, ":B"),
        SubClassOf(":A", B),
        EquivalentClasses((A, Existential(":p", ":B"))),
        DisjointClasses((A, Intersection((B, SubClassOf(A, B))))),
        ClassAssertion(None, ":i"),
        DisjointUnion(":A", (B, ":C")),
    ):
        with pytest.raises(TypeError, match="^not a class expression: "):
            walk(axiom)


# each example runs two full collections, about 40 ms in a pytest process
@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), share=st.sampled_from((0.0, 0.3)))
def test_a_parsed_model_holds_no_reference_cycle(seed, share):
    """Reference counting alone frees what a parse, a lexicon load and
    frames build: with the cyclic collector off, dropping all of it leaves
    the collector nothing to find. The lexicon has one row per declared id;
    about that share of the classes lose their declaration, so the parse
    auto-declares those the axioms mention. A failed parse of the document
    broken by one edit, lenient or strict, leaves nothing either once its
    error is dropped."""
    rng = random.Random(seed)
    ontology = genutil.drop_declarations(rng, genutil.gen_ontology(rng), share)
    text = genutil.ontology_text(ontology)
    ids = sorted(ontology.classes) + sorted(ontology.properties) + sorted(ontology.individuals)
    lexicon = "".join(
        f"{iri}\tname of {iri[1:]}\t{rng.choice(('', 'a', 'an', 'the'))}\tis related to\tin\n"
        for iri in ids
    )
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        parsed = parse_ontology(text)
        entries = load_lexicon(lexicon)
        index = frames(parsed)
        del parsed, entries, index
        assert gc.collect() == 0
        broken = genutil.broken_by_one_edit(rng, text)
        for strict in (False, True):
            try:
                parse_ontology(broken, strict=strict)
            except (ParseError, UndeclaredEntity):
                pass
            assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


# ---------------------------------------------------------------------------
# value semantics
# ---------------------------------------------------------------------------

SEEDS = st.integers(0, 2**32 - 1)
TEXTS = st.text(st.sampled_from("ab:\ufeff\r\n '\\\u00e9"), max_size=8)
MAYBE_TEXT = st.none() | TEXTS

# Functions that build a new object on each call, every one equal by value
# to the last. Arguments a class has defaults for are sometimes left out.
MAKERS = st.one_of(
    SEEDS.map(lambda seed: lambda: genutil.gen_frame(random.Random(seed))),
    SEEDS.map(lambda seed: lambda: genutil.gen_ontology(random.Random(seed))),
    st.fixed_dictionaries(
        {"preferred_name": TEXTS},
        optional={"article": MAYBE_TEXT, "property_phrase": MAYBE_TEXT, "joiner": MAYBE_TEXT},
    ).map(lambda fields: lambda: LexEntry(**fields)),
    st.fixed_dictionaries({"text": TEXTS}, optional={"path": TEXTS}).map(
        lambda fields: lambda: SourceDocument(**fields)
    ),
    st.fixed_dictionaries(
        {}, optional={"elide_rolegroup": st.booleans(), "guess_articles": st.booleans()}
    ).map(lambda fields: lambda: RealizeOptions(**fields)),
)

# What a repr names: each record class by its own name.
RECORDS = {
    cls.__name__: cls
    for cls in (
        Named, Intersection, Existential, SubClassOf, EquivalentClasses, DisjointClasses,
        ClassAssertion, DisjointUnion, LexEntry, Ontology, ClassFrame, RealizeOptions,
    )
}


def values_in(node) -> list:
    """Every frozen value in node, node included, depth first: the axioms of
    a frame or an ontology and every expression inside them. A frozen
    value's fields are its __slots__."""
    if isinstance(node, (tuple, list)):
        return [value for item in node for value in values_in(item)]
    if isinstance(node, (ClassFrame, Ontology)):
        return values_in(node.axioms)
    fields = getattr(type(node), "__slots__", None)
    if fields is None:
        return []
    return [node, *values_in([getattr(node, name) for name in fields])]


@settings(max_examples=150, deadline=None)
@given(make=MAKERS)
def test_objects_built_from_the_same_arguments_are_equal_with_equal_hashes(make):
    first, second = make(), make()
    assert first is not second
    assert first == second and not first != second
    if isinstance(first, (ClassFrame, Ontology)):
        for record in (first, second):
            with pytest.raises(TypeError):
                hash(record)
    for one, other in zip(values_in(first), values_in(second), strict=True):
        assert type(one) is type(other)
        assert one == other and hash(one) == hash(other)


def structure(node):
    """node as plain data that no value class's __eq__ or __hash__ reads: a
    frozen value becomes its class followed by its fields' structures, a
    tuple the tuple of its items' structures, and anything else stays."""
    if isinstance(node, tuple):
        return tuple(structure(item) for item in node)
    fields = getattr(type(node), "__slots__", None)
    if fields is None:
        return node
    return (type(node), *(structure(getattr(node, name)) for name in fields))


@settings(max_examples=150, deadline=None)
@given(first=MAKERS, second=MAKERS)
@example(first=lambda: A, second=lambda: B)
@example(first=lambda: Intersection((A, B)), second=lambda: Intersection((A, C)))
@example(first=lambda: EquivalentClasses((A, B)), second=lambda: EquivalentClasses((B, A)))
@example(first=lambda: DisjointClasses((A, B)), second=lambda: DisjointClasses((A, B, C)))
@example(first=lambda: Intersection((A, B)), second=lambda: DisjointClasses((A, B)))
@example(first=lambda: SubClassOf(A, B), second=lambda: SubClassOf(A, C))
def test_values_are_equal_exactly_when_class_and_field_values_are(first, second):
    """Two independently made values, and every value inside them, compare
    as their structures do, and equal values hash alike. No value equals
    its field values, bare or as a tuple, although it may hash like them."""
    for one in values_in(first()):
        fields = tuple(getattr(one, name) for name in type(one).__slots__)
        assert one != fields and one != fields[0]
        for other in values_in(second()):
            equal = structure(one) == structure(other)
            assert (one == other) is equal and (other == one) is equal
            assert (one != other) is not equal
            if equal:
                assert hash(one) == hash(other)


@settings(max_examples=150, deadline=None)
@given(make=MAKERS)
def test_the_same_fields_in_another_class_are_unequal(make):
    for value in values_in(make()):
        if isinstance(value, (Intersection, EquivalentClasses, DisjointClasses)):
            for cls in (Intersection, EquivalentClasses, DisjointClasses):
                twin = cls(value.operands)
                assert (twin == value) is (value == twin) is (cls is type(value))
                assert (twin != value) is (cls is not type(value))


@settings(max_examples=150, deadline=None)
@given(make=MAKERS)
def test_a_repr_names_each_field_and_reads_back(make):
    """A document's repr shows its text after the byte-order mark and line
    ends were handled, so reading it back may handle a second mark; every
    other repr reads back as an equal object."""
    made = make()
    if not isinstance(made, SourceDocument):
        assert eval(repr(made), dict(RECORDS)) == made
    for value in values_in(made):
        fields = ", ".join(f"{name}={getattr(value, name)!r}" for name in type(value).__slots__)
        assert repr(value) == f"{type(value).__name__}({fields})"


def test_a_repr_is_the_one_the_dataclasses_gave():
    frame = ClassFrame(":F", [SubClassOf(A, Existential(":p", Intersection((B, C))))])
    assert repr(A) == "Named(iri=':A')"
    assert repr(frame) == (
        "ClassFrame(designated=':F', axioms=[SubClassOf(sub=Named(iri=':A'), "
        "super=Existential(prop=':p', filler=Intersection(operands=(Named(iri=':B'), "
        "Named(iri=':C')))))])"
    )
    assert repr(Ontology(classes={":A"})) == (
        "Ontology(classes={':A'}, properties=set(), individuals=set(), axioms=[])"
    )
    assert repr(DisjointUnion(":A", (B, C))) == (
        "DisjointUnion(union_class=':A', disjuncts=(Named(iri=':B'), Named(iri=':C')))"
    )
    assert repr(LexEntry("city", "a")) == (
        "LexEntry(preferred_name='city', article='a', property_phrase=None, joiner=None)"
    )
    assert repr(SourceDocument("\ufeffx\r\n")) == "SourceDocument(text='x\\n', path='<string>')"
    assert repr(RealizeOptions(guess_articles=True)) == (
        "RealizeOptions(elide_rolegroup=False, guess_articles=True)"
    )


@settings(max_examples=150, deadline=None)
@given(make=MAKERS)
def test_a_frozen_value_has_no_dict_and_keeps_its_fields(make):
    for value in values_in(make()):
        before = repr(value)
        assert not hasattr(value, "__dict__")
        for name in (*type(value).__slots__, "other"):
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            with pytest.raises(AttributeError):
                delattr(value, name)
        assert repr(value) == before


@settings(max_examples=150, deadline=None)
@given(make=MAKERS)
def test_pickle_and_copy_give_back_an_equal_object(make):
    made = make()
    twins = [copy.copy(made), copy.deepcopy(made)]
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        twins.append(pickle.loads(pickle.dumps(made, protocol)))
    expected = [repr(value) for value in values_in(made)]
    for twin in twins:
        assert type(twin) is type(made) and twin == made
        assert [repr(value) for value in values_in(twin)] == expected


def test_keywords_and_defaults_construct_as_before():
    assert LexEntry(preferred_name="city") == LexEntry("city", None, None, None)
    assert LexEntry("city", joiner="in") == LexEntry("city", None, None, "in")
    assert RealizeOptions(guess_articles=True) == RealizeOptions(False, True)
    assert RealizeOptions() == RealizeOptions(elide_rolegroup=False, guess_articles=False)
    assert SourceDocument(text="x", path="p") == SourceDocument("x", "p")
    assert SourceDocument("x").path == "<string>"
    assert Existential(filler=A, prop=":p") == Existential(":p", A)
    assert SubClassOf(super=B, sub=A) == SubClassOf(A, B)
    assert DisjointUnion(disjuncts=(B, C), union_class=":A") == DisjointUnion(":A", (B, C))
    assert ClassAssertion(individual=":rome", expr=A) == ClassAssertion(A, ":rome")
    # a mutable record's default list or set is new for each instance
    first, second = ClassFrame(":F"), ClassFrame(":F")
    assert first.axioms == [] and first.axioms is not second.axioms
    first, second = Ontology(), Ontology()
    empty = {"classes": set(), "properties": set(), "individuals": set(), "axioms": []}
    assert vars(first) == empty
    assert first.classes is not second.classes and first.axioms is not second.axioms


@pytest.mark.parametrize(
    "value, text",
    [
        (SubNamed(":A"), "SubNamed(iri=':A')"),
        (SubExistential(":p", SubNamed(":B")), "SubExistential(prop=':p', filler=SubNamed(iri=':B'))"),
    ],
)
def test_a_subclass_that_declares_no_slot_has_its_base_fields(value, text):
    assert repr(value) == text
    twins = [copy.copy(value), copy.deepcopy(value)]
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        twins.append(pickle.loads(pickle.dumps(value, protocol)))
    for twin in twins:
        assert type(twin) is type(value) and repr(twin) == text
        assert twin == value and hash(twin) == hash(value)


def test_an_instance_of_a_subclass_is_not_equal_to_the_class_instance():
    class Sub(Named):
        __slots__ = ()

    assert Sub(":A") != A and A != Sub(":A")
    assert Sub(":A") == Sub(":A")


# per axiom kind: an instance of a slot-less subclass holding slot-less
# subclass expressions, the equal axiom of the base kinds, and an equivalent
# re-coding of it that only a later version of the family matches
SUBCLASS_AXIOMS = {
    "SubClassOf": (
        SubSubClassOf(SubNamed(":A"), Intersection((SubExistential(":p", SubNamed(":B")), C))),
        SubClassOf(A, Intersection((Existential(":p", B), C))),
        [SubClassOf(A, C), SubClassOf(A, Existential(":p", B))],
    ),
    "EquivalentClasses": (
        SubEquivalentClasses((SubNamed(":A"), SubExistential(":p", SubNamed(":B")), C)),
        EquivalentClasses((A, Existential(":p", B), C)),
        [EquivalentClasses((C, Existential(":p", B), A))],
    ),
    "DisjointClasses": (
        SubDisjointClasses((SubNamed(":A"), SubNamed(":B"))),
        DisjointClasses((A, B)),
        [DisjointClasses((B, A))],
    ),
    "ClassAssertion": (
        SubClassAssertion(Intersection((SubExistential(":p", SubNamed(":A")), B)), ":i"),
        ClassAssertion(Intersection((Existential(":p", A), B)), ":i"),
        [ClassAssertion(Intersection((B, Existential(":p", A))), ":i")],
    ),
    "DisjointUnion": (
        SubDisjointUnion(":A", (SubNamed(":B"), SubExistential(":p", Intersection((C, B))))),
        DisjointUnion(":A", (B, Existential(":p", Intersection((C, B))))),
        [DisjointUnion(":A", (B, Existential(":p", Intersection((B, C)))))],
    ),
}


@pytest.mark.parametrize("kind", sorted(SUBCLASS_AXIOMS))
def test_an_instance_of_a_subclass_is_classified_serialized_and_scored_as_its_base(kind):
    """Every stage that picks an axiom's kind reads an instance of a subclass
    as its base: the classifier's group and directness, the serialization's
    keyword, the parse of that text, and the round-trip score in either role
    and over the reference's equivalent versions."""
    mine, base, recoded = SUBCLASS_AXIOMS[kind]
    assert mine != base
    for iri in class_ids(base):
        assert classify(mine, iri)[1:] == classify(base, iri)[1:]
    text = serialize_axiom(mine)
    assert text == serialize_axiom(base) and text.startswith(f"{kind}(")
    ontology = Ontology({":A", ":B", ":C"}, {":p"}, {":i"}, [mine])
    assert parse_ontology(genutil.ontology_text(ontology)).axioms == [base]
    frame = lambda axioms: ClassFrame(":A", axioms)
    for candidate, reference in ((mine, base), (base, mine)):
        report = score_submission(frame([candidate]), frame([reference]))
        assert (report.mean, report.best_version_index) == (1.0, 0)
    report = score_submission(frame(recoded), frame([mine]))
    assert report == score_submission(frame(recoded), frame([base]))
    assert report.mean == 1.0 and report.best_version_index > 0
