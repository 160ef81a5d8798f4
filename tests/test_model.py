"""Core data model: validation, operand access, mention search, frames, and
the value semantics of every record class."""

import copy
import gc
import pickle
import random

import pytest
from hypothesis import example, given, settings, strategies as st

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
    ParseError,
    SourceDocument,
    UndeclaredEntity,
    load_lexicon,
    parse_ontology,
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
    """class_ids, mentions and frames against the oracles, on one ontology."""
    index = frames(ontology)
    assert index.keys() == ontology.classes
    probes = ontology.classes | ontology.individuals | {":Nowhere"}
    for axiom in ontology.axioms:
        expected = genutil.class_ids_oracle(axiom)
        assert class_ids(axiom) == expected
        for iri in probes | expected:
            assert mentions(axiom, iri) == (iri in expected)
    for iri, frame in index.items():
        assert frame.designated == iri
        oracle = genutil.frame_oracle(ontology, iri).axioms
        assert len(frame.axioms) == len(oracle)
        assert all(got is want for got, want in zip(frame.axioms, oracle))


HAND_BUILT = {
    "undeclared disjunct": Ontology(
        classes={":A", ":B"},
        axioms=[DisjointUnion(":A", (B, Named(":U"))), SubClassOf(Named(":U"), A)],
    ),
    "nested fillers": Ontology(
        classes={":A", ":B", ":C"},
        axioms=[
            SubClassOf(A, Existential(":p", Intersection((B, Existential(":q", C))))),
            EquivalentClasses((B, Existential(":p", Existential(":q", C)))),
        ],
    ),
    "named twice": Ontology(
        classes={":A", ":B"},
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
    "empty": Ontology(),
}


@pytest.mark.parametrize("name", sorted(HAND_BUILT))
def test_walk_matches_the_oracle_on_hand_built_cases(name):
    check_walk(HAND_BUILT[name])


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), share=st.sampled_from((0.0, 0.3)))
def test_walk_matches_the_oracle_on_generated_ontologies(seed, share):
    rng = random.Random(seed)
    ontology = genutil.gen_ontology(rng, max_axioms=12)
    check_walk(genutil.drop_declarations(rng, ontology, share))


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


class SubNamed(Named):
    """A subclass that declares no slot of its own, at module level so that
    pickle finds it by name."""

    __slots__ = ()


class SubExistential(Existential):
    __slots__ = ()


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
