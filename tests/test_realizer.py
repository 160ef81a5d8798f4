"""Surface realization: expression rendering, aggregation, template output."""

from owlprose.classifier import classify
from owlprose.model import (
    ClassAssertion,
    ClassFrame,
    DisjointClasses,
    EquivalentClasses,
    Existential,
    Intersection,
    LexEntry,
    Named,
    SubClassOf,
)
from owlprose.planner import build_rst
from owlprose.realizer import (
    Paragraph,
    RealizeOptions,
    _Renderer,
    comma_and,
    realize,
)

D = ":Fever"
F, A, B, C = Named(D), Named(":Disease"), Named(":Ague"), Named(":Pyrexia")

LEXICON = {
    ":Fever": LexEntry("fever"),
    ":Disease": LexEntry("disease"),
    ":Ague": LexEntry("ague"),
    ":Pyrexia": LexEntry("pyrexia"),
    ":City": LexEntry("city", article="a"),
    ":partOf": LexEntry("part of", property_phrase="is part of"),
    ":site": LexEntry("site", property_phrase="has procedure site"),
    ":locatedIn": LexEntry("located", property_phrase="is located", joiner="in"),
}


def verbalize(axioms, options=None):
    frame = ClassFrame(D, list(axioms))
    classified = [classify(ax, D) for ax in frame.axioms]
    return realize(build_rst(frame, classified), LEXICON, options)


# ---------------------------------------------------------------------------
# Expression rendering
# ---------------------------------------------------------------------------


def renderer(lexicon=LEXICON, options=RealizeOptions()):
    return _Renderer(lexicon, options)


def test_named_subject_takes_lexicon_article():
    r = renderer()
    assert r.np(Named(":City"), articled=True) == "a city"
    assert r.np(Named(":City"), articled=False) == "city"


def test_named_without_article_stays_bare():
    r = renderer()
    assert r.np(F, articled=True) == r.np(F, articled=False) == "fever"


def test_missing_lexicon_entry_falls_back_to_raw_id():
    assert renderer({}).np(Named(":Settlement"), articled=True) == "Settlement"


def test_existential_uses_property_phrase_and_articles_its_filler():
    expr = Existential(":partOf", Named(":City"))
    assert renderer().np(expr, articled=True) == "is part of a city"
    assert renderer().np(expr, articled=False) == "is part of a city"


def test_has_phrase_gets_the_in_joiner():
    expr = Existential(":site", Named(":City"))
    assert renderer().np(expr, articled=True) == "has procedure site in a city"


def test_lexicon_joiner_wins():
    expr = Existential(":locatedIn", Named(":City"))
    assert renderer().np(expr, articled=True) == "is located in a city"


def test_named_intersection_renders_as_list():
    expr = Intersection((A, B, C))
    assert renderer().np(expr, articled=True) == "disease, ague and pyrexia"


def test_intersection_with_named_head_hangs_clauses_off_that():
    expr = Intersection((A, Existential(":partOf", Named(":City")), B))
    assert renderer().np(expr, articled=True) == "disease that is part of a city, and is ague"


def test_intersection_without_named_head_uses_something_that():
    expr = Intersection((Existential(":partOf", Named(":City")), A))
    text = renderer().np(expr, articled=True)
    assert text == "something that is part of a city, and is disease"


def test_clause_role_wraps_named_expression_with_is():
    r = renderer()
    assert r.clause(Named(":City")) == "is a city"
    assert r.clause(Named(":City")) == "is " + r.np(Named(":City"), articled=True)


def test_rolegroup_elision_skips_to_the_filler():
    expr = Existential(":RoleGroup", Existential(":partOf", Named(":City")))
    assert renderer().np(expr, articled=True) == "RoleGroup is part of a city"
    elided = renderer(options=RealizeOptions(elide_rolegroup=True))
    assert elided.np(expr, articled=True) == "is part of a city"
    assert elided.clause(expr) == "is part of a city"


def test_guessed_articles_follow_the_vowel_rule():
    r = renderer(options=RealizeOptions(guess_articles=True))
    assert r.np(B, articled=True) == "an ague"
    assert r.np(F, articled=True) == "a fever"
    assert r.np(B, articled=False) == "ague"


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def test_comma_and_has_no_oxford_comma():
    assert comma_and(["a"]) == "a"
    assert comma_and(["a", "b"]) == "a and b"
    assert comma_and(["a", "b", "c"]) == "a, b and c"


# ---------------------------------------------------------------------------
# Paragraphs
# ---------------------------------------------------------------------------


def test_kind_of_specialised_and_merged_definition():
    paragraph = verbalize(
        [SubClassOf(F, A), SubClassOf(B, F), EquivalentClasses((F, C))]
    )
    assert paragraph.sentences == [
        "Fever is a kind of disease.",
        "A more specialised kind of fever is ague, and fever is defined as pyrexia.",
    ]
    assert paragraph.records == [
        ("Sc", "Fever is a kind of disease."),
        ("Sc+Ec", "A more specialised kind of fever is ague, and fever is defined as pyrexia."),
    ]
    paragraph = verbalize([SubClassOf(B, F), SubClassOf(C, F)])
    assert paragraph.sentences == ["More specialised kinds of fever are ague and pyrexia."]


def test_definition_stands_alone_without_a_host_sentence():
    paragraph = verbalize([EquivalentClasses((F, C))])
    assert paragraph.sentences == ["Fever is defined as pyrexia."]
    # an indirect definition drops the first occurrence of the class only
    paragraph = verbalize([EquivalentClasses((A, F, B))])
    assert paragraph.sentences == ["Fever is defined as disease and ague."]
    paragraph = verbalize([EquivalentClasses((A, F, F))])
    assert paragraph.sentences == ["Fever is defined as disease and fever."]


def test_duplicate_supers_collapse():
    paragraph = verbalize([SubClassOf(F, A), SubClassOf(F, A), SubClassOf(F, B)])
    assert paragraph.sentences == ["Fever is a kind of disease and ague."]
    # the conjuncts of a named intersection join the kind-of list
    paragraph = verbalize([SubClassOf(F, Intersection((A, B))), SubClassOf(F, C)])
    assert paragraph.sentences == ["Fever is a kind of disease, ague and pyrexia."]


def test_sentence_case_leaves_a_leading_digit_and_what_follows_it():
    frame = ClassFrame(":DPG", [SubClassOf(Named(":DPG"), Named(":Metabolite"))])
    lexicon = {":DPG": LexEntry("2,3-diphosphoglycerate"), ":Metabolite": LexEntry("metabolite")}
    classified = [classify(ax, frame.designated) for ax in frame.axioms]
    paragraph = realize(build_rst(frame, classified), lexicon)
    assert paragraph.sentences == ["2,3-diphosphoglycerate is a kind of metabolite."]
    # punctuation before the first letter or digit is still skipped
    lexicon[":DPG"] = LexEntry('"dpg"')
    paragraph = realize(build_rst(frame, classified), lexicon)
    assert paragraph.sentences == ['"Dpg" is a kind of metabolite.']


def test_disjointness_sentence_opens_with_also():
    paragraph = verbalize([DisjointClasses((F, A, B))])
    assert paragraph.sentences == ["Also fever is different from disease and ague."]
    paragraph = verbalize([DisjointClasses((B, F, A))])
    assert paragraph.sentences == ["Also fever is different from ague and disease."]


def test_members_merge_onto_a_complex_sentence():
    complex_super = Existential(":partOf", Named(":City"))
    paragraph = verbalize([SubClassOf(F, complex_super), ClassAssertion(F, ":x1")])
    assert paragraph.sentences == [
        "Fever is a kind of is part of a city, and has members x1."
    ]


def test_members_stand_alone_without_a_complex_host():
    paragraph = verbalize([ClassAssertion(F, ":x1"), ClassAssertion(F, ":x2")])
    assert paragraph.sentences == ["Fever has members x1 and x2."]


def test_additionally_prefixes_the_complex_block_after_simple_text():
    complex_super = Existential(":partOf", Named(":City"))
    paragraph = verbalize([SubClassOf(F, A), SubClassOf(F, complex_super)])
    assert paragraph.sentences == [
        "Fever is a kind of disease.",
        "Additionally, fever is a kind of is part of a city.",
    ]


def test_no_connector_without_preceding_simple_text():
    complex_super = Existential(":partOf", Named(":City"))
    paragraph = verbalize([SubClassOf(F, complex_super)])
    assert paragraph.sentences == ["Fever is a kind of is part of a city."]


def test_single_indirect_axiom_becomes_an_aspect_sentence():
    paragraph = verbalize([SubClassOf(A, Intersection((B, F)))])
    assert paragraph.sentences == [
        "Another relevant aspect of fever is that disease is defined as ague and fever."
    ]
    assert paragraph.records[0][0] == "Scr"


def test_an_indirect_axiom_renders_each_operand_once(monkeypatch):
    """The "is a kind of" branch renders the super bare, and only bare."""
    rendered = []
    np = _Renderer.np

    def spy(self, expr, articled):
        rendered.append((expr, articled))
        return np(self, expr, articled)

    monkeypatch.setattr(_Renderer, "np", spy)
    sub = Intersection((A, Existential(":partOf", F)))
    super_ = Existential(":partOf", A)
    paragraph = verbalize([SubClassOf(sub, super_)])
    assert paragraph.sentences == [
        "Another relevant aspect of fever is that disease that is part of fever is a kind of "
        "is part of disease."
    ]
    assert [call for call in rendered if call[0] == super_] == [(super_, False)]


def test_several_indirect_axioms_become_bullets():
    paragraph = verbalize(
        [
            SubClassOf(A, Intersection((B, F))),
            EquivalentClasses((C, Existential(":partOf", F))),
        ]
    )
    assert paragraph.sentences == []
    assert paragraph.bullet_header == "Other relevant aspects of fever are:"
    assert paragraph.bullets == [
        "Disease is defined as ague and fever",
        "Pyrexia is defined as is part of fever",
    ]
    assert paragraph.text == (
        "Other relevant aspects of fever are:\n"
        "- Disease is defined as ague and fever;\n"
        "- Pyrexia is defined as is part of fever."
    )


def test_empty_tree_realizes_to_an_empty_paragraph():
    paragraph = verbalize([])
    assert paragraph.sentences == []
    assert paragraph.text == ""
    assert paragraph.records == []
