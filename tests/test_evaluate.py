"""Round-trip evaluation: text measures, the equivalence family, scoring."""

import itertools
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

import genutil
from owlprose.evaluate import (
    EquivalentExplosion,
    _assignment_mean,
    _axiom_unit_variants,
    _distinct_permutations,
    _equivalent_stream,
    _expression_variants,
    _lazy_product,
    enumerate_equivalents,
    emit_report,
    levenshtein,
    normalize,
    score_submission,
    similarity,
    version_key,
)
from owlprose.model import (
    ClassFrame,
    DisjointClasses,
    DisjointUnion,
    EquivalentClasses,
    Existential,
    Intersection,
    Named,
    SubClassOf,
)

A, B, C, D = Named(":A"), Named(":B"), Named(":C"), Named(":D")


# ---------------------------------------------------------------------------
# Text measures
# ---------------------------------------------------------------------------


def test_normalize_folds_case_punctuation_and_whitespace():
    assert normalize("SubClassOf:\n  City") == "subclassof city"
    assert normalize("A  b\tC") == "a b c"
    assert normalize("(a)") == "a"
    assert normalize("") == ""


@given(st.text(max_size=40))
def test_normalize_is_idempotent(text):
    once = normalize(text)
    assert normalize(once) == once


def test_levenshtein_known_distances():
    assert levenshtein("kitten", "sitting") == 3
    assert levenshtein("abcd", "abce") == 1
    assert levenshtein("", "abc") == 3
    assert levenshtein("same", "same") == 0


@given(st.text(alphabet="abc", max_size=8), st.text(alphabet="abc", max_size=8))
def test_levenshtein_is_symmetric_and_discriminates_identity(a, b):
    assert levenshtein(a, b) == levenshtein(b, a)
    assert (levenshtein(a, b) == 0) == (a == b)


@given(
    st.text(alphabet="ab", max_size=6),
    st.text(alphabet="ab", max_size=6),
    st.text(alphabet="ab", max_size=6),
)
def test_levenshtein_triangle_inequality(a, b, c):
    assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)


@given(st.text(alphabet="abcé", max_size=7), st.text(alphabet="abcé", max_size=7))
def test_levenshtein_matches_the_recursive_oracle(a, b):
    assert levenshtein(a, b) == genutil.lev_oracle(a, b)


@st.composite
def text_and_edit(draw):
    """A text of up to 200 characters and a copy with one span replaced, so
    the pair shares a prefix and a suffix of random lengths."""
    alphabet = draw(st.sampled_from(["ab", "abc xyz", "aé€😀 ", None]))
    chars = st.characters() if alphabet is None else st.sampled_from(alphabet)
    a = draw(st.text(alphabet=chars, max_size=200))
    i = draw(st.integers(0, len(a)))
    j = draw(st.integers(i, len(a)))
    return a, a[:i] + draw(st.text(alphabet=chars, max_size=70)) + a[j:]


@given(text_and_edit())
@example(("", ""))
@example(("", "x" * 130))
@example(("a" * 200, "a" * 131))
@example(("ab" * 100, "ba" * 100))
@example(("a" * 64 + "b", "b" + "a" * 64))
@example(("é" * 65, "e" * 65))
def test_levenshtein_matches_the_dynamic_program_across_machine_words(pair):
    a, b = pair
    assert levenshtein(a, b) == genutil.lev_dp_oracle(a, b)
    assert levenshtein(b, a) == levenshtein(a, b)


def test_similarity_examples():
    assert similarity("abce", "abcd") == 0.75
    assert similarity("", "") == 1.0
    assert similarity("abc", "") == 0.0


@given(st.text(alphabet="abc", max_size=8), st.text(alphabet="abc", max_size=8))
def test_similarity_bounds_and_symmetry(a, b):
    value = similarity(a, b)
    assert 0.0 <= value <= 1.0
    assert value == similarity(b, a)
    assert (value == 1.0) == (a == b)


# ---------------------------------------------------------------------------
# The equivalence family
# ---------------------------------------------------------------------------


def test_plain_axiom_has_one_version():
    family = enumerate_equivalents([SubClassOf(A, B)])
    assert len(family.versions) == 1
    assert family.versions[0] == [SubClassOf(A, B)]


def test_two_conjunct_super_gives_three_versions():
    family = enumerate_equivalents([SubClassOf(A, Intersection((B, C)))])
    assert len(family.versions) == 3
    assert family.versions[0] == [SubClassOf(A, Intersection((B, C)))]
    keys = {version_key(v) for v in family.versions}
    assert version_key([SubClassOf(A, B), SubClassOf(A, C)]) in keys


def test_three_conjunct_super_matches_brute_force():
    family = enumerate_equivalents([SubClassOf(A, Intersection((B, C, D)))])
    oracle = genutil.split_permutation_oracle(A, (B, C, D))
    assert len(family.versions) == len(oracle)
    assert {version_key(v) for v in family.versions} == oracle


def test_equivalence_arguments_permute_verbatim_first():
    family = enumerate_equivalents([EquivalentClasses((A, B))])
    assert family.versions == [
        [EquivalentClasses((A, B))],
        [EquivalentClasses((B, A))],
    ]


def test_nested_intersections_permute_recursively():
    axiom = SubClassOf(Intersection((A, B)), Existential(":p", Intersection((C, D))))
    family = enumerate_equivalents([axiom])
    # 2 sub orders x 2 filler orders, no splits (the super is not a conjunction)
    assert len(family.versions) == 4


def test_disjoint_union_disjunct_order_is_fixed():
    family = enumerate_equivalents([DisjointUnion(":A", (B, Intersection((C, D))))])
    # only the intersection inside the second disjunct may reorder
    assert len(family.versions) == 2


def test_enumerate_raises_past_the_cap():
    axiom = SubClassOf(A, Intersection((B, C, D)))
    with pytest.raises(EquivalentExplosion):
        enumerate_equivalents([axiom], cap=5)
    assert len(enumerate_equivalents([axiom], cap=13).versions) == 13


@given(st.integers(0, 10**9))
def test_family_members_are_distinct_and_score_one(seed):
    rng = random.Random(seed)
    conjuncts = tuple(Named(f":K{i}") for i in range(rng.randint(2, 3)))
    axioms = [
        SubClassOf(A, Intersection(conjuncts)),
        EquivalentClasses((A, rng.choice([B, Existential(":p", C)]))),
    ]
    family = enumerate_equivalents(axioms)
    keys = [version_key(v) for v in family.versions]
    assert len(keys) == len(set(keys))
    reference = ClassFrame(":A", axioms)
    for version in family.versions:
        report = score_submission(ClassFrame(":A", list(version)), reference)
        assert report.mean == 1.0


@given(st.lists(st.lists(st.integers(0, 3), max_size=3), max_size=4))
def test_lazy_product_follows_itertools_product(factors):
    factories = [lambda f=f: iter(f) for f in factors]
    assert list(_lazy_product(factories)) == list(itertools.product(*factors))


@given(st.lists(st.integers(0, 2), max_size=6))
def test_distinct_permutations_follow_first_occurrences_in_itertools(items):
    assert list(_distinct_permutations(items)) == genutil.distinct_permutations_oracle(items)


def test_equal_operands_give_one_ordering():
    nine = Intersection((A,) * 9)
    assert list(_expression_variants(nine)) == [nine]
    assert list(_axiom_unit_variants(EquivalentClasses((A,) * 9))) == [[EquivalentClasses((A,) * 9)]]
    # a scan that once walked 9! orderings of the filler stops at the cap
    reference = [SubClassOf(A, Existential(":p", nine)), SubClassOf(A, B)]
    report = score_submission(frame([SubClassOf(A, C)]), frame(reference), cap=3)
    assert not report.truncated


@settings(deadline=None)
@given(st.integers(0, 10**9))
def test_stream_starts_verbatim_and_has_no_duplicates(seed):
    frame = genutil.gen_frame(random.Random(seed))
    versions = list(itertools.islice(_equivalent_stream(frame.axioms), 100))
    # same-sub SubClassOf axioms move next to the first one: compare as sets
    assert version_key(versions[0]) == version_key(frame.axioms)
    keys = [version_key(v) for v in versions]
    assert len(keys) == len(set(keys))


@given(st.integers(2, 5), st.sampled_from([A, Existential(":p", B)]))
def test_stream_of_one_split_super_matches_brute_force(width, sub):
    conjuncts = tuple(Named(f":K{i}") for i in range(width))
    versions = list(_equivalent_stream([SubClassOf(sub, Intersection(conjuncts))]))
    assert {version_key(v) for v in versions} == genutil.split_permutation_oracle(
        sub, conjuncts
    )


WIDE = tuple(Named(f":W{i}") for i in range(12))


@pytest.mark.parametrize(
    "reference, candidate",
    [
        (SubClassOf(A, Intersection(WIDE)), SubClassOf(A, Intersection(WIDE[::-1]))),
        (
            SubClassOf(A, Existential(":p", Intersection(WIDE[:10]))),
            SubClassOf(A, Existential(":p", Intersection(WIDE[9::-1]))),
        ),
    ],
    ids=["12-conjunct-super", "10-conjunct-filler"],
)
def test_cap_bounds_memory_on_wide_conjunctions(reference, candidate):
    tracemalloc.start()
    try:
        report = score_submission(frame([candidate]), frame([reference]), cap=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.truncated
    assert 0.0 < report.mean < 1.0
    assert peak < 1 << 20, f"traced peak {peak} bytes"


# ---------------------------------------------------------------------------
# Scoring
# ---------------------------------------------------------------------------


@given(
    st.integers(1, 4).flatmap(
        lambda n: st.integers(0, 4).flatmap(
            lambda m: st.lists(
                st.lists(
                    st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.floats(0, 1)),
                    min_size=m,
                    max_size=m,
                ),
                min_size=n,
                max_size=n,
            ).map(lambda rows: (rows, m))
        )
    )
)
def test_assignment_mean_is_the_best_injective_assignment(matrix_and_width):
    matrix, m = matrix_and_width
    references = [f"r{i}" for i in range(len(matrix))]
    candidates = [f"c{j}" for j in range(m)]
    pair_cache = {
        (references[i], candidates[j]): value
        for i, row in enumerate(matrix)
        for j, value in enumerate(row)
    }
    mean, chosen = _assignment_mean(references, candidates, pair_cache)
    assert mean == pytest.approx(genutil.assignment_oracle(matrix, m), abs=1e-12)
    matched = [j for j in chosen if j is not None]
    assert len(matched) == len(set(matched))



def frame(axioms):
    return ClassFrame(":A", list(axioms))


def test_verbatim_candidate_scores_one_at_version_zero():
    reference = frame([SubClassOf(A, B), EquivalentClasses((A, C))])
    report = score_submission(reference, reference)
    assert report.mean == 1.0
    assert report.best_version_index == 0
    assert not report.truncated
    assert [item.score for item in report.per_axiom] == [1.0, 1.0]


def test_conjunct_reordering_scores_one():
    reference = frame([SubClassOf(A, Intersection((B, C, D)))])
    candidate = frame([SubClassOf(A, Intersection((D, C, B)))])
    report = score_submission(candidate, reference)
    assert report.mean == 1.0
    assert report.best_version_index > 0


def test_split_candidate_scores_one():
    reference = frame([SubClassOf(A, Intersection((B, C)))])
    candidate = frame([SubClassOf(A, C), SubClassOf(A, B)])
    assert score_submission(candidate, reference).mean == 1.0


def test_missing_axiom_scores_two_thirds():
    reference = frame(
        [SubClassOf(A, B), EquivalentClasses((A, C)), DisjointClasses((A, D))]
    )
    candidate = frame([SubClassOf(A, B), EquivalentClasses((A, C))])
    report = score_submission(candidate, reference)
    assert report.mean == pytest.approx(2 / 3)
    unmatched = [item for item in report.per_axiom if item.candidate is None]
    assert len(unmatched) == 1
    assert unmatched[0].score == 0.0
    assert isinstance(unmatched[0].reference, DisjointClasses)


def test_extra_candidate_axioms_do_not_hurt():
    reference = frame([SubClassOf(A, B)])
    candidate = frame([SubClassOf(A, B), SubClassOf(A, C)])
    assert score_submission(candidate, reference).mean == 1.0


def test_truncated_scan_flags_and_still_scores():
    reference = frame([SubClassOf(A, Intersection((B, C, D)))])
    candidate = frame([SubClassOf(A, B)])  # imperfect: forces a full scan
    report = score_submission(candidate, reference, cap=4)
    assert report.truncated
    assert 0.0 < report.mean < 1.0


def test_cap_below_one_is_rejected():
    reference = frame([SubClassOf(A, B)])
    with pytest.raises(ValueError):
        score_submission(reference, reference, cap=0)
    assert score_submission(reference, reference, cap=1).mean == 1.0


def test_emit_report_shape():
    reference = frame([SubClassOf(A, B)])
    text = emit_report(score_submission(reference, reference))
    lines = text.splitlines()
    assert lines[0] == "reference_axiom,candidate_axiom,score"
    assert lines[1] == "SubClassOf(:A :B),SubClassOf(:A :B),1.0000"
    assert lines[-1] == "mean,1.0000"
