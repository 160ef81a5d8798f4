"""Round-trip evaluation: text measures, the equivalence family, scoring."""

import csv
import io
import itertools
import random
import time
import tracemalloc
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

import genutil
from genutil import version_key
from owlprose import evaluate
from owlprose.evaluate import (
    AxiomScore,
    EquivalentExplosion,
    _Drawn,
    _SimilarityRows,
    _assignment_mean,
    _axiom_unit_variants,
    _distinct_partitions,
    _distinct_permutations,
    _distances,
    _equivalent_stream,
    _expression_variants,
    _pack,
    _product,
    _similarity_row,
    _subclass_pool_variants,
    enumerate_equivalents,
    emit_report,
    levenshtein,
    normalize,
    score_submission,
    similarity,
)
from owlprose.model import (
    ClassAssertion,
    ClassFrame,
    DisjointClasses,
    DisjointUnion,
    EquivalentClasses,
    Existential,
    Intersection,
    Named,
    SubClassOf,
    collect_frame,
)
from owlprose.parser import (
    SourceDocument,
    parse_ontology,
    serialize_axiom,
    serialize_expression,
)

A, B, C, D = Named(":A"), Named(":B"), Named(":C"), Named(":D")


def serialize_axioms(axioms: list) -> list:
    return list(map(serialize_axiom, axioms))


def text_key(texts: list) -> tuple:
    """Order-insensitive identity of a version given as its axioms' texts,
    as genutil.version_key gives it for a version given as axioms."""
    return tuple(sorted(texts))


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


# ASCII punctuation, ASCII symbols that are not punctuation, non-ASCII
# punctuation, and characters whose case fold changes the text (the Kelvin
# sign and sharp s fold to ASCII, dotted capital I does not)
TRICKY = "(),.:;!?\"'-_#%&*@[]{}/\\" + "$+<=>^`|~" + "«»—¿" + "ßİ\u212a" + "aZ \t\n"


@given(st.text(alphabet=st.one_of(st.sampled_from(TRICKY), st.characters()), max_size=40))
@example("SubClassOf(:Ab ObjectIntersectionOf(:C $x))")
@example("«Straße» — \u212aelvin İ")
def test_normalize_matches_the_per_character_definition(text):
    assert normalize(text) == genutil.normalize_oracle(text)


def test_levenshtein_known_distances():
    assert levenshtein("kitten", "sitting") == 3
    assert levenshtein("abcd", "abce") == 1
    assert levenshtein("", "abc") == 3
    assert levenshtein("same", "same") == 0
    assert levenshtein("", "") == 0
    assert levenshtein("abc", "") == 3
    assert levenshtein("kitten", "kit") == 3  # a prefix of the other, both orders
    assert levenshtein("kit", "kitten") == 3
    assert levenshtein("sitting", "ting") == 3  # a suffix of the other, both orders
    assert levenshtein("ting", "sitting") == 3
    assert levenshtein("naïve café", "naive cafe") == 2


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


@st.composite
def reference_and_candidates(draw):
    """A reference text and 0-10 candidate texts over one alphabet, up to 100
    characters each; a candidate may equal the reference. One-letter
    alphabets make the longest carry chains, up to each guard bit."""
    alphabet = draw(st.sampled_from(["a", "ab", "abc xyz", "aé€😀 ", None]))
    text = st.text(alphabet=st.characters() if alphabet is None else alphabet, max_size=100)
    reference = draw(text)
    candidates = draw(st.lists(st.one_of(text, st.just(reference)), max_size=10))
    return reference, candidates


@given(reference_and_candidates())
@example(("", []))
@example(("", ["", "abc", ""]))
@example(("abc", ["", "", "abc"]))
@example(("a" * 100, ["a" * 100, "a" * 65, "", "a", "b" * 64 + "a", "a" * 99]))
@example(("a" * 3, ["a" * 100, "a" * 64, "a" * 63]))
@example(("é" * 70, ["e" * 70, "é" * 64, "€é" * 40]))
def test_one_row_pass_gives_each_candidate_its_own_distance(case):
    reference, candidates = case
    pack = _pack(candidates)
    assert _distances(reference, pack) == [genutil.lev_dp_oracle(reference, c) for c in candidates]
    assert _similarity_row(reference, pack) == [
        genutil.similarity_oracle(c, reference) for c in candidates
    ]


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
    assert family.versions[0] == serialize_axioms([SubClassOf(A, B)])


def test_two_conjunct_super_gives_three_versions():
    family = enumerate_equivalents([SubClassOf(A, Intersection((B, C)))])
    assert len(family.versions) == 3
    assert family.versions[0] == serialize_axioms([SubClassOf(A, Intersection((B, C)))])
    keys = {text_key(v) for v in family.versions}
    assert version_key([SubClassOf(A, B), SubClassOf(A, C)]) in keys


def test_three_conjunct_super_matches_brute_force():
    family = enumerate_equivalents([SubClassOf(A, Intersection((B, C, D)))])
    oracle = genutil.split_permutation_oracle(A, (B, C, D))
    assert len(family.versions) == len(oracle)
    assert {text_key(v) for v in family.versions} == oracle


def test_equivalence_arguments_permute_verbatim_first():
    family = enumerate_equivalents([EquivalentClasses((A, B))])
    assert family.versions == [
        serialize_axioms([EquivalentClasses((A, B))]),
        serialize_axioms([EquivalentClasses((B, A))]),
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
    keys = [text_key(v) for v in family.versions]
    assert len(keys) == len(set(keys))
    reference = ClassFrame(":A", axioms)
    for version in family.versions:
        candidate = parse_ontology("\n".join(version)).axioms
        assert serialize_axioms(candidate) == version
        report = score_submission(ClassFrame(":A", candidate), reference)
        assert report.mean == 1.0


@given(
    st.lists(st.lists(st.integers(0, 3), max_size=3), min_size=1, max_size=3),
    st.lists(st.tuples(st.integers(0, 2), st.booleans()), max_size=5),
)
def test_product_follows_itertools_product(distinct, positions):
    """_product over fresh factors, and over factors shared between
    positions, walked twice, equals itertools.product; with ties, it equals
    itertools.product filtered to the tuples whose indices do not decrease
    from each tied position's earlier partner."""
    fresh = [_Drawn(iter(factor)) for factor in distinct]
    assert list(_product(fresh)) == list(itertools.product(*distinct))

    keys = [key % len(distinct) for key, _ in positions]
    shared = {key: _Drawn(distinct[key]) for key in keys}
    factors = [shared[key] for key in keys]
    expected = list(itertools.product(*(distinct[key] for key in keys)))
    assert list(_product(factors)) == expected
    assert list(_product(factors)) == expected

    ties, last = [], {}
    for position, (key, (_, tied)) in enumerate(zip(keys, positions)):
        ties.append(last.get(key) if tied else None)
        last[key] = position
    walks = itertools.product(*(range(len(distinct[key])) for key in keys))
    expected = [
        tuple(distinct[key][i] for key, i in zip(keys, indices))
        for indices in walks
        if all(tie is None or indices[tie] <= i for tie, i in zip(ties, indices))
    ]
    assert list(_product(factors, ties)) == expected


@settings(deadline=None)
@given(st.lists(st.sampled_from([A, B, Existential(":p", A)]), min_size=1, max_size=6))
def test_distinct_partitions_keep_the_first_partition_of_each_shape(elements):
    assert list(_distinct_partitions(elements)) == genutil.distinct_partitions_oracle(elements)


@settings(deadline=None, max_examples=25)
@given(st.lists(st.sampled_from([A, B, C]), min_size=7, max_size=8))
def test_distinct_partitions_of_longer_lists_follow_the_oracle(elements):
    assert list(_distinct_partitions(elements)) == genutil.distinct_partitions_oracle(elements)


def test_equal_conjuncts_walk_each_partition_shape_once():
    # 10 copies: Bell(10) = 115975 set partitions, but only 42 block-size shapes
    reference = frame([SubClassOf(D, Intersection((A,) * 10))])
    started = time.perf_counter()
    report = score_submission(frame([SubClassOf(D, C)]), reference)
    elapsed = time.perf_counter() - started
    assert not report.truncated
    assert len(list(_equivalent_stream(reference.axioms))) == 42
    assert elapsed < 2.0, f"{elapsed:.2f} s"


@given(st.lists(st.integers(0, 2), max_size=6))
def test_distinct_permutations_follow_first_occurrences_in_itertools(items):
    assert list(_distinct_permutations(items)) == genutil.distinct_permutations_oracle(items)


def test_equal_operands_give_one_ordering():
    nine = Intersection((A,) * 9)
    assert list(_expression_variants(nine)) == [serialize_expression(nine)]
    assert list(_axiom_unit_variants(EquivalentClasses((A,) * 9))) == [
        serialize_axioms([EquivalentClasses((A,) * 9)])
    ]
    # a scan that once walked 9! orderings of the filler stops at the cap
    reference = [SubClassOf(A, Existential(":p", nine)), SubClassOf(A, B)]
    report = score_submission(frame([SubClassOf(A, C)]), frame(reference), cap=3)
    assert not report.truncated


EXPRESSIONS = st.recursive(
    st.sampled_from([A, B, C]),
    lambda inner: st.one_of(
        st.builds(Existential, st.sampled_from([":p", ":q"]), inner),
        st.lists(inner, min_size=2, max_size=3).map(lambda ops: Intersection(tuple(ops))),
    ),
    max_leaves=6,
)
OPERANDS = st.lists(EXPRESSIONS, min_size=2, max_size=3).map(tuple)


@settings(deadline=None)
@given(
    EXPRESSIONS,
    st.one_of(
        st.builds(EquivalentClasses, OPERANDS),
        st.builds(DisjointClasses, OPERANDS),
        st.builds(ClassAssertion, EXPRESSIONS, st.just(":i")),
        st.builds(DisjointUnion, st.just(":U"), OPERANDS),
    ),
)
def test_variants_inside_a_unit_follow_the_itertools_oracle(expr, axiom):
    """The texts each generator gives are the serializations of the oracle's
    variants, built as objects, in the oracle's order."""
    assert list(_expression_variants(expr)) == list(
        map(serialize_expression, genutil.expression_variants_oracle(expr))
    )
    assert list(_axiom_unit_variants(axiom)) == list(
        map(serialize_axioms, genutil.axiom_unit_variants_oracle(axiom))
    )


@settings(deadline=None)
@given(st.integers(0, 10**9))
def test_stream_starts_verbatim_and_has_no_duplicates(seed):
    frame = genutil.gen_frame(random.Random(seed))
    versions = list(itertools.islice(_equivalent_stream(frame.axioms), 100))
    # same-sub SubClassOf axioms move next to the first one: compare as sets
    assert text_key(versions[0]) == version_key(frame.axioms)
    keys = [text_key(v) for v in versions]
    assert len(keys) == len(set(keys))


@given(st.integers(2, 5), st.sampled_from([A, Existential(":p", B)]))
def test_stream_of_one_split_super_matches_brute_force(width, sub):
    conjuncts = tuple(Named(f":K{i}") for i in range(width))
    versions = _equivalent_stream([SubClassOf(sub, Intersection(conjuncts))])
    assert {text_key(v) for v in versions} == genutil.split_permutation_oracle(
        sub, conjuncts
    )


def pool_frame(k: int, prefix: str) -> list:
    """k one-axiom SubClassOf pools: SubClassOf(:<prefix>i :F) for i < k."""
    return [SubClassOf(Named(f":{prefix}{i}"), Named(":F")) for i in range(k)]


ALONE_KINDS = (EquivalentClasses, DisjointClasses, ClassAssertion, DisjointUnion)


def repeated_frame(rng: random.Random, kind) -> list:
    """A frame that repeats one generated stand-alone axiom of the given kind
    two or three times, other generated axioms between the copies; in half
    of the frames a second stand-alone axiom repeats too, its copies
    interleaved with the first one's."""
    classes, props, inds = genutil.make_pools()
    classes = classes + [genutil.DESIGNATED]

    def drawn(kinds):
        while True:
            axiom = genutil.gen_frame_axiom(rng, classes, props, inds)
            if isinstance(axiom, kinds):
                return axiom

    repeated = [drawn(kind)]
    if rng.random() < 0.5:
        repeated.append(drawn(ALONE_KINDS))
    axioms = []
    for _ in range(rng.randint(2, 3)):
        axioms.extend(repeated)
        axioms.extend(genutil.gen_frame_axiom(rng, classes, props, inds)
                      for _ in range(rng.randint(1, 2)))
    return axioms


def test_stream_matches_the_plain_stream():
    """The first 400 versions of 300 generated frames, of ten one-axiom
    pools, and of frames that repeat stand-alone axioms of every kind at
    positions apart, against the stream that builds every combination of
    every unit's variants as axioms and serializes each axiom: each version's
    texts are serialize_axiom of the oracle's axioms, in order."""
    rng = random.Random(31)
    references = [genutil.gen_frame(rng).axioms for _ in range(300)] + [pool_frame(10, "X")]
    references += [repeated_frame(rng, kind) for kind in ALONE_KINDS for _ in range(12)]
    for axioms in references:
        produced = list(itertools.islice(_equivalent_stream(axioms), 400))
        expected = list(itertools.islice(genutil.equivalent_stream_oracle(axioms), 400))
        assert produced == expected


def test_each_unit_draws_its_variants_once_per_stream(monkeypatch):
    """Every unit's variant generator starts once per stream, equal
    stand-alone axioms sharing one, and the first version draws one variant
    of each unit."""
    started, drawn = Counter(), Counter()
    unit_variants = evaluate._unit_variants

    def counted(variants):
        unit = id(variants)
        started[unit] += 1
        for variant in unit_variants(variants):
            drawn[unit] += 1
            yield variant

    monkeypatch.setattr(evaluate, "_unit_variants", counted)
    equivalent = EquivalentClasses((A, Intersection((B, C))))
    axioms = [
        equivalent,
        SubClassOf(A, Intersection((B, C))),
        ClassAssertion(Existential(":p", Intersection((C, D))), ":i"),
        equivalent,
        SubClassOf(A, D),
        DisjointClasses((B, C)),
        equivalent,
    ]
    stream = _equivalent_stream(axioms)
    first = next(stream)
    assert list(drawn.values()) == [1, 1, 1, 1]
    assert [first, *stream] == list(genutil.equivalent_stream_oracle(axioms))
    assert list(started.values()) == [1, 1, 1, 1]


def test_each_subexpression_draws_its_variants_once_per_unit(monkeypatch):
    """Over a whole stream, each distinct subexpression's variant generator
    starts once, however often the products inside its unit come back to it.
    A walker that re-made each later factor per combination started them
    1913 times for the first frame's 432 versions."""
    started = Counter()
    expression_variants = evaluate._expression_variants

    def counted(expr):
        started[expr] += 1
        yield from expression_variants(expr)

    monkeypatch.setattr(evaluate, "_expression_variants", counted)
    F, G, H = Named(":F"), Named(":G"), Named(":H")
    nested = Intersection((D, Existential(":p", Intersection((F, G, H)))))
    equivalent = EquivalentClasses((Named(":X"), Intersection((A, B, C)), nested))
    K, L = Named(":K"), Named(":L")
    pool_super = Intersection((Named(":J"), Existential(":q", Intersection((K, L)))))
    pool = SubClassOf(Named(":Y"), pool_super)
    cases = [([equivalent], 432, 12), ([equivalent, pool], 432 * 6, 18)]
    for axioms, versions, subexpressions in cases:
        started.clear()
        stream = list(_equivalent_stream(axioms))
        assert len(stream) == versions
        assert len(started) == subexpressions
        assert set(started.values()) == {1}
        assert stream == list(genutil.equivalent_stream_oracle(axioms))


NAMED = st.sampled_from([A, B, C])
# conjuncts that have variants of their own: an existential over an
# intersection, possibly of repeated classes
CONJUNCTS = st.one_of(
    NAMED,
    st.lists(NAMED, min_size=2, max_size=3).map(
        lambda ops: Existential(":p", Intersection(tuple(ops)))
    ),
)
SUPERS = st.one_of(
    CONJUNCTS,
    st.lists(CONJUNCTS, min_size=2, max_size=3).map(lambda ops: Intersection(tuple(ops))),
)


@settings(deadline=None)
@given(
    st.sampled_from([A, Intersection((A, B)), Existential(":p", Intersection((B, C)))]),
    st.lists(SUPERS, min_size=1, max_size=3),
)
def test_pool_versions_follow_the_flatten_and_slice_order(sub, supers):
    axioms = [SubClassOf(sub, sup) for sup in supers]
    limit = 400
    produced = itertools.islice(_subclass_pool_variants(sub, axioms), limit)
    expected = itertools.islice(genutil.subclass_pool_variants_oracle(sub, axioms), limit)
    assert list(produced) == list(map(serialize_axioms, expected))


WIDE = tuple(Named(f":W{i}") for i in range(12))


@pytest.mark.parametrize(
    "reference, candidate",
    [
        (SubClassOf(A, Intersection(WIDE)), SubClassOf(A, Intersection(WIDE[::-1]))),
        (
            SubClassOf(A, Existential(":p", Intersection(WIDE[:10]))),
            SubClassOf(A, Existential(":p", Intersection(WIDE[9::-1]))),
        ),
        (SubClassOf(A, Intersection(WIDE[:10])), SubClassOf(A, Intersection(WIDE[9::-1]))),
    ],
    ids=["12-conjunct-super", "10-conjunct-filler", "10-conjunct-super"],
)
def test_cap_bounds_memory_on_wide_conjunctions(reference, candidate):
    """The orderings and variants a unit keeps are those its walk has drawn,
    though one block of 10 conjuncts has 10! orderings."""
    tracemalloc.start()
    try:
        started = time.perf_counter()
        report = score_submission(frame([candidate]), frame([reference]), cap=1)
        elapsed = time.perf_counter() - started
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.truncated
    assert 0.0 < report.mean < 1.0
    assert elapsed < 1.0, f"{elapsed:.2f} s"
    assert peak < 1 << 20, f"traced peak {peak} bytes"


def test_scanned_versions_keep_only_their_texts():
    """An imperfect scan keeps every scanned version for the assignment
    fallback, each as its axioms' texts. At cap 3000, one SubClassOf over 10
    distinct conjuncts peaked at about 2.7 MB traced while each scanned
    version also kept its axiom objects, and at about 1.7 MB with texts
    only."""
    reference = frame([SubClassOf(Named(":F"), Intersection(WIDE[:10]))])
    candidate = frame([SubClassOf(Named(":F"), Named(":Z"))])
    tracemalloc.start()
    try:
        report = score_submission(candidate, reference, cap=3000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.truncated
    assert peak < 2 << 20, f"traced peak {peak} bytes"


def test_a_one_block_walk_keeps_no_ordering():
    """The one-block partition of a SubClassOf over 10 distinct conjuncts is
    walked once, so the orderings it gives are not kept: 5000 of them, each
    a 10-tuple, took about 0.66 MB while they were."""
    axioms = [SubClassOf(A, Intersection(WIDE[:10]))]
    tracemalloc.start()
    try:
        walked = sum(1 for _ in itertools.islice(_subclass_pool_variants(A, axioms), 5000))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert walked == 5000
    assert peak < 1 << 17, f"traced peak {peak} bytes"


@pytest.mark.parametrize("cap", [1, evaluate.DEFAULT_CAP])
@pytest.mark.parametrize(
    "reference, candidate, versions",
    [
        *((pool_frame(k, "X"), pool_frame(k, "Y"), 1) for k in (18, 24, 30)),
        *(
            ([EquivalentClasses((A, B))] * k, [EquivalentClasses((A, C))], k + 1)
            for k in (18, 24, 30)
        ),
        *(
            ([SubClassOf(Named(":F"), Intersection((A,) * width))],
             [SubClassOf(Named(":F"), C)], count)
            for width, count in ((11, 56), (12, 77))  # partitions of the integer width
        ),
    ],
    ids=[
        "18-pools", "24-pools", "30-pools", "18-copies", "24-copies", "30-copies",
        "11-equal-conjuncts", "12-equal-conjuncts",
    ],
)
def test_cap_bounds_time_and_memory_on_many_subclasses(reference, candidate, versions, cap):
    """A class with k subclasses has one version, and once took 2^k
    combinations and 2^k assignment states whatever the cap; k copies of one
    EquivalentClasses axiom have k + 1 versions, and once took 2^k
    combinations at the default cap; 11 equal conjuncts once took a walk of
    Bell(11) strings."""
    tracemalloc.start()
    try:
        started = time.perf_counter()
        report = score_submission(frame(candidate), frame(reference), cap=cap)
        elapsed = time.perf_counter() - started
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.truncated == (cap < versions)
    assert 0.0 < report.mean < 1.0
    assert elapsed < 1.0, f"{elapsed:.2f} s"
    assert peak < 1 << 20, f"traced peak {peak} bytes"
    if cap >= versions:
        assert len(list(_equivalent_stream(reference))) == versions


# ---------------------------------------------------------------------------
# Scoring
# ---------------------------------------------------------------------------


def scored_pairs(matrix: list, m: int) -> tuple:
    """Reference and candidate texts for a score matrix, and a row cache that
    holds its rows."""
    references = [f"r{i}" for i in range(len(matrix))]
    candidates = [f"c{j}" for j in range(m)]
    return references, candidates, dict(zip(references, matrix))


SCORES = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.floats(0, 1))


@settings(deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.integers(0, n + 10).flatmap(
            lambda m: st.lists(
                st.lists(SCORES, min_size=m, max_size=m), min_size=n, max_size=n
            ).map(lambda rows: (rows, m))
        )
    ),
    st.one_of(st.just(-1.0), SCORES),
)
def test_assignment_mean_is_the_best_injective_assignment(matrix_and_width, best_mean):
    matrix, m = matrix_and_width
    references, candidates, rows = scored_pairs(matrix, m)
    expected = genutil.assignment_oracle(matrix, m)
    scored = _assignment_mean(references, candidates, rows, best_mean)
    if scored is None:  # pruned: only when the best assignment cannot win
        assert expected <= best_mean + 1e-12
        return
    mean, chosen = scored
    assert mean == pytest.approx(expected, abs=1e-12)
    matched = [j for j in chosen if j is not None]
    assert len(matched) == len(set(matched))
    if best_mean < 0:
        return
    # not pruned: the bound with every row filled exceeded best_mean
    assert sum(max(row, default=0.0) for row in matrix) / len(matrix) > best_mean - 1e-12


@st.composite
def tied_matrices(draw):
    """An n x m score matrix, n <= 7 and m <= 9, its scores multiples of one
    step from 1/2 to 1/1000, so that equal scores and equal sums are common."""
    step = draw(st.sampled_from([2, 3, 4, 5, 7, 10, 100, 1000]))
    n, m = draw(st.integers(1, 7)), draw(st.integers(0, 9))
    score = st.integers(0, step).map(lambda k: k / step)
    return draw(st.lists(st.lists(score, min_size=m, max_size=m), min_size=n, max_size=n)), m


@settings(deadline=None)
@given(tied_matrices())
def test_dropping_dp_states_keeps_mean_and_choice_of_the_full_dp(matrix_and_width):
    """The full DP, float-equality traceback included, chooses the same
    candidates: the dropped states never decide a tie."""
    matrix, m = matrix_and_width
    references, candidates, rows = scored_pairs(matrix, m)
    scored = _assignment_mean(references, candidates, rows, -1.0)
    assert scored == genutil._assignment_dp(matrix, m)


def test_one_dominant_assignment_keeps_few_dp_states():
    """16 x 16 with the diagonal best by far: the full DP keeps every subset
    of up to 16 candidates, C(16, 8) of them at the middle row."""
    n = 16
    matrix = [[0.9 if i == j else 0.1 + 0.01 * ((7 * i + j) % 5) for j in range(n)] for i in range(n)]
    references, candidates, rows = scored_pairs(matrix, n)
    started = time.perf_counter()
    scored = _assignment_mean(references, candidates, rows, -1.0)
    elapsed = time.perf_counter() - started
    total = 0.0
    for _ in range(n):
        total += 0.9
    mean, chosen = scored
    assert mean == total / n
    assert all(j in (None, i) for i, j in enumerate(chosen))
    assert elapsed < 0.2, f"{elapsed:.2f} s"


def frame(axioms):
    return ClassFrame(":A", list(axioms))


def test_scoring_a_fixture_against_itself_starts_no_permutation(
    monkeypatch, fixture_dir, manifest
):
    """A perfect match on the verbatim reference reads each unit's original
    form only, so no unit or subexpression starts its permutations."""
    calls = []
    distinct_permutations = evaluate._distinct_permutations

    def counted(items):
        calls.append(items)
        return distinct_permutations(items)

    monkeypatch.setattr(evaluate, "_distinct_permutations", counted)
    for entry in manifest.values():
        ontology = parse_ontology(SourceDocument.from_path(fixture_dir / entry["ontology"]))
        reference = collect_frame(ontology, entry["designated"])
        report = score_submission(reference, reference)
        assert (report.mean, report.best_version_index) == (1.0, 0)
    assert calls == []


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
    unmatched = [item for item in report.per_axiom if item.candidate_text == ""]
    assert len(unmatched) == 1
    assert unmatched[0].score == 0.0
    assert unmatched[0].reference_text == serialize_axiom(DisjointClasses((A, D)))


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
    report = score_submission(reference, reference)
    assert report.per_axiom == [AxiomScore("SubClassOf(:A :B)", "SubClassOf(:A :B)", 1.0)]
    lines = emit_report(report).splitlines()
    assert lines[0] == "reference_axiom,candidate_axiom,score"
    assert lines[1] == "SubClassOf(:A :B),SubClassOf(:A :B),1.0000"
    assert lines[-1] == "mean,1.0000"


def frame_declarations() -> str:
    """Declarations of every id a genutil.gen_frame frame may use."""
    classes, props, inds = genutil.make_pools()
    lines = [f"Declaration(Class({iri}))" for iri in classes + [genutil.DESIGNATED]]
    lines += [f"Declaration(ObjectProperty({iri}))" for iri in props]
    lines += [f"Declaration(NamedIndividual({iri}))" for iri in inds]
    return "\n".join(lines) + "\n"


@settings(deadline=None)
@given(st.integers(0, 10**9), st.integers(1, 300))
def test_every_text_the_walk_carries_serializes_its_axiom(seed, cap):
    """The units build each variant's text from its parts' texts, and no
    axiom of it; every text of every version up to the cap is one axiom's
    canonical serialization: parsed strictly under the frame's declarations
    it gives exactly one axiom, and serialize_axiom of that axiom gives the
    text back."""
    axioms = genutil.gen_frame(random.Random(seed)).axioms
    declarations = frame_declarations()
    checked = set()
    for version in itertools.islice(_equivalent_stream(axioms), cap):
        for text in version:
            if text not in checked:
                checked.add(text)
                parsed = parse_ontology(declarations + text, strict=True).axioms
                assert len(parsed) == 1, text
                assert serialize_axiom(parsed[0]) == text


def substitute_id(node, old: str, new: str):
    """node with every Named(old) inside it replaced by Named(new)."""
    if isinstance(node, Named):
        return Named(new) if node.iri == old else node
    if isinstance(node, tuple):
        return tuple(substitute_id(item, old, new) for item in node)
    if fields := getattr(type(node), "__slots__", ()):
        return type(node)(*(substitute_id(getattr(node, name), old, new) for name in fields))
    return node


def named_ids(node) -> list:
    if isinstance(node, Named):
        return [node.iri]
    if isinstance(node, tuple):
        return [iri for item in node for iri in named_ids(item)]
    fields = getattr(type(node), "__slots__", ())
    return [iri for name in fields for iri in named_ids(getattr(node, name))]


@st.composite
def scoring_cases(draw):
    """A gen_frame reference, sometimes with repeated operands and a repeated
    axiom (which make tied means likely), and a candidate that permutes its
    conjuncts, drops one axiom or substitutes one id in one axiom."""
    rng = random.Random(draw(st.integers(0, 10**9)))
    reference = genutil.gen_frame(rng)
    axioms = list(reference.axioms)
    if draw(st.booleans()):
        x, y = (Named(f":C{k}") for k in rng.sample(range(6), 2))
        axioms.append(SubClassOf(Named(genutil.DESIGNATED), Intersection((x, x, y))))
        axioms.append(rng.choice(axioms))
    reference = ClassFrame(genutil.DESIGNATED, axioms)
    kind = draw(st.sampled_from(["permuted", "dropped", "substituted"]))
    if kind == "permuted":
        candidate = genutil.conjunct_permuted_candidate(reference)
    elif kind == "dropped":
        k = rng.randrange(len(axioms))
        candidate = ClassFrame(genutil.DESIGNATED, axioms[:k] + axioms[k + 1 :])
    else:
        k = rng.randrange(len(axioms))
        old = rng.choice(named_ids(axioms[k]))
        changed = axioms[:k] + [substitute_id(axioms[k], old, ":Z")] + axioms[k + 1 :]
        candidate = ClassFrame(genutil.DESIGNATED, changed)
    return candidate, reference, draw(st.sampled_from([1, 5, 20]))


def assert_same_report(report, expected):
    assert emit_report(report) == emit_report(expected)
    assert (report.best_version_index, report.truncated) == (
        expected.best_version_index,
        expected.truncated,
    )


@settings(deadline=None)
@given(scoring_cases())
def test_score_submission_matches_the_plain_scan(case):
    candidate, reference, cap = case
    assert_same_report(
        score_submission(candidate, reference, cap=cap),
        genutil.score_oracle(candidate, reference, cap),
    )


def csv_rendered(report) -> str:
    """The report rendered by the csv module from each row's texts."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["reference_axiom", "candidate_axiom", "score"])
    for item in report.per_axiom:
        writer.writerow([item.reference_text, item.candidate_text, f"{item.score:.4f}"])
    writer.writerow(["mean", f"{report.mean:.4f}"])
    return out.getvalue()


@settings(deadline=None)
@given(scoring_cases())
def test_report_rows_print_the_texts_of_their_axioms(case):
    """emit_report prints the texts score_submission's scan made: the
    reference column is the winning version's texts, in the stream's order,
    and the candidate column holds serialize_axiom of distinct candidate
    axioms, or nothing for an unmatched row. The csv module renders the same
    bytes from the rows."""
    candidate, reference, cap = case
    report = score_submission(candidate, reference, cap=cap)
    winner = next(
        itertools.islice(_equivalent_stream(reference.axioms), report.best_version_index, None)
    )
    assert [item.reference_text for item in report.per_axiom] == winner
    matched = Counter(item.candidate_text for item in report.per_axiom if item.candidate_text)
    assert matched <= Counter(serialize_axioms(candidate.axioms))
    assert emit_report(report) == csv_rendered(report)


ODD_IDS = (":a,b", ':q"x', ':r""', ':s,"t",')


def test_report_rows_are_csv_for_every_legal_id(tmp_path):
    """Ids may hold commas and quotes; such a field is quoted, with each quote
    doubled, so csv.reader reads three fields per row back."""
    ids = (":F",) + ODD_IDS
    lines = [f"Declaration(Class({iri}))" for iri in ids]
    lines += [f"SubClassOf(:F {iri})" for iri in ODD_IDS] + ["SubClassOf(:F :G)"]
    path = tmp_path / "odd.ofs"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    status, out, _ = genutil.run_cli(
        ["eval", "--reference", str(path), "--candidate", str(path), "--class", ":F"]
    )
    assert status == 0
    rows = list(csv.reader(io.StringIO(out)))
    expected = [f"SubClassOf(:F {iri})" for iri in ODD_IDS] + ["SubClassOf(:F :G)"]
    assert rows[0] == ["reference_axiom", "candidate_axiom", "score"]
    assert rows[1:-1] == [[text, text, "1.0000"] for text in expected]
    assert rows[-1] == ["mean", "1.0000"]
    assert "SubClassOf(:F :G),SubClassOf(:F :G),1.0000\n" in out  # ordinary ids stay bare
    odd, plain = SubClassOf(Named(":F"), Named(':q"x')), SubClassOf(Named(":F"), Named(":G"))
    report = score_submission(frame([plain]), frame([odd, plain]))
    assert emit_report(report).splitlines()[1] == '"SubClassOf(:F :q""x)",,0.0000'
    assert emit_report(report) == csv_rendered(report)


@st.composite
def pooled_dropped_cases(draw):
    """A reference with a pool of SubClassOf axioms of the designated class,
    their supers conjunctions of one to three conjuncts, plus other frame
    axioms; its versions split and merge the pool, so they differ in axiom
    count. The candidate drops one reference axiom."""
    rng = random.Random(draw(st.integers(0, 10**9)))
    classes, props, _ = genutil.make_pools()
    axioms = list(genutil.gen_frame(rng, draw(st.integers(0, 3))).axioms)
    for _ in range(draw(st.integers(1, 3))):
        parts = [genutil.gen_expression(rng, classes, props, 1) for _ in range(rng.randint(1, 3))]
        super_ = parts[0] if len(parts) == 1 else Intersection(tuple(parts))
        axioms.append(SubClassOf(Named(genutil.DESIGNATED), super_))
    rng.shuffle(axioms)
    k = rng.randrange(len(axioms))
    return frame(axioms[:k] + axioms[k + 1 :]), frame(axioms), draw(st.integers(1, 20))


@settings(deadline=None)
@given(pooled_dropped_cases())
def test_skipped_versions_could_not_win(case):
    """The plain scan scores every version, so a version skipped by the
    ceiling or the row bound that could have won shows up as a different
    report, mean, best version or truncation flag."""
    candidate, reference, cap = case
    report = score_submission(candidate, reference, cap=cap)
    expected = genutil.score_oracle(candidate, reference, cap)
    assert_same_report(report, expected)
    assert report.mean == expected.mean


@pytest.mark.parametrize("n, m", [(1, 1), (2, 1), (3, 2), (3, 3), (2, 5), (4, 0)])
def test_ceiling_skips_a_version_before_scoring_any_pair(monkeypatch, n, m):
    def unscored(*args):
        raise AssertionError("a row scored for a version that cannot win")

    monkeypatch.setattr(evaluate, "_similarity_row", unscored)
    references = [f"r{i}" for i in range(n)]
    candidates = [f"c{j}" for j in range(m)]
    rows = _SimilarityRows(candidates)
    assert _assignment_mean(references, candidates, rows, min(n, m) / n) is None


@pytest.mark.parametrize("cap", [1, 5, 20])
@pytest.mark.parametrize(
    "reference, candidate",
    [
        # both orders of the conjunction tie; the split version ties with neither
        ([SubClassOf(D, Intersection((A, B)))], [SubClassOf(D, C)]),
        ([SubClassOf(D, Intersection((A, A, B))), SubClassOf(D, B)], [SubClassOf(D, C)]),
        ([EquivalentClasses((A, B)), EquivalentClasses((A, B))], [EquivalentClasses((A, C))]),
    ],
    ids=["two-orders", "repeated-operand", "repeated-axiom"],
)
def test_tied_versions_keep_the_earliest_as_the_plain_scan(reference, candidate, cap):
    assert_same_report(
        score_submission(frame(candidate), frame(reference), cap=cap),
        genutil.score_oracle(frame(candidate), frame(reference), cap),
    )


def test_pruning_shows_in_the_module_level_calls(monkeypatch):
    """Scoring calls evaluate._similarity_row once per reference row and
    evaluate.normalize once per distinct text, so a benchmark tracer that
    wraps them sees pruned versions as fewer calls. The plain scan of the
    oracle calls genutil.similarity_oracle once per pair."""
    counts: Counter = Counter()

    def counting(module, name):
        wrapped = getattr(module, name)

        def wrapper(*args):
            counts[name] += 1
            return wrapped(*args)

        monkeypatch.setattr(module, name, wrapper)

    counting(evaluate, "_similarity_row")
    counting(evaluate, "similarity")
    counting(evaluate, "normalize")
    counting(genutil, "similarity_oracle")
    c0, c1, c4, c5, f = (Named(iri) for iri in (":C0", ":C1", ":C4", ":C5", ":F"))
    kept = SubClassOf(c0, Intersection((f, Intersection((c4, c1, c0)))))
    reference = frame([SubClassOf(c5, f), kept])
    candidate = frame([kept])  # the first axiom dropped
    report = score_submission(candidate, reference, cap=20)
    scored = Counter(counts)
    counts.clear()
    expected = genutil.score_oracle(candidate, reference, 20)
    assert_same_report(report, expected)
    assert scored["similarity"] == 0
    # version 0 (2 references, 1 candidate) scores its 2 x 1 matrix, one row
    # per reference, for a mean of 0.5; every later version has at least 2
    # references, so its ceiling min(n, m) / n = 1 / n is at most 0.5 and no
    # row of it is scored
    assert scored["_similarity_row"] == 2
    # fewer pairs than the plain scan
    assert 2 * len(candidate.axioms) < counts["similarity_oracle"]
    # each distinct serialized text, of the candidate and the scanned versions, once
    texts = {t for version_texts in itertools.islice(_equivalent_stream(reference.axioms), 20)
             for t in version_texts}
    texts.update(serialize_axiom(ax) for ax in candidate.axioms)
    assert scored["normalize"] == len(texts)
