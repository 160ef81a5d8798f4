"""Round-trip evaluation: compare a hand-written re-coding of a class against
the reference axioms, judging by text similarity over canonical serializations.

Because an author can state the same class in many syntactically different
ways, the reference is expanded into a family of logically equivalent
versions before scoring: conjuncts of every intersection may be reordered,
same-subject SubClassOf axioms may be split apart or merged into intersection
supers, and the argument lists of EquivalentClasses/DisjointClasses may be
permuted. DisjointUnion keeps its disjunct order; the order of axioms within
a version never matters (versions are compared as sets).

The candidate scores, against each version, the best one-to-one axiom
assignment by normalized Levenshtein similarity; the report keeps the version
with the highest mean. A missing reference axiom scores 0 and extra candidate
axioms are ignored.

Axioms are compared and reported by their canonical serializations, and each
text is made once per scored submission. The candidate's axioms go through
parser.serialize_axiom once. The equivalence family is a family of texts: the
walk reads the reference's parsed axioms, but a version is the list of its
axioms' texts, and no rewritten axiom is built. A unit's verbatim form is
serialized once, and every other variant's text is built from the texts of
its parts with parser.term_text. A report row is the reference text, the
matched candidate's text and their score, and emit_report prints those. The
report is CSV, with a field quoted where an id holds a comma, a quote or a
line break.

Edit distances are bit-parallel: Myers' algorithm (J. ACM 1999) in Hyyrö's
2001 formulation, with several texts packed into one int as Hyyrö,
Fredriksson and Navarro (ACM JEA 2005) pack several patterns into one
machine word. The candidate texts are packed once per scored submission, and
one loop over a reference text's characters gives its distance to every
candidate text. Each packed text is followed by a zero guard bit, and the
invariant is that the match mask and both vertical delta vectors stay zero
at every guard, so no carry or shift crosses from one text into the next.
"""

from __future__ import annotations

import sys
import unicodedata
from collections import Counter, namedtuple
from itertools import islice

from . import DEFAULT_CAP
from .model import (
    Axiom,
    ClassAssertion,
    ClassExpression,
    DisjointClasses,
    DisjointUnion,
    EquivalentClasses,
    Existential,
    Intersection,
    Named,
    SubClassOf,
    _Record,
    conjuncts,
)
from .parser import serialize_axiom, serialize_expression, term_text


class EquivalentExplosion(RuntimeError):
    """The equivalence family exceeded the version cap."""


# ---------------------------------------------------------------------------
# Text measures
# ---------------------------------------------------------------------------


# the ASCII characters whose Unicode category is punctuation, as bytes
_ASCII_PUNCTUATION = bytes(
    code for code in range(128) if unicodedata.category(chr(code)).startswith("P")
)


def normalize(text: str) -> str:
    """Case-fold, drop punctuation, collapse all whitespace to single spaces.

    Text that is ASCII once folded drops its punctuation by one bytes
    translate, which deletes bytes several times faster than str.translate
    deletes characters; other text is checked one character at a time.
    """
    folded = text.casefold()
    if folded.isascii():
        stripped = folded.encode("ascii").translate(None, _ASCII_PUNCTUATION).decode("ascii")
    else:
        stripped = "".join(
            ch for ch in folded if not unicodedata.category(ch).startswith("P")
        )
    return " ".join(stripped.split())


# Texts packed side by side into one int for _distances. Text k holds the
# bits shift .. shift + length - 1 of segments[k], one bit per character, and
# a zero guard bit follows each nonempty text. The fields:
# - peq: character -> the bits at which it occurs, over every text;
# - mask: every segment bit, no guard bit;
# - firsts: the first bit of each nonempty segment;
# - segments: (shift, length) per text, in order.
_Pack = namedtuple("_Pack", ("peq", "mask", "firsts", "segments"))


def _pack(texts) -> _Pack:
    peq: dict = {}
    mask = firsts = shift = 0
    segments = []
    for text in texts:
        segments.append((shift, len(text)))
        if not text:
            continue
        local: dict = {}
        bit = 1
        for ch in text:
            local[ch] = local.get(ch, 0) | bit
            bit <<= 1
        for ch, bits in local.items():
            peq[ch] = peq.get(ch, 0) | bits << shift
        mask |= (bit - 1) << shift
        firsts |= 1 << shift
        shift += len(text) + 1
    return _Pack(peq, mask, firsts, segments)


def _distances(text: str, pack: _Pack) -> list:
    """The edit distance from text to each packed text, in pack order, by one
    bit-parallel pass over the characters of text.

    Myers' algorithm (J. ACM 1999) in Hyyrö's 2001 formulation, with several
    patterns in one word as Hyyrö, Fredriksson and Navarro (ACM JEA 2005)
    pack them; a Python int has no fixed width, so every packed text fits.
    Bit i of pv (mv) is set when the DP column's vertical delta at that row
    of its text is +1 (-1). The guard-bit invariant: eq, pv and mv are zero
    at every guard bit. So the carry of (eq & pv) + pv out of one segment
    stops at its guard; mh, being under pv, is zero there too, and mh << 1
    shifts a zero into each segment's first bit; ph << 1 takes its top-row
    +1 there from firsts. ph is masked to the segment bits before the shift
    (a bit it had at a guard would only land on a bit firsts sets anyway),
    which keeps every int nonnegative: CPython's bitwise operations are
    slower on negative ints. After the pass the distance to text k is
    len(text) plus the +1s less the -1s of its column: an empty packed text
    gives len(text), and an empty text gives each packed text's length.
    """
    peq, mask, firsts, segments = pack
    pv, mv = mask, 0
    for ch in text:
        eq = peq.get(ch, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = (mv | ~(xh | pv)) & mask
        mh = pv & xh
        ph = (ph << 1) | firsts
        pv = ((mh << 1) | ~(xv | ph)) & mask
        mv = ph & xv
    n = len(text)
    distances = []
    for shift, length in segments:
        bits = (1 << length) - 1
        distances.append(n + (pv >> shift & bits).bit_count() - (mv >> shift & bits).bit_count())
    return distances


def levenshtein(a: str, b: str) -> int:
    """Edit distance with unit-cost insert, delete and substitute: one
    _distances pass over a, with b as the one packed text."""
    return _distances(a, _pack([b]))[0]


def _score(distance: int, longest: int) -> float:
    return 1.0 if longest == 0 else max(0.0, (longest - distance) / longest)


def similarity(candidate: str, reference: str) -> float:
    """(length - distance) / length with the longer length as denominator.

    Both texts are expected to be normalized already. Two empty strings are a
    perfect match; the result is clamped into [0, 1].
    """
    return _similarity_row(reference, _pack([candidate]))[0]


def _similarity_row(reference: str, pack: _Pack) -> list:
    """similarity(candidate, reference) for each packed candidate text, in
    order, from one _distances pass over the reference."""
    n = len(reference)
    return [
        _score(distance, max(length, n))
        for (_, length), distance in zip(pack.segments, _distances(reference, pack))
    ]


class _Normalized(dict):
    """Text -> normalize(text), each distinct text normalized once, on first
    use."""

    def __missing__(self, text: str) -> str:
        value = self[text] = normalize(text)
        return value


class _SimilarityRows(dict):
    """Reference text -> its similarity row: the similarity of each candidate
    text to it, in candidate order. The candidate texts are packed once, and
    a missing row is scored on first use by _similarity_row."""

    def __init__(self, candidate_texts: list):
        super().__init__()
        self.pack = _pack(candidate_texts)

    def __missing__(self, reference: str) -> list:
        row = self[reference] = _similarity_row(reference, self.pack)
        return row


# ---------------------------------------------------------------------------
# Equivalence family
# ---------------------------------------------------------------------------


class EquivalentSet(_Record):
    def __init__(self, versions=None):
        self.versions = [] if versions is None else versions  # per version, its axioms' texts


_END = object()


class _Drawn:
    """The items an iterator has given so far, for a walk that comes back to
    them: one factor of a _product, which any number of its positions may
    share. An item is drawn when the walk first asks for its index, and the
    walk asks only for an index already drawn or the next one, so the list
    holds no more than the walk has already paid for."""

    __slots__ = ("source", "items")

    def __init__(self, iterable):
        self.source = iter(iterable)
        self.items: list = []

    def item(self, index: int):
        """The index-th item, or _END past the last one."""
        items = self.items
        if index == len(items):
            items.append(next(self.source, _END))
        return items[index]

    def __iter__(self):
        """Every item in order, each drawn when the iteration reaches it."""
        index = 0
        while (item := self.item(index)) is not _END:
            yield item
            index += 1


def _product(factors: list, ties: list | None = None):
    """Tuples in itertools.product order over the items of the factors: an
    odometer over one item index per position, in lexicographic order
    (mixed-radix generation, Knuth TAOCP 4A 7.2.1.1). The first tuple costs
    one item per factor, however large the factors are, and each _Drawn
    factor's items are made once, however often the walk returns to them.

    Every factor after the first is a _Drawn. The walk never comes back to
    an item of the first position once it has moved past it, so the first
    factor may be any iterable, which keeps nothing it has given; it must be
    a _Drawn when a later position, or a later walk, shares it.

    ties[p], when given, is an earlier position that shares position p's
    factor, or None; then the index at p starts at the current index at
    ties[p], so the indices of tied positions never decrease. The stream
    uses this to walk equal stand-alone axioms as a multiset: k copies of a
    unit with v variants take C(k + v - 1, k) tuples, not v^k. Why the
    stream is unchanged: a tuple the walk skips has copies p < q with
    i_p > i_q. Swapping those two indices gives a lexicographically earlier
    tuple with the same multiset of texts, since both positions draw from
    one factor. So a skipped tuple is never the first with its texts, the
    unrestricted walk would have dropped it as a duplicate, and the first
    tuple of each multiset, which the restricted walk keeps, comes in the
    same order.
    """
    if not factors:
        yield ()
        return
    last = len(factors) - 1
    for first_index, first in enumerate(factors[0]):
        if not last:
            yield (first,)
            continue
        chosen = [first]  # the item at each position before the one being walked
        indices = [first_index]  # its index in the position's factor
        index = None  # the index to try at position len(chosen); None: its first
        while chosen:
            position = len(chosen)
            if index is None:
                tie = ties[position] if ties else None
                index = 0 if tie is None else indices[tie]
            item = factors[position].item(index)
            if item is _END:
                chosen.pop()
                index = indices.pop() + 1
            elif position < last:
                chosen.append(item)
                indices.append(index)
                index = None
            else:
                yield (*chosen, item)
                index += 1


def _distinct_permutations(items):
    """Each distinct ordering of items once, in the order in which
    itertools.permutations first yields it; equal items are not told apart,
    so n equal operands give one ordering, not n! of them.

    Depth first over positions, each trying the items left in their order and
    skipping a value it already tried there. An explicit stack, not recursion,
    so a long operand list stays under the interpreter's recursion limit.
    """
    chosen: list = []
    levels = [[tuple(items), 0, set()]]  # per position: items left, next to try, values tried
    while levels:
        left, start, tried = level = levels[-1]
        if not left:
            yield tuple(chosen)
        for i in range(start, len(left)):
            if left[i] not in tried:
                tried.add(left[i])
                level[1] = i + 1
                chosen.append(left[i])
                levels.append([left[:i] + left[i + 1 :], 0, set()])
                break
        else:
            levels.pop()
            if chosen:
                chosen.pop()


def _drawn_variants(expressions) -> tuple:
    """(drawn, keys): drawn holds one _Drawn of _expression_variants per
    distinct expression, in order of first occurrence, and keys[i] is the
    index in drawn of expressions[i]'s. Equal expressions get one key, so
    permutations and partitions of the keys treat them alike, as they would
    the expressions, and compare and hash small ints in their place: each
    expression is hashed once here."""
    index: dict = {}
    keys = [index.setdefault(expr, len(index)) for expr in expressions]
    return [_Drawn(_expression_variants(expr)) for expr in index], keys


def _ordered_variants(operands):
    """Every distinct ordering of the operands, times every variant of each
    operand, as tuples of the operands' texts: the orderings outermost, the
    original order first. Equal operands share one _Drawn, so each distinct
    operand's variants are made once, however many orderings and positions
    use them."""
    drawn, keys = _drawn_variants(operands)
    for perm in _distinct_permutations(keys):
        yield from _product([drawn[key] for key in perm])


def _expression_variants(expr: ClassExpression):
    """The canonical serialization of every reordering of the expression's
    intersections, original form first, each made from the texts of its
    parts.

    The original is serialized before any machinery starts: a walk that stops
    after it (a perfect match on the verbatim reference) builds no
    permutation or product. Asked for more, the generator starts its
    machinery and skips its first output, which equals the original since
    every generator here gives its original form first."""
    if not isinstance(expr, (Named, Existential, Intersection)):
        raise TypeError(f"not a class expression: {expr!r}")
    yield serialize_expression(expr)
    if isinstance(expr, Existential):
        for text in islice(_expression_variants(expr.filler), 1, None):
            yield term_text("ObjectSomeValuesFrom", (expr.prop, text))
    elif isinstance(expr, Intersection):
        for texts in islice(_ordered_variants(expr.operands), 1, None):
            yield term_text("ObjectIntersectionOf", texts)


def _distinct_partitions(elements: list):
    """Partitions of range(len(elements)) as block lists, in restricted-growth
    order, skipping each partition whose blocks hold the same multisets of
    elements as one already given: equal elements make many partitions alike.

    Blocks appear by first element, so the single-block partition comes first
    and the all-singletons partition last. The walk is a depth-first search
    over restricted-growth prefixes in that order. Two prefixes of one length
    whose blocks hold the same multisets reach the same partitions' shapes,
    and the earlier one's subtree comes first; so a prefix whose shape an
    earlier prefix of its length had is not extended, and each shape of a
    prefix is extended once. A prefix's shape plus singletons for the rest is
    a whole partition's shape, so no length has more prefix shapes than there
    are whole shapes: n equal elements cost about n^2 prefixes per partition
    of the integer n, not Bell(n) strings. An explicit stack, not recursion.
    """
    n = len(elements)
    if n == 0:
        return
    # a block's multiset is the sum of its weights: one base-(n + 1) digit
    # per distinct element, counting its copies
    weight = [(n + 1) ** elements.index(element) for element in elements]
    shapes = [set() for _ in range(n)]  # prefix shapes met, by last position
    # per position: the block sums before it, and the next block to try; the
    # block a position holds while later ones are placed is the one before
    levels = [[[], 0]]
    while levels:
        level = levels[-1]
        sums, block = level
        position = len(levels) - 1
        if block > len(sums):  # every block and one new block tried
            levels.pop()
            continue
        level[1] = block + 1
        placed = list(sums) if block < len(sums) else [*sums, 0]
        placed[block] += weight[position]
        shape = tuple(sorted(placed))
        if shape in shapes[position]:
            continue
        shapes[position].add(shape)
        if position + 1 < n:
            levels.append([placed, 0])
            continue
        blocks = [[] for _ in placed]
        for i, (_, following) in enumerate(levels):
            blocks[following - 1].append(i)
        yield blocks


def _subclass_pool_variants(sub: ClassExpression, axioms: list):
    """Variants of a group of SubClassOf axioms sharing one sub side.

    The supers' top-level conjuncts are pooled; every set partition of the
    pool (one per shape, see _distinct_partitions) yields one version
    fragment, each block realized as a bare super or
    an intersection, combined with every conjunct ordering inside each block,
    every variant of each conjunct expression, and every variant of the sub
    expression per produced axiom. The original grouping is emitted first so
    the head of the stream is always the verbatim input; the partition walk
    gives it again (a one-axiom pool gives nothing else), and _unit_variants
    drops such repeats.

    For each ordering of the blocks, one product walks the variants of every
    conjunct in block order, then of the sub once per block; each super is
    its block's slice of the tuple, alone or as an intersection. That is the
    order of a product over the blocks' supers, each itself a product over
    its conjuncts, with the subs innermost. The sub and each distinct
    conjunct have one _Drawn for the whole pool. The first block's orderings
    are walked once, so they are not kept.

    Yields each fragment as the serialization of each of its axioms, made
    from the texts of its sub's and its conjuncts' variants.
    """
    yield list(map(serialize_axiom, axioms))
    # the pooled conjuncts stand for themselves by their keys
    drawn, (sub_key, *keys) = _drawn_variants(
        [sub, *(c for axiom in axioms for c in conjuncts(axiom.super))]
    )
    for blocks in _distinct_partitions(keys):
        orderings = [_distinct_permutations([keys[i] for i in b]) for b in blocks]
        orderings[1:] = map(_Drawn, orderings[1:])
        for ordered_blocks in _product(orderings):
            flat = [key for block in ordered_blocks for key in block]
            for combo in _product([drawn[key] for key in flat + [sub_key] * len(blocks)]):
                texts, start = [], 0
                for block, sub_text in zip(ordered_blocks, combo[len(flat) :]):
                    chosen = combo[start : start + len(block)]
                    start += len(block)
                    super_text = chosen[0]
                    if len(chosen) > 1:
                        super_text = term_text("ObjectIntersectionOf", chosen)
                    texts.append(term_text("SubClassOf", (sub_text, super_text)))
                yield texts


def _axiom_unit_variants(axiom: Axiom):
    """Variants of one non-SubClassOf axiom, original form first, each as a
    one-text list: the axiom's serialization before any machinery starts,
    then the machinery's outputs after its first, which equals the original
    (see _expression_variants), each made from its operands' texts."""
    if not isinstance(axiom, (EquivalentClasses, DisjointClasses, ClassAssertion, DisjointUnion)):
        raise TypeError(f"not an axiom: {axiom!r}")
    yield [serialize_axiom(axiom)]
    keyword = type(axiom).__name__
    if isinstance(axiom, (EquivalentClasses, DisjointClasses)):
        for texts in islice(_ordered_variants(axiom.operands), 1, None):
            yield [term_text(keyword, texts)]
    elif isinstance(axiom, ClassAssertion):
        for text in islice(_expression_variants(axiom.expr), 1, None):
            yield [term_text(keyword, (text, axiom.individual))]
    else:
        drawn, keys = _drawn_variants(axiom.disjuncts)
        for texts in islice(_product([drawn[key] for key in keys]), 1, None):
            yield [term_text(keyword, (axiom.union_class, *texts))]


def _unit_variants(variants, *args):
    """The text lists variants(*args) gives, each holding the canonical
    serialization of each axiom of a variant in order, less each variant
    whose sorted texts equal an earlier one's.

    Skipping keeps the stream unchanged: _equivalent_stream walks the units'
    variant indices in lexicographic order, so a version that uses the repeat
    comes after the same version with the first occurrence, and the stream
    would drop it as a duplicate.
    """
    seen = set()
    for texts in variants(*args):
        key = tuple(sorted(texts))
        if key not in seen:
            seen.add(key)
            yield texts


def _units(axioms: list) -> tuple:
    """Group axioms into variant units, one _Drawn of _unit_variants per
    unit: same-sub SubClassOf axioms pool at the position of their first
    member, everything else stands alone. Equal stand-alone axioms are one
    unit, so their positions share one _Drawn. Returns the units, one per
    position, and the ties _product takes: per position, the previous
    position with the same unit, or None. A first unit that no later
    position shares is returned as its plain generator, which keeps none of
    the variants _product's first position walks past."""
    pools: dict = {}
    held: dict = {}  # a stand-alone axiom -> the positions that hold it
    units, ties = [], []
    for axiom in axioms:  # each axiom, or its sub, is hashed once
        if isinstance(axiom, SubClassOf):
            pool = pools.get(axiom.sub)
            if pool is None:
                pool = pools[axiom.sub] = []
                units.append(_Drawn(_unit_variants(_subclass_pool_variants, axiom.sub, pool)))
                ties.append(None)
            pool.append(axiom)
        else:
            positions = held.setdefault(axiom, [])
            tie = positions[-1] if positions else None
            if tie is None:
                units.append(_Drawn(_unit_variants(_axiom_unit_variants, axiom)))
            else:
                units.append(units[tie])
            ties.append(tie)
            positions.append(len(units) - 1)
    if ties and 0 not in ties:
        units[0] = units[0].source
    return units, ties


def _equivalent_stream(axioms: list):
    """Deduplicated stream of equivalent versions, verbatim reference first.

    Yields each version as the canonical serialization of each of its axioms,
    in order, and their sorted tuple is the version's order-insensitive
    identity. The texts are the units' own, joined; no axiom is built or
    serialized per version, and a unit's variant other than its verbatim form
    is not serialized at all: its text is built from its parts' texts.

    One _product walks the units in lexicographic order, the first version
    taking variant 0 of every unit, equal stand-alone axioms as a multiset
    (see _product). Each unit's variants are made and serialized once per
    stream, and inside a unit each distinct subexpression's variants are made
    once, however often the walk returns to them. Each unit gives its
    distinct variants only, so the walk makes no combination that repeats a
    unit's variant; a version can still repeat an earlier one across units
    (two EquivalentClasses axioms that permute each other's operands), and
    is then dropped.
    """
    seen = set()
    for heads in _product(*_units(list(axioms))):
        texts = [text for head in heads for text in head]
        key = tuple(sorted(texts))
        if key not in seen:
            seen.add(key)
            yield texts


def enumerate_equivalents(axioms: list, cap: int = DEFAULT_CAP) -> EquivalentSet:
    """Materialize the whole equivalence family, as each version's texts, or
    fail once it passes cap."""
    versions = []
    for version in _equivalent_stream(axioms):
        if len(versions) >= cap:
            raise EquivalentExplosion(f"more than {cap} equivalent versions")
        versions.append(version)
    return EquivalentSet(versions)


# ---------------------------------------------------------------------------
# Scoring
# ---------------------------------------------------------------------------


AxiomScore = namedtuple("AxiomScore", ("reference_text", "candidate_text", "score"))
AxiomScore.__doc__ = """One report row: the canonical serializations of a reference axiom and
of the candidate axiom assigned to it ("" for none), and their score."""


class SimilarityReport(_Record):
    def __init__(
        self, per_axiom: list, mean: float, best_version_index: int, truncated: bool = False
    ):
        self.per_axiom = per_axiom
        self.mean = mean
        self.best_version_index = best_version_index
        self.truncated = truncated


def _assignment_mean(
    reference_texts: list, candidate_texts: list, rows: dict, best_mean: float
) -> tuple | None:
    """Best one-to-one assignment of candidates to references.

    rows maps each reference text to its similarity row against
    candidate_texts (a _SimilarityRows scores a row when it is first read).
    Returns (mean over reference axioms, chosen candidate index per reference
    or None). Exact search by a DP over the candidate subsets used so far,
    keeping only the subsets each row can reach: after i rows, those of at
    most i candidates. A small reference stays cheap however large the
    candidate.

    Returns None, leaving the rest of the matrix unscored, as soon as the mean
    provably cannot exceed best_mean: a version wins only with a mean above
    best_mean, so a skipped version could not have won, and the caller goes
    on to the next one. Float addition and division are monotone, so the
    DP's mean cannot exceed bound / n for either bound:
    - before any row is scored, the ceiling min(n, m): the DP's total is a
      float sum of at most min(n, m) similarities, each at most 1.0, and a
      partial sum of k such terms rounds to at most the integer k;
    - after each row, the row maxima so far plus 1.0 for each row still to
      fill, added in row order as the DP adds its row scores.

    The DP also drops a state that cannot reach the optimum. The floor is the
    total of a greedy assignment (each row takes its best unused candidate),
    added in row order; the DP's best total is at least that, since it adds
    the same path in the same order. A state after i rows is dropped when its
    value is below the cutoff floor - slack - (the sum of the maxima of rows
    i..n-1). So one clear best assignment keeps few states; many equal
    scores still keep many, and two large tied frames still cost exponential
    time.

    Why the result is unchanged. Every float here (a state's value, the
    floor, a suffix of row maxima, a cutoff, the traceback's remainder) is
    made by at most 2n + 2 additions or subtractions whose results lie in
    [-2n, 2n]; each rounds by at most n * eps, so each float is within
    E = 4 * n * n * eps of the real sum it stands for. The slack is 8E.
    - Any completion of a dropped state (in the DP without dropping) totals
      below floor - slack + 4E, so below the optimum by more than 4E.
    - A state that a path to an optimal final state goes through is never
      dropped, so the final max((value, mask)) sees every optimal state with
      its value.
    - Each equality the traceback tests, best[i][mask] or best[i][mask ^ bit]
      + score against the remainder, can hold only for a state on a path that
      completes within 3E of the optimum. Such a state keeps its value; a
      dropped state, or a kept one whose value fell because its best path was
      dropped, fails the test in both DPs. So the traceback takes the same
      steps.
    """
    n, m = len(reference_texts), len(candidate_texts)
    if n == 0:
        return 1.0, []
    if min(n, m) / n <= best_mean:
        return None

    matrix = []
    row_maxima = []
    maxima = 0.0  # sum of the filled rows' maxima, in row order
    for reference in reference_texts:
        row = rows[reference]
        matrix.append(row)
        row_maxima.append(max(row, default=0.0))
        maxima += row_maxima[-1]
        bound = maxima
        for _ in range(n - len(matrix)):
            bound += 1.0
        if bound / n <= best_mean:
            return None

    floor, used = 0.0, set()
    for scores in matrix:
        free = [j for j in range(m) if j not in used]
        if free:
            pick = max(free, key=scores.__getitem__)
            used.add(pick)
            floor += scores[pick]
    slack = 32 * n * n * sys.float_info.epsilon
    rests = [0.0]  # rests[k]: sum of the maxima of the last k rows
    for row_max in reversed(row_maxima):
        rests.append(rests[-1] + row_max)
    cutoffs = [floor - slack - rest for rest in reversed(rests)]  # per rows filled

    NEG = float("-inf")
    best = [{0: 0.0}]  # per row: reachable candidate bitmask -> best total using it
    for scores, cutoff in zip(matrix, cutoffs[1:]):
        # leave the reference unmatched (scores 0)
        nxt = {mask: base for mask, base in best[-1].items() if base >= cutoff}
        moves = sorted(((score, 1 << j) for j, score in enumerate(scores)), reverse=True)
        for mask, base in best[-1].items():
            for score, bit in moves:
                value = base + score
                if value < cutoff:
                    break  # and so for every lower score
                if not mask & bit and value > nxt.get(mask | bit, NEG):
                    nxt[mask | bit] = value
        best.append(nxt)
    total, final_mask = max((v, mask) for mask, v in best[n].items())

    # walk the table backwards to recover who matched whom
    chosen: list = [None] * n
    mask = final_mask
    remaining = total
    for i in range(n - 1, -1, -1):
        if best[i].get(mask, NEG) == remaining:  # reference i was left unmatched
            continue
        scores = matrix[i]
        for j in range(m):
            bit = 1 << j
            if mask & bit and best[i].get(mask ^ bit, NEG) + scores[j] == remaining:
                chosen[i] = j
                mask ^= bit
                remaining -= scores[j]
                break
    return total / n, chosen


def _perfect_assignment(version_texts: list, candidate_texts: list) -> list:
    """Candidate index per reference axiom when texts match exactly."""
    unused: dict = {}
    for j, text in enumerate(candidate_texts):
        unused.setdefault(text, []).append(j)
    return [unused[text].pop(0) for text in version_texts]


def score_submission(candidate, reference, cap: int = DEFAULT_CAP) -> SimilarityReport:
    """Score a candidate frame against the best equivalent of the reference.

    Scans at most cap versions; if the family is larger the scan stops there
    and the report is flagged truncated rather than failing, so oversized
    frames still get a (lower-bound) score. Ties keep the earliest version.

    A version scores a perfect 1.0 exactly when each of its axioms has an
    equal normalized text among distinct candidate axioms, i.e. when the
    version's text multiset is contained in the candidate's. That containment
    test is cheap, so the scan looks for a perfect version first and only
    falls back to assignment scoring over the scanned prefix when none exists.
    A cap below 1 would scan nothing and raises ValueError.
    """
    if cap < 1:
        raise ValueError(f"cap must be at least 1, got {cap}")
    candidate_serialized = list(map(serialize_axiom, candidate.axioms))
    normalized = _Normalized()
    candidate_texts = list(map(normalized.__getitem__, candidate_serialized))
    candidate_counts = Counter(candidate_texts)

    # per scanned version: its axioms' serializations, normalized again from
    # the memo if the assignment fallback needs them
    scanned: list = []
    truncated = False
    perfect = False
    for index, serialized in enumerate(_equivalent_stream(reference.axioms)):
        if index >= cap:
            truncated = True
            break
        scanned.append(serialized)
        version_texts = list(map(normalized.__getitem__, serialized))
        # a text the candidate lacks rules the version out without a Counter
        if all(map(candidate_counts.__contains__, version_texts)) and (
            Counter(version_texts) <= candidate_counts
        ):
            perfect = True
            break

    if perfect:
        best_index, best_mean = index, 1.0
        chosen = _perfect_assignment(version_texts, candidate_texts)
        scores = [1.0] * len(chosen)  # equal texts score 1.0
    else:
        rows = _SimilarityRows(candidate_texts)  # packed only off the perfect path
        best_mean = -1.0  # below every mean, so the first version is never pruned
        for index, scanned_serialized in enumerate(scanned):
            scanned_texts = list(map(normalized.__getitem__, scanned_serialized))
            scored = _assignment_mean(scanned_texts, candidate_texts, rows, best_mean)
            if scored is not None and scored[0] > best_mean:
                best_mean, chosen = scored
                best_index, version_texts = index, scanned_texts
        serialized = scanned[best_index]
        scores = [0.0 if j is None else rows[text][j] for text, j in zip(version_texts, chosen)]

    per_axiom = [
        AxiomScore(text, "" if j is None else candidate_serialized[j], score)
        for text, j, score in zip(serialized, chosen, scores)
    ]
    return SimilarityReport(per_axiom, best_mean, best_index, truncated)


def _csv_field(text: str) -> str:
    """The text as one CSV field: in double quotes, each quote inside doubled,
    when it holds a comma, a quote or a line break; as it is otherwise."""
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def emit_report(report: SimilarityReport) -> str:
    """CSV rows reference_axiom,candidate_axiom,score plus a mean summary.

    The axiom columns print the texts each row carries: for a report from
    score_submission, the serializations its scan already made (the winning
    version's texts from the equivalence stream, the candidate's from its one
    serializing pass)."""
    lines = ["reference_axiom,candidate_axiom,score"]
    for item in report.per_axiom:
        lines.append(
            f"{_csv_field(item.reference_text)},{_csv_field(item.candidate_text)},{item.score:.4f}"
        )
    lines.append(f"mean,{report.mean:.4f}")
    return "\n".join(lines) + "\n"
