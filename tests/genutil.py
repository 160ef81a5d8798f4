"""Seeded random generators and independent oracles shared by the tests.

The oracles are deliberately separate implementations of behavior the package
computes elsewhere (class ids by direct case analysis, frames by a scan per
class, survey tallies from those frames, group labels and directness by direct
case analysis, products by plain recursion that re-makes every factor per
combination, each expression's and axiom's variants by itertools, the order
of a SubClassOf pool's versions by nested products per block,
edit distance by plain recursion and by the textbook dynamic program,
tokens by the one-match-at-a-time finditer walk the parser once used,
assignments and the split/permutation family by brute force, text positions
by walking the text, normalization one character at a time, scoring by the
plain scan without pruning, the equivalent-version stream by building every
combination of every unit's variants as axioms and serializing it), so tests
can hold the production code to an answer derived another way. run_cli runs
one command line in this process as a fresh interpreter would.
"""

from __future__ import annotations

import io
import itertools
import logging
import random
import re
import unicodedata
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from functools import partial

from owlprose.model import (
    ClassAssertion,
    ClassFrame,
    DisjointClasses,
    DisjointUnion,
    EquivalentClasses,
    Existential,
    Intersection,
    Named,
    Ontology,
    SubClassOf,
    conjuncts,
)
from owlprose import cli, evaluate
from owlprose.parser import ParseError, UndeclaredEntity, parse_ontology, serialize_axiom

DESIGNATED = ":F"


def make_pools(n_classes: int = 6, n_props: int = 3, n_inds: int = 3):
    classes = [f":C{i}" for i in range(n_classes)]
    props = [f":p{i}" for i in range(n_props)]
    inds = [f":i{i}" for i in range(n_inds)]
    return classes, props, inds


def gen_expression(rng: random.Random, classes, props, depth: int = 2):
    roll = rng.random()
    if depth <= 0 or roll < 0.5:
        return Named(rng.choice(classes))
    if roll < 0.75:
        return Existential(rng.choice(props), gen_expression(rng, classes, props, depth - 1))
    count = rng.randint(2, 3)
    return Intersection(
        tuple(gen_expression(rng, classes, props, depth - 1) for _ in range(count))
    )


def gen_axiom(rng: random.Random, classes, props, inds, depth: int = 2):
    kind = rng.randrange(5)
    if kind == 0:
        return SubClassOf(
            gen_expression(rng, classes, props, depth),
            gen_expression(rng, classes, props, depth),
        )
    if kind in (1, 2):
        maker = EquivalentClasses if kind == 1 else DisjointClasses
        count = rng.randint(2, 3)
        return maker(
            tuple(gen_expression(rng, classes, props, depth) for _ in range(count))
        )
    if kind == 3:
        return ClassAssertion(gen_expression(rng, classes, props, depth), rng.choice(inds))
    count = rng.randint(2, 3)
    return DisjointUnion(
        rng.choice(classes),
        tuple(gen_expression(rng, classes, props, depth) for _ in range(count)),
    )


def gen_frame_axiom(rng: random.Random, classes, props, inds, designated: str = DESIGNATED):
    """One axiom guaranteed to mention the designated class, with the kind,
    orientation and complexity all randomized."""
    d = Named(designated)
    others = [c for c in classes if c != designated]

    def other_expr(depth: int = 1):
        return gen_expression(rng, others, props, depth)

    def expr_with_d(depth: int = 1):
        roll = rng.random()
        if depth <= 0 or roll < 0.4:
            return d
        if roll < 0.7:
            return Existential(rng.choice(props), expr_with_d(depth - 1))
        operands = [expr_with_d(depth - 1)] + [other_expr(depth - 1) for _ in range(rng.randint(1, 2))]
        rng.shuffle(operands)
        return Intersection(tuple(operands))

    kind = rng.randrange(5)
    if kind == 0:
        roll = rng.random()
        if roll < 0.4:
            return SubClassOf(d, other_expr(2))
        if roll < 0.7:
            return SubClassOf(other_expr(rng.randint(0, 1)), d)
        return SubClassOf(other_expr(0), expr_with_d(2))
    if kind in (1, 2):
        maker = EquivalentClasses if kind == 1 else DisjointClasses
        count = rng.randint(2, 3)
        position = rng.randrange(count)
        operands = tuple(
            expr_with_d(1) if i == position else other_expr(1) for i in range(count)
        )
        return maker(operands)
    if kind == 3:
        return ClassAssertion(expr_with_d(1), rng.choice(inds))
    if rng.random() < 0.5:
        return DisjointUnion(designated, tuple(other_expr(1) for _ in range(2)))
    return DisjointUnion(rng.choice(others), (expr_with_d(0), other_expr(1)))


def gen_frame(rng: random.Random, n_axioms: int | None = None) -> ClassFrame:
    classes, props, inds = make_pools()
    classes = classes + [DESIGNATED]
    count = n_axioms if n_axioms is not None else rng.randint(1, 8)
    return ClassFrame(
        DESIGNATED,
        [gen_frame_axiom(rng, classes, props, inds) for _ in range(count)],
    )


def gen_ontology(rng: random.Random, max_classes: int = 10, max_axioms: int = 8) -> Ontology:
    classes, props, inds = make_pools(n_classes=rng.randint(1, max_classes))
    axioms = [
        gen_axiom(rng, classes, props, inds, depth=rng.randint(0, 2))
        for _ in range(rng.randint(0, max_axioms))
    ]
    return Ontology(set(classes), set(props), set(inds), axioms)


def drop_declarations(rng: random.Random, ontology: Ontology, share: float) -> Ontology:
    """The ontology with about ``share`` of its classes no longer declared, so
    that its axioms mention ids that have no frame."""
    declared = {c for c in sorted(ontology.classes) if rng.random() >= share}
    return Ontology(declared, ontology.properties, ontology.individuals, ontology.axioms)


def broken_by_one_edit(rng: random.Random, text: str) -> str:
    """The text broken by one edit at a random offset: a bad character or a
    parenthesis inserted, the text cut there, or a lone ":" inserted."""
    offset = rng.randrange(len(text) + 1)
    edit = rng.randrange(4)
    if edit == 0:
        return text[:offset] + rng.choice("$é∀1_;%") + text[offset:]
    if edit == 1:
        return text[:offset] + rng.choice("()") + text[offset:]
    if edit == 2:
        return text[:offset]
    return text[:offset] + " : " + text[offset:]


def ontology_text(ontology: Ontology) -> str:
    """The ontology in the functional syntax the parser reads: a declaration
    for each of its classes, properties and individuals, then the axioms."""
    lines = ["Ontology("]
    lines += [f"  Declaration(Class({c}))" for c in sorted(ontology.classes)]
    lines += [f"  Declaration(ObjectProperty({p}))" for p in sorted(ontology.properties)]
    lines += [f"  Declaration(NamedIndividual({i}))" for i in sorted(ontology.individuals)]
    lines += [f"  {serialize_axiom(ax)}" for ax in ontology.axioms]
    lines.append(")")
    return "\n".join(lines) + "\n"


# the whitespace a laid-out document separates its tokens with: every character
# here is whitespace to str.split and to \s alike
LAYOUT_SPACES = (
    " ", "\t", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0", "\u2028", "\u3000",
)
LINE_ENDS = ("\n", "\r\n", "\r")
# characters str.splitlines breaks at that are not line ends in a document
NOT_LINE_ENDS = "\v\f\x1c\x1d\x1e\x85\u2028\u2029"
BAD_CHARACTERS = ("$", "é", "∀", "1", "_", ";", "%", ":")


def with_newlines(text: str) -> str:
    """The text with each of LINE_ENDS made "\\n" by str.replace, as a
    document holds it."""
    return text.replace("\r\n", "\n").replace("\r", "\n")


def laid_out_document(rng: random.Random) -> str:
    """A generated ontology, about a fifth of its class declarations dropped,
    written token by token with random layout: runs of LAYOUT_SPACES, line
    ends of each kind, and ids that end in non-ASCII letters. Independently,
    a third of the documents carry comments, a third glue neighbouring
    tokens together (a keyword to an id as in "Class:X", or two ids into
    one as in ":A:B") and a sixth hold one bad character."""
    ontology = drop_declarations(rng, gen_ontology(rng), 0.2)
    accent = rng.choice(["", "é", "∀x", "日本"])
    tokens = re.findall(r"[()]|[^\s()]+", ontology_text(ontology))
    tokens = [t + accent if t.startswith(":") else t for t in tokens]
    comments, glued = rng.random() < 1 / 3, rng.random() < 1 / 3
    if glued:  # drop some "(" after a keyword, so that it may meet an id
        tokens = [t for previous, t in zip([""] + tokens, tokens)
                  if not (t == "(" and previous[:1].isalpha() and rng.random() < 0.2)]
    parts = []
    for previous, token in zip([None] + tokens, tokens):
        roll = rng.random()
        if roll < 0.3:
            separator = ""
        elif roll < 0.7:
            separator = "".join(rng.choices(LAYOUT_SPACES, k=rng.randint(1, 3)))
        else:
            separator = rng.choice(LINE_ENDS) + rng.choice(["", "  ", "\t"])
        if comments and rng.random() < 0.1:
            separator = f"{rng.choice(('', ' '))}# note ( :x é{rng.choice(LINE_ENDS)}"
        words = previous not in (None, "(", ")") and token not in ("(", ")")
        if words and not separator and not (glued and rng.random() < 0.5):
            separator = " "
        parts += [separator, token]
    text = "".join(parts) + rng.choice(("", "\n", "\r\n"))
    if rng.random() < 1 / 6:
        offset = rng.randrange(len(text) + 1)
        text = text[:offset] + rng.choice(BAD_CHARACTERS) + text[offset:]
    return text


def laid_out_lexicon(rng: random.Random) -> str:
    """A lexicon row for each id of a generated ontology, two to five cells,
    ends of each of LINE_ENDS, blank and comment lines between rows, cells
    padded with spaces or holding a NOT_LINE_ENDS character, and in about a
    sixth of the lexicons one row of a bad shape: one cell, six cells or an
    article that is not a/an/the."""
    ontology = gen_ontology(rng)
    ids = sorted(ontology.classes) + sorted(ontology.properties)
    rows = []
    for iri in ids:
        cells = [iri, f"name{rng.choice(('', ' ', *NOT_LINE_ENDS))}of {iri[1:]}",
                 rng.choice(("", "a", "an", "the")), "is related to", "in"]
        rows.append("\t".join(f" {cell} " if rng.random() < 0.2 else cell
                              for cell in cells[: rng.randint(2, 5)]))
        rows += rng.choices(("", "  ", "# note\tx", " # x"), k=rng.randint(0, 1))
    if rows and rng.random() < 1 / 6:
        bad = rng.choice((":Bad", ":Bad\tx\ty\tz\tw\tv", ":Bad\tx\tsome"))
        rows.insert(rng.randrange(len(rows) + 1), bad)
    return "".join(row + rng.choice(LINE_ENDS) for row in rows)



class _Messages(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.messages: list = []

    def emit(self, record):
        self.messages.append(record.getMessage())


def parse_outcome(text: str, strict: bool) -> tuple:
    """What parse_ontology makes of the text, in a form whose repr does not
    depend on PYTHONHASHSEED: ("parsed", its sorted classes, properties and
    individuals, its axioms, the auto-declare warnings in order), or the
    exception's type name, message, line, column and expected set (the last
    three None for UndeclaredEntity)."""
    parser_log = logging.getLogger("owlprose.parser")
    handler, level, propagate = _Messages(), parser_log.level, parser_log.propagate
    parser_log.addHandler(handler)
    parser_log.setLevel(logging.WARNING)
    parser_log.propagate = False  # the warnings are collected, not printed
    try:
        ontology = parse_ontology(text, strict=strict)
    except ParseError as exc:
        return type(exc).__name__, str(exc), exc.line, exc.column, exc.expected
    except UndeclaredEntity as exc:
        return type(exc).__name__, str(exc), None, None, None
    finally:
        parser_log.removeHandler(handler)
        parser_log.setLevel(level)
        parser_log.propagate = propagate
    return (
        "parsed", sorted(ontology.classes), sorted(ontology.properties),
        sorted(ontology.individuals), ontology.axioms, handler.messages,
    )


def run_cli(argv) -> tuple:
    """(exit status, stdout, stderr) of one owlprose command line, run in this
    process through cli.main. The root logger has no handler during the call,
    so cli.main's own logging.basicConfig sends the log records to the
    captured stderr, as in a fresh interpreter; the handlers it had (pytest's
    among them) are put back afterwards."""
    root = logging.getLogger()
    handlers = root.handlers[:]
    root.handlers.clear()
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            status = cli.main(list(argv))
    finally:
        root.handlers[:] = handlers
    return status, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def _expression_ids_oracle(expr) -> frozenset:
    if isinstance(expr, Named):
        return frozenset((expr.iri,))
    if isinstance(expr, Existential):
        return _expression_ids_oracle(expr.filler)
    if isinstance(expr, Intersection):
        return frozenset().union(*(_expression_ids_oracle(op) for op in expr.operands))
    raise TypeError(expr)


def class_ids_oracle(axiom) -> frozenset:
    """Class ids named anywhere in the axiom, by case analysis on each axiom
    kind: the DisjointUnion class counts, a ClassAssertion's individual never."""
    if isinstance(axiom, SubClassOf):
        operands, extra = (axiom.sub, axiom.super), ()
    elif isinstance(axiom, (EquivalentClasses, DisjointClasses)):
        operands, extra = axiom.operands, ()
    elif isinstance(axiom, ClassAssertion):
        operands, extra = (axiom.expr,), ()
    elif isinstance(axiom, DisjointUnion):
        operands, extra = axiom.disjuncts, (axiom.union_class,)
    else:
        raise TypeError(axiom)
    return frozenset(extra).union(*(_expression_ids_oracle(op) for op in operands))


def frame_oracle(ontology: Ontology, iri: str) -> ClassFrame:
    """The class's frame by a scan of every axiom."""
    return ClassFrame(iri, [ax for ax in ontology.axioms if iri in class_ids_oracle(ax)])


# Communicative role of each group label, by the label's first two letters.
_ROLE_OF_BASE = {
    "Sc": "taxonomy", "Ec": "definition", "Dc": "distinction", "Ca": "illustration",
    "Du": "alternatives",
}


def survey_oracle(corpus) -> dict:
    """What survey must tally, class by class from oracle frames and
    oracle_group: per_pattern, role_containment, group_containment and
    total_classes."""
    per_pattern, roles, groups = Counter(), Counter(), Counter()
    total = 0
    for ontology in corpus:
        for iri in sorted(ontology.classes):
            labels = {oracle_group(ax, iri) for ax in frame_oracle(ontology, iri).axioms}
            per_pattern["".join(sorted(labels))] += 1
            groups.update(labels)
            roles.update({_ROLE_OF_BASE[label[:2]] for label in labels})
            total += 1
    return dict(per_pattern=per_pattern, role_containment=roles,
                group_containment=groups, total_classes=total)


def oracle_group(axiom, designated: str) -> str:
    """Group label by direct case analysis, kept independent of the classifier."""
    if isinstance(axiom, SubClassOf):
        base, operands = "Sc", [axiom.sub, axiom.super]
    elif isinstance(axiom, EquivalentClasses):
        base, operands = "Ec", list(axiom.operands)
    elif isinstance(axiom, DisjointClasses):
        base, operands = "Dc", list(axiom.operands)
    elif isinstance(axiom, ClassAssertion):
        base, operands = "Ca", [axiom.expr]
    elif isinstance(axiom, DisjointUnion):
        return "Du"
    else:
        raise TypeError(axiom)
    has_structure = any(
        not isinstance(op, Named) for op in operands if op != Named(designated)
    )
    return base + ("r" if has_structure else "")


def oracle_direct(axiom, designated: str) -> bool:
    """Directness by direct case analysis on the axiom kind, kept independent
    of the classifier's subject-first rule."""
    if isinstance(axiom, SubClassOf):
        return axiom.sub == Named(designated)
    if isinstance(axiom, (EquivalentClasses, DisjointClasses)):
        return axiom.operands[0] == Named(designated)
    if isinstance(axiom, ClassAssertion):
        return True
    if isinstance(axiom, DisjointUnion):
        return axiom.union_class == designated
    raise TypeError(axiom)


def oracle_pattern(frame: ClassFrame) -> str:
    return "".join(sorted({oracle_group(ax, frame.designated) for ax in frame.axioms}))


def lev_oracle(a: str, b: str) -> int:
    """Plain recursion with the equal-head reduction; no memoization."""
    if a and b and a[0] == b[0]:
        return lev_oracle(a[1:], b[1:])
    if not a:
        return len(b)
    if not b:
        return len(a)
    return 1 + min(
        lev_oracle(a[1:], b),
        lev_oracle(a, b[1:]),
        lev_oracle(a[1:], b[1:]),
    )


def lev_dp_oracle(a: str, b: str) -> int:
    """The textbook O(len(a) * len(b)) dynamic program, one row at a time."""
    if len(a) < len(b):
        a, b = b, a
    previous = list(range(len(b) + 1))
    for i, ch_a in enumerate(a, start=1):
        current = [i]
        for j, ch_b in enumerate(b, start=1):
            cost = 0 if ch_a == ch_b else 1
            current.append(min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + cost))
        previous = current
    return previous[len(b)]


def similarity_oracle(candidate: str, reference: str) -> float:
    """evaluate.similarity by the textbook DP, sharing no code with the
    scorer: 1 - distance / the longer length, 1.0 for two empty texts,
    never below 0."""
    longest = max(len(candidate), len(reference))
    if longest == 0:
        return 1.0
    return max(0.0, (longest - lev_dp_oracle(candidate, reference)) / longest)


def assignment_oracle(matrix: list, m: int) -> float:
    """Mean over rows of the best injective partial assignment of rows to
    columns, by trying every assignment (-1 leaves a row unmatched)."""
    n = len(matrix)
    best = 0.0
    for chosen in itertools.product(range(-1, m), repeat=n):
        used = [j for j in chosen if j >= 0]
        if len(used) == len(set(used)):
            best = max(best, sum(matrix[i][j] for i, j in enumerate(chosen) if j >= 0))
    return best / n


def version_key(version: list) -> tuple:
    """Order-insensitive identity of a version: sorted canonical serializations."""
    return tuple(sorted(serialize_axiom(ax) for ax in version))


def distinct_permutations_oracle(items) -> list:
    """Every ordering itertools.permutations yields, first occurrences only."""
    return list(dict.fromkeys(itertools.permutations(items)))


_TOKEN_ORACLE_RE = re.compile(
    r"""
    (?P<skip>\s+|\#[^\n]*)
  | (?P<paren>[()])
  | (?P<id>:[^\s()#]+)
  | (?P<keyword>[A-Za-z][A-Za-z0-9]*)
  | (?P<bad>.)
    """,
    re.VERBOSE,
)


def tokens_oracle(text: str) -> list:
    """The text's tokens as the parser once found them, one finditer match at
    a time: (kind, text, offset) per token, kind "id", "keyword" or the
    parenthesis itself, whitespace and comments skipped. The list ends with
    ("eof", "", len(text)), or, at the first character no token can start
    with, with ("bad", that character, its offset)."""
    tokens = []
    for match in _TOKEN_ORACLE_RE.finditer(text):
        kind, value = match.lastgroup, match.group()
        if kind == "bad":
            tokens.append((kind, value, match.start()))
            return tokens
        if kind != "skip":
            tokens.append((value if kind == "paren" else kind, value, match.start()))
    tokens.append(("eof", "", len(text)))
    return tokens


def line_column(text: str, offset: int) -> tuple:
    """Line and column, both counted from 1, of a character offset, found by
    walking the text one character at a time."""
    line, column = 1, 1
    for ch in text[:offset]:
        if ch == "\n":
            line, column = line + 1, 1
        else:
            column += 1
    return line, column


def split_permutation_oracle(sub, conjuncts) -> set:
    """Brute-force family for one SubClassOf over an intersection: every
    conjunct permutation cut into every contiguous block sequence, deduplicated
    by sorted serialization."""
    versions = set()
    n = len(conjuncts)
    for perm in itertools.permutations(conjuncts):
        for cuts in itertools.product((False, True), repeat=n - 1):
            blocks, current = [], [perm[0]]
            for element, cut in zip(perm[1:], cuts):
                if cut:
                    blocks.append(current)
                    current = []
                current.append(element)
            blocks.append(current)
            axioms = [
                SubClassOf(sub, block[0] if len(block) == 1 else Intersection(tuple(block)))
                for block in blocks
            ]
            versions.add(tuple(sorted(serialize_axiom(ax) for ax in axioms)))
    return versions


def conjunct_permuted_candidate(frame: ClassFrame) -> ClassFrame:
    """A candidate differing from the frame only by one conjunct reordering:
    the last top-level intersection is reversed; failing that, the last
    EquivalentClasses/DisjointClasses argument list; failing that, verbatim."""
    axioms = list(frame.axioms)
    for i in range(len(axioms) - 1, -1, -1):
        axiom = axioms[i]
        if isinstance(axiom, SubClassOf) and isinstance(axiom.super, Intersection):
            reversed_super = Intersection(tuple(reversed(axiom.super.operands)))
            axioms[i] = SubClassOf(axiom.sub, reversed_super)
            return ClassFrame(frame.designated, axioms)
        if isinstance(axiom, (EquivalentClasses, DisjointClasses)):
            positions = [
                k for k, op in enumerate(axiom.operands) if isinstance(op, Intersection)
            ]
            if positions:
                operands = list(axiom.operands)
                k = positions[-1]
                operands[k] = Intersection(tuple(reversed(operands[k].operands)))
                axioms[i] = type(axiom)(tuple(operands))
                return ClassFrame(frame.designated, axioms)
    for i in range(len(axioms) - 1, -1, -1):
        axiom = axioms[i]
        if isinstance(axiom, (EquivalentClasses, DisjointClasses)):
            axioms[i] = type(axiom)(tuple(reversed(axiom.operands)))
            return ClassFrame(frame.designated, axioms)
    return frame


def distinct_partitions_oracle(elements) -> list:
    """Set partitions of range(len(elements)) as block lists, found by
    walking every restricted-growth string in lexicographic order, keeping
    the first partition of each shape: the multiset of the blocks' element
    multisets."""
    n = len(elements)

    def strings(prefix: tuple):
        if len(prefix) == n:
            yield prefix
            return
        for block in range(max(prefix, default=-1) + 2):
            yield from strings(prefix + (block,))

    partitions, shapes = [], set()
    for growth in strings(()):
        blocks = [[i for i in range(n) if growth[i] == b] for b in range(max(growth) + 1)]
        shape = tuple(sorted(tuple(sorted(repr(elements[i]) for i in block)) for block in blocks))
        if shape not in shapes:
            shapes.add(shape)
            partitions.append(blocks)
    return partitions


def product_oracle(factories: list):
    """Tuples in itertools.product order over the iterables factories[k](),
    by plain recursion: each later factory is called again for every
    combination of the items before it, and nothing is kept."""
    if not factories:
        yield ()
        return
    for item in factories[0]():
        for rest in product_oracle(factories[1:]):
            yield (item, *rest)


def expression_variants_oracle(expr) -> list:
    """Every variant of a class expression in the enumerator's order, by
    plain recursion: an intersection gives each first-occurrence ordering of
    itertools.permutations of its operands, times itertools.product of their
    variants."""
    if isinstance(expr, Named):
        return [expr]
    if isinstance(expr, Existential):
        return [Existential(expr.prop, v) for v in expression_variants_oracle(expr.filler)]
    if isinstance(expr, Intersection):
        return [Intersection(combo) for combo in _ordered_variants_oracle(expr.operands)]
    raise TypeError(expr)


def _ordered_variants_oracle(operands) -> list:
    return [
        combo
        for perm in distinct_permutations_oracle(operands)
        for combo in itertools.product(*map(expression_variants_oracle, perm))
    ]


def axiom_unit_variants_oracle(axiom) -> list:
    """Every variant of one non-SubClassOf axiom in the enumerator's order,
    each as a one-axiom list: operand orderings and operand variants, a
    ClassAssertion's expression variants, a DisjointUnion's disjunct
    variants in their fixed order."""
    if isinstance(axiom, (EquivalentClasses, DisjointClasses)):
        return [[type(axiom)(combo)] for combo in _ordered_variants_oracle(axiom.operands)]
    if isinstance(axiom, ClassAssertion):
        variants = expression_variants_oracle(axiom.expr)
        return [[ClassAssertion(v, axiom.individual)] for v in variants]
    if isinstance(axiom, DisjointUnion):
        variants = itertools.product(*map(expression_variants_oracle, axiom.disjuncts))
        return [[DisjointUnion(axiom.union_class, combo)] for combo in variants]
    raise TypeError(axiom)


def _super_variants_oracle(block: tuple):
    """Every super one ordered block of conjuncts makes: the conjunct alone,
    or their intersection in block order."""
    for combo in product_oracle([partial(expression_variants_oracle, e) for e in block]):
        yield combo[0] if len(combo) == 1 else Intersection(combo)


def subclass_pool_variants_oracle(sub, axioms: list):
    """The versions of a same-sub SubClassOf pool in the enumerator's order,
    by nested products: per partition and per ordering of its blocks, the
    product of the blocks' supers, each itself the product of its conjuncts'
    variants, and innermost the product of the sub's variants, one per
    block."""
    elements = [c for axiom in axioms for c in conjuncts(axiom.super)]
    yield list(axioms)
    for blocks in evaluate._distinct_partitions(elements):
        orderings = [
            partial(distinct_permutations_oracle, [elements[i] for i in block]) for block in blocks
        ]
        for ordered_blocks in product_oracle(orderings):
            supers = [partial(_super_variants_oracle, block) for block in ordered_blocks]
            for chosen in product_oracle(supers):
                subs = [partial(expression_variants_oracle, sub)] * len(chosen)
                for sub_combo in product_oracle(subs):
                    yield [SubClassOf(s, sup) for s, sup in zip(sub_combo, chosen)]


def equivalent_stream_oracle(axioms: list):
    """The stream of equivalent versions as the enumerator first built it:
    every unit gives all of its variants, repeats included, as axioms by the
    oracles above, each version is serialized axiom by axiom, and a set drops
    the versions met before. Yields each version's texts, as
    evaluate._equivalent_stream does."""
    pools: dict = {}
    units = []
    for axiom in axioms:
        if isinstance(axiom, SubClassOf):
            if axiom.sub not in pools:
                pools[axiom.sub] = []
                units.append(partial(subclass_pool_variants_oracle, axiom.sub, pools[axiom.sub]))
            pools[axiom.sub].append(axiom)
        else:
            units.append(partial(axiom_unit_variants_oracle, axiom))
    seen = set()
    for heads in product_oracle(units):
        texts = [serialize_axiom(axiom) for head in heads for axiom in head]
        key = tuple(sorted(texts))
        if key not in seen:
            seen.add(key)
            yield texts


def normalize_oracle(text: str) -> str:
    """Case-fold, then drop every character whose Unicode category is
    punctuation, one character at a time; collapse whitespace runs."""
    folded = text.casefold()
    kept = "".join(ch for ch in folded if not unicodedata.category(ch).startswith("P"))
    return " ".join(kept.split())


def score_oracle(candidate, reference, cap: int) -> evaluate.SimilarityReport:
    """score_submission by the plain scan: every scanned version normalized
    from scratch, one full similarity matrix and one assignment DP per
    version, no pruning. Each pair is scored by similarity_oracle, looked up
    on this module at call time, so a test that wraps it counts the
    oracle's pairs. The rows hold the stream's texts and serialize_axiom of
    the candidate's axioms."""
    candidate_serialized = [serialize_axiom(ax) for ax in candidate.axioms]
    candidate_texts = [normalize_oracle(text) for text in candidate_serialized]
    scanned, truncated = [], False
    for index, version in enumerate(evaluate._equivalent_stream(list(reference.axioms))):
        if index >= cap:
            truncated = True
            break
        version_texts = [normalize_oracle(text) for text in version]
        if Counter(version_texts) <= Counter(candidate_texts):
            unused: dict = {}
            for j, text in enumerate(candidate_texts):
                unused.setdefault(text, []).append(j)
            per_axiom = [
                evaluate.AxiomScore(text, candidate_serialized[unused[normal].pop(0)], 1.0)
                for text, normal in zip(version, version_texts)
            ]
            return evaluate.SimilarityReport(per_axiom, 1.0, index, truncated)
        scanned.append((version, version_texts))

    pair_cache: dict = {}
    best_mean, best_index, best_detail = -1.0, 0, ([], [], [])
    for index, (version, version_texts) in enumerate(scanned):
        matrix = []
        for reference_text in version_texts:
            for candidate_text in candidate_texts:
                key = (reference_text, candidate_text)
                if key not in pair_cache:
                    pair_cache[key] = similarity_oracle(candidate_text, reference_text)
            matrix.append([pair_cache[(reference_text, c)] for c in candidate_texts])
        mean, chosen = _assignment_dp(matrix, len(candidate_texts))
        if mean > best_mean:
            best_mean, best_index, best_detail = mean, index, (version, version_texts, chosen)

    version, version_texts, chosen = best_detail
    per_axiom = []
    for i, text in enumerate(version):
        j = chosen[i] if i < len(chosen) else None
        matched = candidate_serialized[j] if j is not None else ""
        score = pair_cache[(version_texts[i], candidate_texts[j])] if j is not None else 0.0
        per_axiom.append(evaluate.AxiomScore(text, matched, score))
    return evaluate.SimilarityReport(per_axiom, max(best_mean, 0.0), best_index, truncated)


def _assignment_dp(matrix: list, m: int) -> tuple:
    """The bitmask assignment DP and its traceback, step for step as the
    scorer runs them, float-equality traceback included: (mean, chosen)."""
    n = len(matrix)
    if n == 0:
        return 1.0, []
    neg = float("-inf")
    best = [[neg] * (1 << m) for _ in range(n + 1)]
    best[0][0] = 0.0
    for i in range(n):
        for mask in range(1 << m):
            base = best[i][mask]
            if base == neg:
                continue
            best[i + 1][mask] = max(best[i + 1][mask], base)
            for j in range(m):
                if not mask & (1 << j):
                    value = base + matrix[i][j]
                    if value > best[i + 1][mask | (1 << j)]:
                        best[i + 1][mask | (1 << j)] = value
    total, mask = max((v, mask) for mask, v in enumerate(best[n]))
    chosen: list = [None] * n
    remaining = total
    for i in range(n - 1, -1, -1):
        if best[i][mask] == remaining:
            continue
        for j in range(m):
            if mask & (1 << j) and best[i][mask ^ (1 << j)] + matrix[i][j] == remaining:
                chosen[i], mask, remaining = j, mask ^ (1 << j), remaining - matrix[i][j]
                break
    return total / n, chosen
