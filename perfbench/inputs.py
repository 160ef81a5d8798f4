"""Seeded inputs for the benchmark workloads.

Everything here is a pure function of the seed: the same seed gives the same
ontology text, lexicon text and evaluation cases, byte for byte. The axioms
come from the generators in ``tests/genutil.py`` (imported, not copied), run
at a larger scale; this module only adds lexicons, declarations and the
re-coding variants the evaluation workload scores.

A small seeded share of the classes is left undeclared in every generated
ontology, so the parser's auto-declare path runs on every workload.
"""

from __future__ import annotations

import json
import pathlib
import random

import genutil
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
    expressions_of,
)
from owlprose.parser import serialize_axiom

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"

UNDECLARED_SHARE = 0.03

_ADJECTIVES = (
    "abdominal", "acute", "benign", "chronic", "cranial", "dorsal", "essential",
    "lateral", "lower", "medial", "minor", "open", "pelvic", "renal", "upper",
    "vascular",
)
_NOUNS = (
    "artery", "disorder", "finding", "graft", "lesion", "material", "procedure",
    "region", "settlement", "structure", "system", "tissue", "town", "village",
)
_PROPERTIES = (
    ("has part", None), ("located in", None), ("has site", "in"),
    ("caused by", None), ("part of", None), ("has method", "of"),
)


def _class_name(rng: random.Random) -> str:
    return f"{rng.choice(_ADJECTIVES)} {rng.choice(_NOUNS)}"


def lexicon_text(rng: random.Random, classes, props, inds) -> str:
    rows = ["# id\tpreferred name\tarticle\tproperty phrase\tjoiner"]
    for iri in classes:
        rows.append(f"{iri}\t{_class_name(rng)}\t{rng.choice(('a', 'an', 'the', ''))}")
    for iri in props:
        phrase, joiner = rng.choice(_PROPERTIES)
        rows.append(f"{iri}\t{phrase.split()[-1]}\t\t{phrase}\t{joiner or ''}")
    for index, iri in enumerate(inds):
        rows.append(f"{iri}\tspecimen {index}")
    return "\n".join(rows) + "\n"


def ontology_text(classes, props, inds, axioms, undeclared=frozenset()) -> str:
    lines = ["Ontology("]
    lines += [f"  Declaration(Class({c}))" for c in classes if c not in undeclared]
    lines += [f"  Declaration(ObjectProperty({p}))" for p in props]
    lines += [f"  Declaration(NamedIndividual({i}))" for i in inds]
    lines += [f"  {serialize_axiom(ax)}" for ax in axioms]
    lines.append(")")
    return "\n".join(lines) + "\n"


def synthetic_ontology(rng: random.Random, n_classes: int, axioms_per_class: float):
    """(ontology text, lexicon text) for a random ontology of the given size.

    Axioms come from ``genutil.gen_axiom`` over a pool of n_classes classes,
    with properties and individuals scaled to the pool.
    """
    extra = max(3, n_classes // 25)
    classes, props, inds = genutil.make_pools(n_classes, extra, extra)
    axioms = [
        genutil.gen_axiom(rng, classes, props, inds, depth=rng.randint(0, 2))
        for _ in range(round(n_classes * axioms_per_class))
    ]
    hidden = max(1, round(n_classes * UNDECLARED_SHARE))
    undeclared = frozenset(rng.sample(classes, hidden))
    return (
        ontology_text(classes, props, inds, axioms, undeclared),
        lexicon_text(rng, classes, props, inds),
    )


def fixture_manifest() -> dict:
    return json.loads((FIXTURES / "manifest.json").read_text(encoding="utf-8"))


def fixture_texts(entry: dict) -> tuple[str, str]:
    return (
        (FIXTURES / entry["ontology"]).read_text(encoding="utf-8"),
        (FIXTURES / entry["lexicon"]).read_text(encoding="utf-8"),
    )


EXERCISED_FIXTURE = "appendix_01"
_AXIOM_KEYWORDS = ("SubClassOf", "EquivalentClasses", "DisjointClasses", "ClassAssertion",
                   "DisjointUnion")


def fixture_eval_case(name: str = EXERCISED_FIXTURE) -> dict:
    """A fixture against itself less its last axiom, a case whose score goes
    through ``similarity``."""
    entry = fixture_manifest()[name]
    reference, _ = fixture_texts(entry)
    lines = reference.splitlines()
    last = max(i for i, line in enumerate(lines) if line.strip().startswith(_AXIOM_KEYWORDS))
    candidate = "\n".join(lines[:last] + lines[last + 1:]) + "\n"
    return dict(name=f"dropped-{name}", kind="dropped", reference=reference,
                candidate=candidate, designated=entry["designated"], cap=IMPERFECT_CAP)


# ---------------------------------------------------------------------------
# Workload inputs
# ---------------------------------------------------------------------------

LARGE_CLASSES = 500
LARGE_AXIOMS_PER_CLASS = 4


def large_ontology(seed: int) -> tuple[str, str]:
    return synthetic_ontology(
        random.Random(f"large-{seed}"), LARGE_CLASSES, LARGE_AXIOMS_PER_CLASS
    )


SMALL_FILES = 200


def small_corpus(seed: int) -> list[tuple[str, str, str]]:
    """(name, ontology text, lexicon text): the fixtures, then seeded files of
    5 to 20 classes each."""
    rng = random.Random(f"small-{seed}")
    corpus = [(name, *fixture_texts(entry)) for name, entry in fixture_manifest().items()]
    for index in range(SMALL_FILES - len(corpus)):
        n_classes = rng.randint(5, 20)
        corpus.append((f"synthetic_{index:03d}", *synthetic_ontology(rng, n_classes, 1.5)))
    return corpus


def _substitute(expr, old: str, new: str):
    if isinstance(expr, Named):
        return Named(new) if expr.iri == old else expr
    if isinstance(expr, Intersection):
        return Intersection(tuple(_substitute(op, old, new) for op in expr.operands))
    if isinstance(expr, Existential):
        return Existential(expr.prop, _substitute(expr.filler, old, new))
    raise TypeError(expr)


def _substitute_axiom(axiom, old: str, new: str):
    sub = lambda e: _substitute(e, old, new)
    if isinstance(axiom, SubClassOf):
        return SubClassOf(sub(axiom.sub), sub(axiom.super))
    if isinstance(axiom, (EquivalentClasses, DisjointClasses)):
        return type(axiom)(tuple(sub(op) for op in axiom.operands))
    if isinstance(axiom, ClassAssertion):
        return ClassAssertion(sub(axiom.expr), axiom.individual)
    if isinstance(axiom, DisjointUnion):
        union = new if axiom.union_class == old else axiom.union_class
        return DisjointUnion(union, tuple(sub(d) for d in axiom.disjuncts))
    raise TypeError(axiom)


def add_class_ids(expr, out: set):
    """Add every class id in the expression, at any depth, to out."""
    if isinstance(expr, Named):
        out.add(expr.iri)
    elif isinstance(expr, Intersection):
        for operand in expr.operands:
            add_class_ids(operand, out)
    elif isinstance(expr, Existential):
        add_class_ids(expr.filler, out)


def substituted_candidate(rng: random.Random, frame: ClassFrame, classes) -> ClassFrame:
    """The frame with one class id in one seeded axiom replaced by another."""
    axioms = list(frame.axioms)
    index = rng.randrange(len(axioms))
    ids: set = set()
    for expr in expressions_of(axioms[index]):
        add_class_ids(expr, ids)
    old = rng.choice(sorted(ids))
    new = rng.choice([c for c in classes if c != old])
    axioms[index] = _substitute_axiom(axioms[index], old, new)
    return ClassFrame(frame.designated, axioms)


# Caps. Fixtures against themselves match at the first version, so they run
# at the command's default cap. A seeded permuted candidate has a perfect
# version somewhere in the family; when it lies past the cap the case is
# scored like an imperfect one, so the cap bounds that tail. Imperfect
# candidates score every scanned version, so they run at a small cap.
PERFECT_CAP = 10_000
PERMUTED_CAP = 20
IMPERFECT_CAP = 10
WIDE_CONJUNCTS = (9, 10, 11)
# More references than one run reaches: the loop walks them in order, so a
# run samples as many distinct cases as its time allows.
EVAL_REFERENCES = 1500


def _frame_texts(frame: ClassFrame) -> str:
    classes, props, inds = genutil.make_pools()
    return ontology_text(classes + [genutil.DESIGNATED], props, inds, frame.axioms)


def fixed_eval_cases() -> list[dict]:
    """Cases that do not depend on the seed: each fixture against itself, and
    one SubClassOf over 9, 10 or 11 conjuncts against its reversal, at cap 1."""
    cases = []
    for name, entry in fixture_manifest().items():
        text, _ = fixture_texts(entry)
        cases.append(dict(name=f"self-{name}", kind="self", reference=text,
                          candidate=text, designated=entry["designated"], cap=PERFECT_CAP))
    for width in WIDE_CONJUNCTS:
        conjuncts = tuple(Named(f":W{i}") for i in range(width))
        axiom = SubClassOf(Named(genutil.DESIGNATED), Intersection(conjuncts))
        reversed_axiom = SubClassOf(axiom.sub, Intersection(conjuncts[::-1]))
        ids = [genutil.DESIGNATED] + [c.iri for c in conjuncts]
        cases.append(dict(name=f"wide-{width:02d}", kind="wide",
                          reference=ontology_text(ids, [], [], [axiom]),
                          candidate=ontology_text(ids, [], [], [reversed_axiom]),
                          designated=genutil.DESIGNATED, cap=1))
    return cases


def seeded_eval_cases(seed: int) -> list[dict]:
    """Seeded references of 3 to 8 axioms (sizes in rotation), each against
    its conjunct-permuted rewrite; one in eight also with one axiom dropped
    and one in eight with one class id substituted."""
    cases = []
    rng = random.Random(f"eval-{seed}")
    pool = genutil.make_pools()[0] + [genutil.DESIGNATED]
    for index in range(EVAL_REFERENCES):
        frame = genutil.gen_frame(rng, n_axioms=3 + index % 6)
        reference = _frame_texts(frame)
        variants = [("permuted", genutil.conjunct_permuted_candidate(frame), PERMUTED_CAP)]
        if index % 8 == 1:
            dropped = list(frame.axioms)
            del dropped[rng.randrange(len(dropped))]
            variants.append(("dropped", ClassFrame(frame.designated, dropped), IMPERFECT_CAP))
        elif index % 8 == 5:
            variants.append(
                ("substituted", substituted_candidate(rng, frame, pool), IMPERFECT_CAP)
            )
        for kind, candidate, cap in variants:
            cases.append(dict(name=f"{kind}-{index:04d}", kind=kind, reference=reference,
                              candidate=_frame_texts(candidate),
                              designated=genutil.DESIGNATED, cap=cap))
    return cases
