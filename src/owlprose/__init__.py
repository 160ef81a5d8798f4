"""owlprose: verbalize OWL-EL class descriptions as English paragraphs,
survey axiom patterns over a corpus, and score round-trip re-codings.

The pipeline for one class: parse_ontology + load_lexicon, collect_frame,
classify each frame axiom, build_rst, realize. ``frames`` gives every declared
class's frame from one pass over the axioms, as batch verbalization uses it.
An axiom's group label depends only on the axiom, its directness on the
class, so the survey reads each axiom once, labels it and builds no frames.
The evaluation entry point reuses the same parsed model.
"""

from .classifier import ClassifiedAxiom, classify, frame_groups, pattern_label
from .evaluate import (
    SimilarityReport,
    levenshtein,
    normalize,
    score_submission,
    similarity,
)
from .model import (
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
    collect_frame,
    frames,
)
from .parser import (
    GRAMMAR_VERSION,
    LexiconFormatError,
    ParseError,
    SourceDocument,
    UndeclaredEntity,
    load_lexicon,
    parse_ontology,
    serialize_axiom,
    serialize_expression,
)
from .planner import RstNode, build_rst, leaves, render_debug
from .realizer import Paragraph, RealizeOptions, realize
from .survey import PatternStats, survey

__version__ = "0.1.0"

__all__ = [
    "ClassAssertion",
    "ClassFrame",
    "ClassifiedAxiom",
    "DisjointClasses",
    "DisjointUnion",
    "EquivalentClasses",
    "Existential",
    "GRAMMAR_VERSION",
    "Intersection",
    "LexEntry",
    "LexiconFormatError",
    "Named",
    "Ontology",
    "Paragraph",
    "ParseError",
    "PatternStats",
    "RealizeOptions",
    "RstNode",
    "SimilarityReport",
    "SourceDocument",
    "SubClassOf",
    "UndeclaredEntity",
    "UnknownClass",
    "build_rst",
    "classify",
    "collect_frame",
    "frame_groups",
    "frames",
    "leaves",
    "levenshtein",
    "load_lexicon",
    "normalize",
    "parse_ontology",
    "pattern_label",
    "realize",
    "render_debug",
    "score_submission",
    "serialize_axiom",
    "serialize_expression",
    "similarity",
    "survey",
]
