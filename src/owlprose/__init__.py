"""owlprose: verbalize OWL-EL class descriptions as English paragraphs,
survey axiom patterns over a corpus, and score round-trip re-codings.

The pipeline for one class: parse_ontology + load_lexicon, collect_frame,
classify each frame axiom, build_rst, realize. ``frames`` gives every declared
class's frame from one pass over the axioms, as batch verbalization uses it.
An axiom's group label depends only on the axiom, its directness on the
class, so the survey reads each axiom once, labels it and builds no frames.
The evaluation entry point reuses the same parsed model.

Every public name loads its submodule on first access (PEP 562), so
``import owlprose.parser`` or ``from owlprose import parse_ontology`` loads
the parser and the model only, and each CLI command loads only the modules
it runs. ``owlprose.survey`` is the function ``survey.survey`` whichever
import comes first, as when the package loaded every submodule up front.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

# The most equivalent versions `eval` scans by default: evaluate's and the
# CLI's default, stated here so that the CLI reads it without loading evaluate.
DEFAULT_CAP = 10_000

# Each submodule and the public names the package takes from it.
_EXPORTS = {
    "classifier": ("ClassifiedAxiom", "classify", "frame_groups", "pattern_label"),
    "evaluate": ("SimilarityReport", "levenshtein", "normalize", "score_submission",
                 "similarity"),
    "model": ("ClassAssertion", "ClassFrame", "DisjointClasses", "DisjointUnion",
              "EquivalentClasses", "Existential", "Intersection", "LexEntry", "Named",
              "Ontology", "SubClassOf", "UnknownClass", "collect_frame", "frames"),
    "parser": ("GRAMMAR_VERSION", "LexiconFormatError", "ParseError", "SourceDocument",
               "UndeclaredEntity", "load_lexicon", "parse_ontology", "serialize_axiom",
               "serialize_expression"),
    "planner": ("RstNode", "build_rst", "leaves", "render_debug"),
    "realizer": ("Paragraph", "RealizeOptions", "realize"),
    "survey": ("PatternStats", "survey"),
}

__all__ = sorted(name for names in _EXPORTS.values() for name in names)


def __getattr__(name: str):
    for module, names in _EXPORTS.items():
        if name in names:
            return getattr(importlib.import_module(f".{module}", __name__), name)
    if name in _EXPORTS:  # a submodule: `import owlprose` alone reaches each one
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


class _Package(types.ModuleType):
    """The import system binds each submodule it loads on its package. Where
    the submodule gives the package a name of its own (``survey``), that name
    is bound instead."""

    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, types.ModuleType) and name in _EXPORTS.get(name, ()):
            value = getattr(value, name)
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
