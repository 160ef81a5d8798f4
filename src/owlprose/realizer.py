"""Surface realization: walk the discourse tree, aggregate shared-subject
statements, fill the sentence templates, and insert articles.

realize walks the planned tree once, block by block and leaf by leaf in plan
order, and hands each leaf to the template function its label names in
``_TEMPLATES``. The members clause trails its block: the builder holds it
until the block ends and then merges it onto the block's last sentence. Each
template records the group of the classified axioms it realizes, so record
labels come from the classifier (and from the planner's Scr-to-Sc fold).

The template catalogue, with F the described class; the leaves hold the
frame's own axioms, with F on either side:

  kind-of        "{F} is a kind of {o1, o2 and o3}." (conjuncts of each super)
  specialised    "A more specialised kind of {F} is {z}." /
                 "More specialised kinds of {F} are {z1 and z2}."
  defined-as     ", and {F} is defined as {list}." merged onto the previous
                 simple sentence, else standalone; the list is the operands
                 without the first occurrence of F.
  different-from "Also {F} is different from {list}." (listed alike)
  complex opener "Additionally, " on the block's first sentence when simple
                 text precedes it.
  complex kind-of "{F} is a kind of {expression}."
  complex defined "{F} is defined as {expression}." or ", and is defined as
                 {expression}." merged after a complex kind-of sentence.
  members        ", and has members {n1, n2 and n3}." merged, else
                 "{F} has members ...".
  indirect       "Another relevant aspect of {F} is that {sentence}." for one
                 axiom; "Other relevant aspects of {F} are:" plus bullets for
                 several, each re-expressed from its own subject.

Articles come from the lexicon and are positional: subjects, defined-as
objects, "is X" clauses and existential fillers take an article when the
lexicon provides one; kind-of objects and the specialised-kind slots stay
bare. Names without a lexicon entry fall back to the raw id without the
leading colon.
"""

from __future__ import annotations

from .model import (
    Existential,
    Intersection,
    Named,
    SubClassOf,
    _Record,
    _Value,
    conjuncts,
    expressions_of,
)
from .planner import RstNode


class RealizeOptions(_Value):
    __slots__ = ("elide_rolegroup", "guess_articles")

    def __init__(self, elide_rolegroup: bool = False, guess_articles: bool = False):
        object.__setattr__(self, "elide_rolegroup", elide_rolegroup)
        object.__setattr__(self, "guess_articles", guess_articles)


class Paragraph(_Record):
    """Finalized sentences plus an optional trailing bulleted list.

    records pairs each emitted unit with the group labels it came from
    (merged sentences carry joined labels, e.g. "Scr+Ecr").
    """

    def __init__(
        self, sentences=None, bullet_header: str | None = None, bullets=None, records=None
    ):
        self.sentences = [] if sentences is None else sentences
        self.bullet_header = bullet_header
        self.bullets = [] if bullets is None else bullets
        self.records = [] if records is None else records

    @property
    def text(self) -> str:
        parts = list(self.sentences)
        if self.bullet_header:
            parts.append(self.bullet_header)
        body = " ".join(parts)
        if self.bullets:
            marked = [f"- {b};" for b in self.bullets[:-1]]
            marked.append(f"- {self.bullets[-1]}.")
            body = body + "\n" + "\n".join(marked)
        return body


def _sentence_case(text: str) -> str:
    """Upper-case the first letter or digit, so a leading digit leaves the text as it is."""
    for i, ch in enumerate(text):
        if ch.isalnum():
            return text[:i] + ch.upper() + text[i + 1 :]
    return text


def comma_and(items: list[str]) -> str:
    """Join objects the way aggregation does: "a", "a and b", "a, b and c"."""
    if not items:
        return ""
    if len(items) == 1:
        return items[0]
    return ", ".join(items[:-1]) + " and " + items[-1]


class _Renderer:
    """Expression rendering against one lexicon + option set."""

    def __init__(self, lexicon: dict, options: RealizeOptions):
        self.lexicon = lexicon
        self.options = options

    def name_of(self, id_: str) -> str:
        entry = self.lexicon.get(id_)
        if entry is not None:
            return entry.preferred_name
        return id_.lstrip(":")

    def article_of(self, id_: str) -> str | None:
        entry = self.lexicon.get(id_)
        if entry is not None and entry.article:
            return entry.article
        if self.options.guess_articles:
            name = self.name_of(id_)
            return "an" if name[:1].lower() in "aeiou" else "a"
        return None

    def property_phrase(self, prop: str) -> str:
        entry = self.lexicon.get(prop)
        if entry is None:
            return prop.lstrip(":")
        return entry.property_phrase or entry.preferred_name

    def _joiner(self, prop: str, phrase: str) -> str:
        entry = self.lexicon.get(prop)
        if entry is not None and entry.joiner:
            return f" {entry.joiner} "
        if phrase == "has" or phrase.startswith("has "):
            return " in "
        return " "

    def _elided(self, expr: Existential) -> bool:
        return (
            self.options.elide_rolegroup
            and expr.prop.lstrip(":").lower() == "rolegroup"
        )

    def np(self, expr, articled: bool) -> str:
        """Noun-phrase rendering. The articled flag applies to named heads and
        list items; clauses and existential fillers article themselves."""
        if isinstance(expr, Named):
            name = self.name_of(expr.iri)
            if articled:
                article = self.article_of(expr.iri)
                if article:
                    return f"{article} {name}"
            return name
        if isinstance(expr, Intersection):
            if all(isinstance(op, Named) for op in expr.operands):
                return comma_and([self.np(op, articled) for op in expr.operands])
            head, rest = expr.operands[0], expr.operands[1:]
            if isinstance(head, Named):
                return f"{self.np(head, articled)} that {self.clauses(rest)}"
            return f"something that {self.clauses(expr.operands)}"
        if isinstance(expr, Existential):
            if self._elided(expr):
                return self.np(expr.filler, articled)
            return self.exist_phrase(expr)
        raise TypeError(f"not a class expression: {expr!r}")

    def exist_phrase(self, expr: Existential) -> str:
        phrase = self.property_phrase(expr.prop)
        joiner = self._joiner(expr.prop, phrase)
        return f"{phrase}{joiner}{self.np(expr.filler, articled=True)}"

    def clause(self, expr) -> str:
        """Render one conjunct as a clause hanging off "that"."""
        if isinstance(expr, Existential):
            if self._elided(expr):
                return self.clause(expr.filler)
            return self.exist_phrase(expr)
        return f"is {self.np(expr, articled=True)}"

    def clauses(self, operands) -> str:
        return ", and ".join(self.clause(op) for op in operands)


class _ParagraphBuilder:
    """The sentences of one class's paragraph, collected block by block."""

    def __init__(self, renderer: _Renderer, designated: str):
        self.renderer = renderer
        self.described = Named(designated)
        self.subject = renderer.np(self.described, articled=True)
        self.bare = renderer.np(self.described, articled=False)
        self.bodies: list[list] = []  # [labels, body] pairs
        self.block_start = 0
        self.trailing: list[tuple[str, str]] = []  # (group, clause) held to the block's end
        self.embedded: list[tuple[str, str]] = []  # (group, sentence) per indirect axiom

    def sentence(self, label: str, body: str):
        self.bodies.append([[label], body])

    def merge_or_sentence(self, label: str, clause: str, body: str):
        """Merge the clause onto this block's last sentence, else let the
        body stand alone."""
        if len(self.bodies) > self.block_start:
            self.bodies[-1][0].append(label)
            self.bodies[-1][1] += f", and {clause}"
        else:
            self.sentence(label, body)

    def end_block(self, connector: str | None):
        """Merge the held clauses onto the block's last sentence, open the
        block with its connector, and start the next block after it."""
        for group, clause in self.trailing:
            self.merge_or_sentence(group, clause, f"{self.subject} {clause}")
        self.trailing.clear()
        if connector and len(self.bodies) > self.block_start:
            first = self.bodies[self.block_start]
            first[1] = f"{connector.lower()}, {first[1]}"
        self.block_start = len(self.bodies)

    def paragraph(self) -> Paragraph:
        """Finalize the sentences; several indirect axioms become bullets."""
        paragraph = Paragraph()
        if len(self.embedded) == 1:
            group, body = self.embedded[0]
            self.sentence(group, f"another relevant aspect of {self.bare} is that {body}")
        for labels, body in self.bodies:
            text = _sentence_case(body) + "."
            paragraph.sentences.append(text)
            paragraph.records.append(("+".join(labels), text))
        if len(self.embedded) > 1:
            paragraph.bullet_header = _sentence_case(f"other relevant aspects of {self.bare} are:")
            paragraph.records.append(("Indirect", paragraph.bullet_header))
            for group, body in self.embedded:
                paragraph.bullets.append(_sentence_case(body))
                paragraph.records.append((group, paragraph.bullets[-1]))
        return paragraph


def _rest(p: _ParagraphBuilder, axiom) -> tuple:
    """The axiom's operands minus the first occurrence of the described class."""
    i = axiom.operands.index(p.described)
    return axiom.operands[:i] + axiom.operands[i + 1 :]


def _others(p: _ParagraphBuilder, leaf: RstNode) -> str:
    """The leaf's operands besides the described class, deduplicated, articled
    and joined."""
    operands = dict.fromkeys(op for ca in leaf.axioms for op in _rest(p, ca.axiom))
    return comma_and([p.renderer.np(op, articled=True) for op in operands])


def _sc_super(p: _ParagraphBuilder, leaf: RstNode):
    supers = dict.fromkeys(c for ca in leaf.axioms for c in conjuncts(ca.axiom.super))
    objects = comma_and([p.renderer.np(expr, articled=False) for expr in supers])
    p.sentence(leaf.axioms[0].group, f"{p.subject} is a kind of {objects}")


def _sc_specialised(p: _ParagraphBuilder, leaf: RstNode):
    subs = dict.fromkeys(ca.axiom.sub for ca in leaf.axioms)
    objects = comma_and([p.renderer.np(expr, articled=False) for expr in subs])
    if len(subs) == 1:
        p.sentence(leaf.axioms[0].group, f"a more specialised kind of {p.bare} is {objects}")
    else:
        p.sentence(leaf.axioms[0].group, f"more specialised kinds of {p.bare} are {objects}")


def _ec(p: _ParagraphBuilder, leaf: RstNode):
    body = f"{p.subject} is defined as {_others(p, leaf)}"
    p.merge_or_sentence(leaf.axioms[0].group, body, body)


def _dc(p: _ParagraphBuilder, leaf: RstNode):
    p.sentence(leaf.axioms[0].group, f"also {p.subject} is different from {_others(p, leaf)}")


def _ca(p: _ParagraphBuilder, leaf: RstNode):
    individuals = dict.fromkeys(ca.axiom.individual for ca in leaf.axioms)
    names = comma_and([p.renderer.name_of(i) for i in individuals])
    p.trailing.append((leaf.axioms[0].group, f"has members {names}"))


def _scr(p: _ParagraphBuilder, leaf: RstNode):
    for ca in leaf.axioms:
        super_np = p.renderer.np(ca.axiom.super, articled=False)
        p.sentence(ca.group, f"{p.subject} is a kind of {super_np}")


def _ecr(p: _ParagraphBuilder, leaf: RstNode):
    for ca in leaf.axioms:
        objects = [p.renderer.np(op, articled=True) for op in _rest(p, ca.axiom)]
        clause = f"is defined as {comma_and(objects)}"
        p.merge_or_sentence(ca.group, clause, f"{p.subject} {clause}")


def _indirect(p: _ParagraphBuilder, leaf: RstNode):
    ca = leaf.axioms[0]
    p.embedded.append((ca.group, _embedded_sentence(p.renderer, ca.axiom)))


_TEMPLATES = {
    "sc-super": _sc_super,
    "sc-specialised": _sc_specialised,
    "ec": _ec,
    "dc": _dc,
    "ca": _ca,
    "scr": _scr,
    "ecr": _ecr,
    "indirect-scr": _indirect,
    "indirect-ecr": _indirect,
}


def realize(tree: RstNode, lexicon: dict, options: RealizeOptions | None = None) -> Paragraph:
    """Turn a planned tree into a paragraph. Deterministic and total: every
    leaf contributes text, and an empty tree gives an empty paragraph."""
    builder = _ParagraphBuilder(_Renderer(lexicon, options or RealizeOptions()), tree.designated)
    for block in tree.children:
        for leaf in block.children:
            _TEMPLATES[leaf.label](builder, leaf)
        builder.end_block(block.connector)
    return builder.paragraph()


def _embedded_sentence(renderer: _Renderer, axiom) -> str:
    """An indirect axiom (Scr2 or Ecr2) re-expressed from its own subject's
    perspective. Each operand is rendered once, in the form its branch uses."""
    subject, *rest = expressions_of(axiom)
    subject_text = renderer.np(subject, articled=True)
    if isinstance(axiom, SubClassOf) and not isinstance(axiom.super, Intersection):
        return f"{subject_text} is a kind of {renderer.np(axiom.super, articled=False)}"
    defined = comma_and([renderer.np(expr, articled=True) for expr in rest])
    return f"{subject_text} is defined as {defined}"
