"""Corpus pattern survey: per-class axiom patterns and the frequencies of
communicative roles and groups over a set of ontologies.

A class's pattern is the sorted concatenation of the distinct group labels in
its frame ("EcScScr"); a class with no axioms about it lands under the empty
pattern. Roles bundle the simple and complex variants of a group: taxonomy
(Sc, Scr), definition (Ec, Ecr), distinction (Dc, Dcr), illustration (Ca,
Car) and alternatives (Du). Containment is counted once per class however
many axioms of the group the frame holds.

A group label depends only on the axiom (``classifier.group_of``), so the
survey reads each axiom once: it takes the axiom's label and the class ids it
mentions (``model.class_ids``, the frame rule) and adds the label to the
group set of each declared class among them. It builds no frames.

The report gives every frequency against two denominators, all classes and
classes with a nonempty frame, because either population can be the one of
interest when profiling a corpus.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass, field

from .classifier import group_of
from .model import Ontology, class_ids

ROLES = {
    "taxonomy": frozenset(("Sc", "Scr")),
    "definition": frozenset(("Ec", "Ecr")),
    "distinction": frozenset(("Dc", "Dcr")),
    "illustration": frozenset(("Ca", "Car")),
    "alternatives": frozenset(("Du",)),
}


@dataclass
class PatternStats:
    """Tallies from one survey run."""

    per_pattern: Counter = field(default_factory=Counter)
    total_classes: int = 0
    role_containment: Counter = field(default_factory=Counter)
    group_containment: Counter = field(default_factory=Counter)

    @property
    def nonempty_classes(self) -> int:
        return self.total_classes - self.per_pattern.get("", 0)


def _class_groups(ontology: Ontology) -> Iterable[set]:
    """Each declared class's set of group labels, from one pass over the
    axioms. Mentioned but undeclared ids get no set."""
    groups = {iri: set() for iri in ontology.classes}
    for axiom in ontology.axioms:
        group = group_of(axiom)
        for iri in class_ids(axiom):
            members = groups.get(iri)
            if members is not None:
                members.add(group)
    return groups.values()


def survey(corpus: Iterable[Ontology]) -> PatternStats:
    """Tally the pattern of every declared class in every ontology.

    The corpus may be any iterable, a generator included: each ontology is
    read once, and none is held once its tally is taken."""
    stats = PatternStats()
    # map, not a loop variable, so no ontology is bound while the next is made
    for class_groups in map(_class_groups, corpus):
        for groups in class_groups:
            stats.per_pattern["".join(sorted(groups))] += 1
            stats.total_classes += 1
            stats.group_containment.update(groups)
            for role, members in ROLES.items():
                if groups & members:
                    stats.role_containment[role] += 1
    return stats


def _fraction(numerator: int, denominator: int) -> str:
    return f"{numerator / denominator if denominator else 0.0:.4f}"


def emit_report(stats: PatternStats) -> str:
    """Render the tallies as a three-section CSV.

    Rows are sorted by descending count, ties by label; zero-count rows are
    dropped, so empty stats give the headers alone. The empty pattern keeps
    its literal empty label (a leading comma in its row) and contributes 0 to
    the nonempty column, since none of its classes are nonempty.
    """
    total = stats.total_classes
    nonempty = stats.nonempty_classes
    order = lambda counter: sorted(counter.items(), key=lambda kv: (-kv[1], kv[0]))

    lines = ["pattern,count,fraction,fraction_nonempty"]
    for label, count in order(stats.per_pattern):
        if count:
            among_nonempty = 0 if label == "" else count
            lines.append(
                f"{label},{count},{_fraction(count, total)},{_fraction(among_nonempty, nonempty)}"
            )
    for header, counter in (("role", stats.role_containment), ("group", stats.group_containment)):
        lines += ["", f"{header},fraction,fraction_nonempty"]
        for label, count in order(counter):
            if count:
                lines.append(f"{label},{_fraction(count, total)},{_fraction(count, nonempty)}")
    return "\n".join(lines) + "\n"
