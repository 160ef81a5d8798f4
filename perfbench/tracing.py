"""Span recorder for the traced run.

For the length of a traced phase the recorder replaces public functions of
the owlprose modules with wrappers that record one span per call: name,
start, end, parent span and op id. Spans stay in memory and are written out
when the run ends. Calls the package makes to its own functions go through
module globals, so a wrapper installed on a module attribute also sees the
calls that module makes internally (``collect_frame`` reaching ``mentions``,
``score_submission`` reaching ``similarity``). ``mentions`` runs once per
axiom per frame, so it is counted, not spanned.

A name that a later version of the package no longer has is recorded as
missing; every metric that needs it is then reported as missing rather than
crashing the run. ``collect_frame`` and ``frame_groups`` are each wrapped on
two modules, and their metrics go missing only when both bindings are gone.
A self time needs only its own span: it is that span less whatever wrapped
spans ran inside it.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter, defaultdict

# (module, attribute, span name). A span name of None counts calls only.
TARGETS = (
    ("parser", "parse_ontology", "parser.parse_ontology"),
    ("parser", "load_lexicon", "parser.load_lexicon"),
    ("model", "collect_frame", "model.collect_frame"),
    ("survey", "collect_frame", "model.collect_frame"),
    ("model", "mentions", None),
    ("classifier", "classify", "classifier.classify"),
    ("classifier", "frame_groups", "classifier.frame_groups"),
    ("survey", "frame_groups", "classifier.frame_groups"),
    ("planner", "build_rst", "planner.build_rst"),
    ("realizer", "realize", "realizer.realize"),
    ("survey", "survey", "survey.survey"),
    ("survey", "emit_report", "survey.emit_report"),
    ("evaluate", "score_submission", "evaluate.score_submission"),
    ("evaluate", "similarity", "evaluate.similarity"),
    ("evaluate", "normalize", "evaluate.normalize"),
)

OP = "op"


def _text_bytes(doc) -> int:
    text = doc if isinstance(doc, str) else doc.text
    return len(text.encode("utf-8"))


# Names the counters read but do not wrap.
READS = (("planner", "leaves"),)


def _leaf_count(tree) -> int:
    leaves = getattr(importlib.import_module("owlprose.planner"), "leaves", None)
    return len(leaves(tree)) if leaves is not None else 0


# Counters taken from a call's arguments and result, after its span closed.
_AFTER = {
    "parser.parse_ontology": lambda c, a, r: c.update({"parser.bytes": _text_bytes(a[0])}),
    "model.collect_frame": lambda c, a, r: c.update({"model.frame_axioms": len(r.axioms)}),
    "planner.build_rst": lambda c, a, r: c.update({"planner.leaves": _leaf_count(r)}),
    "realizer.realize": lambda c, a, r: c.update(
        {"realizer.sentences": len(r.records), "realizer.chars_out": len(r.text)}
    ),
    "evaluate.score_submission": lambda c, a, r: c.update(
        {"evaluate.truncated_cases": int(r.truncated)}
    ),
    "evaluate.similarity": lambda c, a, r: c.update(
        {"evaluate.similarity_chars": len(a[0]) * len(a[1])}
    ),
}


class Tracer:
    """Spans and counters for one traced run; install() patches, uninstall()
    restores. The owner sets ``op_id`` before each op."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index, op id]
        self.stack: list = []
        self.counts = (Counter(), Counter())  # inside ops, outside them
        self.op_id = -1
        self.missing: set = set()
        self._saved: list = []

    # -- patching -----------------------------------------------------------

    def install(self):
        for module_name, attr in READS:
            if not hasattr(importlib.import_module(f"owlprose.{module_name}"), attr):
                self.missing.add(f"{module_name}.{attr}")
        for module_name, attr, span_name in TARGETS:
            module = importlib.import_module(f"owlprose.{module_name}")
            original = getattr(module, attr, None)
            if original is None:
                self.missing.add(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, original))
            if span_name is None:
                wrapper = self._counting(original, f"{module_name}.{attr}_calls")
            else:
                wrapper = self._spanning(original, span_name, _AFTER.get(span_name))
            setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _counting(self, fn, counter: str):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.bucket()[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _spanning(self, fn, name: str, after):
        tracer = self

        def wrapper(*args, **kwargs):
            record = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(record)
            if after is not None:
                after(tracer.bucket(), args, result)
            return result

        return wrapper

    def bucket(self) -> Counter:
        """The counters for the current phase: inside an op or in set-up."""
        return self.counts[0 if self.op_id >= 0 else 1]

    # -- spans ----------------------------------------------------------------

    def begin(self, name: str) -> list:
        parent = self.stack[-1] if self.stack else -1
        record = [name, time.perf_counter(), 0.0, parent, self.op_id]
        self.stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def end(self, record: list):
        record[2] = time.perf_counter()
        self.stack.pop()

    def mark(self) -> int:
        return len(self.spans)

    def export(self, mark: int) -> dict:
        """Spans recorded since mark plus all counters, for a forked child to
        send back to its parent."""
        return {"spans": self.spans[mark:], "counts": [dict(c) for c in self.counts]}

    def absorb(self, mark: int, exported: dict):
        """Take back what a child forked at mark recorded. The parent records
        nothing while it waits, so the child's span indices stay valid."""
        if len(self.spans) != mark:
            raise RuntimeError("spans were recorded while a child was running")
        self.spans.extend(exported["spans"])
        self.counts = tuple(Counter(c) for c in exported["counts"])

    def write(self, path):
        with open(path, "w", encoding="utf-8") as out:
            for record in self.spans:
                out.write(json.dumps(record) + "\n")

    # -- aggregation ----------------------------------------------------------

    def totals(self):
        """Per span name: (inclusive seconds, self seconds, calls), each split
        into the part inside ops and the part outside them (set-up)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        total = defaultdict(lambda: [0.0, 0.0])
        own = defaultdict(lambda: [0.0, 0.0])
        calls = defaultdict(lambda: [0, 0])
        for index, (name, start, end, parent, op) in enumerate(self.spans):
            where = 0 if op >= 0 else 1
            total[name][where] += end - start
            own[name][where] += end - start - child_time[index]
            calls[name][where] += 1
        return total, own, calls


def _time(span: str):
    return lambda view: view.time(span)


def _own(span: str):
    return lambda view: view.own(span)


def _calls(span: str):
    return lambda view: view.calls(span)


def _count(counter: str):
    return lambda view: view.count(counter)


def _collect_frame_pct(view) -> float:
    return 100.0 * view.ratio(view.time("model.collect_frame", ops_only=True), view.time(OP))


def _bytes_per_s(view) -> float:
    return view.ratio(view.count("parser.bytes"), view.time("parser.parse_ontology"))


def _frame_yield(view) -> float:
    return view.ratio(view.count("model.frame_axioms"), view.count("model.mentions_calls"))


# A need is a wrapped name, or a tuple of names of which any one will do: the
# package reaches collect_frame and frame_groups through two bindings each.
FRAME = ("model.collect_frame", "survey.collect_frame")
GROUPS = ("classifier.frame_groups", "survey.frame_groups")
PARSE = "parser.parse_ontology"
SCORE = "evaluate.score_submission"
SIMILARITY = "evaluate.similarity"

# name: (unit, better, needs, value read from a View)
PER_LAYER = {
    "parser.parse_s": ("s", "lower", (PARSE,), _time("parser.parse_ontology")),
    "parser.bytes_per_s": ("B/s", "higher", (PARSE,), _bytes_per_s),
    "parser.lexicon_s": ("s", "lower", ("parser.load_lexicon",), _time("parser.load_lexicon")),
    "parser.auto_declared": ("count", "lower", (), _count("parser.auto_declared")),
    "model.collect_frame_s": ("s", "lower", (FRAME,), _time("model.collect_frame")),
    "model.collect_frame_calls": ("count", "lower", (FRAME,), _calls("model.collect_frame")),
    "model.collect_frame_pct": ("%", "lower", (FRAME,), _collect_frame_pct),
    "model.mentions_calls": ("count", "lower", ("model.mentions",), _count("model.mentions_calls")),
    "model.frame_yield": ("ratio", "higher", ("model.mentions", FRAME), _frame_yield),
    "classifier.classify_s": ("s", "lower", ("classifier.classify",), _time("classifier.classify")),
    "classifier.classify_calls": ("count", "lower", ("classifier.classify",),
                                  _calls("classifier.classify")),
    "classifier.frame_groups_s": ("s", "lower", (GROUPS,), _time("classifier.frame_groups")),
    "planner.build_rst_s": ("s", "lower", ("planner.build_rst",), _time("planner.build_rst")),
    "planner.leaves": ("count", "higher", ("planner.build_rst", "planner.leaves"),
                       _count("planner.leaves")),
    "realizer.realize_s": ("s", "lower", ("realizer.realize",), _time("realizer.realize")),
    "realizer.sentences": ("count", "higher", ("realizer.realize",), _count("realizer.sentences")),
    "realizer.chars_out": ("count", "higher", ("realizer.realize",), _count("realizer.chars_out")),
    "survey.survey_s": ("s", "lower", ("survey.survey",), _time("survey.survey")),
    "survey.self_s": ("s", "lower", ("survey.survey",), _own("survey.survey")),
    "survey.emit_report_s": ("s", "lower", ("survey.emit_report",), _time("survey.emit_report")),
    "evaluate.score_s": ("s", "lower", (SCORE,), _time("evaluate.score_submission")),
    "evaluate.self_s": ("s", "lower", (SCORE,), _own("evaluate.score_submission")),
    "evaluate.similarity_s": ("s", "lower", (SIMILARITY,), _time("evaluate.similarity")),
    "evaluate.similarity_calls": ("count", "lower", (SIMILARITY,), _calls("evaluate.similarity")),
    "evaluate.similarity_chars": ("count", "lower", (SIMILARITY,),
                                  _count("evaluate.similarity_chars")),
    "evaluate.normalize_s": ("s", "lower", ("evaluate.normalize",), _time("evaluate.normalize")),
    "evaluate.versions": ("count", "lower", (), _count("evaluate.versions")),
    "evaluate.truncated_cases": ("count", "lower", (SCORE,), _count("evaluate.truncated_cases")),
    "evaluate.wide_failures": ("count", "lower", (), _count("evaluate.wide_failures")),
    "evaluate.rows_disagree": ("count", "lower", (), _count("evaluate.rows_disagree")),
}


class View:
    """Per-cycle reading of a tracer: what happened inside ops is divided by
    the number of cycles the traced loop ran; set-up (outside ops) counts once."""

    def __init__(self, tracer: Tracer, cycles: float):
        self.tracer = tracer
        self.cycles = cycles or 1.0
        self._total, self._own, self._calls = tracer.totals()

    def _per_cycle(self, pair) -> float:
        return pair[0] / self.cycles + pair[1]

    def time(self, name: str, ops_only: bool = False) -> float:
        pair = self._total.get(name, (0.0, 0.0))
        return pair[0] / self.cycles if ops_only else self._per_cycle(pair)

    def own(self, name: str) -> float:
        return self._per_cycle(self._own.get(name, (0.0, 0.0)))

    def calls(self, name: str) -> float:
        return self._per_cycle(self._calls.get(name, (0, 0)))

    def count(self, name: str) -> float:
        inside, outside = self.tracer.counts
        return inside.get(name, 0) / self.cycles + outside.get(name, 0)

    @staticmethod
    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0


def _unmet(needs: tuple, missing: set) -> bool:
    """True when some need has none of its names left in the package."""
    return any(
        missing.issuperset((need,) if isinstance(need, str) else need) for need in needs
    )


def layer_metrics(tracer: Tracer, cycles: float) -> dict:
    """Every per-layer metric, None where a name it needs is missing."""
    view = View(tracer, cycles)
    return {
        name: None if _unmet(needs, tracer.missing) else compute(view)
        for name, (_, _, needs, compute) in PER_LAYER.items()
    }
