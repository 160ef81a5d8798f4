"""The three workloads, the checks on their outputs, and the closed loop that
times them.

Each workload is driven by one client in a closed loop: an op starts only
after the previous one has finished, and there are no threads. A cycle runs
every op of the workload once; the loop repeats cycles until the run's
seconds are used up, stopping at the end of a cycle, or, for a workload
whose cycle is longer than a run, at the next op. The package is reached
only through the public functions of its modules, looked up on the module
at call time, so the traced run can wrap them.

Every op's output is checked after its timer stopped. A check that fails,
like an op that raises, counts as a failed op and the first one is reported.
"""

from __future__ import annotations

import hashlib
import importlib
import io
import pathlib
import statistics
import time
from collections import Counter, defaultdict, namedtuple
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable

import genutil
import inputs
import sandbox
import tracing
from owlprose.model import (
    ClassAssertion,
    ClassFrame,
    DisjointClasses,
    DisjointUnion,
    EquivalentClasses,
    Named,
    SubClassOf,
)

parser = importlib.import_module("owlprose.parser")
model = importlib.import_module("owlprose.model")
classifier = importlib.import_module("owlprose.classifier")
planner = importlib.import_module("owlprose.planner")
realizer = importlib.import_module("owlprose.realizer")
survey = importlib.import_module("owlprose.survey")
evaluate = importlib.import_module("owlprose.evaluate")
cli = importlib.import_module("owlprose.cli")

# A loop still running after this many seconds stops mid-cycle, so a slow
# commit still ends within the run's time limit.
HARD_STOP_S = 60


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------


def _top_expressions(axiom) -> tuple:
    if isinstance(axiom, SubClassOf):
        return (axiom.sub, axiom.super)
    if isinstance(axiom, (EquivalentClasses, DisjointClasses)):
        return axiom.operands
    if isinstance(axiom, ClassAssertion):
        return (axiom.expr,)
    if isinstance(axiom, DisjointUnion):
        return (Named(axiom.union_class),) + axiom.disjuncts
    raise TypeError(axiom)


def frame_index(axioms) -> dict:
    """Class id -> the axioms mentioning it, in ontology order, built in one
    pass; the reference the checks hold ``collect_frame`` to."""
    index = defaultdict(list)
    for axiom in axioms:
        ids: set = set()
        for expr in _top_expressions(axiom):
            inputs.add_class_ids(expr, ids)
        for iri in ids:
            index[iri].append(axiom)
    return index


@dataclass
class Expected:
    """What a survey of one ontology must report, and each class's frame and
    group labels, all derived from ``frame_index`` and genutil's oracle."""

    frames: dict
    groups: dict
    per_pattern: Counter
    group_containment: Counter
    total: int

    @classmethod
    def of(cls, ontology) -> "Expected":
        frames, groups = {}, {}
        per_pattern, containment = Counter(), Counter()
        index = frame_index(ontology.axioms)
        for class_id in ontology.classes:
            frame = ClassFrame(class_id, index.get(class_id, []))
            labels = [genutil.oracle_group(ax, class_id) for ax in frame.axioms]
            frames[class_id], groups[class_id] = frame.axioms, labels
            per_pattern[genutil.oracle_pattern(frame)] += 1
            containment.update(set(labels))
        return cls(frames, groups, per_pattern, containment, len(ontology.classes))

    def check_survey(self, stats) -> str | None:
        if stats.total_classes != self.total:
            return f"survey counted {stats.total_classes} classes, expected {self.total}"
        if stats.per_pattern != self.per_pattern:
            wrong = (stats.per_pattern - self.per_pattern) + (self.per_pattern - stats.per_pattern)
            return f"survey pattern counts differ from the oracle at {sorted(wrong)[:3]}"
        if stats.group_containment != self.group_containment:
            return "survey group containment differs from the oracle"
        return None

    def check_frame(self, class_id: str, frame, classified) -> str | None:
        if frame.axioms != self.frames[class_id]:
            return (
                f"collect_frame({class_id}) gave {len(frame.axioms)} axioms, "
                f"the index has {len(self.frames[class_id])}"
            )
        labels = [ca.group for ca in classified]
        if labels != self.groups[class_id]:
            return f"classify({class_id}) gave {labels}, the oracle {self.groups[class_id]}"
        return None


def collapse(text: str) -> str:
    return " ".join(text.split())


# ---------------------------------------------------------------------------
# The closed loop
# ---------------------------------------------------------------------------


@dataclass
class Op:
    key: str
    run: Callable[[], tuple]  # -> (output text, detail for the check)
    check: Callable[[object], str | None]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


# The machine the benchmark was tuned on shares its CPUs with other tenants,
# and its speed drifts by a quarter to a half over minutes, far more than a
# regression bound. Between ops, every CALIBRATE_EVERY_S of op time, the loop
# times a fixed piece of pure-Python work that owlprose cannot change; times
# are reported scaled to the speed at which that work takes REFERENCE_S.
CALIBRATE_EVERY_S = 0.1
REFERENCE_S = 0.0035
_Pair = namedtuple("_Pair", "key value")


def calibration_seconds() -> float:
    """Seconds this process takes for a fixed mix of the operations owlprose
    spends its time in: small objects, dict lookups, string building, calls."""
    start = time.perf_counter()

    def fib(n):
        return n if n < 2 else fib(n - 1) + fib(n - 2)

    table, lines = {}, []
    for i in range(3000):
        pair = _Pair(f"k{i % 97}", i)
        table[pair.key] = table.get(pair.key, 0) + pair.value
        lines.append(" ".join((pair.key, str(pair.value))))
    fib(14)
    sorted(lines)
    return time.perf_counter() - start


class Loop:
    """One client running ops back to back, timing each, then checking it.

    ``expected`` maps op keys to output digests recorded at the seed commit;
    when ``complete`` every op must have one.
    """

    def __init__(self, expected: dict, complete: bool, tracer: tracing.Tracer | None = None):
        self.expected = expected
        self.complete = complete
        self.tracer = tracer
        self.samples: list = []  # (key, seconds)
        self.cycles = 0.0
        self.attempted = 0
        self.failures: list = []  # (key, message)
        self.texts: dict = {}
        self._seen: dict = {}
        self.calibrations: list = []
        self._busy = self._calibrated_at = 0.0

    def run_op(self, op: Op):
        if self._busy - self._calibrated_at >= CALIBRATE_EVERY_S or not self.calibrations:
            self.calibrations.append(calibration_seconds())
            self._calibrated_at = self._busy
        self.attempted += 1
        tracer = self.tracer
        if tracer is not None:
            tracer.op_id = self.attempted
            span = tracer.begin(tracing.OP)
        start = time.perf_counter()
        try:
            text, detail = op.run()
            error = None
        except Exception as exc:  # a failed op, counted; the loop goes on
            error = f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.end(span)
            tracer.op_id = -1
        self.samples.append((op.key, elapsed))
        self._busy += elapsed
        if error is None:
            error = op.check(detail) or self._check_text(op.key, text)
        if error is not None:
            self.failures.append((op.key, error))

    def _check_text(self, key: str, text: str) -> str | None:
        self.texts[key] = text
        seen = digest(text)
        if self._seen.setdefault(key, seen) != seen:
            return "output differs from the previous cycle"
        recorded = self.expected.get(key)
        if recorded is None and self.complete:
            return "no digest recorded for this op"
        if recorded is not None and recorded != seen:
            return f"output digest {seen} differs from the recorded {recorded}"
        return None

    def run_cycles(self, ops: list, seconds: float, whole_cycles: bool = True):
        """Cycle through ops until seconds have passed: at the end of a cycle,
        or at any op when not whole_cycles."""
        start = time.perf_counter()
        limit = seconds if not whole_cycles else HARD_STOP_S
        while True:
            done = 0
            for op in ops:
                self.run_op(op)
                done += 1
                if time.perf_counter() - start > limit:
                    break
            self.cycles += done / len(ops)
            elapsed = time.perf_counter() - start
            if elapsed >= seconds or elapsed > HARD_STOP_S:
                return

    @property
    def slowdown(self) -> float:
        """How much slower than the reference speed the machine ran the loop."""
        return statistics.mean(self.calibrations) / REFERENCE_S

    @property
    def latencies(self) -> list:
        """Op latencies in seconds at the reference speed."""
        slowdown = self.slowdown
        return [seconds / slowdown for _, seconds in self.samples]

    def latency_of(self, key: str) -> list:
        slowdown = self.slowdown
        return [seconds / slowdown for k, seconds in self.samples if k == key]

    @property
    def ops_per_s(self) -> float:
        """Ops per second inside ops, at the reference speed."""
        return self.attempted / sum(self.latencies)


def percentile(values: list, fraction: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


BLOCK_OPS = 100
MAX_BLOCKS = 10


def blocked_percentile(latencies: list, fraction: float) -> tuple[float, int]:
    """(the percentile of each run of consecutive ops, averaged over the runs;
    the number of runs).

    The machine this was tuned on runs fast and slow for seconds at a time.
    Where ops cost about the same, a percentile of the whole run lands on
    the edge between those phases and jumps from run to run; averaging it
    over consecutive blocks of at least 100 ops (so a p90 has at least ten
    samples beyond it) weighs the phases by their time instead.
    """
    blocks = max(1, min(MAX_BLOCKS, len(latencies) // BLOCK_OPS))
    size = len(latencies) // blocks
    values = [percentile(latencies[i * size:(i + 1) * size], fraction) for i in range(blocks)]
    return sum(values) / blocks, blocks


# ---------------------------------------------------------------------------
# Shared pipeline steps, as the CLI composes them
# ---------------------------------------------------------------------------


def verbalize(ontology, lexicon, class_id: str, options):
    """collect_frame, classify each axiom, build_rst, realize: cmd_verbalize
    for one class."""
    frame = model.collect_frame(ontology, class_id)
    classified = [classifier.classify(axiom, class_id) for axiom in frame.axioms]
    tree = planner.build_rst(frame, classified)
    return realizer.realize(tree, lexicon, options).text, frame, classified


def batch_text(paragraphs: list) -> str:
    """What ``verbalize --class all`` prints for (id, paragraph) pairs."""
    return "\n\n".join(f"{class_id}\n{text}" for class_id, text in paragraphs) + "\n"


def verbalize_all_argv(ontology_path, lexicon_path) -> list:
    return ["verbalize", "--ontology", str(ontology_path), "--lexicon", str(lexicon_path),
            "--class", "all"]


def read_doc(path) -> object:
    return parser.SourceDocument.from_path(path)


def run_cli(argv: list) -> tuple[float, str]:
    """One in-process ``owlprose`` command: (seconds, stdout). Its stderr
    notes are dropped."""
    buffer = io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(buffer), redirect_stderr(io.StringIO()):
        status = cli.main(argv)
    elapsed = time.perf_counter() - start
    if status != 0:
        raise RuntimeError(f"owlprose {argv[0]} exited with status {status}")
    return elapsed, buffer.getvalue()


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def exercise_every_layer(case: dict):
    """Each layer once on a fixture, so that a traced run records every layer
    whatever its workload: parse an ontology and its lexicon, verbalize the
    designated class, survey, and score an imperfect re-coding."""
    entry = inputs.fixture_manifest()[inputs.EXERCISED_FIXTURE]
    ontology = parser.parse_ontology(read_doc(inputs.FIXTURES / entry["ontology"]))
    lexicon = parser.load_lexicon(read_doc(inputs.FIXTURES / entry["lexicon"]))
    verbalize(ontology, lexicon, entry["designated"], realizer.RealizeOptions())
    survey.emit_report(survey.survey([ontology]))
    score_case(case)


class Workload:
    """Inputs made from the seed, what is read once at set-up, the ops of one
    cycle, and the CLI commands whose output equals the library's."""

    name = ""
    whole_cycles = True

    def __init__(self, seed: int, workdir: pathlib.Path):
        self.seed = seed
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        self.tracer: tracing.Tracer | None = None
        self.child_peak_mb = 0.0
        self.notes: list = []
        self.fixture_case = inputs.fixture_eval_case()
        self.fixture_candidate = workdir / "fixture-candidate.ofs"
        self.fixture_candidate.write_text(self.fixture_case["candidate"], encoding="utf-8")

    def setup_files(self) -> list:
        """Paths the workload reads once at set-up: [] or [ontology, lexicon]."""
        return []

    def setup(self):
        """Read and parse what is read once; this is timed by the set-up probe."""

    def finish(self, loop: Loop):
        """Work after the timed loop."""

    def traced_ops(self) -> list:
        """The cycle of a traced run, repeated whole so that per-layer figures
        can be given per cycle."""
        return self.ops()

    def cli_commands(self, loop: Loop) -> dict:
        """cli metric -> (argv, the stdout the library gives for the same
        input). A command the workload does not cover runs on a fixture."""
        entry = inputs.fixture_manifest()[inputs.EXERCISED_FIXTURE]
        ontology_path = inputs.FIXTURES / entry["ontology"]
        lexicon_path = inputs.FIXTURES / entry["lexicon"]
        ontology = parser.parse_ontology(read_doc(ontology_path))
        lexicon = parser.load_lexicon(read_doc(lexicon_path))
        options = realizer.RealizeOptions()
        paragraphs = [(c, verbalize(ontology, lexicon, c, options)[0])
                      for c in sorted(ontology.classes)]
        corpus = [parser.parse_ontology(read_doc(p)) for p in inputs.FIXTURES.glob("*.ofs")]
        case = self.fixture_case
        return {
            "cli.verbalize_s": (
                verbalize_all_argv(ontology_path, lexicon_path), batch_text(paragraphs),
            ),
            "cli.survey_s": (
                ["survey", str(inputs.FIXTURES)], survey.emit_report(survey.survey(corpus))
            ),
            "cli.eval_s": (
                ["eval", "--reference", str(ontology_path), "--candidate",
                 str(self.fixture_candidate), "--class", case["designated"],
                 "--cap", str(case["cap"])],
                score_case(case)[0],
            ),
        }


class LargeOntology(Workload):
    """One large seeded ontology, parsed at set-up. A cycle verbalizes every
    class in sorted order, then surveys the whole ontology."""

    name = "large-ontology"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        ontology_text, lexicon_text = inputs.large_ontology(seed)
        (workdir / "onto").mkdir(exist_ok=True)
        self.ontology_path = workdir / "onto" / "large.ofs"
        self.lexicon_path = workdir / "large.tsv"
        self.ontology_path.write_text(ontology_text, encoding="utf-8")
        self.lexicon_path.write_text(lexicon_text, encoding="utf-8")

    def setup_files(self):
        return [self.ontology_path, self.lexicon_path]

    def setup(self):
        self.ontology = parser.parse_ontology(read_doc(self.ontology_path))
        self.lexicon = parser.load_lexicon(read_doc(self.lexicon_path))

    def ops(self) -> list:
        expected = Expected.of(self.ontology)
        self.class_ids = sorted(self.ontology.classes)
        options = realizer.RealizeOptions()
        ops = []
        for class_id in self.class_ids:
            def run(class_id=class_id):
                text, frame, classified = verbalize(self.ontology, self.lexicon, class_id, options)
                return text, (class_id, frame, classified)

            ops.append(Op(f"class {class_id}", run, lambda d: expected.check_frame(*d)))

        def run_survey():
            stats = survey.survey([self.ontology])
            return survey.emit_report(stats), stats

        ops.append(Op("survey", run_survey, expected.check_survey))
        return ops

    def cli_commands(self, loop):
        paragraphs = [(c, loop.texts[f"class {c}"]) for c in self.class_ids]
        commands = super().cli_commands(loop)
        commands["cli.verbalize_s"] = (
            verbalize_all_argv(self.ontology_path, self.lexicon_path), batch_text(paragraphs),
        )
        commands["cli.survey_s"] = (
            ["survey", str(self.ontology_path.parent)], loop.texts["survey"]
        )
        return commands


class SmallCorpus(Workload):
    """The fixtures plus seeded ontologies of 5 to 20 classes. An op handles
    one file: parse it and its lexicon, survey it, verbalize every class."""

    name = "small-corpus"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.manifest = inputs.fixture_manifest()
        corpus_dir, lexicon_dir = workdir / "corpus", workdir / "lexicons"
        corpus_dir.mkdir(exist_ok=True)
        lexicon_dir.mkdir(exist_ok=True)
        self.files = []
        for name, ontology_text, lexicon_text in inputs.small_corpus(seed):
            paths = (corpus_dir / f"{name}.ofs", lexicon_dir / f"{name}.tsv")
            paths[0].write_text(ontology_text, encoding="utf-8")
            paths[1].write_text(lexicon_text, encoding="utf-8")
            self.files.append((name, *paths))
        self.corpus_dir = corpus_dir

    def _run_file(self, ontology_path, lexicon_path, options):
        ontology = parser.parse_ontology(read_doc(ontology_path))
        lexicon = parser.load_lexicon(read_doc(lexicon_path))
        stats = survey.survey([ontology])
        report = survey.emit_report(stats)
        paragraphs, frames = [], []
        for class_id in sorted(ontology.classes):
            text, frame, classified = verbalize(ontology, lexicon, class_id, options)
            paragraphs.append((class_id, text))
            frames.append((class_id, frame, classified))
        return report, stats, paragraphs, frames

    def ops(self) -> list:
        ops = []
        for name, ontology_path, lexicon_path in self.files:
            ontology = parser.parse_ontology(read_doc(ontology_path))
            expected = Expected.of(ontology)
            entry = self.manifest.get(name)
            options = realizer.RealizeOptions(**(entry["flags"] if entry else {}))

            def run(paths=(ontology_path, lexicon_path), options=options):
                report, stats, paragraphs, frames = self._run_file(*paths, options)
                return report + "\n" + batch_text(paragraphs), (stats, dict(paragraphs), frames)

            def check(detail, expected=expected, entry=entry):
                stats, paragraphs, frames = detail
                error = expected.check_survey(stats)
                for frame_detail in frames:
                    error = error or expected.check_frame(*frame_detail)
                if error is None and entry is not None:
                    produced = paragraphs[entry["designated"]]
                    if collapse(produced) != collapse(entry["expected"]):
                        error = f"paragraph for {entry['designated']} differs from the manifest"
                return error

            ops.append(Op(f"file {name}", run, check))
        return ops

    def cli_commands(self, loop):
        _, ontology_path, lexicon_path = self.files[-1]
        _, _, paragraphs, _ = self._run_file(ontology_path, lexicon_path, realizer.RealizeOptions())
        corpus = [parser.parse_ontology(read_doc(path)) for _, path, _ in self.files]
        commands = super().cli_commands(loop)
        commands["cli.verbalize_s"] = (
            verbalize_all_argv(ontology_path, lexicon_path), batch_text(paragraphs),
        )
        commands["cli.survey_s"] = (
            ["survey", str(self.corpus_dir)], survey.emit_report(survey.survey(corpus))
        )
        return commands


def score_case(case: dict) -> tuple[str, dict, list]:
    """Parse both texts, collect both frames, score, render the report.
    Returns the report text, a summary for the checks, and the reference
    frame's axioms."""
    reference = parser.parse_ontology(case["reference"])
    candidate = parser.parse_ontology(case["candidate"])
    reference_frame = model.collect_frame(reference, case["designated"])
    report = evaluate.score_submission(
        model.collect_frame(candidate, case["designated"]), reference_frame, cap=case["cap"]
    )
    summary = {
        "mean": report.mean,
        "truncated": report.truncated,
        "scores": [item.score for item in report.per_axiom],
    }
    return evaluate.emit_report(report), summary, reference_frame.axioms


def count_versions(axioms: list, cap: int) -> int:
    """Equivalent versions of the reference up to the cap, from
    ``enumerate_equivalents``, which the traced run does not wrap."""
    try:
        return len(evaluate.enumerate_equivalents(axioms, cap=cap).versions)
    except evaluate.EquivalentExplosion:
        return cap


def rows_disagree(summary: dict) -> bool:
    """True when the report's per-axiom scores do not average to its mean.

    A known defect at the seed commit: the assignment traceback matches
    float sums by equality, so rounding can leave a matched reference axiom
    listed as unmatched with score 0 while the mean counts the match. The
    benchmark tallies these reports instead of failing them, because the
    round keeps output byte for byte; the digests pin the rows as they are.
    """
    scores = summary["scores"]
    return bool(scores) and abs(sum(scores) / len(scores) - summary["mean"]) > 1e-9


def check_case(case: dict, summary: dict) -> str | None:
    mean, scores = summary["mean"], summary["scores"]
    if not 0.0 <= mean <= 1.0 or any(not 0.0 <= s <= 1.0 for s in scores):
        return f"score outside [0, 1]: mean {mean}"
    must_be_perfect = case["kind"] == "self" or (
        case["kind"] == "permuted" and not summary["truncated"]
    )
    if must_be_perfect and mean != 1.0:
        return f"{case['kind']} score {mean!r} is not exactly 1.0"
    return None


class EvalRecoding(Workload):
    """Round-trip scoring cases. An op scores one case. Each run starts with
    the fixtures against themselves and the 9- and 10-conjunct cases, which
    run in a child process under a memory limit, then walks the seeded cases
    in order until its time is up, so a run samples as many distinct cases
    as it can. The 11-conjunct case is a known defect at the seed commit
    (MemoryError at cap 1); it runs once per run after the loop, as a probe
    outside the op count.

    The pool is longer than a run, so a traced run instead repeats a fixed
    cycle of its first TRACED_CYCLE ops: per-cycle figures then measure the
    same cases however fast ``evaluate`` gets."""

    name = "eval-recoding"
    whole_cycles = False
    PROBE = "wide-11"
    TRACED_CYCLE = 200

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        fixed = inputs.fixed_eval_cases()
        self.probe = next(c for c in fixed if c["name"] == self.PROBE)
        self.cases = [c for c in fixed if c is not self.probe] + inputs.seeded_eval_cases(seed)
        self.cli_case = next(c for c in self.cases if c["kind"] == "dropped")
        for side in ("reference", "candidate"):
            (workdir / f"{side}.ofs").write_text(self.cli_case[side], encoding="utf-8")
        self.disagreeing: set = set()

    def _in_child(self, case: dict) -> sandbox.ChildResult:
        tracer = self.tracer
        mark = tracer.mark() if tracer else 0

        def body():
            text, summary, axioms = score_case(case)
            exported = None
            if tracer is not None:
                tracer.counts[0]["evaluate.versions"] += count_versions(axioms, case["cap"])
                exported = tracer.export(mark)
            return {"text": text, "summary": summary, "trace": exported}

        result = sandbox.run(body)
        if tracer is not None and result.value is not None:
            tracer.absorb(mark, result.value["trace"])
        return result

    def _run_wide(self, case: dict) -> tuple:
        result = self._in_child(case)
        self.child_peak_mb = max(self.child_peak_mb, result.peak_rss_mb)
        if result.error is not None:
            if self.tracer is not None:
                self.tracer.counts[0]["evaluate.wide_failures"] += 1
            raise RuntimeError(f"child failed: {result.error}")
        return result.value["text"], (result.value["summary"], None)

    def _check(self, case: dict, detail) -> str | None:
        summary, axioms = detail
        if rows_disagree(summary):
            self.disagreeing.add(case["name"])
        if self.tracer is not None:
            inside = self.tracer.counts[0]
            inside["evaluate.rows_disagree"] += rows_disagree(summary)
            if axioms is not None:  # a child counted its own
                inside["evaluate.versions"] += count_versions(axioms, case["cap"])
        return check_case(case, summary)

    def ops(self) -> list:
        ops = []
        for case in self.cases:
            if case["kind"] == "wide":
                run = lambda case=case: self._run_wide(case)
            else:
                def run(case=case):
                    text, summary, axioms = score_case(case)
                    return text, (summary, axioms)

            ops.append(Op(f"case {case['name']}", run,
                          lambda detail, case=case: self._check(case, detail)))
        return ops

    def traced_ops(self) -> list:
        return self.ops()[:self.TRACED_CYCLE]

    def finish(self, loop):
        result = self._in_child(self.probe)
        outcome = result.error or f"completed, mean {result.value['summary']['mean']:.4f}"
        self.notes.append(
            f"known-defect probe {self.PROBE} (one SubClassOf over 11 conjuncts, cap 1, "
            f"{sandbox.MEMORY_LIMIT_BYTES >> 20} MB limit): {outcome} after "
            f"{result.seconds:.2f} s, peak {result.peak_rss_mb:.1f} MB"
        )
        if result.error is not None and self.tracer is not None:
            self.tracer.counts[1]["evaluate.wide_failures"] += 1
        if self.disagreeing:
            self.notes.append(
                f"known defect: {len(self.disagreeing)} of the cases run report per-axiom "
                f"rows that do not average to the mean, e.g. {min(self.disagreeing)}"
            )

    def cli_commands(self, loop):
        case = self.cli_case
        argv = ["eval", "--reference", str(self.workdir / "reference.ofs"),
                "--candidate", str(self.workdir / "candidate.ofs"),
                "--class", case["designated"], "--cap", str(case["cap"])]
        commands = super().cli_commands(loop)
        commands["cli.eval_s"] = (argv, score_case(case)[0])
        return commands


WORKLOADS = {cls.name: cls for cls in (LargeOntology, SmallCorpus, EvalRecoding)}
