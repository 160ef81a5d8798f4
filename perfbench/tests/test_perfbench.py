"""Tests of the benchmark itself: seeded inputs, output checks, the traced run
and the refusal to run without a source tree."""

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

import inputs
import measure
import tracing
import workloads

ROOT = pathlib.Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_same_seed_gives_identical_bytes():
    assert inputs.large_ontology(5) == inputs.large_ontology(5)
    assert inputs.small_corpus(5) == inputs.small_corpus(5)
    assert inputs.seeded_eval_cases(5) == inputs.seeded_eval_cases(5)
    assert inputs.large_ontology(5) != inputs.large_ontology(6)
    assert inputs.seeded_eval_cases(5) != inputs.seeded_eval_cases(6)


def test_generated_ontologies_leave_some_classes_undeclared():
    text, _ = inputs.large_ontology(5)
    declared = text.count("Declaration(Class(")
    assert 0 < inputs.LARGE_CLASSES - declared < inputs.LARGE_CLASSES // 10


@pytest.fixture
def workdir(request):
    """A fresh directory under the benchmark's own output directory."""
    path = measure.OUT / "tests" / request.node.name
    shutil.rmtree(path, ignore_errors=True)
    return path


def run_ops(workload, keys, expected=None):
    loop = workloads.Loop(expected or {}, complete=False)
    for op in workload.ops():
        if op.key in keys:
            loop.run_op(op)
    return loop


def test_corrupted_fixture_paragraph_is_a_failed_op(workdir, monkeypatch):
    workload = workloads.SmallCorpus(2, workdir)
    assert run_ops(workload, {"file table2_travel"}).failures == []

    realize = workloads.realizer.realize

    def corrupted(*args, **kwargs):
        paragraph = realize(*args, **kwargs)
        paragraph.sentences = [s.replace("city", "citadel") for s in paragraph.sentences]
        return paragraph

    monkeypatch.setattr(workloads.realizer, "realize", corrupted)
    loop = run_ops(workload, {"file table2_travel"})
    assert loop.attempted == 1
    assert [key for key, _ in loop.failures] == ["file table2_travel"]
    assert "manifest" in loop.failures[0][1]


def test_corrupted_score_is_a_failed_op(workdir, monkeypatch):
    workload = workloads.EvalRecoding(2, workdir)
    keys = {"case self-appendix_01", "case permuted-0000"}
    assert run_ops(workload, keys).failures == []

    score = workloads.evaluate.score_submission

    def lowered(*args, **kwargs):
        report = score(*args, **kwargs)
        report.mean = 0.99
        return report

    monkeypatch.setattr(workloads.evaluate, "score_submission", lowered)
    loop = run_ops(workload, keys)
    assert loop.attempted == 2 and len(loop.failures) == 2
    assert all("not exactly 1.0" in message for _, message in loop.failures)


def test_output_that_differs_from_its_digest_is_a_failed_op(workdir):
    workload = workloads.SmallCorpus(2, workdir)
    loop = run_ops(workload, {"file appendix_01"}, expected={"file appendix_01": "0" * 16})
    assert len(loop.failures) == 1 and "digest" in loop.failures[0][1]


def test_wrong_frame_is_a_failed_op(workdir, monkeypatch):
    workload = workloads.LargeOntology(2, workdir)
    workload.setup()
    collect_frame = workloads.model.collect_frame

    def short(ontology, iri):
        frame = collect_frame(ontology, iri)
        frame.axioms = frame.axioms[1:]
        return frame

    monkeypatch.setattr(workloads.model, "collect_frame", short)
    ops = [op for op in workload.ops() if op.key.startswith("class ")][:20]
    loop = workloads.Loop({}, complete=False)
    for op in ops:
        loop.run_op(op)
    assert len(loop.failures) == 20
    assert "collect_frame" in loop.failures[0][1]


def test_missing_package_name_marks_its_metrics_missing(monkeypatch):
    monkeypatch.delattr(workloads.model, "mentions")
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    metrics = tracing.layer_metrics(tracer, cycles=1)
    assert metrics["model.mentions_calls"] is None
    assert metrics["model.frame_yield"] is None
    assert metrics["model.collect_frame_s"] == 0.0
    assert set(metrics) == set(tracing.PER_LAYER)
    line = measure.result_line(workloads.Loop({}, complete=False),
                               {"model.mentions_calls": (None, "count", "")})
    assert json.loads(json.dumps(line))["metrics"]["model.mentions_calls"]["value"] is None


def test_frame_metrics_need_only_one_binding_of_collect_frame(monkeypatch):
    monkeypatch.delattr(workloads.survey, "collect_frame")
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    metrics = tracing.layer_metrics(tracer, cycles=1)
    assert tracer.missing == {"survey.collect_frame"}
    assert None not in metrics.values()

    monkeypatch.delattr(workloads.model, "collect_frame")
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    metrics = tracing.layer_metrics(tracer, cycles=1)
    assert metrics["model.collect_frame_s"] is None
    assert metrics["model.frame_yield"] is None
    assert metrics["survey.self_s"] == 0.0


def test_self_time_subtracts_child_spans():
    tracer = tracing.Tracer()
    tracer.spans = [
        ["op", 0.0, 10.0, -1, 1],
        ["survey.survey", 1.0, 9.0, 0, 1],
        ["model.collect_frame", 2.0, 5.0, 1, 1],
        ["classifier.frame_groups", 5.0, 6.0, 1, 1],
    ]
    view = tracing.View(tracer, cycles=2)
    assert view.time("survey.survey") == pytest.approx(4.0)
    assert view.own("survey.survey") == pytest.approx(2.0)


def run_benchmark(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_traced_run_reports_every_per_layer_metric():
    done = run_benchmark(ROOT, "--workload", "small-corpus", "--seed", "3",
                         "--seconds", "1", "--trace", "1")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    names = {metric["name"] for metric in BENCHMARK["per_layer"]}
    assert set(result["metrics"]) == names
    for metric in BENCHMARK["per_layer"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert result["metrics"]["model.collect_frame_calls"]["value"] > 0


def test_untraced_run_reports_every_end_to_end_metric():
    done = run_benchmark(ROOT, "--workload", "small-corpus", "--seed", "3",
                         "--seconds", "1", "--trace", "0")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert result["attempted"] >= 100


def test_refuses_to_run_without_a_source_tree(workdir):
    workdir.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", workdir)
    shutil.copytree(ROOT / "perfbench", workdir / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = run_benchmark(workdir, "--workload", "small-corpus", "--seed", "1",
                         "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert "{" not in done.stdout
