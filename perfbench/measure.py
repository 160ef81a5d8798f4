"""Run one workload, untraced or traced, and print its metrics.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import gc
import json
import logging
import pathlib
import resource
import shutil
import statistics
import subprocess
import sys

import inputs
import tracing
import workloads

HERE = pathlib.Path(__file__).resolve().parent
OUT = inputs.ROOT / ".perfbench_out"
DEFAULT_SEED = 1
SETUP_REPEATS = 21


class AutoDeclared(logging.Handler):
    """Counts the parser's auto-declare warnings, which would otherwise print
    one line per id; other warnings still reach stderr."""

    def __init__(self):
        super().__init__()
        self.total = 0
        self.tracer: tracing.Tracer | None = None

    def emit(self, record):
        if "auto-declaring" not in record.getMessage():
            sys.stderr.write(self.format(record) + "\n")
            return
        self.total += 1
        if self.tracer is not None:
            self.tracer.bucket()["parser.auto_declared"] += 1


def count_auto_declared() -> AutoDeclared:
    counter = AutoDeclared()
    parser_log = logging.getLogger("owlprose.parser")
    parser_log.addHandler(counter)
    parser_log.propagate = False
    return counter


def prepare(name: str, seed: int) -> workloads.Workload:
    """The workload with fresh inputs from the seed in its own directory."""
    workdir = OUT / f"{name}-{seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    return workloads.WORKLOADS[name](seed, workdir)


def load_digests(name: str, seed: int) -> tuple[dict, bool]:
    """(op key -> recorded digest, whether every op must have one)."""
    recorded = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
    table = recorded.get(name, {})
    if seed == DEFAULT_SEED:
        return table, True
    # The wide-conjunct cases do not depend on the seed.
    return {k: v for k, v in table.items() if k.startswith("case wide-")}, False


def setup_seconds(workload: workloads.Workload) -> list:
    """Set-up time of fresh processes, one at a time, each at the reference
    speed measured just before and after it."""
    command = [sys.executable, str(HERE / "setup_probe.py"), str(inputs.ROOT / "src")]
    command += [str(path) for path in workload.setup_files()]
    runs = []
    for _ in range(SETUP_REPEATS):
        before = [workloads.calibration_seconds() for _ in range(3)]
        done = subprocess.run(command, capture_output=True, text=True, check=True, timeout=120)
        after = [workloads.calibration_seconds() for _ in range(3)]
        slowdown = statistics.mean(before + after) / workloads.REFERENCE_S
        runs.append(float(done.stdout.strip()) / slowdown)
    return runs


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def measure(workload, seconds: float, counter: AutoDeclared):
    """End-to-end metrics with tracing off."""
    setup_runs = setup_seconds(workload)
    workload.setup()
    ops = workload.ops()
    loop = workloads.Loop(*load_digests(workload.name, workload.seed))
    gc.collect()
    loop.run_cycles(ops, seconds, workload.whole_cycles)
    # Read before finish(), which may run the known-defect probe: its peak
    # is where an allocation failed under the child's limit, not a property
    # of the ops, and is printed on its own line.
    peak_mb = peak_rss_mb()
    workload.finish(loop)

    latencies = loop.latencies
    p50, blocks = workloads.blocked_percentile(latencies, 0.5)
    p90, _ = workloads.blocked_percentile(latencies, 0.9)
    sampled = f"n={len(latencies)} ops, mean over {blocks} blocks"
    failed = len(loop.failures)
    metrics = {
        "ops_per_s": (loop.ops_per_s, "1/s", "ops / seconds inside ops"),
        "op_p50_ms": (p50 * 1e3, "ms", sampled),
        "op_p90_ms": (p90 * 1e3, "ms", sampled),
        "setup_s": (statistics.median(setup_runs), "s",
                    f"median of {len(setup_runs)} fresh processes"),
        "peak_rss_mb": (peak_mb, "MB", "this process and its children"),
    }
    extra = [f"times at the reference speed; this run's machine was {loop.slowdown:.3f}x "
             f"slower ({len(loop.calibrations)} calibrations)",
             f"error_rate {failed / loop.attempted:.6g} ({failed} of {loop.attempted} ops failed)",
             f"auto-declared ids (warnings counted, not printed): {counter.total}"]
    survey_runs = loop.latency_of("survey")
    if survey_runs:
        extra.insert(0, f"survey_s {statistics.median(survey_runs):.6g} s "
                        f"(median of {len(survey_runs)} whole-ontology surveys)")
    if workload.child_peak_mb:
        extra.append(f"peak RSS of the wide-conjunct children in the loop: "
                     f"{workload.child_peak_mb:.1f} MB")
    return metrics, loop, extra


def measure_traced(workload, seconds: float, counter: AutoDeclared):
    """Per-layer metrics: set-up traced, then whole cycles of the workload's
    traced ops, untraced and traced for half the seconds each, then one
    in-process call per CLI command."""
    tracer = tracing.Tracer()
    counter.tracer = tracer
    tracer.install()
    try:
        workload.setup()
    finally:
        tracer.uninstall()
        counter.tracer = None
    ops = workload.traced_ops()
    expected, complete = load_digests(workload.name, workload.seed)

    plain = workloads.Loop(expected, complete)
    gc.collect()
    plain.run_cycles(ops, seconds / 2)

    loop = workloads.Loop(expected, complete, tracer)
    workload.tracer = counter.tracer = tracer
    tracer.install()
    gc.collect()
    try:
        loop.run_cycles(ops, seconds / 2)
        workload.finish(loop)
        workloads.exercise_every_layer(workload.fixture_case)
    finally:
        tracer.uninstall()
        workload.tracer = counter.tracer = None

    values = tracing.layer_metrics(tracer, loop.cycles)
    metrics = {name: (values[name], unit, f"per cycle ({len(ops)} ops)")
               for name, (unit, *_) in tracing.PER_LAYER.items()}
    overhead = (plain.ops_per_s / loop.ops_per_s - 1.0) * 100.0
    for name, (argv, library_output) in workload.cli_commands(loop).items():
        elapsed, output = workloads.run_cli(argv)
        loop.attempted += 1
        if output != library_output:
            loop.failures.append((f"cli {argv[0]}", "stdout differs from the library loop's"))
        metrics[name] = (elapsed, "s", f"one in-process owlprose {argv[0]} call")
    metrics["trace.overhead_pct"] = (overhead, "%", "untraced vs traced ops_per_s")

    spans_path = OUT / f"spans-{workload.name}-{workload.seed}.jsonl"
    tracer.write(spans_path)
    extra = [f"{len(tracer.spans)} spans written to {spans_path.relative_to(inputs.ROOT)}"]
    if tracer.missing:
        extra.append(f"names missing from the package: {sorted(tracer.missing)}")
    loop.attempted += plain.attempted
    loop.failures = plain.failures + loop.failures
    return metrics, loop, extra


def main(workload_name: str, seed: int, seconds: float, trace: bool) -> int:
    counter = count_auto_declared()
    workload = prepare(workload_name, seed)
    if trace:
        metrics, loop, extra = measure_traced(workload, seconds, counter)
    else:
        metrics, loop, extra = measure(workload, seconds, counter)

    print(f"workload {workload.name}  seed {seed}  closed loop, 1 client, "
          f"{loop.cycles:.2f} cycles, {loop.attempted} ops")
    for name, (value, unit, note) in metrics.items():
        shown = "missing" if value is None else f"{value:.6g} {unit}"
        print(f"  {name:<28} {shown:<22} {note}")
    for line in extra + workload.notes:
        print(f"  {line}")
    if loop.failures:
        key, message = loop.failures[0]
        print(f"  first failure: {key}: {message}")
        print(f"perfbench: first failure: {key}: {message}", file=sys.stderr)
    print(json.dumps(result_line(loop, metrics)))
    return 0


def result_line(loop, metrics: dict) -> dict:
    """The last line of the output. A missing metric is null, never a number
    that could read as a change."""
    return {
        "correct": not loop.failures,
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }
