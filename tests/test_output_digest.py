"""The fixture output surfaces, and the eval-generated and equivalents
surfaces, still hash to the lines pinned in tools/output_digest.txt.
eval-generated is the one pinned surface here that takes the assignment
path: its candidates are permuted, one-dropped and one-substituted, so most
of them score below 1.0 and reach the similarity rows. equivalents pins the
order of the version stream that every eval scan walks. The other seeded
surfaces are left to the full script, tools/output_digest.py --check, which
takes about half a minute."""

import importlib.util
import io
import pathlib
import subprocess
from contextlib import redirect_stderr, redirect_stdout

from owlprose.cli import main

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "output_digest.py"
FIXTURE_SURFACES = {
    "verbalize-text", "verbalize-records", "rst-debug", "verbalize-all", "survey", "self-eval",
    "eval-generated", "equivalents",
}


def load_tool():
    spec = importlib.util.spec_from_file_location("output_digest", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def in_process(*args: str) -> subprocess.CompletedProcess:
    """The command line run in this process, as the script's child process
    would report it; fails on a nonzero exit."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        status = main(list(args))
    assert status == 0, (args, err.getvalue())
    return subprocess.CompletedProcess(args, status, out.getvalue(), err.getvalue())


def test_fixture_surfaces_match_the_pinned_digests():
    tool = load_tool()
    pinned = tool.read_pinned()
    digests = {
        **tool.fixture_surfaces(in_process),
        "eval-generated": tool.eval_generated_surface(),
        "equivalents": tool.equivalents_surface(),
    }
    computed = {name: digest.hexdigest() for name, digest in digests.items()}
    assert set(computed) == FIXTURE_SURFACES
    assert [name for name in computed if computed[name] != pinned.get(name)] == []
