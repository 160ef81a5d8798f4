"""The fixture output surfaces still hash to the lines pinned in
tools/output_digest.txt. The seeded surfaces are left to the full script,
tools/output_digest.py --check, which takes about half a minute."""

import importlib.util
import io
import pathlib
import subprocess
from contextlib import redirect_stderr, redirect_stdout

from owlprose.cli import main

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "output_digest.py"
FIXTURE_SURFACES = {
    "verbalize-text", "verbalize-records", "rst-debug", "verbalize-all", "survey", "self-eval",
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
    computed = {name: digest.hexdigest() for name, digest in tool.fixture_surfaces(in_process).items()}
    assert set(computed) == FIXTURE_SURFACES
    assert [name for name in computed if computed[name] != pinned.get(name)] == []
