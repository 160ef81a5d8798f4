"""The package namespace and what each entry point loads.

Every public name of ``owlprose`` loads its submodule on first access, so an
entry point loads only the modules it runs, and none of them loads a module
that generates code at import (``dataclasses``, with ``inspect``) or
``typing``. The load checks run in a fresh interpreter, with only src/ on the
path, and read ``sys.modules`` there.
"""

import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import owlprose

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURE = str(ROOT / "fixtures" / "appendix_01.ofs")
CLASS = ":LowerTrunkStructure"


def fresh_python(code: str, *flags: str) -> str:
    """The stdout of ``python *flags -c code`` in a fresh interpreter."""
    child = subprocess.run(
        [sys.executable, *flags, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, encoding="utf-8", timeout=60,
    )
    assert child.returncode == 0, child.stderr
    return child.stdout


def modules_after(code: str, *flags: str) -> set:
    """Every module a fresh interpreter holds after running code."""
    return set(json.loads(
        fresh_python(f"import json, sys\n{code}\nprint(json.dumps(sorted(sys.modules)))", *flags)
    ))


def loaded_after(code: str) -> set:
    """The owlprose modules a fresh interpreter holds after running code."""
    return {name for name in modules_after(code) if name.split(".")[0] == "owlprose"}


# ---------------------------------------------------------------------------
# the namespace
# ---------------------------------------------------------------------------

def test_every_public_name_is_its_submodules_attribute():
    for module_name, names in owlprose._EXPORTS.items():
        module = importlib.import_module(f"owlprose.{module_name}")
        for name in names:
            assert getattr(owlprose, name) is getattr(module, name), name
    assert sorted(owlprose.__all__) == sorted(
        name for names in owlprose._EXPORTS.values() for name in names
    )


def test_dir_lists_every_public_name():
    assert set(owlprose.__all__) <= set(dir(owlprose))
    assert "__version__" in dir(owlprose)


def test_an_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        owlprose.no_such_name  # noqa: B018


def test_import_owlprose_alone_still_reaches_each_submodule():
    """As when the package loaded every submodule up front."""
    out = fresh_python("import owlprose\nprint(owlprose.planner.__name__)")
    assert out == "owlprose.planner\n"


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from owlprose import *", namespace)
    for name in owlprose.__all__:
        assert namespace[name] is getattr(owlprose, name), name


@pytest.mark.parametrize("first", [
    "import owlprose.survey",
    "from owlprose.survey import emit_report",
    "importlib.import_module('owlprose.survey')",
    f"cli.main(['survey', {str(ROOT / 'fixtures')!r}])",
])
def test_owlprose_survey_is_the_function_in_every_import_order(first):
    out = fresh_python(
        "import contextlib, importlib, io, sys\n"
        "from owlprose import cli\n"
        f"with contextlib.redirect_stdout(io.StringIO()):\n    {first}\n"
        "import owlprose\n"
        "from owlprose import survey\n"
        "module = sys.modules['owlprose.survey']\n"
        "print(survey is module.survey, owlprose.survey is module.survey)\n"
    )
    assert out == "True True\n"


# ---------------------------------------------------------------------------
# what each entry point loads
# ---------------------------------------------------------------------------

PARSER_ONLY = {"owlprose", "owlprose.model", "owlprose.parser"}


@pytest.mark.parametrize("statement", [
    "import owlprose.parser",
    "from owlprose import parse_ontology",
    "import owlprose; owlprose.SourceDocument",
])
def test_the_parser_loads_without_the_later_stages(statement):
    assert loaded_after(statement) == PARSER_ONLY


CLI = PARSER_ONLY | {"owlprose.cli"}
COMMANDS = {
    "--version": ([], CLI),
    "--help": ([], CLI),
    "verbalize": (
        ["--ontology", FIXTURE, "--class", CLASS],
        CLI | {"owlprose.classifier", "owlprose.planner", "owlprose.realizer"},
    ),
    "survey": ([str(ROOT / "fixtures")], CLI | {"owlprose.classifier", "owlprose.survey"}),
    "eval": (
        ["--reference", FIXTURE, "--candidate", FIXTURE, "--class", CLASS],
        CLI | {"owlprose.evaluate"},
    ),
}


def run_command(command: str) -> str:
    """Code that runs one CLI command line in process, stdout discarded."""
    extra, _ = COMMANDS[command]
    return (
        "import contextlib, io\n"
        "from owlprose.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    try:\n"
        f"        assert main({[command, *extra]!r}) == 0\n"
        "    except SystemExit as exit:\n"
        "        assert exit.code == 0\n"
    )


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_each_command_loads_only_its_own_modules(command):
    assert loaded_after(run_command(command)) == COMMANDS[command][1]


# Modules no entry point needs whose import costs start-up time: dataclasses,
# with the inspect (and ast and dis) that it imports, and typing.
START_UP_COSTS = {"dataclasses", "inspect", "typing"}


@pytest.mark.parametrize("code", [
    "import owlprose.parser",
    *(run_command(command) for command in sorted(COMMANDS)),
], ids=["import owlprose.parser", *sorted(COMMANDS)])
def test_no_entry_point_loads_dataclasses_inspect_or_typing(code):
    """Against a bare interpreter started with the same flags. Both skip
    site (-S), which may import typing itself, through a .pth file."""
    bare = modules_after("", "-S") & START_UP_COSTS
    assert modules_after(code, "-S") & START_UP_COSTS == bare
    assert not bare
