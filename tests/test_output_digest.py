"""Every output surface still hashes to its line pinned in
tools/output_digest.txt: all thirteen, computed by the tool's own surfaces()
and compared by its differing(), as tools/output_digest.py --check does. A
failure lists the surfaces that differ."""

import importlib.util
import pathlib

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "output_digest.py"


def test_every_surface_matches_the_pinned_digests():
    spec = importlib.util.spec_from_file_location("output_digest", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert tool.differing(tool.surfaces()) == []
