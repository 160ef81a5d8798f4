"""The fixtures directory is consistent with its manifest."""

import dataclasses

from owlprose.parser import SourceDocument, load_lexicon, parse_ontology
from owlprose.realizer import RealizeOptions


def test_fixtures_directory_is_self_consistent(fixture_dir, manifest):
    named = [name for entry in manifest.values() for name in (entry["ontology"], entry["lexicon"])]
    present = sorted(path.name for path in fixture_dir.iterdir() if path.name != "manifest.json")
    assert sorted(named) == present
    option_fields = {field.name for field in dataclasses.fields(RealizeOptions)}
    for name, entry in manifest.items():
        assert (entry["ontology"], entry["lexicon"]) == (f"{name}.ofs", f"{name}.tsv")
        ontology_doc = SourceDocument.from_path(fixture_dir / entry["ontology"])
        ontology = parse_ontology(ontology_doc, strict=True)
        assert entry["designated"] in ontology.classes, name
        load_lexicon(SourceDocument.from_path(fixture_dir / entry["lexicon"]))
        for flag, value in entry["flags"].items():
            assert flag in option_fields and isinstance(value, bool), (name, flag)
