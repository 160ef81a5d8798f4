"""The fixtures directory is exactly what tools/make_fixtures.py writes."""

import importlib.util


def test_generator_reproduces_the_fixtures(fixture_dir, tmp_path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location(
        "make_fixtures", fixture_dir.parent / "tools" / "make_fixtures.py"
    )
    make_fixtures = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_fixtures)
    monkeypatch.setattr(make_fixtures, "FIXTURES", tmp_path)
    make_fixtures.main()
    capsys.readouterr()

    generated = sorted(path.name for path in tmp_path.iterdir())
    committed = sorted(path.name for path in fixture_dir.iterdir())
    assert generated == committed
    for name in generated:
        assert (tmp_path / name).read_bytes() == (fixture_dir / name).read_bytes(), name
