"""The package's export list, version and benchmark tracer stay in step with the code."""
import ast
import sys
from pathlib import Path

import pytest

import gravtwin
import gravtwin.cli

ROOT = Path(__file__).resolve().parents[1]


def test_all_lists_exactly_the_imported_public_names():
    tree = ast.parse(Path(gravtwin.__file__).read_text())
    bound = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }
    public = {name for name in bound if not name.startswith("_")}
    assert len(gravtwin.__all__) == len(set(gravtwin.__all__)), "duplicate names in __all__"
    assert set(gravtwin.__all__) == public


def test_version_is_read_from_the_package():
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads((ROOT / "pyproject.toml").read_text())
    assert "version" not in pyproject["project"]
    assert pyproject["project"]["dynamic"] == ["version"]
    assert pyproject["tool"]["setuptools"]["dynamic"]["version"] == {
        "attr": "gravtwin._version.__version__"
    }


def test_benchmark_tracer_finds_every_target(monkeypatch):
    # perfbench/child.py wraps package functions by attribute name; a rename
    # would otherwise surface only as a failed `perfbench/run.py --trace 1`.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    monkeypatch.delitem(sys.modules, "child", raising=False)
    import child

    main = gravtwin.cli.main
    tracer = child.make_tracer(gravtwin)
    try:
        tracer.install()
    finally:
        tracer.restore()
    assert gravtwin.cli.main is main
