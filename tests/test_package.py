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


def test_benchmark_tracer_finds_every_target(monkeypatch, tmp_path):
    # perfbench/child.py wraps package functions by attribute name and reads
    # their step counts from the `cfg` argument; a rename or a changed call
    # would otherwise surface only as a failed `perfbench/run.py --trace 1`.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    for name in ("child", "inputs"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    import child
    import inputs

    values = inputs.make_inputs("crosscheck", 0)
    config = tmp_path / "config.cfg"
    config.write_text(inputs.config_text(values))
    main = gravtwin.cli.main
    tracer = child.make_tracer(gravtwin)
    try:
        tracer.install()
        assert gravtwin.cli.main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    finally:
        tracer.restore()
    assert gravtwin.cli.main is main
    steps = values["evolution.steps"]
    work = tracer.totals().work
    assert work["evolve"] == steps  # every halving in one stacked scan
    assert work["dyson"] == steps


# Imports their own module never reads.  perfbench/child.py wraps the first
# four where they are bound, and __version__ is the package's attribute;
# ROADMAP item 1 retargets the tracer and empties this allowlist.
UNREAD_IMPORTS = {
    ("src/gravtwin/scenarios.py", "gaussian_product_metastate"),
    ("src/gravtwin/scenarios.py", "gaussian_wavepacket"),
    ("src/gravtwin/scenarios.py", "product_metastate"),
    ("src/gravtwin/cli.py", "correction"),
    ("src/gravtwin/__init__.py", "__version__"),
}


def _module_level_imports(tree):
    """The names the module-level imports of tree bind (from __future__ excluded)."""
    nodes = list(tree.body)
    while nodes:
        node = nodes.pop()
        if isinstance(node, ast.Import):
            yield from (alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (alias.asname or alias.name for alias in node.names)
        elif isinstance(node, (ast.If, ast.Try)):
            nodes.extend(ast.iter_child_nodes(node))


def test_every_module_level_import_is_used():
    unused = []
    for path in sorted([*(ROOT / "src" / "gravtwin").glob("*.py"), *(ROOT / "tests").glob("*.py"),
                        *(ROOT / "demos").glob("*.py")]):
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        if path.name == "__init__.py":
            read |= set(gravtwin.__all__)
        rel = path.relative_to(ROOT).as_posix()
        unused += [(rel, name) for name in _module_level_imports(tree)
                   if name not in read and (rel, name) not in UNREAD_IMPORTS]
    assert unused == []
