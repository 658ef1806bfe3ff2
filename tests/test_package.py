"""The package's export list, version and benchmark tracer stay in step with the code."""
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from test_acceptance import SMALL_CONFIGS

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

    # One geometry-scan call: its geometry's actions are not cached yet, so
    # the separating-action quadrature runs once, under the tracer's name.
    gravtwin.interferometer._actions_cached.cache_clear()
    tracer = child.make_tracer(gravtwin)
    try:
        tracer.install()
        geo = inputs.op_geometries(1, 0)[0]
        assert gravtwin.cli.main(inputs.cow_argv(geo, str(tmp_path / "g0.csv"))) == 0
    finally:
        tracer.restore()
    assert gravtwin.cli.main is main
    assert tracer.totals().calls["potential.quadrature"] == 1


# Each command in one fresh interpreter, in order; after each, print whether
# scipy.integrate is loaded.  main's own prints go to stderr.
IMPORT_PROBE = """
import json, sys
sys.stdout = sys.stderr
import gravtwin.cli
seen = ["scipy.integrate" in sys.modules]
for argv in json.loads(sys.argv[1]):
    assert gravtwin.cli.main(argv) == 0, argv
    seen.append("scipy.integrate" in sys.modules)
print(json.dumps(seen), file=sys.__stdout__)
"""


def test_only_the_separating_action_loads_scipy_integrate(tmp_path):
    # scipy.integrate drags in scipy.special, .optimize, .sparse and .spatial:
    # ~18 MB and ~0.2 s of start-up that grid runs and the small verbs never use.
    # This pytest process has it loaded already, so ask a fresh interpreter.
    config = tmp_path / "crosscheck.cfg"
    config.write_text(SMALL_CONFIGS["perturbative-crosscheck"])
    commands = [
        ["run", "--config", str(config), "--out", str(tmp_path / "run")],
        ["potential", "--mass", "1.675e-27", "--radius", "1e-15", "--r-max", "1e-14",
         "--out", str(tmp_path / "v.csv")],
        ["version"],
        ["cow", "--preset", "neutron", "--delta-sweep", "0:1e-33:8", "--out", str(tmp_path / "c.csv")],
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, json.dumps(commands)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    assert json.loads(done.stdout) == [False, False, False, False, True]


FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_never_holds(x):
    assert x < 0
"""


def test_a_failing_property_test_shows_its_example(tmp_path):
    # Under the repo's warning filters the hypothesis plugin still reports the example.
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    command = [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"), "-p", "no:cacheprovider",
               "test_property.py"]
    done = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert done.returncode == 1, done.stdout[-2000:]
    assert "Falsifying example" in done.stdout
    assert "INTERNALERROR" not in done.stdout + done.stderr


# The builders of a run's physics objects from outside numbers; config.read alone calls them.
BUILDERS = {"PairPotential", "separated_product_state", "UnitSystem.si", "UnitSystem.dimensionless"}


@pytest.mark.parametrize("module", ["scenarios.py", "cli.py"])
def test_only_the_config_reader_builds_a_run(module):
    tree = ast.parse((ROOT / "src" / "gravtwin" / module).read_text())
    calls = [ast.unparse(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)]
    assert [call for call in calls if call in BUILDERS] == []


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
