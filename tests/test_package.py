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


# One command in a fresh interpreter: print which scipy modules are loaded
# after importing the CLI and running the command (if any), so nothing one
# command loads can leak into the next.  main's own prints go to stderr.
IMPORT_PROBE = """
import json, sys
sys.stdout = sys.stderr
import gravtwin.cli
for argv in json.loads(sys.argv[1]):
    assert gravtwin.cli.main(argv) == 0, argv
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")), file=sys.__stdout__)
"""


@pytest.fixture(scope="module")
def loaded_modules(tmp_path_factory):
    """The scipy modules loaded by each probe step, each in its own interpreter, by step name."""
    # This pytest process has them loaded already, so ask fresh interpreters.
    tmp_path = tmp_path_factory.mktemp("probe")
    configs = {}
    for scenario in ("perturbative-crosscheck", "cow-sweep", "potential-scan"):
        configs[scenario] = tmp_path / f"{scenario}.cfg"
        configs[scenario].write_text(SMALL_CONFIGS[scenario])
    commands = {
        "import": [],
        "potential": [["potential", "--mass", "1.675e-27", "--radius", "1e-15", "--r-max", "1e-14",
                       "--out", str(tmp_path / "v.csv")]],
        "version": [["version"]],
        "cow": [["cow", "--preset", "neutron", "--delta-sweep", "0:1e-33:8", "--out", str(tmp_path / "c.csv")]],
        "cow-custom": [["cow", "--mass", "1e-26", "--radius", "1e-12", "--L", "0.5", "--v", "300",
                        "--delta-sweep", "0:1e-33:8", "--out", str(tmp_path / "c2.csv")]],
        **{f"run {scenario}": [["run", "--config", str(path), "--out", str(tmp_path / scenario)]]
           for scenario, path in configs.items()},
    }
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    loaded = {}
    for step, argvs in commands.items():
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, json.dumps(argvs)], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, (step, done.stderr[-2000:])
        loaded[step] = json.loads(done.stdout)
    return loaded


GRID_RUN = "run perturbative-crosscheck"


def test_only_grid_runs_load_scipy(loaded_modules):
    # The CLI, the small verbs and the cow-sweep and potential-scan runs need
    # numpy alone; scipy.linalg alone would add ~0.2 s and ~24 MB to each.
    assert {step: mods for step, mods in loaded_modules.items() if mods} == {GRID_RUN: loaded_modules[GRID_RUN]}
    # A grid run loads scipy.linalg for the Cholesky positivity certificate.
    assert "scipy.linalg" in loaded_modules[GRID_RUN]


def test_no_command_loads_scipy_integrate(loaded_modules):
    # The separating action checks its closed form with a Gauss-Legendre
    # rule, so no command loads scipy.integrate, which drags in
    # scipy.special, .optimize, .sparse and .spatial.
    assert [step for step, mods in loaded_modules.items() if "scipy.integrate" in mods] == []


def test_grid_runs_do_not_load_scipy_fft(loaded_modules):
    # The separated engine transforms with numpy.fft: ~5 MB and ~40 modules
    # less.  Only the pair-grid engine, which no scenario builds, imports it.
    assert [step for step, mods in loaded_modules.items() if "scipy.fft" in mods] == []


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
