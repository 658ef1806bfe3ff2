"""Each demo runs its scenario as README says, python demos/NN_*.py, and checks its headline."""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("[0-9][0-9]_*.py"))
# The physics lives in the scenarios; a demo runs one and reads its outputs.
SCENARIO_INTERNALS = {
    "evolve", "dyson_first_order", "partial_trace", "decoherence_report",
    "correction", "pair_enumeration_oracle",
}


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    # -W error: pyproject's filterwarnings does not reach a subprocess.
    done = subprocess.run([sys.executable, "-W", "error", str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    assert not done.stderr
    left = sorted(p.name for p in tmp_path.iterdir())
    assert left == (["pair_potential.csv"] if demo.name == "01_pair_potential.py" else [])


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs_its_scenario(demo):
    names = {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(ast.parse(demo.read_text()))
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    assert {"parse_config", "run"} <= names
    assert not names & SCENARIO_INTERNALS
