import json
import re
import shlex
from pathlib import Path

from test_acceptance import SMALL_CONFIGS

from gravtwin import cli, parse_config, run
from gravtwin.config import SCHEMAS

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.M | re.S)
    assert blocks
    for code in blocks:
        exec(compile(code, str(README), "exec"), {})


def test_readme_config_tables_list_each_schema():
    text = README.read_text()
    for name, schema in SCHEMAS.items():
        section = re.search(rf"^### `{re.escape(name)}`\n(.*?)(?=^#)", text, flags=re.M | re.S)
        assert section, name
        first_cells = re.findall(r"^\| ([^|]*) \|", section.group(1), flags=re.M)
        keys = {key for cell in first_cells for key in re.findall(r"`([^`]+)`", cell)}
        assert keys == set(schema) - {"scenario"}, name


def _command_lines() -> list[list[str]]:
    """The argument lists of the `gravtwin` lines in README's command-line block."""
    section = README.read_text().split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"^```\n(.*?)^```", section, flags=re.M | re.S).group(1)
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("gravtwin ")]


def test_readme_command_lines_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "scenario.cfg").write_text("scenario = potential-scan\n")
    argvs = _command_lines()
    assert [argv[0] for argv in argvs] == ["run", "potential", "cow", "cow", "version"]
    for argv in argvs:
        assert cli.main(argv) == 0, (argv, capsys.readouterr().err)


def test_readme_error_message_is_verbatim(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    documented = re.search(r"`(invalid input: --samples: [^`]*)`", README.read_text()).group(1)
    argv = next(argv for argv in _command_lines() if argv[0] == "potential")
    argv[argv.index("--samples") + 1] = "1"
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == documented + "\n"
    assert not list(tmp_path.iterdir())


def _keys(obj) -> set[str]:
    """The keys of every JSON object in obj, at any depth."""
    if isinstance(obj, dict):
        return set(obj).union(*map(_keys, obj.values()))
    if isinstance(obj, list):
        return set().union(*map(_keys, obj))
    return set()


def test_readme_demo_table_names_real_summary_keys(tmp_path):
    section = README.read_text().split("\n## Demos\n", 1)[1].split("\n## ", 1)[0]
    rows = [line.strip("|").split("|") for line in section.splitlines() if line.startswith("| `0")]
    assert len(rows) == 5
    for _, sizes, prints, _ in rows:
        scenario = re.search(r"`([^`]+)`", sizes).group(1)
        run(parse_config(SMALL_CONFIGS[scenario]), tmp_path / scenario)
        keys = _keys(json.loads((tmp_path / scenario / "summary.json").read_text()))
        named = {t for t in re.findall(r"`([^`]+)`", prints) if "_" in t and "." not in t}
        assert named and named <= keys, (scenario, named - keys)
