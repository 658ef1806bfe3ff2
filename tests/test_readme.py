import re
from pathlib import Path

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
