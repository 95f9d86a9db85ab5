"""The README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    text = README.read_text()
    section = text[text.index("## Library"):]
    block = re.search(r"```python\n(.*?)```", section, re.S)
    assert block is not None, "README has no python block under '## Library'"
    exec(compile(block.group(1), str(README), "exec"), {})
    assert capsys.readouterr().out.startswith("2.142857")
