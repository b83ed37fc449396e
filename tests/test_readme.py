"""The README's Python example prints exactly the output the README shows."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_example_output(capsys):
    text = README.read_text()
    block = re.search(r"```python\n(.*?)```\s*prints\s*```text\n(.*?)```", text, re.S)
    code, shown = block.groups()
    exec(compile(code, str(README), "exec"), {})
    assert capsys.readouterr().out == shown
