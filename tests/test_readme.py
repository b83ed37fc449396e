"""The README's Python example prints what the README shows, and every name in its paper map exists."""

import ast
import importlib
import inspect
import re
from pathlib import Path

from symdiag import checks

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
#: one paper-map row: result, `module.function`, `checks.check_*` or none, `path::test`
MAP_ROW = re.compile(r"\| [^|]+ \| `(\w+)\.(\w+)` \| (?:`checks\.(\w+)`|none) \| `([\w/.]+)((?:::\w+)+)` \|")


def test_python_example_output(capsys):
    text = README.read_text()
    block = re.search(r"```python\n(.*?)```\s*prints\s*```text\n(.*?)```", text, re.S)
    code, shown = block.groups()
    exec(compile(code, str(README), "exec"), {})
    assert capsys.readouterr().out == shown


def test_paper_map_names_exist():
    section = README.read_text().split("\n## Paper map\n", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("|")][2:]
    assert len(rows) == 9
    suites = inspect.getsource(checks.default_suites)
    for row in rows:
        match = MAP_ROW.fullmatch(row)
        assert match, f"malformed paper-map row: {row}"
        module, function, check, path, scope = match.groups()
        assert callable(getattr(importlib.import_module(f"symdiag.{module}"), function, None)), row
        if check:  # a named check must exist and be one that verify runs
            assert callable(getattr(checks, check, None)) and f"{check}(" in suites, row
        body = ast.parse((ROOT / path).read_text()).body
        for name in scope.split("::")[1:]:
            body = next((node.body for node in body if getattr(node, "name", None) == name), None)
            assert body is not None, f"{path}{scope} not found"
