"""The README's Python API example runs as printed and finds the three
solutions that `wplap solve` finds on the shipped instance."""
import re
from pathlib import Path

from wplap.solver import SolutionSet

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_api_example_finds_three_solutions(capsys):
    text = README.read_text()
    block = re.search(r"## Python API\n\n```python\n(.*?)```", text, re.S)
    assert block is not None, "README has no Python API block"
    scope: dict = {}
    exec(compile(block.group(1), str(README), "exec"), scope)
    records = scope["records"]
    assert scope["notes"] == []
    assert SolutionSet(records, 1e-3).count == 3
    assert [r.classification for r in records] == \
        ["global-min-candidate", "sublevel-min", "mountain-pass"]
    assert len(capsys.readouterr().out.splitlines()) == 3
