"""Every import in the package is used (no linter ships with the test extra),
and the runtime needs numpy alone.

A module-level or local import binds a name; the name must be read somewhere
in the module, or be listed in its __all__.  __init__.py re-exports by
design and `from __future__ import annotations` binds nothing, so both are
skipped."""
import ast
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "wplap"


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            exported = set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in bound.items()
                  if name not in used and name not in exported)


def test_detector_flags_unused_and_keeps_used():
    src = ("from __future__ import annotations\n"
           "import math\nimport os.path\nfrom numpy import array as arr, zeros\n"
           "__all__ = ['zeros']\n"
           "def f():\n    return os.path.join('a')\n")
    assert unused_imports(src) == [(2, "math"), (4, "arr")]


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py")
                                        if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_solve_imports_no_scipy(tmp_path):
    """A CLI solve in a fresh interpreter loads no scipy module: importing
    scipy.sparse.linalg alone adds about 0.4 s and 32 MB to a run."""
    cfg = tmp_path / "coarse.cfg"
    cfg.write_text((REPO / "configs" / "three_solutions_1d.cfg").read_text()
                   .replace("h = 0.00390625", "h = 0.03125"))
    script = (
        "import sys\n"
        f"sys.path.insert(0, {str(REPO / 'src')!r})\n"
        "from wplap.cli import main\n"
        f"code = main(['solve', '--config', {str(cfg)!r}, '--out', {str(tmp_path / 'out')!r}])\n"
        "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         timeout=120, check=True)
    assert out.stdout.splitlines()[-1] == "0 []"
