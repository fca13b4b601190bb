"""Every import in the package is used (no linter ships with the test extra),
the runtime needs numpy alone, and a cold start loads only the numpy it uses.

No command, nor loading a config, loads numpy.random (about 13 ms and
6 MB resident, with secrets, hmac, hashlib and OpenSSL behind it) or
numpy.polynomial: the primitive check takes a fixed quasi-random point set,
the Gauss rules are literal tables, and the solver's seeded random start is
an in-package PCG64 draw, bit for bit numpy's.  No package module imports
numpy.random or reads np.random, which a static check keeps so.

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


def random_uses(source: str) -> list:
    """Lines that import numpy.random (in any import form) or read the
    attribute random of numpy or np."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            hit = any(a.name == "numpy.random" or a.name.startswith("numpy.random.")
                      for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            hit = (module == "numpy.random" or module.startswith("numpy.random.")
                   or (module == "numpy" and any(a.name == "random" for a in node.names)))
        else:
            hit = (isinstance(node, ast.Attribute) and node.attr == "random"
                   and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"))
        if hit:
            lines.append(node.lineno)
    return sorted(lines)


def test_random_detector_flags_every_form():
    src = ("import numpy as np\nimport random\n"
           "import numpy.random\nimport numpy.random.mtrand as mt\n"
           "from numpy.random import default_rng\nfrom numpy import random as npr, zeros\n"
           "rng = np.random.default_rng(1)\nnumpy.random.seed(2)\n"
           "x = random.random() + np.zeros(1).random\n")
    assert random_uses(src) == [3, 4, 5, 6, 7, 8]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_package_never_names_numpy_random(path):
    assert random_uses(path.read_text()) == []


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


SHIPPED = REPO / "configs" / "three_solutions_1d.cfg"
# the shipped config on a coarse mesh and a coarse sigma scan, so a run is quick
COARSE = (("h = 0.00390625", "h = 0.03125"),
          ("[run]", "[oracle]\nsigma_min = -10.0\nsigma_max = 10.0\nn_scan = 401\n\n[run]"))


def modules_after(tmp_path, body: str, prefixes: tuple) -> list:
    """The modules named by prefixes that a fresh interpreter holds after
    running body, with `cfg` the coarse config and `out` an output folder;
    body must succeed."""
    text = SHIPPED.read_text()
    for old, new in COARSE:
        text = text.replace(old, new)
    cfg = tmp_path / "coarse.cfg"
    cfg.write_text(text)
    script = (
        "import sys\n"
        f"sys.path.insert(0, {str(REPO / 'src')!r})\n"
        f"cfg, out = {str(cfg)!r}, {str(tmp_path / 'out')!r}\n"
        f"{body}\n"
        f"print(sorted(m for m in sys.modules if m.startswith({prefixes!r})))\n")
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         timeout=120, check=True)
    return ast.literal_eval(run.stdout.splitlines()[-1])


def test_solve_imports_no_scipy(tmp_path):
    """A CLI solve in a fresh interpreter loads no scipy module: importing
    scipy.sparse.linalg alone adds about 0.4 s and 32 MB to a run."""
    body = "from wplap.cli import main\nassert main(['solve', '--config', cfg, '--out', out]) == 0"
    assert modules_after(tmp_path, body, ("scipy",)) == []


COLD = ("numpy.random", "numpy.polynomial")
CLI = "from wplap.cli import main\nassert main([{!r}, '--config', cfg, '--out', out]) == 0"


@pytest.mark.parametrize("body", [
    f"import wplap\nwplap.load_config({str(SHIPPED)!r})",
    CLI.format("check"),
    CLI.format("oracle"),
    CLI.format("solve"),
    CLI.format("scan"),
], ids=["load_config", "check", "oracle", "solve", "scan"])
def test_cold_start_loads_no_random_or_polynomial(tmp_path, body):
    assert modules_after(tmp_path, body, COLD) == []
