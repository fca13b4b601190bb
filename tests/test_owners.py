"""Each input's form has one owner module, which alone reads it.

geometry.py alone decides between an interval and a box: every other
package module reads Domain.axes (the per-axis (lo, hi) pairs) and
Domain.dim.  weight.py alone reads a weight's form: every other module
evaluates a weight through eval_weight and weight_lower_bound, and asks
WeightSpec.singular_on_boundary whether a blows up on the boundary, so the
rule that a weight key its form does not read is an error lives in
WeightSpec, and config passes the [weight] keys through.  No module but the
owner reads the owner's attributes, or compares anything with its strings."""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "wplap"

# owner module: (the attributes only it reads, the strings only it compares with)
OWNERS = {
    "geometry.py": (("bounds", "kind"), ("interval", "box")),
    "weight.py": (("form", "exponent"), ("constant", "distance_power")),
}
OTHERS = [pytest.param(owner, path, id=f"{owner}-{path.name}") for owner in OWNERS
          for path in sorted(PACKAGE.glob("*.py")) if path.name != owner]


def attribute_reads(source: str, attrs) -> list:
    return sorted((node.lineno, node.attr) for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr in attrs)


def string_comparisons(source: str, strings) -> list:
    """Lines that compare with one of strings: ==, !=, in and not in (also
    against a tuple, list or set of them), and match-case patterns."""
    def names_one(node) -> bool:
        return any(isinstance(n, ast.Constant) and n.value in strings for n in ast.walk(node))

    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare) and any(
                names_one(operand) for operand in (node.left, *node.comparators)):
            lines.add(node.lineno)
        elif isinstance(node, ast.MatchValue) and names_one(node.value):
            lines.add(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("owner, src, expected", [
    ("geometry.py",
     "def f(domain, cfg, kind):\n"
     "    lo = domain.bounds[0]\n"
     "    if cfg.domain.kind == 'box' or kind == 'box':\n"
     "        return domain.axes\n",
     [(2, "bounds"), (3, "kind")]),
    ("weight.py",
     "def f(w, cfg):\n"
     "    l = w.exponent\n"
     "    if cfg.weight.form == 'constant':\n"
     "        return w.singular_on_boundary\n",
     [(2, "exponent"), (3, "form")]),
], ids=["geometry", "weight"])
def test_attribute_read_detector(owner, src, expected):
    assert attribute_reads(src, OWNERS[owner][0]) == expected


@pytest.mark.parametrize("owner, src", [
    ("geometry.py",
     "def f(kind, bounds, table):\n"
     "    if kind == 'interval':\n"
     "        pass\n"
     "    elif 'box' != kind:\n"
     "        pass\n"
     "    ok = kind in ('interval', 'box')\n"
     "    match kind:\n"
     "        case 'box':\n"
     "            pass\n"
     "    name = 'interval'\n"
     "    dim = table.get(kind, 0)\n"
     "    return kind == 'ball'\n"),
    ("weight.py",
     "def f(form, table):\n"
     "    if form == 'constant':\n"
     "        pass\n"
     "    elif 'distance_power' != form:\n"
     "        pass\n"
     "    ok = form in ('constant', 'distance_power')\n"
     "    match form:\n"
     "        case 'distance_power':\n"
     "            pass\n"
     "    name = 'constant'\n"
     "    value = table.get(form, 0)\n"
     "    return form == 'power'\n"),
], ids=["geometry", "weight"])
def test_string_comparison_detector(owner, src):
    assert string_comparisons(src, OWNERS[owner][1]) == [2, 4, 6, 8]


@pytest.mark.parametrize("owner, path", OTHERS)
def test_only_the_owner_reads_its_attributes(owner, path):
    assert attribute_reads(path.read_text(), OWNERS[owner][0]) == []


@pytest.mark.parametrize("owner, path", OTHERS)
def test_only_the_owner_compares_its_strings(owner, path):
    assert string_comparisons(path.read_text(), OWNERS[owner][1]) == []
