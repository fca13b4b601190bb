"""geometry.py alone decides between an interval and a box.

Every other package module reads Domain.axes (the per-axis (lo, hi) pairs)
and Domain.dim; none of them reads a `.bounds` or `.kind` attribute, or
compares anything with the kind strings "interval" and "box"."""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "wplap"
KINDS = ("interval", "box")
NOT_GEOMETRY = sorted(p for p in PACKAGE.glob("*.py") if p.name != "geometry.py")


def domain_reads(source: str) -> list:
    return sorted((node.lineno, node.attr) for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr in ("bounds", "kind"))


def _names_a_kind(node) -> bool:
    return any(isinstance(n, ast.Constant) and n.value in KINDS for n in ast.walk(node))


def kind_comparisons(source: str) -> list:
    """Lines that compare with a kind string: ==, !=, in and not in (also
    against a tuple, list or set of them), and match-case patterns."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare) and any(
                _names_a_kind(operand) for operand in (node.left, *node.comparators)):
            lines.add(node.lineno)
        elif isinstance(node, ast.MatchValue) and _names_a_kind(node.value):
            lines.add(node.lineno)
    return sorted(lines)


def test_detector_flags_bounds_and_kind():
    src = ("def f(domain, cfg, kind):\n"
           "    lo = domain.bounds[0]\n"
           "    if cfg.domain.kind == 'box' or kind == 'box':\n"
           "        return domain.axes\n")
    assert domain_reads(src) == [(2, "bounds"), (3, "kind")]


def test_detector_flags_kind_string_comparisons():
    src = ("def f(kind, bounds, table):\n"
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
           "    return kind == 'ball'\n")
    assert kind_comparisons(src) == [2, 4, 6, 8]


@pytest.mark.parametrize("path", NOT_GEOMETRY, ids=lambda p: p.name)
def test_only_geometry_reads_bounds_or_kind(path):
    assert domain_reads(path.read_text()) == []


@pytest.mark.parametrize("path", NOT_GEOMETRY, ids=lambda p: p.name)
def test_only_geometry_compares_domain_kinds(path):
    assert kind_comparisons(path.read_text()) == []
