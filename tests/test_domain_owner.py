"""geometry.py alone decides between an interval and a box.

Every other package module reads Domain.axes (the per-axis (lo, hi) pairs)
and Domain.dim; none of them reads a `.bounds` or `.kind` attribute."""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "wplap"


def domain_reads(source: str) -> list:
    return sorted((node.lineno, node.attr) for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr in ("bounds", "kind"))


def test_detector_flags_bounds_and_kind():
    src = ("def f(domain, cfg, kind):\n"
           "    lo = domain.bounds[0]\n"
           "    if cfg.domain.kind == 'box' or kind == 'box':\n"
           "        return domain.axes\n")
    assert domain_reads(src) == [(2, "bounds"), (3, "kind")]


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py")
                                        if p.name != "geometry.py"),
                         ids=lambda p: p.name)
def test_only_geometry_reads_bounds_or_kind(path):
    assert domain_reads(path.read_text()) == []
