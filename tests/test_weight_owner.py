"""weight.py alone reads a weight's form.

Every other package module evaluates a weight through eval_weight and
weight_lower_bound, and asks WeightSpec.singular_on_boundary whether a
blows up on the boundary; none of them reads a `.form` or `.exponent`
attribute, or compares anything with the form strings "constant" and
"distance_power".  So the rule that a weight key its form does not read is
an error lives in WeightSpec, and config passes the [weight] keys through."""
import ast
from pathlib import Path

import pytest

from wplap.weight import WeightSpec

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "wplap"
FORMS = ("constant", "distance_power")
NOT_WEIGHT = sorted(p for p in PACKAGE.glob("*.py") if p.name != "weight.py")


def weight_reads(source: str) -> list:
    return sorted((node.lineno, node.attr) for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr in ("form", "exponent"))


def _names_a_form(node) -> bool:
    return any(isinstance(n, ast.Constant) and n.value in FORMS for n in ast.walk(node))


def form_comparisons(source: str) -> list:
    """Lines that compare with a form string: ==, !=, in and not in (also
    against a tuple, list or set of them), and match-case patterns."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare) and any(
                _names_a_form(operand) for operand in (node.left, *node.comparators)):
            lines.add(node.lineno)
        elif isinstance(node, ast.MatchValue) and _names_a_form(node.value):
            lines.add(node.lineno)
    return sorted(lines)


def test_detector_flags_form_and_exponent():
    src = ("def f(w, cfg):\n"
           "    l = w.exponent\n"
           "    if cfg.weight.form == 'constant':\n"
           "        return w.singular_on_boundary\n")
    assert weight_reads(src) == [(2, "exponent"), (3, "form")]


def test_detector_flags_form_string_comparisons():
    src = ("def f(form, table):\n"
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
           "    return form == 'power'\n")
    assert form_comparisons(src) == [2, 4, 6, 8]


@pytest.mark.parametrize("path", NOT_WEIGHT, ids=lambda p: p.name)
def test_only_weight_reads_form_or_exponent(path):
    assert weight_reads(path.read_text()) == []


@pytest.mark.parametrize("path", NOT_WEIGHT, ids=lambda p: p.name)
def test_only_weight_compares_weight_forms(path):
    assert form_comparisons(path.read_text()) == []


@pytest.mark.parametrize("keys, unread", [
    ({"form": "distance_power", "exponent": 0.5, "value": 5.0}, "value"),
    ({"form": "constant", "value": 2.0, "exponent": 2.0}, "exponent"),
])
def test_weight_rejects_the_key_its_form_does_not_read(keys, unread):
    with pytest.raises(ValueError, match=f"does not read '{unread}'"):
        WeightSpec(**keys)
    WeightSpec(**{**keys, unread: getattr(WeightSpec, unread)})   # at its default it is accepted
