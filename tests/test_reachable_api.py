"""Every public function and method in src/wplap is referenced by some
module of the package, or is on the allow-list below with its reason.

A function is referenced by any name or attribute access spelled like it
(`ast.Name` or `ast.Attribute`), a method only by an attribute access, so a
local variable spelled like a method does not count; an import or an
`__all__` entry is not a reference.  Code that only tests reach is deleted
rather than kept."""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "wplap"

ALLOWED = {
    # the README promises a reader for every file the CLI writes
    "cli.read_certificate": "README: reader of certificate.txt",
    "cli.read_constants_csv": "README: reader of constants.csv",
    "cli.read_oracle_profile": "README: reader of oracle_profile.csv",
    "cli.read_scan_summary": "README: reader of scan_summary.csv",
    "cli.read_solution_csv": "README: reader of solution and oracle root files",
    # the README's Python API
    "geometry.Domain.interval": "README Python API: builds the interval domain",
    "geometry.Domain.box": "Python API: the 2D counterpart of Domain.interval",
    "oracle1d.profile_on_mesh": "README Python API: oracle profile onto a mesh",
    # references that the acceptance gate and the tests check the core against
    "energy.gradient_check": "acceptance gate: residual against finite differences",
    "energy.weak_form_gap": "tests: the residual as a weak form tested against v",
    # ROADMAP item 4, bound (a): Talenti at p times a_min^(-1/p)
    "weight.weight_lower_bound": "ROADMAP item 4: the a_min of bound (a)",
}


def public_functions(source: str, module: str) -> list:
    """'<module>.<function>' and '<module>.<Class>.<method>' for every
    public top-level function and public method."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            out.append(f"{module}.{node.name}")
        elif isinstance(node, ast.ClassDef):
            out += [f"{module}.{node.name}.{item.name}" for item in node.body
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")]
    return out


def referenced_names(source: str) -> tuple:
    """(plain names, attribute names) that source reads."""
    nodes = list(ast.walk(ast.parse(source)))
    return ({node.id for node in nodes if isinstance(node, ast.Name)},
            {node.attr for node in nodes if isinstance(node, ast.Attribute)})


def unreferenced(sources: dict) -> list:
    """The public functions and methods of sources ({module: text}) that no
    module names; a method only through an attribute access."""
    refs = [referenced_names(text) for text in sources.values()]
    names = set().union(*(n for n, _ in refs))
    attrs = set().union(*(a for _, a in refs))
    return [qualified for module, text in sources.items()
            for qualified in public_functions(text, module)
            if qualified.rsplit(".", 1)[1] not in
            (attrs if qualified.count(".") == 2 else names | attrs)]


def test_detector():
    # b's local variable entry does not reach the method C.entry
    sources = {"a": "from b import used\n__all__ = ['kept']\n"
                    "def kept():\n    return used()\n"
                    "class C:\n    def m(self):\n        pass\n"
                    "    def entry(self):\n        pass\n"
                    "    def _private(self):\n        pass\n",
               "b": "def used():\n    entry = C().m\n    return entry\n\n"
                    "def orphan():\n    pass\n"}
    assert unreferenced(sources) == ["a.kept", "a.C.entry", "b.orphan"]


def test_every_public_function_is_reached_or_allowed():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert sorted(unreferenced(sources)) == sorted(ALLOWED)
