"""Every public function and method in src/wplap is referenced by some
module of the package, or is on the allow-list below with its reason.

A reference is any name or attribute access spelled like the function
(`ast.Name` or `ast.Attribute`); an import or an `__all__` entry is not
one.  Code that only tests reach is deleted rather than kept."""
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
    "solver.invert_phi_prime": "acceptance gate: uniqueness of the monotone inversion",
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


def referenced_names(source: str) -> set:
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Name, ast.Attribute))}


def unreferenced(sources: dict) -> list:
    """The public functions of sources ({module: text}) that no module names."""
    refs = set().union(*map(referenced_names, sources.values()))
    return [name for module, text in sources.items()
            for name in public_functions(text, module) if name.rsplit(".", 1)[1] not in refs]


def test_detector():
    sources = {"a": "from b import used\n__all__ = ['kept']\n"
                    "def kept():\n    return used()\n"
                    "class C:\n    def m(self):\n        pass\n"
                    "    def _private(self):\n        pass\n",
               "b": "def used():\n    return C().m\n\ndef orphan():\n    pass\n"}
    assert unreferenced(sources) == ["a.kept", "b.orphan"]


def test_every_public_function_is_reached_or_allowed():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert sorted(unreferenced(sources)) == sorted(ALLOWED)
