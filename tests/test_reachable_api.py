"""Every public function and method in src/wplap is referenced by some
module of the package, or is on the allow-list below with its reason.

A function is referenced by any name or attribute access spelled like it
(`ast.Name` or `ast.Attribute`), a method only by an attribute access, so a
local variable spelled like a method does not count; an import or an
`__all__` entry is not a reference.  Code that only tests reach is deleted
rather than kept.  Likewise every parameter of a function or method (a
lambda aside) is read in its body: a parameter nothing reads is deleted;
no function takes a mesh and a domain besides, as the mesh holds its own;
and every attribute a class stores is read by some module of the package."""
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
    "oracle1d.profile_on_mesh": "README Python API: oracle profile onto a mesh",
    "weight.WeightSpec.constant": "README Python API: builds the constant weight",
    "weight.WeightSpec.distance_power": "Python API: the counterpart of WeightSpec.constant",
    # references that the acceptance gate and the tests check the core against
    "energy.gradient_check": "acceptance gate: residual against finite differences",
    "energy.weak_form_gap": "tests: the residual as a weak form tested against v",
    # ROADMAP item 4, bound (a): Talenti at p times a_min^(-1/p)
    "weight.weight_lower_bound": "ROADMAP item 4: the a_min of bound (a)",
}

# every private name that one package module imports from another, as
# '<importer>: <module>.<name>', with its reason; a new one fails the test
PRIVATE_IMPORTS = {
    "certificate: energy._F_PANELS": "H3's note and the sample chunking name the panel "
                                     "cap of F by quadrature",
    "certificate: energy._GL20": "the box integral and the sample chunking use the same "
                                 "20-point Gauss rule",
    "certificate: energy._MAX_PANELS": "the unconverged-quadrature note names the panel cap",
    "certificate: energy._gauss_panels": "the one composite Gauss doubler, for the annulus, "
                                         "u* and domain integrals",
    "certificate: energy._primitive_F": "H3 reads F with its converged flag and no warning",
    "energy: space._cell_terms": "the one norm kernel behind the energy",
    "energy: space._cell_weight_integrals": "int_cell a dx, shared with weighted_norm",
    "energy: space._gather": "the one per-cell gather behind residual and tangent",
    "energy: space._norm_terms": "the one norm kernel behind the energy",
    "cli: config._located": "every config error, the CLI's regime errors too, has one format",
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


def unread_parameters(source: str, module: str) -> list:
    """'<module>.<function>(<parameter>)' (a method under its own name) for
    every parameter of every function and method, nested ones too, that its
    body never reads as a plain name; lambdas are not checked."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs
                  + [args.vararg, args.kwarg] if a is not None]
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        out += [f"{module}.{node.name}({name})" for name in params if name not in read]
    return out


def test_unread_parameter_detector():
    source = ("def f(a, b, *rest, c=1, **kw):\n"
              "    def g(d, e):\n        return d + a\n"
              "    b = 2\n    return g, lambda t, x: x, kw\n"
              "class C:\n    def m(self, y):\n        return self\n")
    # b is assigned but never read; the lambda's t is not checked
    assert sorted(unread_parameters(source, "a")) == \
        ["a.f(b)", "a.f(c)", "a.f(rest)", "a.g(e)", "a.m(y)"]


def test_every_parameter_is_read():
    unread = [name for path in sorted(PACKAGE.glob("*.py"))
              for name in unread_parameters(path.read_text(), path.stem)]
    assert unread == []


# functions that take a mesh and a domain besides, with the reason each
# stays; a mesh holds its domain (Mesh.domain), and a second holder of the
# domain can disagree with it
MESH_AND_DOMAIN = {
    "space.estimate_k": "bench/sweep.py calls it positionally as (domain, w, p, s, mesh)",
}


def mesh_and_domain(source: str, module: str) -> list:
    """'<module>.<function>' (a method under its own name) for every function
    and method, nested ones too, with both a `mesh` and a `domain` parameter."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            params = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
            if {"mesh", "domain"} <= params:
                out.append(f"{module}.{node.name}")
    return out


def test_mesh_and_domain_detector():
    source = ("def f(domain, w, mesh):\n"
              "    def g(mesh, *, domain=None):\n        return mesh, domain\n"
              "    return g(mesh, domain=domain), w\n"
              "def h(mesh):\n    return mesh.domain\n"
              "def k(domain, meshes):\n    return domain, meshes\n"
              "class C:\n    def m(self, mesh, domain):\n        return mesh, domain\n")
    assert mesh_and_domain(source, "a") == ["a.f", "a.g", "a.m"]


def test_no_function_takes_a_mesh_and_its_domain():
    found = [name for path in sorted(PACKAGE.glob("*.py"))
             for name in mesh_and_domain(path.read_text(), path.stem)]
    assert sorted(found) == sorted(MESH_AND_DOMAIN)


def private_imports(source: str, module: str) -> list:
    """'<module>: <imported module>.<name>' for every underscore name that
    source imports from a module of the package (relative imports, those
    inside functions too)."""
    return [f"{module}: {node.module.rsplit('.', 1)[-1]}.{alias.name}"
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.module
            and (node.level > 0 or node.module.split(".")[0] == "wplap")
            for alias in node.names if alias.name.startswith("_")]


def test_private_import_detector():
    source = ("from .energy import _a, b\nfrom wplap.space import _c\n"
              "from numpy import _d\nfrom . import _e\n"
              "def f():\n    from .solver import _g\n")
    assert private_imports(source, "m") == ["m: energy._a", "m: space._c", "m: solver._g"]


def test_every_private_import_is_listed():
    found = [name for path in sorted(PACKAGE.glob("*.py"))
             for name in private_imports(path.read_text(), path.stem)]
    assert sorted(found) == sorted(PRIVATE_IMPORTS)


# stored attributes that no package module reads, with the reason each stays
UNREAD_STORED = {
    "oracle1d.ShootingProfile.brackets": "tests: check the bracket search through it",
    "space.EmbeddingEstimate.witness": "tests: check k_lower against the function that attains it",
}


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass"
               for d in node.decorator_list)


def stored_attributes(source: str, module: str) -> list:
    """'<module>.<Class>.<name>' for every attribute a class of source
    stores: a field of a dataclass (an annotated name in its body) or a
    `self.name = ...` assignment in one of its methods."""
    out = []
    for cls in ast.walk(ast.parse(source)):
        if not isinstance(cls, ast.ClassDef):
            continue
        names = [item.target.id for item in cls.body if _is_dataclass(cls)
                 and isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)]
        names += [n.attr for item in cls.body if isinstance(item, ast.FunctionDef)
                  for n in ast.walk(item) if isinstance(n, ast.Attribute)
                  and isinstance(n.ctx, ast.Store)
                  and isinstance(n.value, ast.Name) and n.value.id == "self"]
        out += [f"{module}.{cls.name}.{name}" for name in dict.fromkeys(names)]
    return out


def unread_stored(sources: dict) -> list:
    """The stored attributes of sources ({module: text}) that no module
    loads as `.name`, and whose class no module enumerates through
    `fields(<Class>)` (or `dataclasses.fields(<Class>)`).

    A stored attribute is keyed on its name alone, not on its class: a load
    of `.name` on any object counts as reading it.  So an unread field whose
    name another object's attribute shares, such as `u`, `x`, `k`, `p`,
    `note` or `mode`, goes unseen."""
    trees = [ast.parse(text) for text in sources.values()]
    nodes = [node for tree in trees for node in ast.walk(tree)]
    loaded = {node.attr for node in nodes
              if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    enumerated = {node.args[0].id for node in nodes
                  if isinstance(node, ast.Call) and node.args
                  and isinstance(node.args[0], ast.Name)
                  and "fields" in (getattr(node.func, "id", None),
                                   getattr(node.func, "attr", None))}
    return [qualified for module, text in sources.items()
            for qualified in stored_attributes(text, module)
            if qualified.split(".")[2] not in loaded
            and qualified.split(".")[1] not in enumerated]


def test_unread_stored_detector():
    sources = {"a": "from dataclasses import dataclass, fields\n"
                    "@dataclass\nclass D:\n    x: int\n    y: int = 0\n    Z = 1\n"
                    "@dataclass\nclass E:\n    e: int\n"
                    "class P:\n    n: int\n"
                    "    def __init__(self, a):\n"
                    "        self.a, self.b = a, a\n        self.c = 0\n        self.c += 1\n"
                    "        self.d = self.a\n"
                    "names = [f.name for f in fields(E)]\n",
               "b": "def f(d):\n    d.b = 1\n    return d.x\n"}
    # a, e and x are read (e through fields(E)); b, c, d and y are only
    # stored, c by += too; Z is no field, and neither is n of the plain P
    assert sorted(unread_stored(sources)) == ["a.D.y", "a.P.b", "a.P.c", "a.P.d"]


def test_every_stored_attribute_is_read_or_allowed():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert sorted(unread_stored(sources)) == sorted(UNREAD_STORED)
