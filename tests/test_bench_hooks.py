"""The benchmark's tracer (bench/tracer.py) patches package functions by name
and binds some of their parameters by name, and its mesh-size sweep
(bench/sweep.py) calls package entry points directly.  A rename or a changed
signature in the package has to fail here, in the package's own suite, and
not only in bench/test_bench.py.  The bench modules are loaded read-only;
nothing is patched."""
import importlib
import importlib.util
import inspect
import pkgutil
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import wplap
from wplap import solver
from wplap.energy import EnergyAssembler, make_nonlinearity
from wplap.geometry import Domain, build_mesh
from wplap.weight import WeightSpec

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _bench_module(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _package_modules() -> dict:
    return {info.name: importlib.import_module(f"wplap.{info.name}")
            for info in pkgutil.iter_modules(wplap.__path__)}


def _span_table():
    return _bench_module("tracer").span_table(_package_modules())


def test_every_traced_attribute_exists():
    missing = [(getattr(owner, "__name__", repr(owner)), attr)
               for owner, attr, *_ in _span_table() if attr not in vars(owner)]
    assert missing == []


def test_shoot_observer_reads_the_domain():
    """The tracer counts RK4 steps from shoot's domain, bound by name, through
    Domain.kind and Domain.bounds."""
    from wplap.oracle1d import shoot
    observe = next(obs for _, _, name, obs, _ in _span_table() if name == "oracle1d.shoot")
    counters = Counter()
    args = (np.array([0.5, 1.0]), Domain.interval(0.0, 2.0), WeightSpec.constant(1.0),
            2.0, 0.0, 0.0)
    kwargs = {"steps_per_unit": 32}
    observe(counters, args, kwargs, shoot(*args, **kwargs))
    assert counters == {"oracle1d.sigmas_marched": 2, "oracle1d.rk4_steps": 64}


def test_observed_parameters_are_bound_by_name():
    from wplap.oracle1d import shoot
    from wplap.solver import solve_cell
    assert {"domain", "steps_per_unit"} <= set(inspect.signature(shoot).parameters)
    assert "config" in inspect.signature(solve_cell).parameters


@pytest.mark.parametrize("domain,h,p", [(Domain.interval(0.0, 1.0), 1 / 16, 2.0),
                                        (Domain.box(0.0, 1.0, 0.0, 1.0), 0.25, 2.0),
                                        (Domain.box(0.0, 1.0, 0.0, 1.0), 0.25, 3.0)],
                         ids=["1d", "2d", "2d-p3"])
def test_descent_calls_the_traced_solve_and_tangent(monkeypatch, domain, h, p):
    """The traced run counts numpy.linalg.solve inside solver spans and
    EnergyAssembler.tangent on the class, both looked up at call time; a
    Newton step that reached neither would empty those spans.  At p = 3 the
    descent also tries the step (p - 1) dv, which must not bypass them."""
    calls = Counter()

    def count(owner, name):
        fn = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)

    count(np.linalg, "solve")
    count(EnergyAssembler, "tangent")
    mesh = build_mesh(domain, h)
    asm = EnergyAssembler(mesh, WeightSpec.constant(1.0), p, lam=0.5,
                          f=make_nonlinearity("t", primitive="0.5*t^2"))
    start = np.sin(np.pi * mesh.vertices).prod(axis=1)
    v, rn, ok, _ = solver._descend(asm, start, solver.SolverConfig())
    assert ok
    assert calls["solve"] >= 1 and calls["tangent"] >= 1


def test_tiny_sweep_runs_on_the_package(tmp_path):
    """The sweep times mesh build, assembler setup, energy, residual, the
    bordered tangent(v), a dense solve with it and estimate_k, in 1D and 2D;
    every layer must run and give a finite time."""
    sweep, workloads = _bench_module("sweep"), _bench_module("workloads")
    configs = workloads.write_configs(tmp_path, tiny=True)
    out = sweep.run_sweep(_package_modules(), workloads.SHIPPED_CONFIG, configs["box2d"],
                          tiny=True)
    layers = {key.rsplit(".", 1)[0] for key in out if key.endswith(".exponent")}
    assert layers == {f"sweep.1d.{name}" for name in (
        "geometry.build_mesh", "energy.assembler_init", "energy.energy", "energy.residual",
        "energy.tangent", "linalg.solve", "space.estimate_k")} | {
        "sweep.2d.geometry.build_mesh", "sweep.2d.space.estimate_k"}
