"""The benchmark's tracer (bench/tracer.py) patches package functions by name
and binds some of their parameters by name.  A rename in the package has to
fail here, in the package's own suite, and not only in bench/test_bench.py.
The tracer module is loaded read-only; nothing is patched."""
import importlib
import importlib.util
import inspect
import pkgutil
from pathlib import Path

import wplap

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _span_table():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    modules = {info.name: importlib.import_module(f"wplap.{info.name}")
               for info in pkgutil.iter_modules(wplap.__path__)}
    return tracer.span_table(modules)


def test_every_traced_attribute_exists():
    missing = [(getattr(owner, "__name__", repr(owner)), attr)
               for owner, attr, *_ in _span_table() if attr not in vars(owner)]
    assert missing == []


def test_observed_parameters_are_bound_by_name():
    from wplap.oracle1d import shoot
    from wplap.solver import solve_cell
    assert {"domain", "steps_per_unit"} <= set(inspect.signature(shoot).parameters)
    assert "config" in inspect.signature(solve_cell).parameters
