"""The benchmark tracer (benchmark/tracing.py) rebinds package functions by
name and records a renamed one as absent, which turns its per-layer
metrics into None without failing.  These tests hold the package to the
names and parameter names the tracer binds."""

import importlib.util
import inspect
from pathlib import Path

import pytest

import sphere_spectra  # noqa: F401  (loads every module the tracer wraps)

TRACING = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"

# (module, function): parameter names the tracer reads from a call
TARGETS = {
    ("cli", "main"): (),
    ("boundary", "det_functional"): (),
    ("rootfinder", "trace_parameter"): (),
    ("rootfinder", "scan_real_roots"): (),
    ("rootfinder", "refine_complex"): (),
    ("series", "coeffs_k_batch"): ("s", "M"),
    ("series", "coeffs_k0_batch"): ("s", "M"),
    ("oracle", "shoot_functional"): ("params", "n_steps", "which"),
}


def _tracing():
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module, function", sorted(TARGETS))
def test_target_exists_with_bound_parameters(module, function):
    mod = importlib.import_module(f"sphere_spectra.{module}")
    fn = getattr(mod, function, None)
    assert callable(fn), f"{module}.{function} is gone"
    names = inspect.signature(fn).parameters
    assert all(p in names for p in TARGETS[module, function]), list(names)


def test_tracer_finds_every_target():
    tracer = _tracing().Tracer()
    assert {(m, f) for m, f, *_ in tracer._targets()} == set(TARGETS)
    tracer.install()
    try:
        assert tracer.absent == []
    finally:
        tracer.uninstall()
