"""The benchmark tracer (benchmark/tracing.py) rebinds package functions by
name and records a renamed one as absent, which turns its per-layer
metrics into None without failing.  These tests hold the package to the
names and parameter names the tracer binds."""

import importlib.util
import inspect
from pathlib import Path

import pytest

import sphere_spectra.cli  # noqa: F401  (loads every module the tracer wraps)

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
    ("oracle", "shoot_functional"): ("params", "n_steps"),
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


def test_traced_cli_runs_report_the_layers_they_cross(tmp_path):
    """One small spectrum and one small trace through cli.main: the layers
    a determinant speedup is measured on (the F calls, the boundary and
    root-finder self time, the series kernel) all read non-zero."""
    from sphere_spectra import cli

    tracer = _tracing().Tracer()
    tracer.install()
    try:
        assert cli.main(["spectrum", "--k", "1", "--x0", "0.9", "--smax",
                         "4", "--output", str(tmp_path / "s.csv")]) == 0
        assert cli.main(["trace", "--k", "1", "--x0", "0.9", "--smax", "4",
                         "--sweep", "eps:2:3:0.25",
                         "--output", str(tmp_path / "t.csv")]) == 0
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    assert metrics["cli.ops"] == 2
    for name in ("boundary.F_ms.p50", "boundary.self_s", "series.kernel_s",
                 "rootfinder.self_s"):
        assert metrics[name] > 0, name
    assert metrics["rootfinder.functionals"] == 5     # one per sweep value
