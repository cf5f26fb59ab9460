"""Command-line front end.

Commands:
  spectrum   roots of the series determinant for one (k, eps, x0, M);
             x0 = 1 is answered from the closed-form spectra
  oracle     roots of the shooting integrator (independent of the series);
             --chi selects the transformed self-adjoint problem
  trace      roots swept along x0 or eps with coalescence tracking
  figures    canned sweeps reproducing the published root diagrams
  verify     run the self-verification suite

Output is CSV (default) or JSON with the fixed row schema
param,branch,re_s,im_s,re_mu,im_mu,residual,stable,source at 15
significant digits; identical configs produce byte-identical files.
Exit codes: 0 ok, 1 verification failure, 2 bad configuration (among
them non-finite values, an unknown verify filter and an unwritable
output), 3 non-finite solver state.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import __version__, analytic, boundary, oracle, verify
from .core import NonFiniteError, SpectralParams, in_stability_domain
from .rootfinder import ScanConfig, scan_real_roots, trace_parameter

SCHEMA = ("param", "branch", "re_s", "im_s", "re_mu", "im_mu",
          "residual", "stable", "source")

SWEEP_PARAMS = ("x0", "eps", "M")
MAX_SWEEP = 10_000      # values in one sweep; the canned figures take <= 121


@dataclass(frozen=True)
class RunConfig:
    """Validated invocation: command, problem instance, scan window,
    sweep (required for trace), output destination."""

    command: str
    params: SpectralParams
    scan: ScanConfig
    sweep: tuple | None = None        # (name, start, stop, step)
    output: str | None = None
    fmt: str = "csv"
    n_steps: int = 2000
    chi: bool = False

    def __post_init__(self):
        if self.command == "trace" and self.sweep is None:
            raise ValueError("the trace command requires a sweep")
        if self.sweep is not None:
            name, start, stop, step = self.sweep
            if name not in SWEEP_PARAMS:
                raise ValueError(f"sweep parameter must be one of "
                                 f"{SWEEP_PARAMS}, got {name!r}")
            if not all(map(math.isfinite, (start, stop, step))):
                raise ValueError("sweep start, stop and step must be finite")
            if step <= 0 or stop <= start:
                raise ValueError("sweep needs stop > start and step > 0")
            # _sweep_values takes floor((stop - start) / step + 0.5) + 1
            if not (stop - start) / step + 0.5 < MAX_SWEEP:
                raise ValueError(f"a sweep takes at most {MAX_SWEEP} values")
        if self.fmt not in ("csv", "json"):
            raise ValueError(f"format must be csv or json, got {self.fmt!r}")


def _fmt(x: float) -> str:
    return f"{x + 0.0:.15g}"     # +0.0 folds -0.0 into 0


def _row(param, branch, s, mu, residual, source):
    return {
        "param": _fmt(param), "branch": str(branch),
        "re_s": _fmt(s.real), "im_s": _fmt(s.imag),
        "re_mu": _fmt(mu.real), "im_mu": _fmt(mu.imag),
        "residual": _fmt(residual),
        "stable": "true" if in_stability_domain(s) else "false",
        "source": source,
    }


def _emit(rows, cfg: RunConfig, meta: dict):
    text = _render(rows, cfg.fmt, meta)
    if cfg.output:
        with open(cfg.output, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _render(rows, fmt: str, meta: dict) -> str:
    if fmt == "csv":
        lines = [",".join(SCHEMA)]
        lines += [",".join(r[c] for c in SCHEMA) for r in rows]
        return "\n".join(lines) + "\n"
    doc = {"meta": meta, "rows": rows}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _meta(cfg: RunConfig) -> dict:
    return {
        "version": __version__,
        "command": cfg.command,
        "params": dataclasses.asdict(cfg.params),
        "scan": dataclasses.asdict(cfg.scan),
        "sweep": list(cfg.sweep) if cfg.sweep else None,
    }


def _filter_rows(roots, param, tol):
    """Render roots as rows, skipping (loudly) any whose error bound in s
    exceeds the configured tolerance."""
    rows = []
    for i, r in enumerate(roots):
        if r.error > tol:
            print(f"warning: dropping root s={r.s:.12g} with error "
                  f"{r.error:.2e} > tol {tol:.2e}", file=sys.stderr)
            continue
        rows.append(_row(param, i, r.s, r.mu, r.residual, r.source))
    return rows


def cmd_spectrum(cfg: RunConfig) -> int:
    p = cfg.params
    if p.x0 == 1.0:
        # s_n >= n, so modes n <= s_max + 1 cover the window
        n_max = int(cfg.scan.s_max) + 1
        spec = analytic.spectrum_full_sphere(p.k, p.eps, n_max)
        window = [(s, mu) for s, mu in zip(spec.s_values, spec.mu_values)
                  if cfg.scan.s_min <= s <= cfg.scan.s_max]
        rows = [_row(p.x0, i, complex(s), complex(mu), 0.0, "analytic")
                for i, (s, mu) in enumerate(window)]
        _emit(rows, cfg, _meta(cfg) | {"regime": spec.regime,
                                       "empty_nontrivial":
                                       spec.empty_nontrivial})
        return 0
    _series_spectrum(cfg, _meta(cfg), p.x0)
    return 0


def _series_spectrum(cfg: RunConfig, meta: dict, param):
    """Write the series-determinant roots of cfg.params, one row each
    with the given param column."""
    roots = scan_real_roots(boundary.det_functional(cfg.params),
                            _scan_for(cfg))
    _emit(_filter_rows(roots, param, cfg.scan.tol), cfg, meta)


def cmd_oracle(cfg: RunConfig) -> int:
    p = cfg.params
    shoot = oracle.shoot_functional(p, n_steps=cfg.n_steps,
                                    which="chi" if cfg.chi else "auto")
    roots = scan_real_roots(shoot, _scan_for(cfg), source="oracle")
    _emit(_filter_rows(roots, p.x0, cfg.scan.tol),
          cfg, _meta(cfg) | {"n_steps": cfg.n_steps, "chi": cfg.chi}
          | shoot.meta)
    return 0


def _scan_for(cfg: RunConfig) -> ScanConfig:
    """k = 0 problems exclude the trivial mu = 0, so the scan starts just
    above s = 0 there."""
    scan = cfg.scan
    if (cfg.params.k == 0 or cfg.chi) and scan.s_min <= 0.0:
        scan = replace(scan, s_min=scan.step)
    return scan


def _sweep_values(sweep) -> np.ndarray:
    """start + i*step, rounded to the rows' 15 digits, up to stop."""
    _, start, stop, step = sweep
    i = np.arange(int(np.floor((stop - start) / step + 0.5)) + 1)
    return np.array([float(_fmt(v)) for v in start + i * step])


def _at(params: SpectralParams, name: str, value) -> SpectralParams:
    """params with the swept parameter name set to value."""
    if name == "M":
        return replace(params, M=int(round(value)))
    return replace(params, **{name: float(value)})


def _run_ends(cfg: RunConfig) -> list:
    """Parameter sets at the two ends of the run's sweep (cfg.params alone
    without one); a sweep is monotone, so they bound every value."""
    if cfg.sweep is None:
        return [cfg.params]
    values = _sweep_values(cfg.sweep)
    return [_at(cfg.params, cfg.sweep[0], v) for v in (values[0], values[-1])]


def _family(params: SpectralParams, name: str):
    return lambda p: boundary.det_functional(_at(params, name, p))


def _trace_rows(branches):
    rows = sorted(((param, br.index, root) for br in branches
                   for param, root in br.samples), key=lambda t: t[:2])
    return [_row(param, idx, r.s, r.mu, r.residual, r.source)
            for param, idx, r in rows]


def _events_doc(branches):
    # both members of a merged pair hold the same event
    unique = {(ev.param, ev.branch_ids): ev
              for br in branches for ev in br.events}
    return sorted(({"param": float(_fmt(ev.param)),
                    "s_merged": float(_fmt(ev.s_merged)),
                    "branches": list(ev.branch_ids),
                    "seed": [ev.seed.real, ev.seed.imag]}
                   for ev in unique.values()), key=lambda e: e["param"])


def cmd_trace(cfg: RunConfig) -> int:
    _traced(cfg, _meta(cfg), {})
    return 0


def _traced(cfg: RunConfig, meta: dict, traces: dict,
            complex_only: bool = False):
    """Trace the sweep of cfg and write its rows, and its coalescence events
    and branch terminations (last param and reason) to the .events.json
    sidecar (to stderr without an output); JSON output carries the
    terminations in meta too.  traces maps each (params, sweep, scan
    window) the calling command has traced to its branches; a repeat
    reuses them."""
    name, scan = cfg.sweep[0], _scan_for(cfg)
    key = (cfg.params, cfg.sweep, scan)
    if key not in traces:
        traces[key] = trace_parameter(_family(cfg.params, name), name,
                                      _sweep_values(cfg.sweep), scan)
    branches = traces[key]
    rows = _trace_rows(branches)
    if complex_only:
        rows = [r for r in rows if r["im_s"] != "0"]
    events = {"events": _events_doc(branches),
              "terminations": [{"branch": br.index, "reason": br.note,
                                "param": float(_fmt(br.samples[-1][0]))}
                               for br in branches if br.note]}
    _emit(rows, cfg, meta | {"terminations": events["terminations"]})
    if cfg.output:
        with open(cfg.output + ".events.json", "w") as fh:
            json.dump(events, fh, indent=2, sort_keys=True)
            fh.write("\n")
    elif any(events.values()):
        print(json.dumps(events, sort_keys=True), file=sys.stderr)


FIGURE_TASKS = {
    # name: list of (suffix, command-like spec)
    "1": [(f"k{k}", {"params": dict(k=k, eps=0.0, x0=0.3, M=150),
                     "sweep": ("x0", 0.3, 0.99, 0.01),
                     "s_max": 12.0}) for k in (1, 3, 5)],
    "2": [(f"k{k}", {"params": dict(k=k, eps=0.0, x0=0.9, M=150),
                     "sweep": ("M", 25, 300, 25),
                     "s_max": 10.0}) for k in (1, 5)],
    "3": [(f"k{k}", {"params": dict(k=k, eps=0.0, x0=0.9, M=150),
                     "s_max": 12.0, "param": k})
          for k in range(1, 7)],
    "4": [(f"k{k}", {"params": dict(k=k, eps=0.0, x0=0.9, M=150),
                     "sweep": ("eps", 0.0, 12.0, 0.1),
                     "s_max": 10.0}) for k in (1, 3)],
    "5": [(f"k{k}", {"params": dict(k=k, eps=0.0, x0=0.9, M=150),
                     "sweep": ("eps", 0.0, 12.0, 0.1),
                     "s_max": 10.0, "complex_only": True}) for k in (1, 3)],
    "6": [("k0", {"params": dict(k=0, eps=1.0, x0=0.5, M=100),
                  "sweep": ("x0", 0.5, 0.97, 0.01), "s_max": 10.0})],
    "7": [(f"M{M}", {"params": dict(k=0, eps=4.0, x0=0.5, M=M),
                     "sweep": ("x0", 0.5, 0.97, 0.01), "s_max": 10.0})
          for M in (100, 1000)],
}


def _figure_task(cfg: RunConfig, fig: str, base: str, suffix: str,
                 spec: dict, traces: dict) -> str:
    """Write one figure dataset to base_suffix: a sweep (reusing traces,
    see _traced), or a spectrum when the preset has none."""
    task = replace(cfg, params=SpectralParams(**spec["params"]),
                   scan=replace(cfg.scan, s_max=spec["s_max"]),
                   sweep=spec.get("sweep"),
                   output=f"{base}_{suffix}.{cfg.fmt}")
    meta = _meta(task) | {"figure": fig, "series": suffix}
    if task.sweep is None:
        _series_spectrum(task, meta, spec["param"])
    else:
        _traced(task, meta, traces, spec.get("complex_only", False))
    return task.output


def cmd_figures(cfg: RunConfig, figure: str) -> int:
    if figure != "all" and figure not in FIGURE_TASKS:
        raise ValueError(f"unknown figure {figure!r}; choose from "
                         f"{sorted(FIGURE_TASKS)} or 'all'")
    keys = list(FIGURE_TASKS) if figure == "all" else [figure]
    traces = {}     # figure 5 shows the complex rows of figure 4's sweeps
    for key in keys:
        # figures share suffixes, so each name of a multi-figure run
        # carries its figure number
        base = cfg.output or f"figure{key}"
        if cfg.output and len(keys) > 1:
            base += f"_figure{key}"
        for suffix, spec in FIGURE_TASKS[key]:
            out = _figure_task(cfg, key, base, suffix, spec, traces)
            print(f"wrote {out}")
    return 0


def cmd_verify(only: str | None, output: str | None) -> int:
    results = verify.run_checks(only)
    for r in results:
        status = "PASS" if r["passed"] else "FAIL"
        print(f"{status} {r['group']}/{r['name']} ({r['seconds']:.2f}s): "
              f"{r['detail']}")
    doc = {"passed": all(r["passed"] for r in results), "checks": results}
    if output:
        with open(output, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0 if doc["passed"] else 1


@functools.cache         # one per process, built by main(), not at import
def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="sphere-spectra",
        description="Eigenvalue spectra of viscous flow perturbations on a "
                    "full or truncated sphere")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON file with default options")
        p.add_argument("--k", type=int, default=None)
        p.add_argument("--eps", type=float, default=None)
        p.add_argument("--x0", type=float, default=None)
        p.add_argument("--M", type=int, default=None)
        p.add_argument("--smin", type=float, default=None)
        p.add_argument("--smax", type=float, default=None)
        p.add_argument("--step", type=float, default=None)
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--output", default=None)
        p.add_argument("--format", dest="fmt", choices=("csv", "json"),
                       default=None)

    sp = sub.add_parser("spectrum", help="series-determinant root table")
    common(sp)
    so = sub.add_parser("oracle", help="shooting-oracle root table")
    common(so)
    so.add_argument("--steps", type=int, default=None,
                    help="RK4 step count (default 2000)")
    so.add_argument("--chi", action="store_true", default=None,
                    help="transformed self-adjoint problem instead of the "
                         "k-indexed system")
    st = sub.add_parser("trace", help="parameter sweep with branch tracking")
    common(st)
    st.add_argument("--sweep", default=None,
                    help="name:start:stop:step with name one of x0, eps, M")
    sf = sub.add_parser("figures", help="emit canned figure datasets")
    common(sf)
    sf.add_argument("--figure", default=None,
                    help="figure number (1-7) or 'all' (default 1)")
    sv = sub.add_parser("verify", help="run the self-verification suite")
    sv.add_argument("--only", default=None,
                    help="restrict to one group or check name")
    sv.add_argument("--output", default=None, help="JSON report path")
    return ap


_DEFAULTS = {"k": 1, "eps": 0.0, "x0": 0.9, "smin": 0.0, "smax": 8.0,
             "step": 0.05, "tol": 1e-10, "fmt": "csv", "steps": 2000,
             "chi": False, "figure": "1"}

# the JSON type of each config key's value, that of its flag (str if absent)
_CONFIG_TYPES = {"k": int, "M": int, "steps": int, "chi": bool} | {
    key: (int, float) for key in ("eps", "x0", "smin", "smax", "step", "tol")}


def _merge_config(args) -> dict:
    """File values fill unset flags; flags win.  The file's keys must be
    options of the command (by their argparse names, e.g. fmt)."""
    merged = dict(_DEFAULTS)
    if args.config:
        with open(args.config) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError("a config file must hold a JSON object")
        unknown = sorted(set(data) - set(vars(args)) - {"command", "config"})
        if unknown:
            raise ValueError(f"unknown config keys for {args.command}: "
                             f"{', '.join(unknown)}")
        wrong = sorted(key for key, val in data.items()
                       if not isinstance(val, _CONFIG_TYPES.get(key, str))
                       or isinstance(val, bool) != (key == "chi"))
        if wrong:
            raise ValueError(f"config values of the wrong type: "
                             f"{', '.join(wrong)}")
        merged.update(data)
    for key, val in vars(args).items():
        if val is not None and key not in ("command", "config"):
            merged[key] = val
    return merged


def _parse_sweep(text: str):
    parts = text.split(":")
    if len(parts) != 4:
        raise ValueError("sweep must be name:start:stop:step")
    return parts[0], float(parts[1]), float(parts[2]), float(parts[3])


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            return cmd_verify(args.only, args.output)
        opts = _merge_config(args)
        default_M = 100 if opts["k"] == 0 else 150
        params = SpectralParams(k=int(opts["k"]), eps=float(opts["eps"]),
                                x0=float(opts["x0"]),
                                M=int(default_M if opts.get("M") is None
                                      else opts["M"]))
        scan = ScanConfig(s_min=float(opts["smin"]), s_max=float(opts["smax"]),
                          step=float(opts["step"]), tol=float(opts["tol"]))
        sweep = _parse_sweep(opts["sweep"]) if opts.get("sweep") else None
        cfg = RunConfig(command=args.command, params=params, scan=scan,
                        sweep=sweep, output=opts.get("output"),
                        fmt=opts["fmt"], n_steps=int(opts["steps"]),
                        chi=bool(opts["chi"]))
        # a swept value is checked like the flag it replaces, before any
        # computation
        ends = _run_ends(cfg)
        for p in ends:
            if p.M > 2000:
                raise ValueError("M is capped at 2000")
            if cfg.command == "trace":
                boundary.det_functional(p)      # the series needs x0 < 1
        if (cfg.command in ("spectrum", "trace")
                and 0.95 < max(p.x0 for p in ends) < 1
                and min(p.M for p in ends) < 1000):
            print("warning: the series converges slowly in M for x0 > 0.95 "
                  "(at x0 = 0.99, M = 150 moves roots by ~1e-2 and M = 1000 "
                  "matches M = 2000 to 1e-7); use M >= 1000",
                  file=sys.stderr)
        if args.command == "spectrum":
            return cmd_spectrum(cfg)
        if args.command == "oracle":
            return cmd_oracle(cfg)
        if args.command == "trace":
            return cmd_trace(cfg)
        if args.command == "figures":
            return cmd_figures(cfg, str(opts["figure"]))
        raise AssertionError(args.command)
    except NonFiniteError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:    # JSONDecodeError is a ValueError
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
