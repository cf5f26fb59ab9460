"""Command-line front end.

Commands:
  spectrum   roots of the series determinant for one (k, eps, x0, M): the
             scanned real roots, then for k != 0 and eps != 0 the complex
             pairs of the count (`contour`, in meta) in the mu-ellipse over
             [mu(smax), mu(smin)] with b = 2a; k = 0 (chi is self-adjoint)
             and eps = 0 (energy identity) have real spectra and say so in
             meta; x0 = 1 is answered from the closed-form spectra, whose
             module (`analytic`, with numpy.polynomial) loads only then
  oracle     roots of the shooting integrator (independent of the series);
             k = 0 runs the self-adjoint chi problem, and --chi is --k 0
  trace      roots swept along x0 or eps with coalescence tracking
  figures    canned sweeps reproducing the published root diagrams
  verify     run the self-verification suite (loads `verify` and `analytic`
             when it starts; no other command imports either)

Output is CSV (default) or JSON with the fixed row schema
param,branch,re_s,im_s,re_mu,im_mu,residual,stable,source at 15
significant digits; identical configs produce byte-identical files.
Exit codes: 0 ok, 1 verification failure, 2 bad configuration (among
them non-finite values, a tol below 4 ulps of the window, an unknown
verify filter and an unwritable output), 3 non-finite solver state, or a
count that does not resolve or differs from the roots found.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from collections import namedtuple
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__, boundary, contour, oracle
from .core import NonFiniteError, SpectralParams, in_stability_domain
from .rootfinder import ScanConfig, scan_real_roots, trace_parameter

SCHEMA = ("param", "branch", "re_s", "im_s", "re_mu", "im_mu",
          "residual", "stable", "source")

SWEEP_PARAMS = ("x0", "eps", "M")
FORMATS = ("csv", "json")
MAX_SWEEP = 10_000      # values in one sweep; the canned figures take <= 121


@dataclass(frozen=True)
class RunConfig:
    """Validated invocation: command, problem instance, scan window,
    sweep (required for trace), output destination."""

    command: str
    params: SpectralParams
    scan: ScanConfig
    sweep: tuple | None         # (name, start, stop, step)
    output: str | None
    fmt: str
    n_steps: int

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
        if self.fmt not in FORMATS:
            raise ValueError(f"format must be {' or '.join(FORMATS)}, got "
                             f"{self.fmt!r}")


def _fmt(x: float) -> str:
    return f"{x + 0.0:.15g}"     # +0.0 folds -0.0 into 0


def _row(param, branch, s, mu, residual, source):
    stable = "true" if in_stability_domain(s) else "false"
    return dict(zip(SCHEMA, (_fmt(param), str(branch), *map(_fmt, (
        s.real, s.imag, mu.real, mu.imag, residual)), stable, source)))


def _emit(rows, cfg: RunConfig, meta: dict):
    if cfg.fmt == "csv":
        lines = [",".join(SCHEMA)]
        lines += [",".join(r[c] for c in SCHEMA) for r in rows]
        text = "\n".join(lines) + "\n"
    else:
        doc = {"meta": meta, "rows": rows}
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if cfg.output:
        with open(cfg.output, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


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
        from . import analytic  # only x0 = 1 needs the closed forms
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
    with the given param column: the scanned real roots, then the complex
    pairs of the window's count (contour.certify) unless it is real."""
    p, scan = cfg.params, _scan_for(cfg)
    F = boundary.det_functional(p)
    roots = scan_real_roots(F, scan)
    if p.k and p.eps:
        meta["contour"], pairs = contour.certify(F, scan, roots)
        roots += pairs
    else:
        meta["contour"] = {"skipped": "a real spectrum: " + (
            "k = 0, chi is self-adjoint" if p.k == 0
            else "eps = 0, the energy identity mu E = -||Phi||^2")}
    _emit(_filter_rows(roots, param, scan.tol), cfg, meta)


def cmd_oracle(cfg: RunConfig) -> int:
    p = cfg.params
    shoot = oracle.shoot_functional(p, n_steps=cfg.n_steps)
    roots = scan_real_roots(shoot, _scan_for(cfg), source="oracle")
    _emit(_filter_rows(roots, p.x0, cfg.scan.tol),
          cfg, _meta(cfg) | {"n_steps": cfg.n_steps, "chi": p.k == 0}
          | shoot.meta)
    return 0


def _scan_for(cfg: RunConfig) -> ScanConfig:
    """k = 0 problems exclude the trivial mu = 0, so the scan starts just
    above s = 0 there."""
    scan = cfg.scan
    if cfg.params.k == 0 and scan.s_min <= 0.0:
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


def _check_ends(cfg: RunConfig) -> bool:
    """Check the parameter sets at the two ends of a task's sweep (its
    params alone without one), which bound a monotone sweep, like the
    flags they replace; True if the series converges slowly in M there."""
    ends = [cfg.params]
    if cfg.sweep:
        values = _sweep_values(cfg.sweep)
        ends = [_at(cfg.params, cfg.sweep[0], v)
                for v in (values[0], values[-1])]
    for p in ends:
        if p.M > 2000:
            raise ValueError("M is capped at 2000")
        if cfg.sweep:
            boundary._check_series_domain(p)
    return (cfg.command != "oracle" and 0.95 < max(p.x0 for p in ends) < 1
            and min(p.M for p in ends) < 1000)


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
                    "s_merged": float(_fmt(ev.seed.real)),
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
        traces[key] = trace_parameter(_family(cfg.params, name),
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


def _figure_tasks(cfg: RunConfig, figure: str) -> list:
    """(task, meta, preset) per dataset of the figure, or of every figure
    for 'all': cfg with the preset's params, window and sweep, written to
    base_suffix, where a multi-figure run's base carries the figure number
    (figures share suffixes)."""
    if figure != "all" and figure not in FIGURE_TASKS:
        raise ValueError(f"unknown figure {figure!r}; choose from "
                         f"{sorted(FIGURE_TASKS)} or 'all'")
    keys = list(FIGURE_TASKS) if figure == "all" else [figure]
    tasks = []
    for key in keys:
        base = cfg.output or f"figure{key}"
        if cfg.output and len(keys) > 1:
            base += f"_figure{key}"
        for suffix, spec in FIGURE_TASKS[key]:
            task = replace(cfg, params=SpectralParams(**spec["params"]),
                           scan=replace(cfg.scan, s_max=spec["s_max"]),
                           sweep=spec.get("sweep"),
                           output=f"{base}_{suffix}.{cfg.fmt}")
            meta = _meta(task) | {"figure": key, "series": suffix}
            tasks.append((task, meta, spec))
    return tasks


def cmd_figures(tasks: list) -> int:
    """Write each figure task's dataset: a sweep (reusing traces, see
    _traced), or a spectrum when the preset has none."""
    traces = {}     # figure 5 shows the complex rows of figure 4's sweeps
    for task, meta, spec in tasks:
        if task.sweep is None:
            _series_spectrum(task, meta, spec["param"])
        else:
            _traced(task, meta, traces, spec.get("complex_only", False))
        print(f"wrote {task.output}")
    return 0


def cmd_verify(only: str | None, output: str | None) -> int:
    from . import verify    # only this command runs the suite
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


# A computing command's option by its --config key and flag --key (--format
# for fmt): JSON type (a float takes an int), default, --help ({}: the
# default) and the commands that have it; figures presets k, eps, x0, M, smax.
_RUNS = ("spectrum", "oracle", "trace")
_Option = namedtuple("_Option", "type default help commands", defaults=(
    None, None, _RUNS + ("figures",)))

_OPTIONS = {
    "config": _Option(str, help="JSON file with default options"),
    "k": _Option(int, commands=_RUNS),      # None: 0 with chi, else 1
    "eps": _Option(float, 0.0, commands=_RUNS),
    "x0": _Option(float, 0.9, commands=_RUNS),
    "M": _Option(int, commands=_RUNS),      # None: 100 for k = 0, else 150
    "smin": _Option(float, ScanConfig.s_min),
    "smax": _Option(float, ScanConfig.s_max, commands=_RUNS),
    "step": _Option(float, ScanConfig.step),
    "tol": _Option(float, ScanConfig.tol),
    "output": _Option(str),
    "fmt": _Option(str, "csv"),
    "steps": _Option(int, 2000, "RK4 step count (default {})", ("oracle",)),
    "chi": _Option(bool, False, "the k = 0 problem, run as the transformed "
                   "self-adjoint chi problem like any --k 0", ("oracle",)),
    "sweep": _Option(str, None, "name:start:stop:step with name one of x0, "
                     "eps, M", ("trace",)),
    "figure": _Option(str, "1", "figure number (1-7) or 'all' (default {})",
                      ("figures",)),
}


@functools.cache         # one per process, built by main(), not at import
def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="sphere-spectra",
        description="Eigenvalue spectra of viscous flow perturbations on a "
                    "full or truncated sphere")
    sub = ap.add_subparsers(dest="command", required=True)
    for command, text in (("spectrum", "series-determinant root table"),
                          ("oracle", "shooting-oracle root table"),
                          ("trace", "parameter sweep with branch tracking"),
                          ("figures", "emit canned figure datasets")):
        sp = sub.add_parser(command, help=text)
        for name, opt in _OPTIONS.items():
            if command not in opt.commands:
                continue
            kind = ({"action": "store_true"} if opt.type is bool
                    else {"choices": FORMATS} if name == "fmt"
                    else {"type": opt.type})
            sp.add_argument("--format" if name == "fmt" else "--" + name,
                            dest=name, default=None, **kind,
                            help=opt.help and opt.help.format(opt.default))
    sv = sub.add_parser("verify", help="run the self-verification suite")
    sv.add_argument("--only", help="restrict to one group or check name")
    sv.add_argument("--output", help="JSON report path")
    return ap


def _merge_config(args) -> dict:
    """Every option of _OPTIONS, typed: a flag given wins over its --config
    value, which wins over the default.  The file's keys must be options
    of the command other than config, of their option's JSON type."""
    given = vars(args)      # the command and its options, None where unset
    merged = {key: opt.default for key, opt in _OPTIONS.items()}
    if args.config:
        with open(args.config) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError("a config file must hold a JSON object")
        unknown = sorted(set(data) - (set(given) - {"command", "config"}))
        if unknown:
            raise ValueError(f"unknown config keys for {args.command}: "
                             f"{', '.join(unknown)}")
        kinds = {key: _OPTIONS[key].type for key in data}
        wrong = sorted(key for key, val in data.items() if not isinstance(
            val, (int, float) if kinds[key] is float else kinds[key])
            or isinstance(val, bool) != (kinds[key] is bool))
        if wrong:
            raise ValueError(f"config values of the wrong type: "
                             f"{', '.join(wrong)}")
        merged.update((key, kinds[key](val)) for key, val in data.items())
    merged.update((key, val) for key, val in given.items() if val is not None)
    return merged


def _parse_sweep(text: str):
    parts = text.split(":")
    if len(parts) != 4:
        raise ValueError("sweep must be name:start:stop:step")
    return parts[0], float(parts[1]), float(parts[2]), float(parts[3])


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        opts = vars(args) if args.command == "verify" else _merge_config(args)
        if (out := opts.get("output")) and not Path(out).parent.is_dir():
            raise ValueError(f"no directory for the output {out!r}")
        if args.command == "verify":
            return cmd_verify(args.only, out)
        if opts["chi"] and opts["k"] not in (None, 0):
            raise ValueError(f"--chi is k = 0, not k = {opts['k']}")
        k = opts["k"] if opts["k"] is not None else 0 if opts["chi"] else 1
        default_M = 100 if k == 0 else 150
        params = SpectralParams(k=k, eps=opts["eps"], x0=opts["x0"],
                                M=default_M if opts["M"] is None
                                else opts["M"])
        scan = ScanConfig(s_min=opts["smin"], s_max=opts["smax"],
                          step=opts["step"], tol=opts["tol"])
        sweep = _parse_sweep(opts["sweep"]) if opts["sweep"] else None
        cfg = RunConfig(command=args.command, params=params, scan=scan,
                        sweep=sweep, output=out, fmt=opts["fmt"],
                        n_steps=opts["steps"])
        tasks = (_figure_tasks(cfg, opts["figure"])
                 if cfg.command == "figures" else [(cfg, None, None)])
        # every task is checked before any computes
        if any([_check_ends(task) for task, _, _ in tasks]):
            print("warning: the series converges slowly in M for x0 > 0.95 "
                  "(at x0 = 0.99, M = 150 moves roots by ~1e-2 and M = 1000 "
                  "matches M = 2000 to 1e-7); use M >= 1000",
                  file=sys.stderr)
        if cfg.command == "figures":
            return cmd_figures(tasks)
        return {"spectrum": cmd_spectrum, "oracle": cmd_oracle,
                "trace": cmd_trace}[cfg.command](cfg)
    except (NonFiniteError, contour.CountError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:    # JSONDecodeError is a ValueError
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
