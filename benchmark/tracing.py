"""Spans around the calls into each layer of sphere_spectra.

The package is not changed: for the length of a traced round, the Tracer
rebinds each target function, in every package module that holds it, to a
wrapper that records a span (name, start, end, parent, attributes).  Spans
stay in memory and are written out when the run ends.  A target that a
later version renames or removes is recorded as absent, and the metrics
that need it are reported as absent (None) instead of failing the run.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
import time

import numpy as np

PACKAGE = "sphere_spectra"


def _batch_size(s) -> int:
    return int(np.size(s))


def _bound(fn, args, kwargs) -> dict:
    """Arguments of a call by parameter name, defaults applied; empty when
    the signature no longer fits."""
    try:
        bound = inspect.signature(fn).bind(*args, **kwargs)
    except (TypeError, ValueError):
        return {}
    bound.apply_defaults()
    return dict(bound.arguments)


class Tracer:
    """Records spans; install() wraps the targets, uninstall() restores
    them."""

    def __init__(self):
        self.spans = []       # [name, start, end, parent index, attrs]
        self.absent = []      # "module.function" targets not found
        self._stack = []
        self._patches = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn, attrs=None, result=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            rec = [name, 0.0, 0.0, parent,
                   attrs(args, kwargs) if attrs else None]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                self._stack.pop()
            return result(out, args, kwargs) if result else out
        return wrapper

    def _targets(self):
        """(module, function, span name, attrs, result) for every layer
        boundary the benchmark records."""

        def kernel_attrs(fn):
            def attrs(args, kwargs):
                a = _bound(fn, args, kwargs)
                if "s" not in a or "M" not in a:
                    return None
                return {"columns": _batch_size(a["s"]), "M": int(a["M"])}
            return attrs

        def points(args, kwargs):
            return {"points": _batch_size(args[0]) if args else 0}

        def wrap_F(F, args, kwargs):
            return self._wrap("boundary.F", F, points)

        def wrap_shoot(fn):
            def result(shoot, args, kwargs):
                a = _bound(fn, args, kwargs)
                # RK4 trajectories per call: two for the k != 0 system,
                # one for k = 0 and for chi
                k = getattr(a.get("params"), "k", None)
                paths = 1 if a.get("which") == "chi" or k == 0 else 2
                steps = a["n_steps"] * paths if "n_steps" in a else None

                def attrs(a, kw):
                    return {"points": _batch_size(a[0]) if a else 0,
                            "steps": steps}
                return self._wrap("oracle.shoot", shoot, attrs)
            return result

        series = sys.modules.get(f"{PACKAGE}.series")
        oracle = sys.modules.get(f"{PACKAGE}.oracle")
        targets = [
            ("cli", "main", "cli.main", None, None),
            ("boundary", "det_functional", "boundary.det_functional",
             None, wrap_F),
            ("rootfinder", "trace_parameter", "rootfinder.trace_parameter",
             None, None),
            ("rootfinder", "scan_real_roots", "rootfinder.scan_real_roots",
             None, None),
            ("rootfinder", "refine_complex", "rootfinder.refine_complex",
             None, None),
        ]
        for kernel in ("coeffs_k_batch", "coeffs_k0_batch"):
            fn = getattr(series, kernel, None)
            targets.append(("series", kernel, "series.kernel",
                            kernel_attrs(fn) if fn else None, None))
        shoot = getattr(oracle, "shoot_functional", None)
        targets.append(("oracle", "shoot_functional",
                        "oracle.shoot_functional", None,
                        wrap_shoot(shoot) if shoot else None))
        return targets

    def install(self):
        mods = [m for n, m in list(sys.modules.items())
                if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for modname, fname, span, attrs, result in self._targets():
            mod = sys.modules.get(f"{PACKAGE}.{modname}")
            orig = getattr(mod, fname, None)
            if not callable(orig):
                self.absent.append(f"{modname}.{fname}")
                continue
            wrapper = self._wrap(span, orig, attrs, result)
            # rebind every name bound to the function, so calls through a
            # `from .x import f` copy are recorded too
            for m in mods:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, wrapper)
                        self._patches.append((m, key, orig))

    def uninstall(self):
        for m, key, orig in reversed(self._patches):
            setattr(m, key, orig)
        self._patches.clear()

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"absent": self.absent,
                       "fields": ["name", "start", "end", "parent", "attrs"],
                       "spans": self.spans}, fh)
            fh.write("\n")

    # -- metrics -----------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics from the recorded spans; None marks a metric
        whose target function was absent."""
        spans = self.spans
        dur = [s[2] - s[1] for s in spans]
        child = [0.0] * len(spans)
        for i, s in enumerate(spans):
            if s[3] >= 0:
                child[s[3]] += dur[i]
        by = {}
        for i, s in enumerate(spans):
            by.setdefault(s[0], []).append(i)

        def has(*targets):
            return not any(t in self.absent for t in targets)

        def count(name):
            return len(by.get(name, []))

        def total(name):
            return sum(dur[i] for i in by.get(name, []))

        def self_time(prefix):
            return sum(dur[i] - child[i] for i, s in enumerate(spans)
                       if s[0].startswith(prefix))

        def p50_ms(name):
            d = [dur[i] for i in by.get(name, [])]
            return 1e3 * statistics.median(d) if d else 0.0

        def attr_sum(name, fn):
            return sum(fn(spans[i][4]) for i in by.get(name, [])
                       if spans[i][4] is not None)

        def within(i, names):
            p = spans[i][3]
            while p >= 0:
                if spans[p][0] in names:
                    return True
                p = spans[p][3]
            return False

        out = {}
        if has("boundary.det_functional"):
            calls = count("boundary.F")
            pts = attr_sum("boundary.F", lambda a: a["points"])
            out |= {"boundary.F_calls": calls,
                    "boundary.F_points": pts,
                    "boundary.points_per_call": pts / calls if calls else 0.0,
                    "boundary.F_s": total("boundary.F"),
                    "boundary.F_ms.p50": p50_ms("boundary.F"),
                    "boundary.self_s": self_time("boundary.")}
        if has("series.coeffs_k_batch", "series.coeffs_k0_batch"):
            steps = attr_sum("series.kernel", lambda a: a["columns"] * a["M"])
            ks = total("series.kernel")
            out |= {"series.kernel_calls": count("series.kernel"),
                    "series.column_steps": steps,
                    "series.kernel_s": ks,
                    "series.ns_per_column_step":
                        1e9 * ks / steps if steps else 0.0}
        scan, muller = "rootfinder.scan_real_roots", "rootfinder.refine_complex"
        if has("rootfinder.trace_parameter", "boundary.det_functional"):
            out["rootfinder.functionals"] = sum(
                within(i, {"rootfinder.trace_parameter"})
                for i in by.get("boundary.det_functional", []))
        if has(scan):
            scans = count(scan)
            out |= {"rootfinder.scans": scans,
                    "rootfinder.scan_s": sum(dur[i] for i in by.get(scan, [])
                                             if not within(i, {scan}))}
            if has("boundary.det_functional", "oracle.shoot_functional"):
                calls = sum(within(i, {scan})
                            for name in ("boundary.F", "oracle.shoot")
                            for i in by.get(name, []))
                out["rootfinder.F_calls_per_scan"] = \
                    calls / scans if scans else 0.0
        if has(muller):
            out |= {"rootfinder.muller_calls": count(muller),
                    "rootfinder.muller_s": sum(
                        dur[i] for i in by.get(muller, [])
                        if not within(i, {muller}))}
        if not all(t in self.absent for t in (
                "rootfinder.trace_parameter", scan, muller)):
            out["rootfinder.self_s"] = self_time("rootfinder.")
        if has("oracle.shoot_functional"):
            out |= {"oracle.shoot_calls": count("oracle.shoot"),
                    "oracle.shoot_points": attr_sum("oracle.shoot",
                                                    lambda a: a["points"]),
                    "oracle.rk4_steps": attr_sum("oracle.shoot",
                                                 lambda a: a["steps"] or 0),
                    "oracle.shoot_s": total("oracle.shoot"),
                    "oracle.shoot_ms.p50": p50_ms("oracle.shoot")}
        if has("cli.main"):
            out |= {"cli.ops": count("cli.main"),
                    "cli.self_s": self_time("cli.")}
        return out
