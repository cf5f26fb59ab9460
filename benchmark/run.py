"""Benchmark of the sphere-spectra command line: two workloads of CLI
operations, each output read back from its CSV file and checked.

Run from the root of a source checkout:

    python3 benchmark/run.py --workload eps-trace --seed 0 --seconds 10 --trace 0

The operations go through sphere_spectra.cli.main(argv), one process, back
to back (a closed loop with one client).  A run repeats whole rounds of its
workload until the rounds have taken --seconds (at least one round).  With
--trace 0 it reports the end-to-end metrics; with --trace 1 it also runs one
traced round and reports the per-layer metrics.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# One BLAS thread, set before numpy loads: with OpenBLAS's default threads
# `trace --k 1 --eps 0 --M 1000 --sweep x0:0.95:0.99:0.01 --smax 4.5` took
# 20.7 s of CPU for 10.8 s of wall time, and 8.8 s of both with one thread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import checks  # noqa: E402
from tracing import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# set-up samples: SPAWN_CHUNK fresh interpreters before the first round and
# after each round, topped up to SETUP_SPAWNS after the last
SETUP_SPAWNS = 40
SPAWN_CHUNK = 10
CALIB_REPS = 5
# the scan window [s_min, s_max] of every operation but the known fault
WINDOW = (0.0, 8.0)

# Stable complex pairs of k = 1, eps = 4, x0 = 0.9 in [0, 10], from
# `trace --k 1 --x0 0.9 --sweep eps:0:4:0.25 --smax 10` (README.md); the
# real scan of `spectrum` cannot see them.
KNOWN_PAIRS = (complex(3.59581632060489, 0.986270221317855),
               complex(6.27396204201547, 1.09395330130495),
               complex(8.97989989110395, 1.08864466600982))

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "boundary.F_calls": "count", "boundary.F_points": "count",
    "boundary.points_per_call": "points/call", "boundary.F_s": "s",
    "boundary.F_ms.p50": "ms", "boundary.self_s": "s",
    "series.kernel_calls": "count", "series.column_steps": "count",
    "series.kernel_s": "s", "series.ns_per_column_step": "ns",
    "rootfinder.functionals": "count", "rootfinder.scans": "count",
    "rootfinder.scan_s": "s", "rootfinder.muller_calls": "count",
    "rootfinder.muller_s": "s", "rootfinder.F_calls_per_scan": "calls/scan",
    "rootfinder.self_s": "s",
    "oracle.shoot_calls": "count", "oracle.shoot_points": "count",
    "oracle.rk4_steps": "count", "oracle.shoot_s": "s",
    "oracle.shoot_ms.p50": "ms",
    "cli.ops": "count", "cli.self_s": "s",
    "host.calib_ms": "ms", "trace.overhead_s": "s",
}


@dataclass
class Op:
    """One CLI operation: its argv (without --output), its output file name
    and a check returning the problems found in that output.  A check may
    read other outputs of the same round through the directory it gets."""

    argv: list
    out: str
    check: Callable[[Path], list]
    known_fault: bool = False


# x0 offsets a seed picks from (seed 0: the nominal inputs).  Every check
# holds at each of them; `trace --k 1 --x0 0.899` (eps sweep) exits 3
# (CHANGES.md), so the offsets do not go below 0.
OFFSETS = (0.0, 0.0002, 0.0005, 0.001)


def _offset(seed: int) -> float:
    return OFFSETS[seed % len(OFFSETS)]


def _stable(rows) -> list:
    return [f"Re mu = {checks.re_mu(r['s']):.3g} >= 0 at s = {r['s']}"
            for r in rows if not checks.re_mu(r["s"]) < 0]


def _closed_form(rows, k, x0=None) -> list:
    """Every row must be real and bracketed by the closed-form determinant
    (eps = 0 rows only); x0 defaults to the row's param."""
    errs = [f"root {r['s']} is not real" for r in rows if r["s"].imag != 0]
    errs += [f"closed form has no sign change across s = {r['s'].real!r} "
             f"(x0 = {x0 or r['param']})" for r in rows
             if r["s"].imag == 0 and not checks.closed_form_brackets(
                 k, x0 or r["param"], r["s"].real)]
    return errs


def _complete(rows, k, eps, x0) -> list:
    """The table holds as many real roots as the benchmark's own shooting
    determinant has sign changes in WINDOW."""
    want = checks.shooting_root_count(k, eps, x0, *WINDOW)
    got = sum(r["s"].imag == 0 for r in rows)
    return [] if got == want else [
        f"{got} real roots in {list(WINDOW)}, shooting finds {want}"]


def _nonempty(rows) -> list:
    return [] if rows else ["empty table"]


def eps_trace(seed: int) -> list:
    """The paper's stability sweep in the Reynolds number at k = 1."""
    x0 = round(0.9 + _offset(seed), 4)
    eps_values = [0.25 * i for i in range(49)]
    out = "eps-trace-k1.csv"

    def check(d):
        rows = checks.read_rows(d / out)
        zero = [r for r in rows if r["param"] == 0.0]
        errs = _stable(rows) + _closed_form(zero, 1, x0) + \
            _complete(zero, 1, 0.0, x0)
        if not zero:
            errs.append("no eps = 0 rows")
        missing = [e for e in eps_values
                   if not any(abs(r["param"] - e) < 1e-9 for r in rows)]
        if missing:
            errs.append(f"no rows at eps = {missing}")
        if not checks.read_events(d / (out + ".events.json")):
            errs.append("no coalescence event")
        return errs

    return [Op(["trace", "--k", "1", "--x0", str(x0),
                "--sweep", "eps:0:12:0.25", "--smax", "8"], out, check)]


def cross_check(seed: int) -> list:
    """Series against shooting oracle, closed form and the chi problem."""
    x0 = str(round(0.9 + _offset(seed), 4))
    tol = 1e-6

    def series(k, eps, extra=None):
        def check(d):
            rows = checks.read_rows(d / f"spectrum-k{k}-eps{eps}.csv")
            errs = _nonempty(rows) + _stable(rows)
            return errs + (extra(rows) if extra else [])
        return Op(["spectrum", "--k", str(k), "--eps", str(eps), "--x0", x0],
                  f"spectrum-k{k}-eps{eps}.csv", check)

    def oracle(argv, out, against, extra=None):
        def check(d):
            rows = checks.read_rows(d / out)
            ref = checks.read_rows(d / against)
            errs = _nonempty(rows) + _stable(rows)
            diff = checks.match([r["s"] for r in rows],
                                [r["s"] for r in ref], tol)
            if diff:
                errs.append(f"against {against}: {diff}")
            return errs + (extra(rows) if extra else [])
        return Op(argv + ["--x0", x0], out, check)

    def shooting(rows):
        ok = checks.shooting_brackets(3, 4.0, float(x0),
                                      [r["s"].real for r in rows])
        return [f"shooting determinant has no sign change across "
                f"s = {r['s'].real!r}" for r, good in zip(rows, ok)
                if not good] + _complete(rows, 3, 4.0, float(x0))

    def known_pairs(d):
        rows = checks.read_rows(d / "spectrum-k1-eps4-smax10.csv")
        return [f"pair {p} missing" for p in KNOWN_PAIRS
                if not any(min(abs(r["s"] - p), abs(r["s"] - p.conjugate()))
                           < tol for r in rows)]

    def closed(rows):
        return _closed_form(rows, 1, float(x0)) + \
            _complete(rows, 1, 0.0, float(x0))

    return [
        series(1, 0, closed),
        oracle(["oracle", "--k", "1", "--eps", "0"], "oracle-k1-eps0.csv",
               "spectrum-k1-eps0.csv", closed),
        series(3, 4, shooting),
        series(0, 1),
        oracle(["oracle", "--k", "0", "--eps", "1"], "oracle-k0-eps1.csv",
               "spectrum-k0-eps1.csv"),
        oracle(["oracle", "--chi", "--eps", "4"], "oracle-chi-eps4.csv",
               "spectrum-k0-eps4.csv"),
        series(0, 4),
        # ROADMAP item 4: prints only the header; counted as failed
        Op(["spectrum", "--k", "1", "--eps", "4", "--x0", "0.9",
            "--smax", "10"], "spectrum-k1-eps4-smax10.csv", known_pairs,
           known_fault=True),
    ]


WORKLOADS = {"eps-trace": eps_trace, "cross-check": cross_check}


def calibrate() -> float:
    """Milliseconds for a fixed loop of small numpy operations and Python
    arithmetic, the mix the solver's recurrences run; tells host drift
    apart from program changes."""
    a = np.linspace(0.0, 1.0, 64) + 0j
    t0 = time.perf_counter()
    for _ in range(4000):
        a = (a * 0.999 + 0.001) / 1.0001
    acc = 0
    for i in range(100_000):
        acc += i % 7
    return (time.perf_counter() - t0) * 1e3


def setup_seconds() -> float:
    """Wall time of a fresh interpreter importing the CLI module.  Byte code
    is cached as for an installed package, whatever the caller's
    PYTHONDONTWRITEBYTECODE says."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    t0 = time.perf_counter()
    # no timeout: with one, the wait polls in sleeps of up to 50 ms
    subprocess.run([sys.executable, "-c", "import sphere_spectra.cli"],
                   env=env, check=True)
    return time.perf_counter() - t0


def run_round(cli, ops, outdir: Path) -> tuple:
    """Run every operation once; returns (wall seconds, per-op records)."""
    if outdir.exists():
        shutil.rmtree(outdir)
    outdir.mkdir(parents=True)
    records = []
    t0 = time.perf_counter()
    for op in ops:
        err = io.StringIO()
        t = time.perf_counter()
        with contextlib.redirect_stderr(err):
            rc = cli.main(op.argv + ["--output", str(outdir / op.out)])
        records.append((rc, time.perf_counter() - t, err.getvalue()))
    return time.perf_counter() - t0, records


def _files(outdir: Path) -> dict:
    """Name to bytes of every file a round wrote."""
    return {f.name: f.read_bytes() for f in outdir.iterdir()}


def judge(ops, outdir: Path, records) -> list:
    """Per op: the list of problems (empty when the op passed)."""
    result = []
    for op, (rc, _, stderr) in zip(ops, records):
        if rc != 0:
            result.append([f"exit code {rc}: {stderr.strip()[-200:]}"])
            continue
        try:
            result.append(op.check(outdir))
        except (OSError, ValueError, KeyError) as exc:
            result.append([f"unreadable output: {exc!r}"])
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "sphere_spectra" / "cli.py").is_file():
        print(f"error: no sphere_spectra sources under {SRC}; run from a "
              "source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from sphere_spectra import cli
    if SRC not in Path(cli.__file__).resolve().parents:
        print(f"error: imported {cli.__file__}, not the checkout's sources",
              file=sys.stderr)
        return 2

    ops = WORKLOADS[args.workload](args.seed)
    # set-up samples before, between and after the rounds, calibration
    # samples before and after, so that their medians span the host's state
    # over the run
    spawns = 0 if args.trace else SETUP_SPAWNS
    calib = [calibrate() for _ in range(CALIB_REPS)]
    if spawns:
        setup_seconds()           # writes the byte-code cache; not counted
    setup = []

    def sample_setup(n):
        n = min(n, spawns - len(setup))
        setup.extend(setup_seconds() for _ in range(n))

    sample_setup(SPAWN_CHUNK)
    rounds = []     # (outdir, wall, records)
    # --seconds counts round time only, not the set-up samples between
    while not rounds or sum(w for _, w, _ in rounds) < args.seconds:
        outdir = OUT / args.workload / f"round{len(rounds)}"
        wall, records = run_round(cli, ops, outdir)
        rounds.append((outdir, wall, records))
        sample_setup(SPAWN_CHUNK)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    sample_setup(spawns)
    walls = [w for _, w, _ in rounds]

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            outdir = OUT / args.workload / "traced"
            traced_wall, records = run_round(cli, ops, outdir)
        finally:
            tracer.uninstall()
        rounds.append((outdir, traced_wall, records))
        tracer.dump(OUT / args.workload / f"spans-seed{args.seed}.json")
    calib += [calibrate() for _ in range(CALIB_REPS)]

    attempted = failed = 0
    correct = True
    first = None
    for outdir, wall, records in rounds:
        print(f"round {outdir.name}: {wall:.3f} s")
        # a round whose exit codes and files equal the first round's (the
        # CLI promises byte-identical reruns) takes its verdicts
        codes = [rc for rc, _, _ in records]
        if first and (codes, _files(outdir)) == first[:2]:
            verdicts = first[2]
        else:
            verdicts = judge(ops, outdir, records)
        first = first or (codes, _files(outdir), verdicts)
        for op, (rc, secs, _), errs in zip(ops, records, verdicts):
            attempted += 1
            failed += bool(errs)
            if errs and not op.known_fault:
                correct = False
            status = "ok" if not errs else (
                "FAILED (known fault)" if op.known_fault else "FAILED")
            print(f"  {secs:8.3f} s  {status:20s} {' '.join(op.argv)}")
            for e in errs[:5]:
                print(f"             {e}")

    if tracer is None:
        # the mean, not the median, of the two to four rounds: in ten-run
        # sets of cross-check the spread of the median was 0.117 and 0.260,
        # that of the mean 0.095 and 0.190
        values = {"wall_s": statistics.mean(walls),
                  "setup_s": statistics.median(setup),
                  "peak_rss_mb": peak_rss_mb}
        units = END_TO_END
    else:
        values = dict.fromkeys(PER_LAYER) | tracer.metrics()
        values["host.calib_ms"] = statistics.median(calib)
        values["trace.overhead_s"] = traced_wall - statistics.mean(walls)
        units = PER_LAYER
        if tracer.absent:
            print(f"absent (renamed or removed): {', '.join(tracer.absent)}")
    print(f"workload {args.workload}, seed {args.seed}: {len(walls)} "
          f"timed round(s), host.calib_ms "
          f"{statistics.median(calib):.2f}")
    for name, unit in units.items():
        v = values[name]
        print(f"  {name:30s} {'absent' if v is None else f'{v:.6g}'} {unit}")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
