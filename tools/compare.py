"""Compare the CLI's outputs between two source trees.

    python3 tools/compare.py run DIR [--src PATH]
    python3 tools/compare.py diff A B

`run` executes a fixed list of CLI operations through
sphere_spectra.cli.main in one process with one BLAS thread, importing the
package from PATH (default: this checkout's src).  It writes into DIR each
operation's output (CSV, JSON for `--format json` and `verify`, whose
report is kept without its timings, and the standard output of `--help`
as NAME.txt) and .events.json sidecars, its stderr as NAME.stderr, and
index.json: per operation its argv and exit code, per CSV file how to
read its rows' eps (the param column of an eps sweep, or one fixed value).

`diff` reads two such directories and prints one JSON object: how many
files are byte-identical out of the total, the files that differ, exit
codes, row sets (rows keyed by param and branch), events and branch
terminations that differ, and the largest |ds| between rows with the
same key, per kind: real, complex at eps < 10 and complex at eps >= 10.

The operations: the criterion-5 eps traces (k = 1, 3) at x0 = 0.9,
0.9001, 0.9002, 0.9005, 0.901 and 0.97; x0 traces for k = 0 and 1;
`figures --figure all`; the benchmark's cross-check spectra and oracle
tables at its four x0 offsets, with JSON copies of the two that count
their window (k = 3, eps = 4 at x0 = 0.9, and k = 1, eps = 4 up to
s = 10); `--help` of each command; and `verify`.
"""

import argparse
import contextlib
import csv
import io
import json
import os
import sys
from pathlib import Path

EPS_SWEEP = ("--sweep", "eps:0:12:0.25", "--smax", "8")


def operations() -> dict:
    """name -> argv, without --output."""
    ops = {}
    for x0 in ("0.9", "0.9001", "0.9002", "0.9005", "0.901", "0.97"):
        for k in (1, 3):
            ops[f"trace-k{k}-x0-{x0}"] = ["trace", "--k", str(k),
                                          "--x0", x0, *EPS_SWEEP]
    for k, eps in ((0, "1"), (1, "2")):
        ops[f"trace-x0-k{k}"] = ["trace", "--k", str(k), "--eps", eps,
                                 "--x0", "0.5", "--sweep", "x0:0.5:0.95:0.01",
                                 "--smax", "8"]
    ops["figures"] = ["figures", "--figure", "all"]
    for x0 in ("0.9", "0.9002", "0.9005", "0.901"):
        for cmd, k, eps in (("spectrum", "1", "0"), ("oracle", "1", "0"),
                            ("spectrum", "3", "4"), ("spectrum", "0", "1"),
                            ("oracle", "0", "1"), ("spectrum", "0", "4")):
            ops[f"{cmd}-k{k}-eps{eps}-x0-{x0}"] = [
                cmd, "--k", k, "--eps", eps, "--x0", x0]
        ops[f"oracle-chi-eps4-x0-{x0}"] = ["oracle", "--chi", "--eps", "4",
                                           "--x0", x0]
    ops["spectrum-k1-eps4-smax10"] = ["spectrum", "--k", "1", "--eps", "4",
                                      "--x0", "0.9", "--smax", "10"]
    for name in ("spectrum-k3-eps4-x0-0.9", "spectrum-k1-eps4-smax10"):
        ops[f"{name}-json"] = ops[name] + ["--format", "json"]
    for cmd in ("spectrum", "oracle", "trace", "figures", "verify"):
        ops[f"help-{cmd}"] = [cmd, "--help"]
    ops["verify"] = ["verify"]
    return ops


def _eps_of(argv) -> dict:
    """How to read the eps of an operation's rows."""
    if "eps:" in " ".join(argv):
        return {"eps_param": True}
    eps = argv[argv.index("--eps") + 1] if "--eps" in argv else "0"
    return {"eps_param": False, "eps": float(eps)}


def run(outdir: Path, src: Path) -> int:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ["COLUMNS"] = "80"        # the width argparse wraps --help to
    sys.path.insert(0, str(src))
    from sphere_spectra import cli

    outdir.mkdir(parents=True, exist_ok=True)
    index = {"ops": {}, "files": {}}
    for name, argv in operations().items():
        err, out = io.StringIO(), io.StringIO()
        path = outdir / (name + ("" if argv[0] == "figures" else ".json"
                                 if argv[0] == "verify" or "json" in argv
                                 else ".csv"))
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
            try:
                code = cli.main(argv + ([] if "--help" in argv
                                        else ["--output", str(path)]))
            except SystemExit as exc:       # argparse, after --help
                code = exc.code
        (outdir / f"{name}.stderr").write_text(
            err.getvalue().replace(str(outdir), "DIR"))
        index["ops"][name] = {"argv": argv, "exit": code}
        if "--help" in argv:
            (outdir / f"{name}.txt").write_text(out.getvalue())
        elif argv[0] == "verify":
            report = json.loads(path.read_text())
            for check in report["checks"]:
                del check["seconds"]
            path.write_text(json.dumps(report, indent=2, sort_keys=True)
                            + "\n")
        elif path.suffix == ".csv":
            index["files"][path.name] = _eps_of(argv)
    for fig, tasks in cli.FIGURE_TASKS.items():
        for suffix, spec in tasks:
            sweep = spec.get("sweep")
            index["files"][f"figures_figure{fig}_{suffix}.csv"] = (
                {"eps_param": True} if sweep and sweep[0] == "eps"
                else {"eps_param": False, "eps": spec["params"]["eps"]})
    (outdir / "index.json").write_text(json.dumps(index, indent=1) + "\n")
    return 0


def _rows(path: Path) -> dict:
    """(param, branch) -> s of a CSV output."""
    if not path.exists():
        return {}
    with open(path, newline="") as fh:
        return {(r["param"], r["branch"]):
                complex(float(r["re_s"]), float(r["im_s"]))
                for r in csv.DictReader(fh)}


def _sidecar(path: Path) -> dict:
    """A sidecar's terminations, and its events as (param, branches): a
    merge point's digits are those of its rows."""
    doc = json.loads(path.read_text()) if path.exists() else {}
    return {"events": [[e["param"], e["branches"]]
                       for e in doc.get("events", [])],
            "terminations": doc.get("terminations")}


def diff(a: Path, b: Path) -> dict:
    names = sorted({p.name for d in (a, b) for p in d.iterdir()})
    same = [n for n in names if (a / n).exists() and (b / n).exists()
            and (a / n).read_bytes() == (b / n).read_bytes()]
    ia, ib = (json.loads((d / "index.json").read_text()) for d in (a, b))
    report = {
        "files": {"identical": len(same), "total": len(names)},
        "differ": [n for n in names if n not in same],
        "exit_codes": {op: [ia["ops"][op]["exit"], ib["ops"][op]["exit"]]
                       for op in ia["ops"]
                       if ia["ops"][op]["exit"] != ib["ops"].get(op, {})
                       .get("exit")},
        "row_sets": {}, "events": {}, "terminations": {},
        "max_ds": {"real": 0.0, "complex_eps_lt_10": 0.0,
                   "complex_eps_ge_10": 0.0},
    }
    for name, how in ia["files"].items():
        ra, rb = _rows(a / name), _rows(b / name)
        if ra.keys() != rb.keys():
            report["row_sets"][name] = {
                "only_a": sorted(ra.keys() - rb.keys()),
                "only_b": sorted(rb.keys() - ra.keys())}
        for key in ra.keys() & rb.keys():
            sa, sb = ra[key], rb[key]
            eps = float(key[0]) if how["eps_param"] else how["eps"]
            kind = ("real" if sa.imag == 0 and sb.imag == 0
                    else "complex_eps_lt_10" if eps < 10
                    else "complex_eps_ge_10")
            report["max_ds"][kind] = max(report["max_ds"][kind],
                                         abs(sa - sb))
        ea, eb = (_sidecar(d / f"{name}.events.json") for d in (a, b))
        for part in ("events", "terminations"):
            if ea.get(part) != eb.get(part):
                report[part][name] = {"a": ea.get(part), "b": eb.get(part)}
    return report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="command", required=True)
    r = sub.add_parser("run", help="run the operations into DIR")
    r.add_argument("dir", type=Path)
    r.add_argument("--src", type=Path,
                   default=Path(__file__).resolve().parents[1] / "src")
    d = sub.add_parser("diff", help="compare two run directories")
    d.add_argument("a", type=Path)
    d.add_argument("b", type=Path)
    args = ap.parse_args(argv)
    if args.command == "run":
        return run(args.dir.resolve(), args.src.resolve())
    print(json.dumps(diff(args.a, args.b), indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
