import json
import os
import re
import subprocess
import sys
import types
import warnings
from pathlib import Path

import numpy as np
import pytest

from sphere_spectra import GridTooCoarseWarning, oracle
from sphere_spectra.cli import _OPTIONS, SCHEMA, _build_parser, main

from test_boundary import PAIRS

SRC = Path(__file__).resolve().parents[1] / "src"


def run(argv):
    return main(argv)


class TestImportFootprint:
    """A CLI process holds only the code its command runs: the closed forms
    (`analytic`, with numpy.polynomial) and the verify suite load when
    `spectrum --x0 1` or `verify` starts, never with the CLI itself, and
    numpy.fft (numpy 2 loads it on first use) only with a contour count.
    Each check runs in a fresh interpreter, since this one has loaded them
    all."""

    MODULES = ("sphere_spectra.analytic", "sphere_spectra.verify",
               "numpy.polynomial", "sphere_spectra.oracle", "numpy.fft")

    def loaded(self, argv=None):
        """The exit code of `main(argv)` (None without argv) and which of
        MODULES are in sys.modules after it, in a fresh interpreter."""
        code = ("import json, sys\n"
                "from sphere_spectra.cli import main\n"
                "argv = json.loads(sys.argv[1])\n"
                "rc = None if argv is None else main(argv)\n"
                "print(json.dumps([rc, [m for m in sys.argv[2:]\n"
                "                       if m in sys.modules]]))\n")
        path = os.pathsep.join(filter(None, [str(SRC),
                                             os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", code, json.dumps(argv), *self.MODULES],
            check=True, capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=path))
        rc, loaded = json.loads(done.stdout.splitlines()[-1])
        return rc, set(loaded)

    def test_cli_import_leaves_closed_forms_and_suite_out(self):
        assert self.loaded() == (None, {"sphere_spectra.oracle"})

    def test_full_sphere_spectrum_loads_closed_forms(self):
        rc, loaded = self.loaded(["spectrum", "--k", "1", "--x0", "1.0",
                                  "--smax", "5"])
        assert rc == 0
        assert "sphere_spectra.analytic" in loaded
        assert "sphere_spectra.verify" not in loaded

    def test_only_a_contour_count_loads_the_fft(self, tmp_path):
        """A trace counts only where a real branch is lost (nowhere in
        eps 0 to 1 up to s = 4), and a spectrum counts for k != 0 and
        eps != 0 alone."""
        out = ["--output", str(tmp_path / "out.csv"), "--smax", "4"]
        for argv, counts in (
                (["trace", "--k", "1", "--sweep", "eps:0:1:0.5"], False),
                (["spectrum", "--k", "1", "--eps", "0"], False),
                (["spectrum", "--k", "0", "--eps", "4"], False),
                (["spectrum", "--k", "1", "--eps", "4"], True)):
            rc, loaded = self.loaded(argv + out)
            assert rc == 0
            assert ("numpy.fft" in loaded) == counts, argv

    def test_verify_loads_the_suite(self):
        rc, loaded = self.loaded(["verify", "--only", "analytic"])
        assert rc == 0
        assert {"sphere_spectra.verify", "sphere_spectra.analytic"} <= loaded


class TestSpectrumCommand:
    def test_csv_schema_and_values(self, tmp_path):
        out = tmp_path / "roots.csv"
        assert run(["spectrum", "--k", "1", "--eps", "0", "--x0", "0.9",
                    "--M", "150", "--smax", "8", "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(SCHEMA)
        assert len(lines) == 6  # five real roots below s = 8
        first = dict(zip(SCHEMA, lines[1].split(",")))
        assert float(first["re_s"]) == pytest.approx(2.2359585, abs=1e-6)
        assert first["stable"] == "true"
        assert first["source"] == "series"

    def test_byte_identical_reruns(self, tmp_path):
        args = ["spectrum", "--k", "2", "--eps", "1", "--x0", "0.8",
                "--smax", "6"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(args + ["--output", str(a)])
        run(args + ["--output", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_full_sphere_uses_analytic_solver(self, tmp_path):
        out = tmp_path / "exact.csv"
        assert run(["spectrum", "--k", "1", "--x0", "1.0", "--smax", "5",
                    "--output", str(out)]) == 0
        rows = [line.split(",") for line in
                out.read_text().splitlines()[1:]]
        assert [float(r[2]) for r in rows] == [1, 2, 3, 4, 5]
        assert all(r[8] == "analytic" for r in rows)

    def test_full_sphere_table_covers_its_window(self, tmp_path):
        out = tmp_path / "exact.csv"
        assert run(["spectrum", "--k", "1", "--x0", "1.0", "--smax", "50",
                    "--output", str(out)]) == 0
        assert _re_s(out) == list(range(1, 51))
        assert run(["spectrum", "--k", "1", "--x0", "1.0", "--smin", "2.5",
                    "--smax", "5", "--output", str(out)]) == 0
        assert _re_s(out) == [3, 4, 5]

    def test_one_row_per_grid_sign_change(self, tmp_path, capsys):
        # the residual gate dropped 11 of these 20 converged roots
        from sphere_spectra import boundary
        from sphere_spectra.core import SpectralParams
        out = tmp_path / "long.csv"
        # exit 0: a root whose error exceeds tol would exit 3
        assert run(["spectrum", "--k", "1", "--eps", "0", "--x0", "0.9",
                    "--smax", "30", "--step", "0.01",
                    "--output", str(out)]) == 0
        F = boundary.det_functional(SpectralParams(1, 0.0, 0.9))
        grid = np.arange(0.0, 30.005, 0.01)
        signs = np.sign(np.real(F(grid.astype(complex))))
        changes = int(np.sum(signs[:-1] * signs[1:] < 0))
        assert changes == 20
        assert len(_re_s(out)) == changes

    def test_k0_near_integer_roots(self, tmp_path):
        out = tmp_path / "k0.csv"
        assert run(["spectrum", "--k", "0", "--eps", "1", "--x0", "0.9",
                    "--M", "100", "--smax", "6", "--output", str(out)]) == 0
        s_vals = np.array([float(line.split(",")[2]) for line in
                           out.read_text().splitlines()[1:]])
        # deviations from the full-sphere integers grow with mode index at
        # x0 = 0.9; the trend bound reflects that
        targets = np.arange(1, len(s_vals) + 1)
        assert len(s_vals) >= 3
        assert np.all(np.abs(s_vals - targets) < 0.35 * targets)

    def test_json_format(self, tmp_path):
        out = tmp_path / "roots.json"
        run(["spectrum", "--k", "1", "--eps", "0", "--x0", "0.9",
             "--smax", "4", "--format", "json", "--output", str(out)])
        doc = json.loads(out.read_text())
        assert doc["meta"]["params"]["k"] == 1
        assert doc["meta"]["version"]
        assert set(doc["rows"][0]) == set(SCHEMA)

    def test_complex_pairs_are_listed_and_certified(self, tmp_path):
        """The window holds three stable complex pairs and no real root: the
        table lists each pair once, within 1e-10 of PAIRS, and its meta
        certifies the count of the mu-ellipse over [mu(10), mu(0)] with
        b = 2a.  The table held only its header."""
        out = tmp_path / "pairs.json"
        assert run(["spectrum", "--k", "1", "--eps", "4", "--x0", "0.9",
                    "--smax", "10", "--format", "json",
                    "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        s = np.array([complex(float(r["re_s"]), float(r["im_s"]))
                      for r in doc["rows"]])
        assert np.abs(s - PAIRS).max() < 1e-10
        assert all(r["stable"] == "true" for r in doc["rows"])
        cert = doc["meta"]["contour"]
        assert (cert["count"], cert["found"], cert["n"]) == (6, 6, 256)
        assert cert["region"] == [-55.0, 55.0, 110.0]
        assert cert["tail"] < 1e-6

    def test_real_rows_keep_their_bytes(self, tmp_path, monkeypatch):
        """k = 1, eps = 2.5 holds two real roots and two pairs in [0, 10]:
        the real rows come first, as the scan alone writes them, and the
        pairs follow."""
        from sphere_spectra import cli as cli_mod
        argv = ["spectrum", "--k", "1", "--eps", "2.5", "--x0", "0.9",
                "--smax", "10", "--output"]
        both, real = tmp_path / "both.csv", tmp_path / "real.csv"
        assert run(argv + [str(both)]) == 0
        monkeypatch.setattr(cli_mod, "certify",
                            lambda *a, **k: ({}, []))
        assert run(argv + [str(real)]) == 0
        lines = both.read_text().splitlines()
        assert lines[:3] == real.read_text().splitlines()
        assert [line.split(",")[3] != "0" for line in lines[1:]] == [
            False, False, True, True]

    @pytest.mark.parametrize("plant, code, count", [
        # a lone zero at mu = -30 - 5i, times i: the real part on the real
        # axis, which the scan reads, keeps F's sign changes
        (lambda mu: 1j * (mu + 30 + 5j), 3, 7),
        # a double real zero at mu = -30 (s = 5), with no sign change
        (lambda mu: (mu + 30) ** 2, 3, 8),
        # a pair at mu = -30 -+ 5i: eight zeros, all found
        (lambda mu: (mu + 30) ** 2 + 25, 0, 8)])
    def test_planted_zero_without_its_root_exits_3(self, tmp_path, capsys,
                                                   monkeypatch, plant, code,
                                                   count):
        """F times a factor with zeros inside the window's mu-ellipse: a
        count that differs from the roots found exits 3 with no table."""
        from sphere_spectra import boundary
        build = boundary.det_functional
        monkeypatch.setattr(boundary, "det_functional", lambda p: (
            lambda s, F=build(p): F(s) * plant(-s * (s + 1))))
        out = tmp_path / "planted.json"
        assert run(["spectrum", "--k", "1", "--eps", "4", "--x0", "0.9",
                    "--smax", "10", "--format", "json",
                    "--output", str(out)]) == code
        if code:
            err = capsys.readouterr().err
            assert "solver error: the roots found are not the count" in err
            assert f"'count': {count}," in err
            assert not out.exists()
        else:
            cert = json.loads(out.read_text())["meta"]["contour"]
            assert cert["count"] == cert["found"] == count

    @pytest.mark.parametrize("k, eps, why", [
        ("1", "0", "eps = 0, the energy identity"),
        ("0", "4", "k = 0, chi is self-adjoint")])
    def test_real_spectra_skip_the_count(self, tmp_path, k, eps, why):
        out = tmp_path / "real.json"
        assert run(["spectrum", "--k", k, "--eps", eps, "--x0", "0.9",
                    "--smax", "6", "--format", "json",
                    "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert why in doc["meta"]["contour"]["skipped"]
        assert doc["rows"] and all(r["im_s"] == "0" for r in doc["rows"])

    def test_real_roots_in_one_scan_cell_are_found(self, tmp_path):
        """At step 0.8 the real roots 4.8817 and 5.3221 share the cell
        [4.8, 5.6]: the count (4: the two and a pair) finds them, and their
        rows, on the axis, are the step-0.05 table's within 1e-10.  The
        count's real zeros were dropped, and the table exited 3 (count 4,
        found 2)."""
        tables = {}
        for step in ("0.8", "0.05"):
            out = tmp_path / f"step{step}.json"
            assert run(["spectrum", "--k", "3", "--eps", "6.5", "--x0", "0.9",
                        "--step", step, "--format", "json",
                        "--output", str(out)]) == 0
            tables[step] = json.loads(out.read_text())
        coarse, fine = (tables[k] for k in ("0.8", "0.05"))
        assert coarse["meta"]["contour"]["count"] == 4
        assert coarse["meta"]["contour"]["found"] == 4
        s = [complex(float(r["re_s"]), float(r["im_s"]))
             for r in coarse["rows"]]
        assert [r["im_s"] for r in coarse["rows"]][:2] == ["0", "0"]
        assert s == pytest.approx(
            [complex(float(r["re_s"]), float(r["im_s"]))
             for r in fine["rows"]], abs=1e-10)

    def test_root_over_tol_exits_3(self, tmp_path, capsys, monkeypatch):
        """A root whose error bound exceeds tol refuses the table: exit 3,
        naming s and its error, and no file.  It was dropped with a
        warning, and the shorter table exited 0."""
        from sphere_spectra import cli as cli_mod
        from sphere_spectra.core import Root
        monkeypatch.setattr(cli_mod, "scan_real_roots", lambda *a, **k: [
            Root(2.5 + 0j, 0.0), Root(3.25 + 0j, 0.0, error=1e-3)])
        out = tmp_path / "gate.csv"
        assert run(["spectrum", "--k", "1", "--eps", "0", "--x0", "0.9",
                    "--output", str(out)]) == 3
        err = capsys.readouterr().err
        assert "solver error: root s=3.25+0j has error 1.00e-03" in err
        assert not out.exists()

    @pytest.mark.parametrize("smax, tol, code", [
        ("4", "1e-300", 2), ("5", "1e-16", 2), ("8", "7e-15", 2),
        ("8", "7.2e-15", 0)])
    def test_tolerance_below_the_window_ulp_exits_2(self, tmp_path, capsys,
                                                     smax, tol, code):
        # no bracket closes below one ulp of the window's largest |s|: a
        # tol under 4 ulps (7.1e-15 at 8) dropped rows ("dropping root")
        # and exited 0 with a short table; a root over tol now exits 3
        out = tmp_path / "gate.csv"
        assert run(["spectrum", "--k", "1", "--eps", "0", "--x0", "0.9",
                    "--smax", smax, "--tol", tol,
                    "--output", str(out)]) == code
        err = capsys.readouterr().err
        assert ("tol must be at least 4 ulps" in err) == bool(code)
        assert out.exists() != bool(code)


class TestConfigHandling:
    def test_config_file_with_flag_override(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"k": 1, "eps": 0.0, "x0": 0.5,
                                       "smax": 10.0}))
        out1 = tmp_path / "one.csv"
        run(["spectrum", "--config", str(cfgfile), "--output", str(out1)])
        out2 = tmp_path / "two.csv"
        run(["spectrum", "--config", str(cfgfile), "--x0", "0.9",
             "--output", str(out2)])
        assert out1.read_text() != out2.read_text()
        # the file value was used in the first run
        assert out1.read_text().splitlines()[1].startswith("0.5,")

    def test_one_parser_keeps_no_values_between_calls(self, tmp_path):
        # main() builds its parser once per process; a flag or a config
        # value of one call must not reach the next
        def meta(*argv):
            out = tmp_path / "oracle.json"
            assert run(["oracle", "--eps", "4", "--x0", "0.9", "--smax", "3",
                        "--format", "json", *argv,
                        "--output", str(out)]) == 0
            return json.loads(out.read_text())["meta"]
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"k": 3, "steps": 2500}))
        assert meta("--chi")["chi"] is True
        plain = meta()
        assert plain["chi"] is False and plain["params"]["k"] == 1
        assert meta("--config", str(cfgfile))["n_steps"] == 2500
        assert meta() == plain
        assert _build_parser.cache_info().currsize == 1

    def test_invalid_x0_exits_2(self):
        assert run(["spectrum", "--k", "1", "--x0", "1.5"]) == 2

    def test_bad_sweep_spec_exits_2(self):
        assert run(["trace", "--k", "1", "--sweep", "garbage"]) == 2

    def test_trace_requires_sweep_flag(self, capsys):
        # neither --sweep nor a config file gives one
        assert run(["trace", "--k", "1"]) == 2
        assert "requires a sweep" in capsys.readouterr().err

    def test_m_cap(self):
        assert run(["spectrum", "--k", "1", "--M", "5000"]) == 2
        # an explicit M = 0 is checked, not replaced by the default
        assert run(["spectrum", "--k", "1", "--M", "0"]) == 2

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--smin", "5", "--smax", "5"],
        ["spectrum", "--smin", "6", "--smax", "5"],
        ["spectrum", "--smax", "1", "--step", "2"],
        ["trace", "--smin", "4", "--smax", "3", "--sweep", "eps:0:1:0.5"],
        ["figures", "--figure", "4", "--smin", "11"],
    ])
    def test_empty_scan_window_exits_2(self, tmp_path, capsys, argv):
        out = tmp_path / "never.csv"
        assert run(argv + ["--output", str(out)]) == 2
        assert "configuration error" in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize("argv", [
        # nan tolerances kept unrefined grid points as roots, an inf one
        # merged every root into one row; both exited 0
        ["spectrum", "--tol", "nan"],
        ["spectrum", "--tol", "inf"],
        ["spectrum", "--eps", "nan"],
        ["spectrum", "--eps", "inf"],
        ["spectrum", "--step", "nan"],
        ["spectrum", "--smin", "nan"],
        ["spectrum", "--smax", "inf"],
        ["trace", "--sweep", "eps:0:inf:1"],
        ["trace", "--sweep", "eps:nan:1:0.5"],
        ["trace", "--sweep", "x0:0.5:0.9:nan"],
    ])
    def test_non_finite_values_exit_2(self, tmp_path, capsys, argv):
        out = tmp_path / "never.csv"
        assert run(argv + ["--k", "1", "--output", str(out)]) == 2
        assert "configuration error: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["spectrum", "--k", "1", "--smax", "3"],
        ["trace", "--k", "1", "--sweep", "eps:0:1:0.5", "--smax", "3"],
        ["figures", "--figure", "3"],
        ["verify", "--only", "analytic"]])
    def test_output_in_missing_directory_exits_2(self, tmp_path, capsys,
                                                 monkeypatch, command):
        # refused with the other configuration checks, before any
        # computation (patched to fail here) could run
        from sphere_spectra import cli as cli_mod
        from sphere_spectra import verify

        def fail(*args, **kwargs):
            raise AssertionError("the computation ran")
        for module, name in [(cli_mod, "scan_real_roots"),
                             (cli_mod, "trace_parameter"),
                             (verify, "run_checks"),
                             (cli_mod.boundary, "det_functional")]:
            monkeypatch.setattr(module, name, fail)
        out = tmp_path / "missing" / "out.csv"
        assert run(command + ["--output", str(out)]) == 2
        assert "configuration error: no directory for the output" in \
            capsys.readouterr().err
        assert not (tmp_path / "missing").exists()

    def test_output_directory_from_config_file_is_checked(self, tmp_path,
                                                         capsys):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(
            {"output": str(tmp_path / "missing" / "out.csv")}))
        assert run(["spectrum", "--config", str(cfgfile)]) == 2
        assert "no directory for the output" in capsys.readouterr().err


class TestTraceCommand:
    def test_rows_and_events_sidecar(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run(["trace", "--k", "1", "--eps", "0", "--x0", "0.9",
                    "--smax", "6", "--sweep", "x0:0.85:0.9:0.025",
                    "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(SCHEMA)
        params = [float(line.split(",")[0]) for line in lines[1:]]
        assert params == sorted(params)
        assert min(params) == pytest.approx(0.85)
        assert max(params) == pytest.approx(0.9)
        events = json.loads((tmp_path / "sweep.csv.events.json").read_text())
        assert events == {"events": [], "terminations": []}

    def test_eps_sweep_through_merge_records_event(self, tmp_path):
        out = tmp_path / "merge.csv"
        assert run(["trace", "--k", "1", "--eps", "0", "--x0", "0.9",
                    "--smax", "5", "--sweep", "eps:2.0:3.0:0.25",
                    "--output", str(out)]) == 0
        events = json.loads((tmp_path / "merge.csv.events.json").read_text())
        assert len(events["events"]) == 1
        ev = events["events"][0]
        assert 2.25 <= ev["param"] <= 2.5
        assert ev["s_merged"] == pytest.approx(3.2, abs=0.2)
        # complex continuation rows present after the merge
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert any(float(r[3]) > 0 for r in rows)
        # the branches unmatched at 2.5 counted the window there: its
        # certificate is in the sidecar and in JSON meta
        cert, = events["counts"]
        assert cert == {"param": 2.5, "region": [-15.0, 15.0, 30.0],
                        "n": 256, "count": 2, "found": 2,
                        "tail": cert["tail"]}
        assert cert["tail"] < 1e-6
        doc = tmp_path / "merge.json"
        assert run(["trace", "--k", "1", "--eps", "0", "--x0", "0.9",
                    "--smax", "5", "--sweep", "eps:2.0:3.0:0.25",
                    "--format", "json", "--output", str(doc)]) == 0
        assert json.loads(doc.read_text())["meta"]["counts"] == [cert]

    def test_count_steps_short_of_a_zero_on_the_window_end(self, tmp_path):
        """k = 3 at eps = 7 holds the pair 9.96 + 0.55i just inside the
        window's region R (s_max = 10), and its count reaches only a tail
        of 1.006e-6 at N = 4096: the merge there is counted short of the
        window's top two steps instead, and the trace records the same
        events and terminations as the fine re-scan did, and besides the
        pair 9.815 + 0.130i, which the count at 6.25 finds in the window
        with one member past it: it starts a pair of its own, which leaves
        the window at 7."""
        out = tmp_path / "edge.csv"
        assert run(["trace", "--k", "3", "--x0", "0.9", "--smax", "10",
                    "--sweep", "eps:6:7.5:0.25", "--output", str(out)]) == 0
        doc = json.loads((tmp_path / "edge.csv.events.json").read_text())
        assert [(e["param"], e["branches"]) for e in doc["events"]] == [
            (6.5, [2, 5]), (7.0, [0, 1])]
        assert [(t["branch"], t["param"], t["reason"])
                for t in doc["terminations"]] == [
            (3, 6.0, "no convergence"), (4, 6.0, "no convergence"),
            (6, 6.75, "left the scan window"),
            (7, 6.75, "left the scan window")]
        counts = {c["param"]: c for c in doc["counts"]}
        assert counts[6.5]["region"] == [-55.0, 55.0, 110.0]
        assert counts[7.0]["region"][0] == pytest.approx(-9.9 * 10.9 / 2)
        assert all(c["count"] == c["found"] for c in counts.values())

    def test_unresolved_count_exits_3(self, tmp_path, capsys, monkeypatch):
        """Noise on the complex points at eps = 2.5, where the merge leaves
        two branches unmatched: the count does not resolve, and the trace
        exits 3 with no table."""
        from sphere_spectra import boundary
        build, rng = boundary.det_functional, np.random.default_rng(7)

        def planted(p):
            F = build(p)
            if p.eps != 2.5:
                return F
            return lambda s: F(s) * (1 + rng.standard_normal(np.shape(s))
                                     * np.iscomplexobj(s))

        monkeypatch.setattr(boundary, "det_functional", planted)
        out = tmp_path / "noise.csv"
        assert run(["trace", "--k", "1", "--eps", "0", "--x0", "0.9",
                    "--smax", "5", "--sweep", "eps:2.0:3.0:0.25",
                    "--output", str(out)]) == 3
        assert "solver error: no count in the mu-ellipse" in \
            capsys.readouterr().err
        assert not out.exists()


class TestVerifyCommand:
    def test_analytic_subset_passes(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        assert run(["verify", "--only", "analytic",
                    "--output", str(report)]) == 0
        doc = json.loads(report.read_text())
        assert doc["passed"] is True
        assert all(c["group"] == "analytic" for c in doc["checks"])
        assert "PASS analytic/" in capsys.readouterr().out

    def test_unknown_filter_errors(self, capsys):
        assert run(["verify", "--only", "nonsense"]) == 2
        assert "configuration error: no checks match" in \
            capsys.readouterr().err


class TestFiguresCommand:
    def test_root_versus_wavenumber_dataset(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run(["figures", "--figure", "3",
                    "--output", str(tmp_path / "fig")]) == 0
        files = sorted(p.name for p in tmp_path.glob("fig_k*.csv"))
        assert files == [f"fig_k{k}.csv" for k in range(1, 7)]
        # roots grow with k
        firsts = []
        for k in range(1, 7):
            lines = (tmp_path / f"fig_k{k}.csv").read_text().splitlines()
            firsts.append(float(lines[1].split(",")[2]))
        assert all(b > a for a, b in zip(firsts, firsts[1:]))

    def test_all_figures_keep_shared_suffixes_apart(self, tmp_path,
                                                    monkeypatch):
        from sphere_spectra import cli as cli_mod
        spec = {"params": dict(k=1, eps=0.0, x0=0.9, M=60), "s_max": 3.0}
        monkeypatch.setattr(cli_mod, "FIGURE_TASKS", {
            "1": [("k1", spec | {"param": 1})],
            "3": [("k1", spec | {"param": 3})]})
        assert run(["figures", "--figure", "all",
                    "--output", str(tmp_path / "fig")]) == 0
        names = sorted(p.name for p in tmp_path.glob("fig*.csv"))
        assert names == ["fig_figure1_k1.csv", "fig_figure3_k1.csv"]
        for fig in ("1", "3"):
            rows = (tmp_path / f"fig_figure{fig}_k1.csv").read_text()
            params = {line.split(",")[0] for line in rows.splitlines()[1:]}
            assert params == {fig}

    def test_figure_5_reuses_figure_4_traces(self, tmp_path, monkeypatch):
        from sphere_spectra import cli as cli_mod
        spec = {"params": dict(k=1, eps=0.0, x0=0.9, M=150),
                "sweep": ("eps", 2.0, 3.0, 0.25), "s_max": 5.0}
        monkeypatch.setattr(cli_mod, "FIGURE_TASKS", {
            "4": [("k1", spec)], "5": [("k1", spec | {"complex_only": True})]})
        calls = []
        traced = cli_mod.trace_parameter

        def counted(*args, **kwargs):
            calls.append(args[1:])
            return traced(*args, **kwargs)

        monkeypatch.setattr(cli_mod, "trace_parameter", counted)
        assert run(["figures", "--figure", "all",
                    "--output", str(tmp_path / "all")]) == 0
        assert len(calls) == 1
        assert run(["figures", "--figure", "5",
                    "--output", str(tmp_path / "five")]) == 0
        assert len(calls) == 2      # the reuse ends with the command
        for name in ("k1.csv", "k1.csv.events.json"):
            assert (tmp_path / f"all_figure5_{name}").read_bytes() == \
                (tmp_path / f"five_{name}").read_bytes()

    def test_preset_options_are_refused(self, tmp_path, capsys):
        """figures takes k, eps, x0, M and smax from each preset, so their
        flags and config keys exit 2 and --help lists only the options
        that act: `figures --figure 3 --x0 0.5 --smax 3` exited 0 and
        wrote the files of `figures --figure 3`."""
        out = tmp_path / "fig"
        with pytest.raises(SystemExit) as exc:
            run(["figures", "--figure", "3", "--x0", "0.5", "--smax", "3",
                 "--output", str(out)])
        assert exc.value.code == 2
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"x0": 0.5}))
        assert run(["figures", "--figure", "3", "--config", str(cfgfile),
                    "--output", str(out)]) == 2
        assert "unknown config keys for figures: x0" in capsys.readouterr().err
        assert not list(tmp_path.glob("fig_*"))
        with pytest.raises(SystemExit):
            run(["figures", "--help"])
        assert set(re.findall(r"--(\w+)", capsys.readouterr().out)) == {
            "help", "config", "smin", "step", "tol", "output", "format",
            "figure"}

    def test_unknown_figure_exits_2(self):
        assert run(["figures", "--figure", "9"]) == 2

    def test_complex_only_filter(self, tmp_path, monkeypatch):
        # shrink the eps sweep so the complex-spectrum dataset is fast
        from sphere_spectra import cli as cli_mod
        tasks = {"5": [("k1", {"params": dict(k=1, eps=0.0, x0=0.9, M=150),
                               "sweep": ("eps", 2.0, 3.0, 0.25),
                               "s_max": 5.0, "complex_only": True})]}
        monkeypatch.setattr(cli_mod, "FIGURE_TASKS", tasks)
        assert run(["figures", "--figure", "5",
                    "--output", str(tmp_path / "fig")]) == 0
        rows = [line.split(",") for line in
                (tmp_path / "fig_k1.csv").read_text().splitlines()[1:]]
        assert rows and all(float(r[3]) != 0 for r in rows)
        events = json.loads(
            (tmp_path / "fig_k1.csv.events.json").read_text())["events"]
        assert len(events) == 1


def test_full_sphere_k0_above_threshold(tmp_path):
    # only the trivial mode survives for eps >= 2; the output is flagged
    out = tmp_path / "k0.json"
    assert run(["spectrum", "--k", "0", "--eps", "2", "--x0", "1.0",
                "--format", "json", "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["meta"]["empty_nontrivial"] is True
    assert [float(r["re_mu"]) for r in doc["rows"]] == [0.0]


def _re_s(path):
    return [float(line.split(",")[2])
            for line in path.read_text().splitlines()[1:]]


class TestSweepValidation:
    """A swept value is checked like the flag it replaces, before any
    computation starts."""

    @pytest.fixture
    def no_trace(self, monkeypatch):
        from sphere_spectra import cli as cli_mod

        def fail(*args, **kwargs):
            raise AssertionError("the sweep ran")
        monkeypatch.setattr(cli_mod, "trace_parameter", fail)

    @pytest.fixture
    def empty_trace(self, monkeypatch):
        from sphere_spectra import cli as cli_mod
        monkeypatch.setattr(cli_mod, "trace_parameter", lambda *a, **k: [])

    def test_swept_m_above_cap_exits_2(self, no_trace):
        assert run(["trace", "--k", "1", "--x0", "0.5",
                    "--sweep", "M:1900:2100:100"]) == 2
        assert run(["trace", "--k", "1", "--x0", "0.5",
                    "--sweep", "M:1:5:1"]) == 2

    def test_swept_x0_reaching_full_sphere_exits_2(self, no_trace, tmp_path):
        out = tmp_path / "never.csv"
        assert run(["trace", "--k", "1", "--sweep", "x0:0.9:1.0:0.05",
                    "--output", str(out)]) == 2
        assert not out.exists()
        assert run(["trace", "--k", "1", "--sweep", "x0:0.0:0.5:0.1"]) == 2
        assert run(["trace", "--k", "1", "--sweep", "eps:-1:1:0.5"]) == 2

    @pytest.mark.parametrize("argv, warned", [
        (["--x0", "0.9", "--sweep", "x0:0.9:0.97:0.035"], True),
        (["--x0", "0.97", "--sweep", "M:500:1500:500"], True),
        (["--x0", "0.97", "--M", "500", "--sweep", "M:1000:1500:500"], False),
        (["--x0", "0.97", "--sweep", "eps:0:1:0.5"], True),
        (["--x0", "0.97", "--sweep", "x0:0.85:0.93:0.04"], False),
    ])
    def test_m_warning_uses_the_run_extremes(self, empty_trace, tmp_path,
                                             capsys, argv, warned):
        assert run(["trace", "--k", "1", "--output",
                    str(tmp_path / "t.csv")] + argv) == 0
        assert ("use M >= 1000" in capsys.readouterr().err) == warned

    @pytest.mark.parametrize("figure, warned", [("1", True), ("4", False)])
    def test_m_warning_covers_figure_tasks(self, empty_trace, tmp_path,
                                           capsys, figure, warned):
        """Figure 1 sweeps x0 to 0.99 at M = 150 and warns, once; figure 4
        stays at x0 = 0.9 and does not."""
        assert run(["figures", "--figure", figure,
                    "--output", str(tmp_path / "fig")]) == 0
        assert capsys.readouterr().err.count("use M >= 1000") == warned

    def test_sweep_values_end_on_the_stop_value(self, monkeypatch, tmp_path,
                                                capsys):
        # start + i*step, not an accumulated arange: the sweep stops at
        # 0.95 itself, not 0.9500000000000001, so no M warning fires
        from sphere_spectra import cli as cli_mod
        seen = []
        monkeypatch.setattr(cli_mod, "trace_parameter",
                            lambda family, values, cfg, count: seen.append(
                                list(values)) or [])
        assert run(["trace", "--k", "1", "--sweep", "x0:0.85:0.95:0.05",
                    "--output", str(tmp_path / "t.csv")]) == 0
        assert seen == [[0.85, 0.9, 0.95]]
        assert "use M >= 1000" not in capsys.readouterr().err

    def test_sweep_values_rounded_together_exit_2(self, tmp_path, capsys):
        # 0.9 + i * 3e-16 at the rows' 15 digits repeats values: rows were
        # written twice for one value
        out = tmp_path / "t.csv"
        assert run(["trace", "--k", "1", "--smax", "3", "--sweep",
                    "x0:0.9:0.900000000000003:0.0000000000000003",
                    "--output", str(out)]) == 2
        assert "strictly monotone" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_value_count_is_bounded(self, monkeypatch, tmp_path,
                                          capsys):
        # eps:0:1:1e-9 built 1e9 values before the sweep began; the refusal
        # now comes before any value is built
        from sphere_spectra import cli as cli_mod
        build = cli_mod._sweep_values

        def fail(sweep):
            raise AssertionError("the sweep values were built")
        monkeypatch.setattr(cli_mod, "_sweep_values", fail)
        for step in ("1e-9", "1e-4"):       # 10^9 + 1 and 10^4 + 1 values
            assert run(["trace", "--k", "1",
                        "--sweep", f"eps:0:1:{step}"]) == 2
            assert "at most 10000 values" in capsys.readouterr().err
        monkeypatch.setattr(cli_mod, "_sweep_values", build)
        seen = []
        monkeypatch.setattr(cli_mod, "trace_parameter",
                            lambda family, values, cfg, count: seen.append(
                                len(values)) or [])
        assert run(["trace", "--k", "1", "--sweep", "eps:0:9.999:0.001",
                    "--output", str(tmp_path / "t.csv")]) == 0
        assert seen == [cli_mod.MAX_SWEEP]

    def test_sweep_ends_build_no_functional(self, monkeypatch, tmp_path):
        # the ends of a sweep are checked without a determinant functional,
        # so main builds none before the trace starts
        from sphere_spectra import boundary
        from sphere_spectra import cli as cli_mod
        built, build = [], boundary.det_functional
        monkeypatch.setattr(boundary, "det_functional",
                            lambda p: built.append(p.eps) or build(p))
        monkeypatch.setattr(cli_mod, "cmd_trace",
                            lambda cfg: built.append("trace") or 0)
        assert run(["trace", "--k", "1", "--x0", "0.9",
                    "--sweep", "eps:0:12:0.25", "--smax", "8",
                    "--output", str(tmp_path / "t.csv")]) == 0
        assert built == ["trace"]

    def test_eps_trace_composes_one_block_set_per_value(self, tmp_path):
        # the 49 sweep values of the eps-trace benchmark each compose their
        # long-double blocks once; the sweep-end check composes none
        from sphere_spectra import series
        series._blocks.cache_clear()
        assert run(["trace", "--k", "1", "--x0", "0.9",
                    "--sweep", "eps:0:12:0.25", "--smax", "8",
                    "--output", str(tmp_path / "t.csv")]) == 0
        assert series._blocks.cache_info().misses == 49


class TestConfigKeys:
    def test_chi_from_config_file(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"chi": True}))
        common = ["--k", "0", "--eps", "4", "--steps", "400", "--smax", "3"]
        via_file, via_flag = tmp_path / "file.csv", tmp_path / "flag.csv"
        assert run(["oracle", "--config", str(cfgfile), "--output",
                    str(via_file)] + common) == 0
        assert run(["oracle", "--chi", "--output", str(via_flag)]
                   + common) == 0
        assert via_file.read_bytes() == via_flag.read_bytes()

    def test_chi_is_k0(self, tmp_path, capsys):
        # --chi wrote params.k = 1 and M = 150, the defaults, in the meta of
        # the k = 0 spectrum it ran; a k != 0 beside it, by flag or by
        # config file, is refused
        common = ["oracle", "--eps", "4", "--x0", "0.9", "--steps", "400",
                  "--smax", "3"]
        out = tmp_path / "chi.json"
        assert run(common + ["--chi", "--format", "json",
                             "--output", str(out)]) == 0
        meta = json.loads(out.read_text())["meta"]
        assert (meta["params"]["k"], meta["params"]["M"], meta["chi"]) == (
            0, 100, True)
        csv = []
        for argv in (["--chi"], ["--k", "0"], ["--chi", "--k", "0"]):
            out = tmp_path / f"{len(csv)}.csv"
            assert run(common + argv + ["--output", str(out)]) == 0
            csv.append(out.read_bytes())
        assert len(csv[0].splitlines()) > 1 and csv[0] == csv[1] == csv[2]
        cfg_k, cfg_chi = tmp_path / "k.json", tmp_path / "chi.json"
        cfg_k.write_text(json.dumps({"k": 2}))
        cfg_chi.write_text(json.dumps({"chi": True, "k": 1}))
        capsys.readouterr()
        out = tmp_path / "refused.csv"
        for argv, k in ((["--chi", "--k", "3"], 3),
                        (["--chi", "--config", str(cfg_k)], 2),
                        (["--config", str(cfg_chi)], 1)):
            assert run(common + argv + ["--output", str(out)]) == 2
            assert capsys.readouterr().err == (
                f"configuration error: --chi is k = 0, not k = {k}\n")
        assert not out.exists()

    def test_sweep_from_config_file(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"sweep": "eps:0:1:0.5"}))
        common = ["--k", "1", "--x0", "0.9", "--M", "60", "--smax", "3"]
        via_file, via_flag = tmp_path / "file.csv", tmp_path / "flag.csv"
        assert run(["trace", "--config", str(cfgfile), "--output",
                    str(via_file)] + common) == 0
        assert run(["trace", "--sweep", "eps:0:1:0.5", "--output",
                    str(via_flag)] + common) == 0
        assert via_file.read_bytes() == via_flag.read_bytes()
        assert len(via_file.read_text().splitlines()) > 3
        sidecar = tmp_path / "file.csv.events.json"
        assert sidecar.read_bytes() == (
            tmp_path / "flag.csv.events.json").read_bytes()

    def test_figure_from_config_file(self, tmp_path, monkeypatch):
        from sphere_spectra import cli as cli_mod
        spec = {"params": dict(k=1, eps=0.0, x0=0.9, M=60), "s_max": 3.0,
                "param": 1}
        monkeypatch.setattr(cli_mod, "FIGURE_TASKS",
                            {"1": [("a", spec)], "3": [("b", spec)]})
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"figure": "3"}))
        assert run(["figures", "--config", str(cfgfile),
                    "--output", str(tmp_path / "fig")]) == 0
        assert [p.name for p in tmp_path.glob("fig_*.csv")] == ["fig_b.csv"]

    @pytest.mark.parametrize("argv, data", [
        (["spectrum"], {"smx": 9.0}),
        (["spectrum"], {"chi": True}),
        (["trace", "--sweep", "eps:0:1:0.5"], {"figure": "2"}),
        (["oracle"], ["k", 1]),
        # values of the wrong type raised TypeError or AttributeError (exit
        # 1 is a failed verification), or were misread: k = 1.5 ran k = 1,
        # "false" the chi problem, and an output of 5 wrote to descriptor 5
        (["spectrum"], {"step": None}),
        (["spectrum"], {"k": [1]}),
        (["spectrum"], {"k": 1.5}),
        (["spectrum"], {"output": 5}),
        (["trace"], {"sweep": 5}),
        (["oracle"], {"chi": "false"}),
    ])
    def test_unknown_keys_exit_2(self, tmp_path, capsys, argv, data):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(data))
        assert run(argv + ["--config", str(cfgfile)]) == 2
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("config", "x.json"),
                                            ("command", "csv")])
    def test_namespace_names_are_no_config_keys(self, tmp_path, capsys, key,
                                                value):
        # both were accepted and ignored
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({key: value}))
        assert run(["spectrum", "--config", str(cfgfile)]) == 2
        assert f"unknown config keys for spectrum: {key}" in \
            capsys.readouterr().err

    # per option: its value as a flag argument (None for a switch) and as
    # a config value, the commands that have it where not all four, and
    # config values of the other JSON types
    VALUES = {
        "config": ("cfg.json", None), "k": ("3", 3), "eps": ("2", 2),
        "x0": ("0.8", 0.8), "M": ("60", 60), "smin": ("1", 1),
        "smax": ("5", 5), "step": ("0.1", 0.1), "tol": ("1e-9", 1e-9),
        "output": ("out.txt", "out.txt"), "fmt": ("json", "json"),
        "steps": ("400", 400), "chi": (None, True),
        "sweep": ("eps:0:1:0.5", "eps:0:1:0.5"), "figure": ("3", "3")}
    OWNERS = {"steps": ("oracle",), "chi": ("oracle",), "sweep": ("trace",),
              "figure": ("figures",)} | dict.fromkeys(
                  ("k", "eps", "x0", "M", "smax"), ("spectrum", "oracle",
                                                    "trace"))
    WRONG = {str: [3, 0.5, True, None, [1]],
             int: ["3", 0.5, True, None, [1]],
             float: ["0.5", True, None, [1]],
             bool: ["true", 1, 0, None, [1]]}

    @pytest.mark.parametrize("name", list(_OPTIONS))
    def test_each_option_by_flag_and_config(self, tmp_path, capsys,
                                            monkeypatch, name):
        from sphere_spectra import cli as cli_mod
        opt = _OPTIONS[name]
        flag = "--format" if name == "fmt" else "--" + name
        text, value = self.VALUES[name]
        argv = [flag] if text is None else [flag, text]
        # the flag exists on exactly the commands the table names
        commands = ("spectrum", "oracle", "trace", "figures")
        assert opt.commands == self.OWNERS.get(name, commands)
        parser = _build_parser()
        for command in commands:
            if command in opt.commands:
                parsed = vars(parser.parse_args([command] + argv))[name]
                assert parsed == (True if text is None else opt.type(text))
            else:
                with pytest.raises(SystemExit):
                    parser.parse_args([command] + argv)
        capsys.readouterr()
        # the computation patched out: the outputs show the options alone
        spec = {"params": dict(k=1, eps=0.0, x0=0.9, M=60), "s_max": 3.0,
                "param": 1}
        monkeypatch.setattr(cli_mod, "FIGURE_TASKS",
                            {"1": [("a", spec)], "3": [("b", spec)]})
        monkeypatch.setattr(cli_mod, "scan_real_roots", lambda *a, **k: [])
        monkeypatch.setattr(cli_mod, "trace_parameter", lambda *a, **k: [])
        monkeypatch.setattr(cli_mod.boundary, "det_functional",
                            lambda *a, **k: None)
        monkeypatch.setattr(cli_mod, "certify",
                            lambda *a, **k: ({}, []))
        monkeypatch.setattr(oracle, "shoot_functional",
                            lambda *a, **k: types.SimpleNamespace(meta={}))

        def outputs(command, config=None):
            """Exit code, captured streams and written files of a run given
            the option by its flag, or else by a config file."""
            d = tmp_path / f"run{len(list(tmp_path.iterdir()))}"
            d.mkdir()
            monkeypatch.chdir(d)
            args = [command] + (["--format", "json"] if name != "fmt" else [])
            if command == "trace" and name != "sweep":
                args += ["--sweep", "x0:0.85:0.9:0.05"]
            if config is None:
                args += argv
            else:
                (d / "cfg.json").write_text(json.dumps(config))
                args += ["--config", "cfg.json"]
            code = run(args)
            return code, capsys.readouterr(), {
                p.name: p.read_bytes() for p in d.iterdir()
                if p.name != "cfg.json"}

        for command in commands:
            if command not in opt.commands:
                code, out, _ = outputs(command, {name: value})
                assert code == 2
                assert f"unknown config keys for {command}: {name}" in out.err
                continue
            if name != "config":    # a config file names no other
                by_flag = outputs(command)
                assert by_flag[0] == 0 and by_flag[1].err == ""
                assert outputs(command, {name: value}) == by_flag
            for wrong in self.WRONG[opt.type]:
                code, out, _ = outputs(command, {name: wrong})
                assert code == 2
                # config is no config key, whatever its value
                assert (f"unknown config keys for {command}: config"
                        if name == "config" else "configuration error: "
                        f"config values of the wrong type: {name}") in out.err


class TestOracleCommand:
    @pytest.mark.parametrize("x0", ["0.898", "0.899", "0.9", "0.901"])
    def test_converged_roots_are_kept(self, tmp_path, capsys, x0):
        # a gate on |F| against neighbours 0.05 away dropped 6.1277 and
        # 7.3296 at x0 = 0.9 although both had converged
        out = tmp_path / "oracle.csv"
        # exit 0: a root whose error exceeds tol would exit 3
        assert run(["oracle", "--k", "3", "--eps", "4", "--x0", x0,
                    "--output", str(out)]) == 0
        assert len(_re_s(out)) == 4

    @pytest.mark.parametrize("steps", ["0", "1", "-5"])
    def test_invalid_steps_exit_2(self, tmp_path, capsys, steps):
        # 0 steps divided by zero, and negative counts took no step, so
        # every grid point of the scan came out as a root
        out = tmp_path / "oracle.csv"
        assert run(["oracle", "--k", "1", "--steps", steps,
                    "--output", str(out)]) == 2
        assert "configuration error" in capsys.readouterr().err
        assert not out.exists()

    def test_invalid_steps_in_config_exit_2(self, tmp_path, capsys):
        cfgfile, out = tmp_path / "cfg.json", tmp_path / "oracle.csv"
        cfgfile.write_text(json.dumps({"steps": -5}))
        assert run(["oracle", "--config", str(cfgfile),
                    "--output", str(out)]) == 2
        assert "configuration error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, least", [
        (["--k", "1", "--eps", "1000"], 3414),
        (["--k", "0", "--eps", "2000", "--smax", "4"], 3414)])
    def test_unstable_step_exits_2(self, tmp_path, capsys, argv, least):
        # h * eps / (1 - x0^2) at k = 1, and h * eps / (2 (1 - x0^2)) for
        # chi at k = 0, is about 4.7 at the default 2000 steps: k = 1
        # overflowed with numpy warnings before exiting 3, and k = 0 ran the
        # unstable step to exit 0
        out = tmp_path / "oracle.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["oracle", *argv, "--output", str(out)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("configuration error: RK4 is unstable")
            assert f"use --steps {least} or more" in err
            assert not out.exists()
            # the named step count is the least that runs
            assert run(["oracle", *argv, "--steps", str(least - 1),
                        "--output", str(out)]) == 2
            assert run(["oracle", *argv, "--steps", str(least),
                        "--output", str(out)]) == 0
        assert out.read_text() == ",".join(SCHEMA) + "\n"

    def test_chi_scan_makes_four_shooting_calls(self, tmp_path, monkeypatch):
        # the grid call and one call per refinement round: on the rescaled
        # residual every bracket closes within three rounds (Illinois on the
        # orthonormalized residual made 14 calls); JSON meta reports the
        # functional's log10 reference factor
        calls, made = [], []
        functional = oracle.shoot_functional

        def counted(*args, **kwargs):
            made.append(functional(*args, **kwargs))

            def call(s):
                calls.append(np.size(s))
                return made[-1](s)
            call.meta = made[-1].meta
            return call

        monkeypatch.setattr(oracle, "shoot_functional", counted)
        out = tmp_path / "oracle.json"
        assert run(["oracle", "--chi", "--eps", "4", "--x0", "0.9",
                    "--format", "json", "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["rows"] and len(made) == 1
        assert 1 < len(calls) <= 4
        assert doc["meta"]["log_scale_ref"] == made[0].meta["log_scale_ref"]

    def test_json_meta_reports_block_and_stiffness(self, tmp_path,
                                                   monkeypatch):
        # the scan's largest |mu| is 72 (s = 8); at x = +-0.9 the (Phi,
        # Phi') block of A0 + mu A1 has complex eigenvalues there, with
        # |eig|^2 = -det = 72 / (1 - x^2) - 1 / (1 - x^2)^2.  The blocks,
        # one per checkpoint chunk and kept to degree 16, are built once
        builds, blocks = [], oracle._blocks
        monkeypatch.setattr(oracle, "_blocks", lambda *a: builds.append(
            a[-2:]) or blocks(*a))
        out = tmp_path / "oracle.json"
        assert run(["oracle", "--k", "1", "--eps", "0", "--x0", "0.9",
                    "--format", "json", "--output", str(out)]) == 0
        meta = json.loads(out.read_text())["meta"]
        om = 1 - 0.9 ** 2
        assert meta["n_steps"] == 2000
        assert (meta["block"], meta["degree"]) == (100, 16)
        assert builds == [(100, 16)]
        assert meta["h_max_eig"] == pytest.approx(
            2 * 0.9 / 2000 * np.sqrt(72 / om - 1 / om ** 2), rel=1e-12)

    def test_unstable_step_at_window_mu_exits_2(self, tmp_path, capsys):
        # A0 alone passes at the default 2000 steps, but h * |eig(A0 +
        # mu A1)| is 6.2 at s = 3000: the run exited 0 with rows at 1914.7,
        # 2099.9, 2125.3 and 2334.4, each with residual 1
        argv = ["oracle", "--k", "1", "--eps", "0", "--x0", "0.9",
                "--smin", "100", "--smax", "3000", "--step", "100",
                "--output", str(tmp_path / "oracle.csv")]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: RK4 is unstable")
        assert "use --steps 4458 or more" in err
        assert not (tmp_path / "oracle.csv").exists()
        # the named step count is the least that runs
        assert run(argv + ["--steps", "4457"]) == 2
        # roots lie closer than the 100-wide scan step, as it warns
        with pytest.warns(GridTooCoarseWarning):
            assert run(argv + ["--steps", "4458"]) == 0
        rows = (tmp_path / "oracle.csv").read_text().splitlines()[1:]
        assert rows
        assert all(float(dict(zip(SCHEMA, r.split(",")))["residual"]) < 1e-6
                   for r in rows)

    @pytest.mark.parametrize("oracle_args, spectrum_args", [
        (["--k", "1", "--eps", "0"], ["--k", "1", "--eps", "0"]),
        (["--k", "0", "--eps", "1"], ["--k", "0", "--eps", "1"]),
        (["--chi", "--eps", "4"], ["--k", "0", "--eps", "4"]),
    ])
    def test_roots_match_spectrum(self, tmp_path, oracle_args,
                                  spectrum_args):
        common = ["--x0", "0.9", "--smax", "3"]
        orc, spec = tmp_path / "oracle.csv", tmp_path / "spectrum.csv"
        assert run(["oracle", "--steps", "400", "--output", str(orc)]
                   + oracle_args + common) == 0
        assert run(["spectrum", "--output", str(spec)]
                   + spectrum_args + common) == 0
        lines = orc.read_text().splitlines()
        assert lines[0] == ",".join(SCHEMA)
        assert all(line.endswith(",oracle") for line in lines[1:])
        found, ref = _re_s(orc), _re_s(spec)
        assert len(found) == len(ref) > 0
        np.testing.assert_allclose(found, ref, rtol=0, atol=1e-6)


def test_event_sidecar_uses_row_digits(tmp_path):
    # the merge lands on a sweep value, 1.7 + i * 0.3 rounded to the rows'
    # 15 digits
    out = tmp_path / "merge.csv"
    assert run(["trace", "--k", "1", "--x0", "0.9", "--smax", "5",
                "--sweep", "eps:1.7:2.7:0.3", "--output", str(out)]) == 0
    params = {float(line.split(",")[0])
              for line in out.read_text().splitlines()[1:]}
    events = json.loads(
        (tmp_path / "merge.csv.events.json").read_text())["events"]
    assert events
    for ev in events:
        assert ev["param"] in params
        for x in (ev["param"], ev["s_merged"]):
            assert float(f"{x:.15g}") == x
        # the merge position is the seed's real part
        assert ev["s_merged"] == float(f"{ev['seed'][0]:.15g}")


def test_sidecar_lists_every_branch_termination(tmp_path):
    # branch 4 of the k = 1 eps sweep climbs above s = 8 after eps = 1.25
    out = tmp_path / "eps.csv"
    assert run(["trace", "--k", "1", "--x0", "0.9", "--smax", "8",
                "--sweep", "eps:0:4:0.25", "--output", str(out)]) == 0
    last = {}
    for line in out.read_text().splitlines()[1:]:
        param, branch = line.split(",")[:2]
        last[int(branch)] = max(last.get(int(branch), 0.0), float(param))
    stopped = {b: p for b, p in last.items() if p < 4.0}
    doc = json.loads((tmp_path / "eps.csv.events.json").read_text())
    ended = {t["branch"]: t for t in doc["terminations"]}
    assert stopped and set(stopped) <= set(ended)
    for b, p in stopped.items():
        assert ended[b]["param"] == p
        assert ended[b]["reason"]
    assert len(doc["events"]) == 2


def test_json_meta_lists_branch_terminations(tmp_path):
    # the benchmark's eps sweep: branch 4 climbs above s = 8 after 1.25
    out = tmp_path / "eps.json"
    assert run(["trace", "--k", "1", "--x0", "0.9", "--smax", "8",
                "--sweep", "eps:0:12:0.25", "--format", "json",
                "--output", str(out)]) == 0
    ended = json.loads(out.read_text())["meta"]["terminations"]
    sidecar = json.loads((tmp_path / "eps.json.events.json").read_text())
    assert ended == sidecar["terminations"]
    assert {"branch": 4, "reason": "left the scan window",
            "param": 1.25} in ended


def test_figure_json_meta_lists_branch_terminations(tmp_path):
    base = tmp_path / "fig"
    assert run(["figures", "--figure", "5", "--format", "json",
                "--output", str(base)]) == 0
    for suffix in ("k1", "k3"):
        doc = json.loads((tmp_path / f"fig_{suffix}.json").read_text())
        sidecar = json.loads(
            (tmp_path / f"fig_{suffix}.json.events.json").read_text())
        assert doc["meta"]["terminations"] == sidecar["terminations"]
        assert doc["meta"]["terminations"]


def test_branch_above_smax_ends_the_branch_not_the_run(tmp_path):
    # at x0 = 0.899 branch 4 climbs out of [0, 8]; following it there
    # overflowed the M = 150 recurrence at s ~ 1284 and ended the run
    out = tmp_path / "x0899.csv"
    assert run(["trace", "--k", "1", "--x0", "0.899", "--smax", "8",
                "--sweep", "eps:0:12:0.25", "--output", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert rows and all(float(r[2]) <= 8 for r in rows if r[3] == "0")
    doc = json.loads((tmp_path / "x0899.csv.events.json").read_text())
    assert {"branch": 4, "param": 1.25, "reason": "left the scan window"} \
        in doc["terminations"]


def test_x0_sweep_rows_only_at_sweep_values(tmp_path):
    # the third root moves 0.137 on the first step
    out = tmp_path / "x0.csv"
    assert run(["trace", "--k", "1", "--eps", "0", "--M", "1000",
                "--sweep", "x0:0.95:0.99:0.01", "--smax", "4.5",
                "--output", str(out)]) == 0
    params = {line.split(",")[0]
              for line in out.read_text().splitlines()[1:]}
    assert params == {"0.95", "0.96", "0.97", "0.98", "0.99"}


@pytest.mark.parametrize("k", ["1", "3"])
def test_trace_rows_stay_in_the_scan_window(tmp_path, k):
    # complex pairs were followed above s = 8: 8 rows at k = 1, 30 at k = 3
    out = tmp_path / "eps.csv"
    assert run(["trace", "--k", k, "--x0", "0.9", "--smax", "8",
                "--sweep", "eps:0:12:0.25", "--output", str(out)]) == 0
    re_s = _re_s(out)
    assert re_s and all(0 <= s <= 8 for s in re_s)
