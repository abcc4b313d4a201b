"""Command-line interface: argument contract, outputs, exit codes."""

import argparse
import dataclasses
import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from tricomi.cli import run


def _run(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestArgumentContract:
    @pytest.mark.parametrize("argv", [
        ["constants"],                                  # no x0 at all
        ["constants", "--x0", "0.5"],                   # positive x0
        ["constants", "--x0", "abc"],                   # not a number
        ["constants", "--x0", "-0.5", "--x0-range", "-1:-0.1:3"],  # both
        ["constants", "--x0-range", "-1:-0.1:0"],       # zero count
        ["constants", "--x0-range", "-1:0.1:3"],        # nonnegative endpoint
        ["constants", "--x0-range", "-1:-0.1"],         # malformed spec
        ["constants", "--x0", "-0.5", "--format", "svg"],
        ["verify", "nosuchcheck", "--x0", "-0.5"],
        ["plot", "h", "--x0", "-0.5", "--format", "json"],
        ["eigen", "--x0", "-0.5", "--format", "csv"],   # csv needs --out
        ["nosuchcommand"],
        # Sweep options exist only where x0 is swept; elsewhere they are
        # rejected rather than silently ignored.
        ["eigen", "--x0", "-0.5", "--x0-range", "-2:-0.5:3"],
        ["plot", "eigen", "--x0", "-0.5", "--x0-range", "-2:-0.5:3"],
        ["bound", "--x0", "-0.5", "--jobs", "3"],
        ["constants", "--x0", "-0.5", "--jobs", "3"],
        ["verify", "all", "--x0", "-0.5", "--jobs", "0"],
        ["verify", "all", "--x0-range", "-2:-0.5:3", "--jobs", "-3"],
        ["constants", "--x0-range", "nan:-1:3"],        # non-finite endpoint
        ["constants", "--x0-range", "-inf:-1:3"],
        ["verify", "all", "--x0", "-0.5", "--tol", "inf"],
        ["verify", "all", "--x0", "-0.5", "--tol", "nan"],
        ["verify", "all", "--x0", "-0.5", "--tol", "-1"],
        ["bound", "--x0", "-0.5", "--tol", "inf"],
        ["bound", "--x0", "-0.5", "--tol", "nan"],
        ["bound", "--x0", "-0.5", "--tol", "-1"],
        # Counts and meshes below the solver's floors fail at parse time.
        ["eigen", "--x0", "-0.5", "--count", "0"],
        ["bound", "--x0", "-0.5", "--count", "-1"],     # bound has no --count
        ["bound", "--x0", "-0.5", "--nx", "10"],
        ["eigen", "--x0", "-0.5", "--ny", "31"],
        ["plot", "eigen", "--x0", "-0.5", "--nx", "3"],
        ["eigen"],                                      # no x0 at all
        ["bound"],
        ["plot", "h"],
        ["verify", "profiles", "--x0", "-0.5"],         # a part of `all` only
        # --reflected is the negative control of the star-shapedness check;
        # checks that do not run it reject the flag rather than ignore it.
        ["verify", "h-profile", "--x0", "-0.5", "--reflected"],
        ["verify", "g1-bounds", "--x0", "-0.5", "--reflected"],
        ["verify", "g2-bounds", "--x0", "-0.5", "--reflected"],
        ["verify", "integrands", "--x0", "-0.5", "--reflected"],
        ["verify", "inequalities", "--x0-range", "-1:-0.5:2", "--reflected"],
        # --nx and --ny set plot eigen's mesh; the other plots reject them.
        ["plot", "h", "--x0", "-0.5", "--nx", "33"],
        ["plot", "domain", "--x0", "-0.5", "--ny", "48"],
        # A sample count below 1; from 1 up to a check's own floor, the
        # check itself fails (exit 1).
        ["verify", "all", "--x0", "-0.5", "--grid", "0"],
        ["verify", "starshape", "--x0", "-0.5", "--grid", "-3"],
    ])
    def test_bad_arguments_exit_2(self, argv):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2


class TestConstants:
    def test_json_single(self, capsys):
        code, out, err = _run(capsys, "constants", "--x0", "-0.5")
        assert code == 0 and err == ""
        d = json.loads(out)
        assert d["x0"] == -0.5
        assert d["regime"] == "R2b"
        assert d["C3"] == pytest.approx(0.67245774405789, rel=1e-12)
        # R2b is in the second family, so C7..C12 are present.
        assert d["C7"] is not None and d["C12"] is not None

    def test_csv_sweep(self, capsys):
        code, out, err = _run(capsys, "constants",
                              "--x0-range", "-2:-0.1:4", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 5
        assert lines[0].startswith("x0,regime,")
        # Log-spaced sweep from -2 to -0.1.
        first = float(lines[1].split(",")[0])
        last = float(lines[4].split(",")[0])
        assert first == pytest.approx(-2.0, rel=1e-12)
        assert last == pytest.approx(-0.1, rel=1e-12)

    @pytest.mark.parametrize("argv", [
        ("constants",),
        ("constants", "--format", "csv"),
        ("verify", "g2-bounds", "--grid", "2000"),
        ("verify", "inequalities", "--grid", "50", "--format", "csv"),
    ])
    @pytest.mark.parametrize("a", ["-0.5", "-0.3", "-4"])
    def test_range_of_one_is_its_first_endpoint(self, capsys, argv, a):
        # A sweep a:b:1 is the single value a, whatever b is.
        single = _run(capsys, *argv, "--x0", a)
        assert single[0] == 0
        assert _run(capsys, *argv, "--x0-range", f"{a}:-0.05:1") == single

    def test_x0_in_scientific_notation(self, capsys):
        # argparse alone reads "-1e-3" as an option, not a negative number.
        code, out, err = _run(capsys, "constants", "--x0", "-1e-3")
        assert code == 0 and err == ""
        assert (code, out) == _run(capsys, "constants", "--x0=-1e-3")[:2]
        assert json.loads(out)["x0"] == -1e-3

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "ledger.json"
        code, out, _ = _run(capsys, "constants", "--x0", "-0.5",
                            "--out", str(path))
        assert code == 0 and out == ""
        assert json.loads(path.read_text())["x0"] == -0.5


class TestVerify:
    def test_g1_bounds_jsonl(self, capsys):
        code, out, err = _run(capsys, "verify", "g1-bounds",
                              "--x0", "-0.5", "--grid", "2000")
        assert code == 0 and err == ""
        rec = json.loads(out)
        assert rec["claim_id"] == "G1_bounds"
        assert rec["passed"] is True

    def test_sweep_csv(self, capsys):
        code, out, _ = _run(capsys, "verify", "h-profile",
                            "--x0-range", "-1:-0.2:3", "--grid", "2000",
                            "--format", "csv", "--jobs", "2")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "claim_id,x0,worst_margin,passed"
        assert len(lines) == 4
        assert all(line.endswith(",true") for line in lines[1:])

    def test_reflected_negative_control(self, capsys):
        code, out, err = _run(capsys, "verify", "starshape",
                              "--x0", "-0.5", "--grid", "2000", "--reflected")
        assert code == 1
        rec = json.loads(out)
        assert rec["passed"] is False
        assert "star_shaped" in json.loads(err)["failed"]

    @pytest.mark.parametrize("check", ["inequalities", "integrands"])
    @pytest.mark.parametrize("grid", ["0", "-320"])
    def test_nonpositive_sample_count_is_rejected(self, capsys, check, grid):
        # An empty sample must not pass vacuously with an infinite margin:
        # the CLI rejects the count as an argument error before any check
        # runs, and the check itself raises on it.
        import tricomi
        with pytest.raises(SystemExit) as exc:
            run(["verify", check, "--x0", "-0.5", "--grid", grid])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert f"--grid: must be at least 1, got {grid}" in captured.err
        verify = {"inequalities": tricomi.verify_trace_inequalities,
                  "integrands": tricomi.verify_integrand_equivalence}[check]
        with pytest.raises(ValueError, match="at least 1"):
            verify(-0.5, int(grid))

    def test_tol_override_flips_outcome(self, capsys):
        code, _, _ = _run(capsys, "verify", "starshape",
                          "--x0", "-0.5", "--grid", "2000", "--reflected",
                          "--tol", "1e9")
        assert code == 0

    def test_all_checks_single_x0(self, capsys):
        code, out, _ = _run(capsys, "verify", "all",
                            "--x0", "-0.5", "--grid", "1200")
        assert code == 0
        ids = [json.loads(line)["claim_id"] for line in out.strip().splitlines()]
        assert ids == ["h_profile", "G1_bounds", "G2_bounds", "star_shaped",
                       "integrand_equivalence", "trace_inequalities"]

    def test_all_builds_one_sweep_grid(self, capsys, monkeypatch):
        from tricomi import verifier
        calls, ledgers = [], []
        nodes, ledger = verifier._nodes, verifier.ledger
        monkeypatch.setattr(verifier, "_nodes",
                            lambda led, n: calls.append((led.x0, n)) or nodes(led, n))
        monkeypatch.setattr(verifier, "ledger", lambda x0: ledgers.append(x0) or ledger(x0))
        code, _, _ = _run(capsys, "verify", "all", "--x0", "-0.5", "--grid", "1200")
        assert code == 0 and calls == [(-0.5, 1200)] and ledgers == [-0.5]

    # Each check's sample count follows --grid at any size: 3 (grid // 3)
    # boundary points times 51 flow times, two curves of states, 64 nodes
    # per trace bundle.
    @pytest.mark.parametrize("check, grid, size", [
        ("starshape", "10000", 509949),
        ("integrands", "20000", 40000),
        ("inequalities", "20000", 1280000),
    ])
    def test_grid_honored_at_any_size(self, capsys, check, grid, size):
        code, out, _ = _run(capsys, "verify", check, "--x0", "-0.5", "--grid", grid)
        assert code == 0 and json.loads(out)["grid_size"] == size

    def test_all_gives_grid_to_each_part(self, capsys):
        from tricomi.verifier import _nodes, ledger
        code, out, _ = _run(capsys, "verify", "all", "--x0", "-0.5", "--grid", "12000")
        sizes = [json.loads(line)["grid_size"] for line in out.splitlines()]
        assert code == 0
        n = len(_nodes(ledger(-0.5), 12000)[0])
        assert sizes == [n] * 3 + [12000 * 51, 12000 * 2, 12000 * 64]

    def test_h_profile_ends_at_large_x0(self):
        # Past X = 8192 the inflection's bisection reaches adjacent doubles
        # before its 1e-12 width; it must stop there rather than loop.
        proc = subprocess.run(
            [sys.executable, "-m", "tricomi.cli", "verify", "h-profile",
             "--x0", "-1e4", "--grid", "1000"],
            capture_output=True, text=True, timeout=60)
        if proc.returncode == 1:
            assert len(proc.stderr.splitlines()) == 1 and json.loads(proc.stderr)
        else:
            assert proc.returncode == 0 and json.loads(proc.stdout)["claim_id"] == "h_profile"

    def test_all_sweep_independent_of_jobs(self, capsys):
        argv = ("verify", "all", "--x0-range", "-4:-0.05:6")
        one = _run(capsys, *argv, "--jobs", "1")
        assert one == _run(capsys, *argv, "--jobs", "2")
        assert one[0] == 0 and len(one[1].splitlines()) == 6 * 6

    # sha256 of stdout at the default --grid 100000, the workload's size, and
    # at grids whose sweep ends inside a slice of the verifier's _BLOCK = 8192
    # nodes: 8197 nodes at (-3, 8193) and 16388 at (-0.3, 16385).
    @pytest.mark.parametrize("x0, grid, digest", [
        pytest.param("-0.05", None, "3bfef4a628c9c48997f9790adb2616c889ea8361d29dd28e8568479219ed774b",
                     id="-0.05-default"),
        pytest.param("-0.5", None, "4398e1c048fc5c600fddf3daca9d39fe621e6208481e92582507c8a74155f0f0",
                     id="-0.5-default"),
        pytest.param("-1", None, "e23548c68c24ae607fdaa86a7511840453a391003bbd047a099dbf0adbcfb07a",
                     id="-1-default"),
        pytest.param("-4", None, "441bdaa2a11f7ed0f608867958e4944caff241cc946a8ec4ac7fc5485f394214",
                     id="-4-default"),
        pytest.param("-3", "8193", "54db9443318ad4efaee454b569e23554112ac00a7d024a32c95ca039480e8f4f",
                     id="-3-8193"),
        pytest.param("-0.3", "16385", "3624aca820de70b0bc35988e3b729a6fffaca8f132bd0cfe11281d298315d19b",
                     id="-0.3-16385"),
    ])
    def test_all_pinned_at_grid(self, capsys, x0, grid, digest):
        code, out, err = _run(capsys, "verify", "all", "--x0", x0, *(("--grid", grid) if grid else ()))
        assert code == 0 and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("x0", ["-1e200", "-1e300"])
    def test_overflow_reports_json_only(self, x0):
        # A numpy overflow warning must not precede the JSON diagnostic.
        proc = subprocess.run(
            [sys.executable, "-m", "tricomi.cli", "verify", "starshape", "--x0", x0],
            capture_output=True, text=True)
        assert proc.returncode == 1 and proc.stdout == ""
        assert "overflow" in json.loads(proc.stderr)["error"]

    @pytest.mark.parametrize("check", ["h-profile", "g1-bounds", "g2-bounds"])
    def test_nan_sweep_reports_json_only(self, check):
        # At x0 = -1e-300 the sweep divides by an underflowed zero: a
        # numerical failure with one JSON line on stderr, never a pass.
        proc = subprocess.run(
            [sys.executable, "-m", "tricomi.cli", "verify", check,
             "--x0", "-1e-300", "--grid", "1000"],
            capture_output=True, text=True)
        assert proc.returncode == 1 and proc.stdout == ""
        assert "verification failed" in json.loads(proc.stderr)["error"]


class TestEigenAndBound:
    def test_eigen_json(self, capsys):
        code, out, err = _run(capsys, "eigen", "--x0", "-0.5",
                              "--nx", "64", "--ny", "64", "--count", "2")
        assert code == 0 and err == ""
        d = json.loads(out)
        assert d["eigenvalues"][0]["lambda"] == pytest.approx(6.37551, rel=1e-4)
        assert d["eigenvalues"][0]["residual"] <= 1e-8

    def test_eigen_csv_field(self, capsys, tmp_path):
        path = tmp_path / "field.csv"
        code, _, _ = _run(capsys, "eigen", "--x0", "-0.5", "--format", "csv",
                          "--out", str(path))
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "x,y,u"
        assert len(lines) == 1 + 64 * 64

    def test_eigen_csv_writes_principal_not_spurious_mode(self, capsys, tmp_path):
        # At 80^2 the smallest-magnitude real pair is a spurious negative
        # mode; the CSV holds the principal (smallest positive) pair's field,
        # solved for alone at x0 = -1 and mapped to x0.
        from tricomi import Dilation, TricomiDomain
        from tricomi.eigensolver import Grid, assemble, solve_real_spectrum
        path = tmp_path / "field.csv"
        code, _, _ = _run(capsys, "eigen", "--x0", "-0.5", "--nx", "80",
                          "--ny", "80", "--format", "csv", "--out", str(path))
        assert code == 0
        op = assemble(Grid.build(TricomiDomain(-1.0), 80, 80))
        pairs, _ = solve_real_spectrum(op, 4)
        assert pairs[0].lam < 0.0
        (pair,), _ = solve_real_spectrum(op, 4, principal_only=True)
        pair = Dilation(-0.5).pair(pair)
        assert pair.lam == pytest.approx(6.315, rel=1e-3)
        u = np.loadtxt(path, delimiter=",", skiprows=1)[:, 2]
        assert np.array_equal(u, pair.field.ravel())

    @pytest.mark.parametrize("argv", [
        ("eigen", "--format", "csv", "--out"),
        ("plot", "eigen", "--out"),
        ("bound", "--out"),
    ])
    def test_no_positive_eigenvalue_exits_1(self, capsys, monkeypatch, tmp_path,
                                            argv):
        # Keep only the spurious negative mode of the 80^2 spectrum.
        from tricomi import cli
        solve = cli._solve

        def negative_only(*args, **kwargs):
            pairs, complex_diag = solve(*args, **kwargs)
            return [p for p in pairs if p.lam < 0], complex_diag

        monkeypatch.setattr(cli, "_solve", negative_only)
        path = tmp_path / "out"
        code, out, err = _run(capsys, *argv, str(path), "--x0", "-0.5",
                              "--nx", "80", "--ny", "80")
        assert code == 1 and out == "" and not path.exists()
        assert json.loads(err) == {"error": "no positive real eigenvalue found",
                                   "x0": -0.5}

    def test_eigen_csv_without_out_exits_before_solving(self, capsys, monkeypatch):
        from tricomi import cli
        calls = []
        monkeypatch.setattr(cli, "_solve", lambda *a: calls.append(a))
        with pytest.raises(SystemExit) as exc:
            run(["eigen", "--x0", "-0.5", "--format", "csv"])
        assert exc.value.code == 2 and calls == []
        assert "give --out" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (("bound", "--x0", "-0.5", "--count", "4"), "unrecognized arguments: --count 4"),
        (("eigen", "--x0", "-0.5", "--format", "csv", "--count", "2"), "no --count"),
    ], ids=["bound", "eigen-csv"])
    def test_pair_count_options_exit_before_solving(self, capsys, monkeypatch, tmp_path,
                                                    argv, message):
        # The principal pair is picked among a fixed count of pairs: bound
        # takes no --count, and eigen takes it for its JSON listing only.
        from tricomi import cli
        calls = []
        monkeypatch.setattr(cli, "_solve", lambda *a, **k: calls.append(a))
        path = tmp_path / "field.csv"
        with pytest.raises(SystemExit) as exc:
            run([*argv, "--out", str(path)])
        assert exc.value.code == 2 and calls == [] and not path.exists()
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("n", [64, 80, 40])
    def test_principal_commands_pick_the_same_pair(self, capsys, tmp_path, n):
        # bound, plot eigen and eigen --format csv all certify, draw or
        # write the principal pair among cli._PAIR_COUNT pairs.  At 80^2 the
        # smallest real pair is negative; at 40^2 the pick is a wrong mode
        # that each command refuses (exit 1) after writing its text.  Each
        # solves at x0 = -1 and maps the pair to x0.
        from tricomi import Dilation, TricomiDomain, cli
        from tricomi.eigensolver import Grid, assemble, solve_real_spectrum
        op = assemble(Grid.build(TricomiDomain(-1.0), n, n))
        (pair,), _ = solve_real_spectrum(op, cli._PAIR_COUNT, principal_only=True)
        pair = Dilation(-0.5).pair(pair)
        mesh = ("--x0", "-0.5", "--nx", str(n), "--ny", str(n))
        want = 1 if n == 40 else 0
        code, out, _ = _run(capsys, "bound", *mesh)
        assert code == want and json.loads(out)["lambda"] == pair.lam
        code, out, _ = _run(capsys, "plot", "eigen", *mesh)
        assert code == want and f"lambda={pair.lam:.6g}<" in out
        path = tmp_path / "field.csv"
        code, _, _ = _run(capsys, "eigen", *mesh, "--format", "csv", "--out", str(path))
        assert code == want
        u = np.loadtxt(path, delimiter=",", skiprows=1)[:, 2]
        assert np.array_equal(u, pair.field.ravel())

    def test_bound_json(self, capsys):
        code, out, _ = _run(capsys, "bound", "--x0", "-0.5")
        assert code == 0
        d = json.loads(out)
        assert d["passed"] is True
        assert d["bound"]["lhs"] <= d["bound"]["rhs"] * 1.01
        assert 0.0 < d["identity"]["relative_residual"] < 0.2

    @pytest.mark.parametrize("argv", [
        ("bound", "--x0", "-0.5", "--nx", "40", "--ny", "40"),
        ("bound", "--x0", "-2", "--nx", "40", "--ny", "40"),
        ("bound", "--x0", "-0.5", "--nx", "182", "--ny", "182"),
        ("eigen", "--x0", "-0.5", "--nx", "40", "--ny", "40", "--format", "csv"),
    ], ids=["bound-40-0.5", "bound-40-2", "bound-182", "eigen-csv-40"])
    def test_refuses_wrong_modes(self, capsys, tmp_path, argv):
        # On these meshes the principal pick at x0 = -1 is a wrong mode
        # (lambda |x0|^(4/3) 5.79 and 6.22, against a healthy 2.50) that the
        # loose pass leaves unconverged: its residual fails the gate, after
        # the text is written.
        path = tmp_path / "out"
        code, _, err = _run(capsys, *argv, "--out", str(path))
        assert code == 1 and path.read_text()
        line, = err.splitlines()
        assert json.loads(line)["error"] == "eigen residual above tolerance"

    @pytest.mark.parametrize("argv, written", [
        (("bound",), '"passed": true'),
        (("plot", "eigen"), "principal eigenfunction"),
        (("eigen", "--format", "csv"), "x,y,u\n"),
    ], ids=["bound", "plot-eigen", "eigen-csv"])
    def test_rejects_large_algebraic_residual(self, capsys, monkeypatch, tmp_path,
                                              argv, written):
        # Each command on the principal pair gates that pair's residual, and
        # still writes its text.
        from tricomi import cli
        solve = cli._solve

        def sloppy(*args, **kwargs):
            pairs, complex_diag = solve(*args, **kwargs)
            pairs = [dataclasses.replace(p, residual=1e-6) for p in pairs]
            return pairs, complex_diag

        monkeypatch.setattr(cli, "_solve", sloppy)
        path = tmp_path / "out"
        code, out, err = _run(capsys, *argv, "--x0", "-0.5", "--out", str(path))
        assert code == 1 and out == ""
        assert written in path.read_text()
        assert json.loads(err) == {"error": "eigen residual above tolerance",
                                   "residual": 1e-6, "tol": 1e-8}


class TestPlot:
    @pytest.mark.parametrize("target", ["h", "domain"])
    def test_svg_targets(self, capsys, tmp_path, target):
        path = tmp_path / f"{target}.svg"
        code, _, _ = _run(capsys, "plot", target, "--x0", "-0.5",
                          "--out", str(path))
        assert code == 0
        text = path.read_text()
        assert text.startswith("<svg ")
        assert "x0=-0.5" in text
        assert text.rstrip().endswith("</svg>")

    def test_eigen_heatmap_skips_spurious_mode(self, capsys):
        # At 80^2 the smallest-magnitude real eigenvalue is -0.830634, a
        # spurious mode; the page draws the principal pair instead.
        code, out, err = _run(capsys, "plot", "eigen", "--x0", "-0.5",
                              "--nx", "80", "--ny", "80")
        assert code == 0 and err == ""
        assert "principal eigenfunction" in out and "lambda=6.31497<" in out

    def test_eigen_heatmap(self, capsys, tmp_path):
        path = tmp_path / "eigen.svg"
        code, _, _ = _run(capsys, "plot", "eigen", "--x0", "-0.5", "--out", str(path))
        assert code == 0
        text = path.read_text()
        assert "lambda=" in text and "<rect" in text


    # sha256 of stdout, pinned so that a change to any page's bytes shows.
    @pytest.mark.parametrize("argv, digest", [
        (("plot", "h", "--x0", "-0.5"),
         "2fee4ecdd93f7efb750d92f404ae7d7edb5dcd233b9b0f32c20e2b85e0ed9099"),
        (("plot", "domain", "--x0", "-0.5"),
         "4d98ff17deb4266a1817037f08d31f2bb29bea9df0d248d717c324b4df2033c9"),
        (("plot", "eigen", "--x0", "-1.3", "--nx", "40", "--ny", "52"),
         "41716bc7f5292f02c03335b2d403231fde12b98361c44a77bf73cf9058ece110"),
    ])
    def test_pages_byte_identical(self, capsys, argv, digest):
        code, out, err = _run(capsys, *argv)
        assert code == 0 and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def _quiet_and_debug(*argv):
    """A CLI process without and with TRICOMI_LOG=debug; the quiet one must
    write nothing to stderr."""
    cmd = [sys.executable, "-m", "tricomi.cli", *argv]
    env = {k: v for k, v in os.environ.items() if k != "TRICOMI_LOG"}
    quiet = subprocess.run(cmd, capture_output=True, text=True, env=env,
                           check=True)
    debug = subprocess.run(cmd, capture_output=True, text=True, check=True,
                           env={**env, "TRICOMI_LOG": "debug"})
    assert quiet.stderr == ""
    return quiet, debug


class TestDebugLog:
    def test_stage_lines_on_stderr_stdout_unchanged(self):
        quiet, debug = _quiet_and_debug("eigen", "--x0", "-0.5", "--count", "2")
        assert debug.stdout == quiet.stdout
        lines = debug.stderr.splitlines()
        assert [line.split()[2] for line in lines] == ["Grid.build", "assemble", "solve"]
        assert all(line.split()[4].rstrip(",") == "s" for line in lines)
        for line in lines[1:]:
            assert line.endswith(" s, 2758 unknowns, 17710 nnz")

    def test_bound_logs_trace_identity_and_bound_stages(self):
        quiet, debug = _quiet_and_debug("bound", "--x0", "-0.5")
        assert debug.stdout == quiet.stdout
        lines = debug.stderr.splitlines()
        assert [line.split()[2] for line in lines] == [
            "Grid.build", "assemble", "solve", "traces", "identity", "bound"]
        assert all(line.split()[4].rstrip(",") == "s" for line in lines)
        record = json.loads(quiet.stdout)
        assert lines[4].endswith(
            f" s, relative residual {record['identity']['relative_residual']:.3e}")
        assert lines[5].endswith(f" s, lhs {record['bound']['lhs']:.6g}, "
                                 f"rhs {record['bound']['rhs']:.6g}")

    def test_verify_logs_one_line_per_report(self):
        quiet, debug = _quiet_and_debug("verify", "all", "--x0-range", "-1:-0.5:2",
                                        "--grid", "2000", "--jobs", "1")
        assert debug.stdout == quiet.stdout
        info, *lines = debug.stderr.splitlines()
        assert info.startswith("INFO tricomi: verify all over 2 value(s)")
        reports = [json.loads(r) for r in quiet.stdout.splitlines()]
        assert len(lines) == len(reports) == 12
        for line, rep in zip(lines, reports):
            level, name, claim, secs, unit, x0 = line.split()[:6]
            assert (level, name, claim, unit) == ("DEBUG", "tricomi:", rep["claim_id"], "s,")
            assert float(secs) >= 0.0 and float(x0[3:].rstrip(",")) == rep["x0"]
        profiles = [line for line in lines if "one sweep for" in line]
        assert len(profiles) == 6 and all(
            line.endswith(", one sweep for h_profile G1_bounds G2_bounds")
            for line in profiles)

    def test_single_x0_verify_logs_as_a_sweep_does(self):
        quiet, debug = _quiet_and_debug("verify", "g1-bounds", "--x0", "-0.5",
                                        "--grid", "2000")
        assert debug.stdout == quiet.stdout
        info, line = debug.stderr.splitlines()
        assert info == "INFO tricomi: verify g1-bounds over 1 value(s) of x0 with 1 job(s)"
        assert line.startswith("DEBUG tricomi: G1_bounds ")
        assert line.endswith(" s, x0=-0.5")


class TestLogLevelPerRun:
    """In one process, each run() logs as TRICOMI_LOG asks at that run."""

    ARGV = ("verify", "g1-bounds", "--x0-range", "-1:-0.5:2", "--grid", "2000")

    @pytest.mark.parametrize("levels", [("debug", None, "debug"), (None, "debug", None)])
    def test_each_run_follows_the_current_level(self, capsys, monkeypatch, levels):
        results = []
        for level in levels:
            if level is None:
                monkeypatch.delenv("TRICOMI_LOG", raising=False)
            else:
                monkeypatch.setenv("TRICOMI_LOG", level)
            results.append(_run(capsys, *self.ARGV, "--jobs", "1"))
        for level, (code, out, err) in zip(levels, results):
            assert code == 0 and out == results[0][1]
            lines = err.splitlines()
            if level is None:
                assert lines == []
            else:
                assert lines[0] == ("INFO tricomi: verify g1-bounds over 2 value(s) "
                                    "of x0 with 1 job(s)")
                assert [line.split()[:3] for line in lines[1:]] == [
                    ["DEBUG", "tricomi:", "G1_bounds"]] * 2

    def test_default_jobs_count_the_usable_cpus(self, capsys, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setenv("TRICOMI_LOG", "info")
        code, _, err = _run(capsys, *self.ARGV)
        assert code == 0
        assert err == "INFO tricomi: verify g1-bounds over 2 value(s) of x0 with 1 job(s)\n"


class TestPinnedOutput:
    # sha256 of stdout (or of the --out file), pinned so that a change to
    # any writer's bytes shows.  The eigen and bound pins are of the pair
    # solved at x0 = -1 and mapped to x0 = -0.5.
    @pytest.mark.parametrize("argv, digest", [
        (("constants", "--x0", "-0.5"),
         "2d2c799e936f9177b4e3d6d0034f25644483706fe24d04c6d681221ebb2be69f"),
        (("constants", "--x0-range", "-2:-0.1:5", "--format", "csv"),
         "682e583d90fe74e1321beda88698ccf15feea52126fc7330fe2daa7f54880f78"),
        (("bound", "--x0", "-0.5"),
         "eb0a9ec00048f99e6df7dc34a5344bdd0d447147f97ae2c359546e785d04fa5b"),
        (("bound", "--x0", "-0.5", "--format", "csv"),
         "de7bc407ef4e616e6ed9a024977ac2265e8cf49664b8e5ec3f9c9fa177bcf5c0"),
        (("eigen", "--x0", "-0.5", "--count", "2"),
         "31f76d8a7045efdc195b5685610227fee0ca7d443f983f5210ea60fa617a200e"),
    ])
    def test_stdout_pinned(self, capsys, argv, digest):
        code, out, err = _run(capsys, *argv)
        assert code == 0 and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_eigen_csv_file_pinned(self, capsys, tmp_path):
        path = tmp_path / "field.csv"
        code, out, err = _run(capsys, "eigen", "--x0", "-0.5", "--format", "csv",
                              "--out", str(path))
        assert (code, out, err) == (0, "", "")
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "00f1c5cacff9629860b93968800c94e01e50bb354422d1fc335db8e3050eae7d")


class TestEdgeInputs:
    # x0 << -1 and x0 -> 0-: a floating-point fault in any command is a
    # numerical failure, reported as one JSON line on stderr, never a
    # traceback, a numpy warning or a NaN in the output.
    @pytest.mark.parametrize("argv, error", [
        (("constants", "--x0", "-1e78"), "constants failed: "),
        (("constants", "--x0-range", "-1e300:-1e299:2"), "constants failed: "),
        (("eigen", "--x0", "-1e-300", "--count", "1"), "eigensolve failed: "),
        (("bound", "--x0", "-1e-300"), "bound check failed: "),
        (("bound", "--x0", "-1e300"), "bound check failed: "),
        (("verify", "starshape", "--x0", "-1e300"), "verification failed: "),
    ])
    def test_exits_1_with_one_json_line(self, argv, error):
        proc = subprocess.run([sys.executable, "-m", "tricomi.cli", *argv],
                              capture_output=True, text=True)
        assert proc.returncode == 1 and proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1
        assert json.loads(proc.stderr)["error"].startswith(error)

    @pytest.mark.parametrize("x0", ["-1e80", "-1e300"])
    @pytest.mark.parametrize("argv", [
        ("verify", "all"), ("verify", "h-profile"), ("verify", "g1-bounds"),
        ("verify", "g2-bounds"), ("verify", "inequalities"), ("constants",),
        ("plot", "h"), ("plot", "domain"),
    ], ids=" ".join)
    def test_ledger_overflow_names_the_quantity(self, capsys, argv, x0):
        # C4 = (1.5 x0^4)^(1/3) overflows from |x0| ~ 1.2e77: the error names
        # C4, not CPython's errno text.
        code, out, err = _run(capsys, *argv, "--x0", x0)
        assert code == 1 and out == "" and len(err.splitlines()) == 1
        error = json.loads(err)["error"]
        assert "C4" in error and "Numerical result out of range" not in error

    @pytest.mark.parametrize("check", ["h-profile", "all"])
    def test_inflection_overflow_names_the_quantity(self, capsys, check):
        # For |x0| from ~5.3e65 to C4's overflow at ~1.2e77, find_inflection's
        # curvature numerator overflows first: the error names N and x0, not
        # numpy's "overflow encountered in scalar multiply".
        code, out, err = _run(capsys, "verify", check, "--x0", "-1e70")
        assert code == 1 and out == "" and len(err.splitlines()) == 1
        error = json.loads(err)["error"]
        assert "N(X)" in error and "x0=-1e+70" in error and "scalar" not in error

    def test_starshape_far_x0_passes(self, capsys):
        # The slack's powers stay finite at x0 = -1e120 (x0^2 = 1e240).
        code, out, err = _run(capsys, "verify", "starshape", "--x0", "-1e120")
        assert (code, err) == (0, "")
        assert json.loads(out)["passed"] is True

    def test_singular_factorization_names_only_its_cause(self, capsys, monkeypatch):
        # A singular A - shift I (as at x0 = -1e-120, 48^2, where the library
        # solves at that x0: test_eigensolver.py's
        # TestRepeatedSolve::test_singular_factorization_is_named; the CLI
        # solves at x0 = -1, where it is not).  The error names the failed
        # factorization and gives no advice: no option sets the shift, and a
        # finer grid does not help.
        import scipy.sparse.linalg as spla

        def singular(*args, **kwargs):
            raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr(spla, "splu", singular)
        code, out, err = _run(capsys, "eigen", "--x0", "-1e-120", "--nx", "48",
                              "--ny", "48")
        assert code == 1 and out == "" and len(err.splitlines()) == 1
        error = json.loads(err)["error"]
        assert error.startswith("eigensolve failed: shift-invert factorization failed (")
        assert "different shift" not in error

    def test_arpack_error_is_not_named_a_factorization_failure(self, capsys, monkeypatch):
        # An Arnoldi pass that fails after the LU is built reports ARPACK's
        # own error, not a failed factorization.
        import scipy.sparse.linalg as spla

        def failing(A, k, **kwargs):
            raise spla.ArpackNoConvergence("No convergence",
                                           np.empty(0), np.empty((A.shape[0], 0)))

        monkeypatch.setattr(spla, "eigs", failing)
        code, out, err = _run(capsys, "eigen", "--x0", "-0.5", "--nx", "40", "--ny", "40")
        assert code == 1 and out == "" and len(err.splitlines()) == 1
        error = json.loads(err)["error"]
        assert error == "eigensolve failed: ARPACK error -1: No convergence"

    def test_far_x0_eigen_is_deterministic(self):
        # The solve runs at x0 = -1 whatever x0 is, so two processes print
        # the same bytes at x0 = -1e80 (the shift once sat ~1e100 times
        # above lambda there, and each run printed other digits).
        cmd = [sys.executable, "-m", "tricomi.cli", "eigen", "--x0", "-1e80",
               "--nx", "40", "--ny", "40"]
        a, b = (subprocess.run(cmd, capture_output=True) for _ in range(2))
        assert (a.returncode, a.stdout) == (b.returncode, b.stdout)
        assert a.returncode == 0 and json.loads(a.stdout)["eigenvalues"]

    @pytest.mark.parametrize("x0, fault", [("-1e-300", "overflows"),
                                           ("-1e300", "underflows")])
    @pytest.mark.parametrize("command", ["eigen", "bound"])
    def test_lambda_scale_out_of_range_names_it(self, capsys, monkeypatch, command,
                                                x0, fault):
        # Past s ~ 1e-231 and 1e231 lambda's factor s^(-4/3) is no normal
        # float: the command exits 1 before it solves, naming that scale,
        # never with a NaN or a 0 in its output.
        from tricomi import cli
        monkeypatch.setattr(cli, "_canonical", None)
        code, out, err = _run(capsys, command, "--x0", x0)
        assert code == 1 and out == "" and len(err.splitlines()) == 1
        error = json.loads(err)["error"]
        assert error.endswith(f"lambda's scale |x0|^(-4/3) {fault} a float "
                              f"at x0={float(x0)!r}")

    @pytest.mark.parametrize("x0", ["-1e-100", "-1e-150"])
    def test_squared_trace_overflow_names_it(self, capsys, x0):
        # u_x on BC, mapped from x0 = -1, exceeds 1e154 from |x0| ~ 1e-84:
        # its square overflows although the weighted norm is finite.
        code, out, err = _run(capsys, "bound", "--x0", x0, "--nx", "48", "--ny", "48")
        assert code == 1 and out == "" and len(err.splitlines()) == 1
        assert json.loads(err)["error"] == (
            f"bound check failed: u_x^2 on BC overflows a float at x0={float(x0)!r}")

    @pytest.mark.parametrize("x0, cause", [
        ("-1e-160", "g^2 on Sigma underflows"),
        ("-1e-168", "u_x on BC overflows")])
    def test_tiny_x0_trace_failures_name_the_float(self, capsys, x0, cause):
        # At -1e-160 g(x)^2 is 0 at sigma's end nodes, so its arc element
        # would divide by zero; at -1e-168 u_x's scale is a float but the
        # mapped u_x on BC is not.
        code, out, err = _run(capsys, "bound", "--x0", x0, "--nx", "48", "--ny", "48")
        assert code == 1 and out == "" and len(err.splitlines()) == 1
        assert json.loads(err)["error"] == (
            f"bound check failed: {cause} a float at x0={float(x0)!r}")

    def test_bound_below_the_overflow_passes(self, capsys):
        code, out, err = _run(capsys, "bound", "--x0", "-1e-80", "--nx", "48", "--ny", "48")
        assert (code, err) == (0, "")
        record = json.loads(out)
        assert record["passed"] is True
        assert record["identity"]["relative_residual"] == pytest.approx(0.0960, abs=5e-5)

    def test_tiny_x0_bands(self, capsys):
        # `bound` on 48^2 at x0 = -10^k, k = -300..-1: every k exits as the
        # band it lies in, with one JSON line naming that band's cause:
        # a scale, the mapped u_x, sigma's g^2 or the squared u_x.
        bands = [(-300, "lambda's scale |x0|^(-4/3) overflows"),
                 (-231, "u_x's scale |x0|^(-11/6) overflows"),
                 (-168, "u_x on BC overflows"),
                 (-167, "g^2 on Sigma underflows"),
                 (-158, "u_x^2 on BC overflows"),
                 (-83, None)]
        for k in range(-300, 0):
            cause = next(c for start, c in reversed(bands) if k >= start)
            code, out, err = _run(capsys, "bound", "--x0", f"-1e{k}", "--nx", "48",
                                  "--ny", "48")
            if cause is None:
                assert (code, err) == (0, ""), k
            else:
                assert code == 1 and out == "" and len(err.splitlines()) == 1, k
                assert cause in json.loads(err)["error"], k

    def test_large_x0_bands(self, capsys):
        # `bound` on 48^2 at x0 = -10^k, k = 0..300: every k exits as the
        # band it lies in, with one JSON line naming that band's cause:
        # the ledger's C4, g's cube-root argument on x0's sigma nodes, or
        # a scale that underflows.
        bands = [(0, None),
                 (78, "C4 = (1.5*x0^4)^(1/3) overflows"),
                 (154, "g's cube-root argument 9x(2x0 - x)/4 overflows"),
                 (168, "u_x's scale |x0|^(-11/6) underflows"),
                 (231, "lambda's scale |x0|^(-4/3) underflows")]
        for k in range(0, 301):
            cause = next(c for start, c in reversed(bands) if k >= start)
            code, out, err = _run(capsys, "bound", "--x0", f"-1e{k}", "--nx", "48",
                                  "--ny", "48")
            if cause is None:
                assert (code, err) == (0, ""), k
            else:
                assert code == 1 and out == "" and len(err.splitlines()) == 1, k
                assert cause in json.loads(err)["error"], k

    @pytest.mark.parametrize("check", ["starshape", "integrands"])
    def test_g_argument_overflow_names_it(self, capsys, check):
        code, out, err = _run(capsys, "verify", check, "--x0", "-1e160")
        assert code == 1 and out == "" and len(err.splitlines()) == 1
        assert json.loads(err)["error"] == (
            "verification failed: g's cube-root argument 9x(2x0 - x)/4 overflows "
            "a float at x0=-1e+160")

    def test_residual_gate_is_relative_to_lambda(self, capsys):
        # x0 -> 0-: lambda grows as |x0|^(-4/3), and with it the algebraic
        # residual of a converged pair.  Here it is above 1e-8 but below
        # 1e-8 lambda, so the pair passes.
        code, out, err = _run(capsys, "eigen", "--x0", "-0.002", "--nx", "128",
                              "--ny", "128")
        assert (code, err) == (0, "")
        (pair,) = json.loads(out)["eigenvalues"]
        assert 1e-8 < pair["residual"] <= 1e-8 * pair["lambda"]

    def test_sweep_x0_are_python_floats(self):
        # A sweep computes with the types of a single --x0: numpy scalars
        # would turn the overflow above into a NaN in the output.
        from tricomi import cli
        x0s = cli._x0_list(argparse.Namespace(x0=None, x0_range=(-2.0, -0.1, 5)))
        assert [type(v) for v in x0s] == [float] * 5


def _memoized(cli, *key):
    """Whether the CLI's x0 = -1 memo holds the solve of `key`: a call with
    it is a cache hit."""
    hits = cli._canonical.cache_info().hits
    cli._canonical(*key)
    return cli._canonical.cache_info().hits > hits


class TestCanonicalFrame:
    # Every solve runs at x0 = -1, and the pair maps to x0 by the dilation,
    # so lambda |x0|^(4/3) and the identity residual are x0 = -1's at every
    # x0 of TestSelfSimilarity.  At -1e100 the ledger overflows (C4), so
    # `bound` is checked up to -1e15 and `eigen` at every x0.
    @pytest.mark.parametrize("x0", [-1e-8, -1e-6, -1e-3, -0.5, -1e3, -1e5, -1e15])
    @pytest.mark.parametrize("n", [48, 64])
    def test_bound_is_the_same_at_every_x0(self, capsys, n, x0):
        mesh = ("--nx", str(n), "--ny", str(n))
        records = []
        for v in (-1.0, x0):
            code, out, err = _run(capsys, "bound", "--x0", repr(v), *mesh)
            assert (code, err) == (0, "")
            records.append(json.loads(out))
        at_1, got = records
        assert got["x0"] == x0 and got["passed"] is True
        assert got["lambda"] * abs(x0) ** (4.0 / 3.0) == pytest.approx(
            at_1["lambda"], rel=1e-12, abs=0.0)
        assert got["identity"]["relative_residual"] == pytest.approx(
            at_1["identity"]["relative_residual"], rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("x0", [-1e-8, -1e-6, -1e-3, -0.5, -1e3, -1e5, -1e15, -1e100])
    @pytest.mark.parametrize("n", [48, 64])
    def test_eigen_is_the_same_at_every_x0(self, capsys, n, x0):
        mesh = ("--nx", str(n), "--ny", str(n))
        records = []
        for v in (-1.0, x0):
            code, out, err = _run(capsys, "eigen", "--x0", repr(v), *mesh)
            assert (code, err) == (0, "")
            records.append(json.loads(out))
        at_1, got = records
        scale = abs(x0) ** (4.0 / 3.0)
        assert len(got["eigenvalues"]) == len(at_1["eigenvalues"])
        for p, q in zip(got["eigenvalues"], at_1["eigenvalues"]):
            for key in ("lambda", "residual"):
                assert p[key] * scale == pytest.approx(q[key], rel=1e-12, abs=0.0)
        assert [complex(c) * scale for c in got["complex_pairs"]] == pytest.approx(
            [complex(c) for c in at_1["complex_pairs"]], rel=1e-12, abs=0.0)

    def test_one_solve_per_mesh(self, capsys, monkeypatch):
        # bound at other x0, plot eigen and eigen --format csv on one mesh
        # share one x0 = -1 solve; another key (a mesh, a count or the
        # default path) replaces the one entry.
        import scipy.sparse.linalg as spla

        from tricomi import cli
        splu, factored = spla.splu, []
        monkeypatch.setattr(spla, "splu", lambda *a, **k: factored.append(1) or splu(*a, **k))
        mesh = ("--nx", "48", "--ny", "48")
        for argv in (("bound", "--x0", "-0.5"), ("bound", "--x0", "-3"),
                     ("plot", "eigen", "--x0", "-2"), ("bound", "--x0", "-1e-3")):
            assert _run(capsys, *argv, *mesh)[0] == 0
        assert _memoized(cli, 48, 48, 4, True) and len(factored) == 1
        assert _run(capsys, "eigen", "--x0", "-0.5", *mesh)[0] == 0
        assert _memoized(cli, 48, 48, 4, False) and len(factored) == 2
        assert _run(capsys, "bound", "--x0", "-0.5")[0] == 0
        assert _memoized(cli, 64, 64, 4, True) and len(factored) == 3

    def test_the_traces_outlive_another_solve(self, capsys, monkeypatch):
        # The solve and the principal traces are memoized apart: `eigen`
        # (another key) replaces the solve, so the next `bound` solves
        # again, but the traces of the first `bound` serve every later one.
        import scipy.sparse.linalg as spla

        from tricomi import eigensolver
        splu, factored = spla.splu, []
        monkeypatch.setattr(spla, "splu", lambda *a, **k: factored.append(1) or splu(*a, **k))
        traces, traced = eigensolver.boundary_traces, []
        monkeypatch.setattr(eigensolver, "boundary_traces",
                            lambda pair: traced.append(1) or traces(pair))
        counts = []
        for argv in (("bound", "--x0", "-0.5"), ("eigen", "--x0", "-0.5"),
                     ("bound", "--x0", "-2"), ("bound", "--x0", "-3"),
                     ("plot", "eigen", "--x0", "-1")):
            assert _run(capsys, *argv, "--nx", "48", "--ny", "48")[0] == 0
            counts.append((len(factored), len(traced)))
        assert counts == [(1, 1), (2, 1), (3, 1), (3, 1), (3, 1)]

    def test_a_reused_solve_logs_one_line(self, capsys, monkeypatch):
        mesh = ("--nx", "48", "--ny", "48")
        assert _run(capsys, "bound", "--x0", "-0.5", *mesh)[0] == 0
        monkeypatch.setenv("TRICOMI_LOG", "debug")
        code, _, err = _run(capsys, "bound", "--x0", "-2", *mesh)
        assert code == 0
        assert [line.split()[2] for line in err.splitlines()] == [
            "solve", "traces", "identity", "bound"]
        assert err.splitlines()[0] == "DEBUG tricomi: solve reused at x0=-1, 48 x 48"

    def test_commands_leave_the_memo_as_they_found_it(self, capsys, tmp_path):
        from tricomi import cli
        assert _run(capsys, "bound", "--x0", "-0.5", "--nx", "48", "--ny", "48")[0] == 0
        (pair,), _ = cli._canonical(48, 48, 4, True)
        traces = cli._principal_traces(48, 48)
        before = [a.copy() for a in (pair.field, pair.grid.xs, pair.grid.ys,
                                     pair.grid.inside)]
        before += [getattr(t, f).copy() for t in traces.values() for f in ("u", "ux", "uy")]
        for argv in (("bound", "--x0", "-4"), ("plot", "eigen", "--x0", "-0.1"),
                     ("eigen", "--x0", "-3", "--format", "csv", "--out",
                      str(tmp_path / "u.csv"))):
            assert _run(capsys, *argv, "--nx", "48", "--ny", "48")[0] == 0
        assert cli._canonical(48, 48, 4, True)[0][0] is pair
        assert cli._principal_traces(48, 48) is traces
        after = [pair.field, pair.grid.xs, pair.grid.ys, pair.grid.inside]
        after += [getattr(t, f) for t in traces.values() for f in ("u", "ux", "uy")]
        assert all(np.array_equal(a, b) for a, b in zip(after, before))
        assert pair.grid.dom.x0 == -1.0 and pair.lam == pytest.approx(2.58045, rel=1e-5)

    def test_a_failed_solve_leaves_the_memo(self, capsys, monkeypatch):
        import scipy.sparse.linalg as spla

        from tricomi import cli
        assert _run(capsys, "bound", "--x0", "-0.5", "--nx", "48", "--ny", "48")[0] == 0
        entry = cli._canonical(48, 48, 4, True)

        def failing(A, k, **kwargs):
            raise spla.ArpackNoConvergence("No convergence",
                                           np.empty(0), np.empty((A.shape[0], 0)))

        monkeypatch.setattr(spla, "eigs", failing)
        assert _run(capsys, "bound", "--x0", "-0.5", "--nx", "40", "--ny", "40")[0] == 1
        assert cli._canonical(48, 48, 4, True) is entry

    @pytest.mark.parametrize("x0", ["-0.5", "-2"])
    def test_200_squared_certifies_the_healthy_pair(self, capsys, x0):
        # At x0 = -2 the direct solve picked an eigenvalue at rounding level
        # (2.5e-12 |x0|^(-4/3)) and exited 1 on the residual gate; at x0 = -1
        # the pick is the healthy 2.48077 at both x0.
        code, out, _ = _run(capsys, "bound", "--x0", x0, "--nx", "200", "--ny", "200")
        assert code == 0
        assert json.loads(out)["lambda"] * abs(float(x0)) ** (4.0 / 3.0) == pytest.approx(
            2.48077, rel=1e-5)


class TestUnwritableOut:
    # Every subcommand exits 1 with one JSON line when --out cannot be
    # written: here its directory does not exist.
    @pytest.mark.parametrize("argv", [
        ("constants", "--x0", "-0.5"),
        ("verify", "g1-bounds", "--x0", "-0.5", "--grid", "1000"),
        ("eigen", "--x0", "-0.5", "--count", "2"),
        ("eigen", "--x0", "-0.5", "--format", "csv"),
        ("bound", "--x0", "-0.5"),
        ("plot", "h", "--x0", "-0.5"),
        ("bound", "--x0", "-0.5", "--format", "csv"),
        ("plot", "eigen", "--x0", "-0.5"),
    ])
    def test_exits_1_with_json(self, capsys, tmp_path, argv):
        path = str(tmp_path / "missing" / "out")
        code, out, err = _run(capsys, *argv, "--out", path)
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1
        payload = json.loads(err)
        assert payload["error"] == "cannot write --out file"
        assert payload["out"] == path
        assert path in payload["reason"]

    def test_no_traceback_from_the_entry_point(self, tmp_path):
        path = str(tmp_path / "missing" / "x.json")
        proc = subprocess.run(
            [sys.executable, "-m", "tricomi.cli", "constants", "--x0", "-0.5",
             "--out", path], capture_output=True, text=True)
        assert proc.returncode == 1 and proc.stdout == ""
        assert json.loads(proc.stderr)["out"] == path


class TestSharedParser:
    """run() reuses one parser per process; each call must still behave as
    a fresh process does."""

    @staticmethod
    def _fresh(argv):
        proc = subprocess.run([sys.executable, "-m", "tricomi.cli", *argv],
                              capture_output=True, text=True)
        return proc.returncode, proc.stdout

    @pytest.mark.parametrize("first, second, codes", [
        (("constants", "--x0", "0.5"), ("constants", "--x0", "-0.5"), [2, 0]),
        (("verify", "starshape", "--x0", "-0.5", "--grid", "2000", "--reflected"),
         ("verify", "starshape", "--x0", "-0.5", "--grid", "2000"), [1, 0]),
        (("bound", "--x0", "-0.5", "--tol", "0"), ("bound", "--x0", "-0.5"), [0, 0]),
    ])
    def test_calls_stay_independent(self, capsys, first, second, codes):
        results = []
        for argv in (first, second):
            try:
                code = run(list(argv))
            except SystemExit as exc:
                code = exc.code
            results.append((code, capsys.readouterr().out))
        assert results == [self._fresh(first), self._fresh(second)]
        assert [code for code, _ in results] == codes


class TestDeterminism:
    def test_repeat_runs_byte_identical(self):
        cmd = [sys.executable, "-m", "tricomi.cli", "constants",
               "--x0-range", "-2:-0.1:5", "--format", "csv"]
        a = subprocess.run(cmd, capture_output=True, check=True)
        b = subprocess.run(cmd, capture_output=True, check=True)
        assert a.stdout == b.stdout and a.stdout


class TestLazyImport:
    def test_commands_without_solve_do_not_load_scipy_sparse(self):
        code = (
            "import contextlib, io, sys\n"
            "import tricomi.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert tricomi.cli.run(['constants', '--x0', '-0.5']) == 0\n"
            "    assert tricomi.cli.run(['verify', 'g1-bounds', '--x0', '-0.5',"
            " '--grid', '1000']) == 0\n"
            "    assert tricomi.cli.run(['plot', 'h', '--x0', '-0.5']) == 0\n"
            "print('scipy.sparse' in sys.modules)\n"
            "import tricomi, tricomi.eigensolver\n"
            "print(tricomi.Grid is tricomi.eigensolver.Grid)\n")
        out = subprocess.run([sys.executable, "-c", code],
                             capture_output=True, text=True, check=True).stdout
        assert out.split() == ["False", "True"]

    # After `import tricomi`, then after each command in turn, the tricomi
    # submodules and the watched modules loaded so far, one JSON list a line.
    _LOADED = (
        "import contextlib, io, json, sys\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules if m.startswith('tricomi.')\n"
        "                  or m in ('logging', 'concurrent.futures', 'numpy.ma',\n"
        "                           'scipy.sparse'))\n"
        "import tricomi\n"
        "print(json.dumps(loaded()))\n"
        "import tricomi.cli\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert tricomi.cli.run(argv) == 0\n"
        "    print(json.dumps(loaded()))\n")

    @classmethod
    def _loaded(cls, *argvs):
        env = {k: v for k, v in os.environ.items() if k != "TRICOMI_LOG"}
        out = subprocess.run([sys.executable, "-c", cls._LOADED, json.dumps(argvs)],
                             capture_output=True, text=True, check=True, env=env).stdout
        return [set(json.loads(line)) for line in out.splitlines()]

    def test_one_x0_runs_in_the_calling_thread(self):
        # --jobs is capped at the number of x0 values, so no pool starts.
        _, starshape = self._loaded(["verify", "starshape", "--x0", "-0.5",
                                     "--grid", "2000", "--jobs", "4"])
        assert "concurrent.futures" not in starshape

    def test_each_command_loads_only_the_layers_it_runs(self):
        base = {"tricomi.cli", "tricomi.constants", "tricomi.geometry", "tricomi.report"}
        package, *commands, g1 = self._loaded(
            ["constants", "--x0-range", "-2:-0.1:5", "--format", "csv"],
            ["plot", "h", "--x0", "-0.5"],
            ["verify", "starshape", "--x0", "-0.5", "--grid", "2000"],
            ["verify", "g1-bounds", "--x0", "-0.5", "--grid", "2000"])
        assert package == set()
        assert commands == [base] * 3
        # numpy.ma is not among them: the sweep's breakpoints are sorted
        # without np.unique, which would load it.
        assert g1 == base | {"tricomi.verifier"}
        # scipy.sparse loads logging, concurrent.futures and numpy.ma itself.
        package, bound = self._loaded(["bound", "--nx", "48", "--ny", "48", "--x0", "-0.5"])
        assert bound - {"logging", "concurrent.futures", "numpy.ma"} == base | {
            "tricomi.eigensolver", "tricomi.pohozaev", "scipy.sparse"}


class TestEntryPointFreeze:
    """main() freezes the collector's objects so that the interpreter's
    exit-time collections skip them; run() leaves the collector alone."""

    _MAIN = (
        "import gc, sys\n"
        "from tricomi.cli import main\n"
        "sys.argv = ['tricomi', *sys.argv[1:]]\n"
        "try:\n"
        "    code = main()\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        "print(code, gc.get_freeze_count(), file=sys.stderr)\n")

    @pytest.mark.parametrize("argv, code", [
        (("constants", "--x0", "-0.5"), 0),
        (("verify", "starshape", "--x0", "-0.5", "--grid", "200", "--reflected"), 1),
        (("constants", "--x0", "0.5"), 2),
    ])
    def test_main_freezes_on_every_exit_path(self, argv, code):
        proc = subprocess.run([sys.executable, "-c", self._MAIN, *argv],
                              capture_output=True, text=True, timeout=60)
        got_code, frozen = proc.stderr.splitlines()[-1].split()
        assert int(got_code) == code and int(frozen) > 0

    def test_run_leaves_the_freeze_count(self, capsys):
        import gc

        before = gc.get_freeze_count()
        assert run(["constants", "--x0", "-0.5"]) == 0
        with pytest.raises(SystemExit):
            run(["constants", "--x0", "0.5"])
        capsys.readouterr()
        assert gc.get_freeze_count() == before
