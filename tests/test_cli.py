"""End-to-end runs of the command-line entry point (in-process)."""

import argparse
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from embedlab import amenable, cli, mazur, moduli
from oracles import (block_distance_pth, glued_upper_pth, group_metric, mazur_grid_audit,
                     zk_ball)


def run(argv):
    return cli.main(argv)


def refused(argv, capsys):
    """Run ``argv``, which the parser must refuse; return what it wrote to
    stderr, having checked the exit status and that stdout is empty."""
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    return captured.err


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run(["moduli", "--no-such-flag"])
        assert exc.value.code == 2

    def test_missing_required_flag(self):
        with pytest.raises(SystemExit) as exc:
            run(["verify"])
        assert exc.value.code == 2

    def test_domain_error_maps_to_usage(self, capsys):
        code = run(["moduli", "--preset", "warmup_l2", "--beta", "2",
                    "--t-min", "5", "--t-max", "1"])
        assert code == cli.EXIT_USAGE

    def test_io_error(self, tmp_path):
        code = run(["report", "--results-dir", str(tmp_path / "missing")])
        assert code == cli.EXIT_IO

    def test_exp_underflow_is_a_usage_error(self, capsys):
        # Pairs reach ||x|| ~ 100, where the squared norm of the truncated
        # series underflows; the run must stop before dividing by the norm.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = run(["moduli", "--backend", "exp", "--dim", "2", "--q", "4",
                        "--beta", "1.05", "--n-terms", "5", "--pairs", "200"])
        assert code == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert "series of degree 32 underflows at ||x|| = " in err

    def test_exp_coordinate_cap_names_the_dimension(self, capsys):
        # C(32 + 16, 16) coordinates at the default --dim 16: far over the cap.
        code = run(["moduli", "--backend", "exp", "--q", "4", "--beta", "1.05"])
        assert code == cli.EXIT_USAGE
        assert "at degree 32 and dim 16 exceeds cap" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["moduli", "--preset", "strong_qge2", "--q", "2000", "--beta", "1.05"],
         "Mazur constants at p=2, q=2000 leave the float range"),
        (["moduli", "--preset", "strong_qge2", "--q", "1e300", "--beta", "1.05"],
         "Mazur constants at p=2, q=1e+300 leave the float range"),
        (["verify", "--suite", "mazur", "--grid", "1,1100", "--samples", "10"],
         "Mazur constants at p=1, q=1100 leave the float range"),
        (["moduli", "--preset", "strong_qge2", "--q", "300", "--beta", "1.05"],
         "strong_qge2 at q=300: the block floor delta_q leaves the float range"),
        (["moduli", "--preset", "strong_qge2", "--q", "1000", "--beta", "1.05"],
         "strong_qge2 at q=1000: the block floor delta_q leaves the float range"),
        (["moduli", "--preset", "strong_qle1", "--q", "0.1", "--beta", "1.1"],
         "strong_qle1 at q=0.1: the bandwidths r_n leave the float range at block 15"),
        (["moduli", "--preset", "strong_qge2", "--q", "130", "--beta", "1.05",
          "--n-terms", "20", "--pairs", "512"],
         "the float32 block masses at q=130 leave the float32 range"),
        (["moduli", "--preset", "strong_qle1", "--q", "0.14", "--beta", "1.1",
          "--n-terms", "400", "--pairs", "512"],
         "strong_qle1 at q=0.14: the bandwidths r_n leave the float range at block 231"),
        (["moduli", "--preset", "strong_qle1", "--q", "0.13", "--beta", "1.1"],
         "strong_qle1 at q=0.13: the bandwidths r_n leave the float range at block 101"),
        (["moduli", "--preset", "strong_qle1", "--q", "0.05", "--beta", "1.1"],
         "strong_qle1 at q=0.05: the bandwidths r_n leave the float range at block 3"),
        (["verify", "--suite", "gluing", "--beta", "1e4"],
         "warmup_l2 at q=2, beta=10000: the budget tail leaves the float range"),
        (["moduli", "--preset", "warmup_l2", "--beta", "2000", "--backend", "kernel"],
         "warmup_l2 at q=2, beta=2000: the budget tail leaves the float range"),
        (["moduli", "--preset", "strong_qle1", "--q", "0.5", "--beta", "1000"],
         "strong_qle1 at q=0.5, beta=1000: the budget tail leaves the float range"),
        (["moduli", "--preset", "strong_qle1", "--q", "0.5", "--beta", "100",
          "--n-terms", "5", "--pairs", "64"],
         "the feature table of block 2 leaves the float32 range: sqrt(2 r_n) = 4.13248e+62"),
        (["moduli", "--preset", "strong_qge2", "--q", "4", "--beta", "1000",
          "--n-terms", "5", "--pairs", "64"],
         "the feature table of block 2 leaves the float32 range: sqrt(2 r_n) = 3.86607e+79"),
        (["moduli", "--preset", "warmup_l2", "--beta", "2", "--backend", "kernel",
          "--t-min", "1e-200", "--t-max", "1e200"],
         "t_max / t_min = 1e+200 / 1e-200 leaves the float range"),
        (["moduli", "--preset", "strong_qge2", "--q", "4", "--beta", "1.05",
          "--t-min", "1e-200", "--t-max", "1e200"],
         "t_max / t_min = 1e+200 / 1e-200 leaves the float range"),
        (["moduli", "--preset", "strong_qge2", "--q", "4", "--beta", "460",
          "--n-terms", "5", "--pairs", "64"],
         "the feature product of block 2 leaves the float32 range"),
        (["moduli", "--preset", "strong_qge2", "--q", "4", "--beta", "470",
          "--n-terms", "5", "--pairs", "64"],
         "the feature product of block 2 leaves the float32 range"),
        (["cube", "--m", "9" * 400],
         f"m={'9' * 400} must be a positive integer in the float range"),
    ], ids=["moduli-q2000", "moduli-q1e300", "mazur-grid", "moduli-q300", "moduli-q1000",
            "moduli-qle1-q0.1", "moduli-rff-q130", "moduli-qle1-q0.14-400",
            "moduli-qle1-q0.13", "moduli-qle1-q0.05", "gluing-beta1e4",
            "moduli-warmup-beta2000", "moduli-qle1-beta1000", "moduli-rff-qle1-beta100",
            "moduli-rff-q4-beta1000", "moduli-kernel-t-ratio", "moduli-rff-t-ratio",
            "moduli-rff-q4-beta460", "moduli-rff-q4-beta470", "cube-m-400-digits"])
    def test_constants_beyond_the_float_range_are_usage_errors(self, tmp_path, argv, message):
        # A constant that overflows, or underflows to 0 and is inverted,
        # names its exponent and exits 2, not 1 (a violated bound); so do a
        # budget tail, a float32 feature table or feature product, a
        # separation ratio and a cube dimension past the float range.  A
        # fresh process turns every RuntimeWarning into an error, so an
        # overflow cannot run on to an artifact of inf.
        out = tmp_path / "out.json"
        flag = "--json-out" if argv[0] == "moduli" else "--out"
        proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m",
                               "embedlab.cli", *argv, flag, str(out)],
                              capture_output=True, text=True)
        assert proc.returncode == cli.EXIT_USAGE
        assert proc.stderr == f"embedlab: {message}\n"  # no traceback
        assert proc.stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["moduli", "--preset", "strong_qge2", "--q", "3.7", "--beta", "1.05",
         "--n-terms", "20", "--pairs", "512"],
        ["verify", "--suite", "mazur", "--grid", "1,1000", "--samples", "200"],
        ["moduli", "--preset", "strong_qle1", "--q", "0.14", "--beta", "1.1",
         "--n-terms", "100", "--pairs", "512"],
        ["moduli", "--preset", "strong_qle1", "--q", "0.1", "--beta", "1.1",
         "--n-terms", "10", "--pairs", "512"],
        ["folner", "--group", "z2", "--p", "1024", "--n-max", "6", "--max-dist", "50",
         "--pairs", "20"],
        ["folner", "--group", "tree", "--p", "1024", "--n-max", "6", "--max-dist", "50",
         "--pairs", "20"],
        ["folner", "--group", "z2", "--p", "1020", "--max-dist", "50", "--pairs", "20"],
        ["folner", "--group", "tree", "--p", "1023", "--max-dist", "50", "--pairs", "20"],
        ["folner", "--group", "z2", "--p", "1e300", "--max-dist", "50", "--pairs", "20"],
    ], ids=["moduli-q3.7", "mazur-grid-1-1000", "moduli-qle1-q0.14-100",
            "moduli-qle1-q0.1-10", "folner-z2-p1024", "folner-tree-p1024", "folner-z2-p1020",
            "folner-tree-p1023", "folner-z2-p1e300"])
    def test_exponents_inside_the_float_range_run_clean(self, tmp_path, argv):
        # The budget tail sits on the borderline at every q, a Mazur
        # margin past the float range is +inf, a strong_qle1 run whose
        # realized bandwidths stay positive builds, and a group block's
        # upper bound is 2 at every p: no refusal, no warning.
        out = tmp_path / "out.json"
        flag = "--out" if argv[0] == "verify" else "--json-out"
        proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m",
                               "embedlab.cli", *argv, flag, str(out)],
                              capture_output=True, text=True)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert out.exists()
        if argv[0] == "folner":
            doc = json.loads(out.read_text())
            assert doc["violations"] == 0
            assert 0 < doc["glued_bounds"]["worst_upper_margin"] < math.inf

    def test_inputs_at_the_edge_of_the_float_range_exit_clean(self, tmp_path):
        # Each run ends in 0 or a typed refusal (2), with no exception and
        # no warning, whatever beta, nu or separation range it is given.
        betas = ["1.000000001", "10", "100", "1000", "1e4", "1e300"]
        runs = []
        for beta in betas:
            runs += [["moduli", "--preset", "warmup_l2", "--beta", beta, "--backend", "kernel"],
                     ["moduli", "--preset", "strong_qge2", "--q", "4", "--beta", beta],
                     ["moduli", "--preset", "strong_1leqle2", "--q", "1.5", "--beta", beta],
                     ["moduli", "--preset", "strong_qle1", "--q", "0.5", "--beta", beta],
                     ["verify", "--suite", "gluing", "--beta", beta]]
        runs += [["moduli", "--preset", "coarse_l2", "--nu", nu, "--backend", "kernel"]
                 for nu in ("0.500000001", "10", "1e300")]
        runs += [["moduli", "--preset", "warmup_l2", "--beta", "2", "--backend", "kernel",
                  "--t-min", t_min, "--t-max", "1e200"] for t_min in ("1e-200", "1e-100")]
        # float32 feature products: 430..450 run, 460 and 470 overflow w.x
        # while the table is finite, and 480's table leaves float32
        runs += [["moduli", "--preset", "strong_qge2", "--q", "4", "--beta", str(beta)]
                 for beta in range(430, 490, 10)]
        assert len(runs) == 41
        codes = []
        for argv in runs:
            flag = "--out" if argv[0] == "verify" else "--json-out"
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                codes.append(run([*argv, "--n-terms", "5", "--pairs", "64",
                                  flag, str(tmp_path / "out.json")]))
            assert codes[-1] in (cli.EXIT_OK, cli.EXIT_USAGE), argv
        assert codes[-6:] == [cli.EXIT_OK] * 3 + [cli.EXIT_USAGE] * 3
        assert codes.count(cli.EXIT_USAGE) == 19  # the other 22 run clean

    @pytest.mark.parametrize("argv, message", [
        ([], "--preset strong_qge2 needs --q and --beta"),
        (["--beta", "2"], "--preset strong_qge2 needs --q"),
        (["--q", "4"], "--preset strong_qge2 needs --beta"),
        (["--preset", "coarse_l2"], "--preset coarse_l2 needs --nu"),
        (["--preset", "warmup_l2", "--q", "2"], "--preset warmup_l2 needs --beta"),
    ], ids=["no-flags", "beta-only", "q-only", "coarse", "warmup"])
    def test_missing_preset_flags_named_at_once(self, capsys, monkeypatch, argv, message):
        def no_work(*args, **kwargs):
            raise AssertionError("the schedule was built before the flags were checked")

        monkeypatch.setattr("embedlab.glue.preset_schedule", no_work)
        assert run(["moduli"] + argv) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err == f"embedlab: {message}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("argv, message", [
        (["--fit-lo", "8", "--fit-hi", "1"], "--fit-lo 8 must be below --fit-hi 1"),
        (["--t-min", "100", "--t-max", "0.1"], "--t-min 100 must be below --t-max 0.1"),
        (["--fit-lo", "200"], "--fit-lo 200 must be below --fit-hi 100"),
    ], ids=["fit-window", "t-range", "fit-lo-past-t-max"])
    def test_inverted_windows_exit_before_any_work(self, capsys, monkeypatch, argv, message):
        def no_work(*args, **kwargs):
            raise AssertionError("the schedule was built before the window was checked")

        monkeypatch.setattr("embedlab.glue.preset_schedule", no_work)
        code = run(["moduli", "--preset", "strong_qge2", "--q", "4", "--beta", "1.05",
                    "--backend", "rff", "--n-terms", "100", "--pairs", "8192", *argv])
        assert code == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err == f"embedlab: {message}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [
        ["--suite", "mazur", "--samples", "0"],
        ["--suite", "kernel", "--samples", "0"],
        ["--suite", "gluing", "--pairs", "0"],
        ["--suite", "folner", "--pairs", "0"],
    ], ids=["mazur", "kernel", "gluing", "folner"])
    def test_empty_verify_runs_are_usage_errors(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            run(["verify", *argv])
        assert exc.value.code == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert "must be a positive integer" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("argv, message", [
        (["--suite", "cube", "--m-max", "1"], "argument --m-max: must be an integer >= 2"),
        (["--suite", "gk", "--k-max", "0"], "argument --k-max: must be a positive integer"),
        (["--suite", "gk", "--ground-max", "1"],
         "argument --ground-max: must be an integer >= 2"),
    ], ids=["cube-m-max", "gk-k-max", "gk-ground-max"])
    def test_verify_bounds_that_audit_nothing_are_usage_errors(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            run(["verify", *argv])
        assert exc.value.code == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("dim", ["0", "-1"])
    @pytest.mark.parametrize("argv", [
        ["verify", "--suite", "mazur"],
        ["moduli", "--preset", "warmup_l2", "--beta", "2", "--backend", "kernel"],
    ], ids=["verify", "moduli"])
    def test_nonpositive_dim_is_a_usage_error(self, capsys, argv, dim):
        with pytest.raises(SystemExit) as exc:
            run([*argv, "--dim", dim])
        assert exc.value.code == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert "argument --dim: must be a positive integer" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("pairs", ["0", "-3"])
    def test_empty_folner_runs_are_usage_errors(self, tmp_path, capsys, pairs):
        out_json = tmp_path / "f.json"
        with pytest.raises(SystemExit) as exc:
            run(["folner", "--group", "z2", "--n-max", "6", "--max-dist", "50",
                 "--pairs", pairs, "--json-out", str(out_json)])
        assert exc.value.code == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert "argument --pairs: must be a positive integer" in captured.err
        assert captured.out == ""
        assert not out_json.exists()

    @pytest.mark.parametrize("group", ["z2", "z3", "tree", "heis"])
    @pytest.mark.parametrize("n_min, n_max", [("5", "3"), ("1", "4")])
    def test_bad_folner_index_range_is_a_usage_error(self, tmp_path, capsys, group,
                                                     n_min, n_max):
        out_csv, out_json = tmp_path / "f.csv", tmp_path / "f.json"
        argv = ["folner", "--group", group, "--n-min", n_min, "--n-max", n_max,
                "--pairs", "20", "--out", str(out_csv), "--json-out", str(out_json)]
        if n_min == "1":  # below the parser's floor for an index
            assert "argument --n-min: must be an integer >= 2" in refused(argv, capsys)
        else:  # each index is valid; their order is checked by the command
            assert run(argv) == cli.EXIT_USAGE
            captured = capsys.readouterr()
            assert captured.err == "embedlab: need 2 <= n_min <= n_max\n"
            assert captured.out == ""
        assert not out_csv.exists() and not out_json.exists()

    @pytest.mark.parametrize("argv, config", [
        (["folner", "--group", "z2", "--max-dist", "inf"], None),
        (["folner", "--group", "tree", "--max-dist", "inf"], None),
        (["verify", "--suite", "folner", "--max-dist", "inf"], None),
        (["verify", "--suite", "folner"], '{"max-dist": Infinity}'),
    ], ids=["folner-z2", "folner-tree", "verify-folner", "verify-folner-config"])
    def test_infinite_max_dist_is_a_usage_error(self, tmp_path, capsys, argv, config):
        out = tmp_path / "f.json"
        prefix = []
        if config is not None:
            (tmp_path / "cfg.json").write_text(config)
            prefix = ["--config", str(tmp_path / "cfg.json")]
        err = refused([*prefix, *argv, "--pairs", "20", "--out", str(out)], capsys)
        assert "argument --max-dist: must be a finite number >= 1, got " in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["folner", "--group", "z2"],
        ["folner", "--group", "tree"],
        ["verify", "--suite", "folner"],
    ], ids=["folner-z2", "folner-tree", "verify-folner"])
    def test_max_dist_past_int64_is_a_usage_error(self, tmp_path, argv):
        # A fresh process that turns every RuntimeWarning into an error, so
        # that an int64 cast of the lengths cannot warn its way to exit 2.
        out = tmp_path / "f.json"
        proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m",
                               "embedlab.cli", *argv, "--max-dist", "1e19", "--out", str(out)],
                              capture_output=True, text=True)
        assert proc.returncode == cli.EXIT_USAGE
        assert proc.stderr == "embedlab: need a finite max_dist in [1, 2^62), got 1e+19\n"
        assert not out.exists()

    @pytest.mark.parametrize("max_dist", ["nan", "inf", "0", "-5", "0.5"])
    def test_gluing_max_dist_must_be_finite_and_at_least_one(self, tmp_path, capsys, max_dist):
        out = tmp_path / "g.json"
        err = refused(["verify", "--suite", "gluing", f"--max-dist={max_dist}",
                       "--out", str(out)], capsys)
        assert f"argument --max-dist: must be a finite number >= 1, got {max_dist}\n" in err
        assert not out.exists()

    @pytest.mark.parametrize("grid", ["nan,1", "inf,1"])
    def test_non_finite_mazur_exponent_is_a_usage_error(self, tmp_path, capsys, grid):
        out = tmp_path / "m.json"
        err = refused(["verify", "--suite", "mazur", "--grid", grid, "--samples", "100",
                       "--out", str(out)], capsys)
        assert f"argument --grid: must be a finite number > 0, got {grid[:3]}\n" in err
        assert not out.exists()

    @pytest.mark.parametrize("grid, entry", [("abc", "abc"), ("1,abc", "abc"),
                                             ("0,1", "0"), ("1,-2", "-2"), ("1,,2", "")])
    def test_bad_grid_entry_names_the_flag(self, tmp_path, capsys, grid, entry):
        out = tmp_path / "m.json"
        err = refused(["verify", "--suite", "mazur", f"--grid={grid}", "--out", str(out)],
                      capsys)
        assert f"argument --grid: must be a finite number > 0, got {entry}\n" in err
        assert not out.exists()

    @pytest.mark.parametrize("k, ground", [("1", "1"), ("2", "2"), ("3", "2")])
    def test_gk_ground_not_above_k_is_a_usage_error(self, tmp_path, capsys, k, ground):
        # G(k, ground) has one point at ground = k and none below: no pair to audit.
        out = tmp_path / "g.json"
        code = run(["gk", "--k", k, "--ground", ground, "--out", str(out)])
        assert code == cli.EXIT_USAGE
        assert f"--ground {ground} must exceed --k {k}" in capsys.readouterr().err
        assert not out.exists()

    def test_gk_past_the_element_cap_names_its_count(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        assert run(["gk", "--k", "10", "--ground", "40", "--out", str(out)]) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err == ("embedlab: k=10, ground=40: C(ground, k) = 847660528 "
                                "elements exceed the cap 1048576\n")
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("scale", ["nan", "inf", "0", "-1", "1.5", "config"])
    def test_bound_scale_outside_the_unit_interval_is_a_usage_error(self, tmp_path, capsys,
                                                                     scale):
        out_csv, out_json = tmp_path / "t.csv", tmp_path / "t.json"
        if scale == "config":
            (tmp_path / "cfg.json").write_text('{"bound-scale": NaN}')
            argv = ["--config", str(tmp_path / "cfg.json"), "folner"]
        else:
            argv = ["folner", "--bound-scale", scale]
        err = refused([*argv, "--group", "tree", "--pairs", "50",
                       "--out", str(out_csv), "--json-out", str(out_json)], capsys)
        assert "argument --bound-scale: must be in (0, 1], got " in err
        assert not out_csv.exists() and not out_json.exists()

    def test_folner_p_below_one_is_refused_by_the_parser(self, tmp_path, capsys):
        out_csv, out_json = tmp_path / "f.csv", tmp_path / "f.json"
        err = refused(["folner", "--p", "0.5", "--out", str(out_csv),
                       "--json-out", str(out_json)], capsys)
        assert "argument --p: must be a finite number >= 1, got 0.5\n" in err
        assert not out_csv.exists() and not out_json.exists()

    @pytest.mark.parametrize("flag, value", [("--bound-scale", "0.5"), ("--p", "3")])
    def test_heis_refuses_a_control_that_cannot_fail(self, tmp_path, capsys, flag, value):
        # A heis run audits no bound, so a shrunk bound or another p would
        # pass as a clean run; only the defaults apply.
        out_csv, out_json = tmp_path / "h.csv", tmp_path / "h.json"
        code = run(["folner", "--group", "heis", flag, value, "--n-max", "6",
                    "--out", str(out_csv), "--json-out", str(out_json)])
        assert code == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err == (f"embedlab: {flag} {value} does not apply: "
                                "--group heis audits no bound\n")
        assert captured.out == ""
        assert not out_csv.exists() and not out_json.exists()

    def test_folner_suite_p_below_one_is_a_usage_error(self, tmp_path, capsys):
        # verify's --p is shared with the cube and gk suites, which take any
        # p > 0, so the folner suite names the flag itself.
        out = tmp_path / "f.json"
        code = run(["verify", "--suite", "folner", "--p", "0.5", "--out", str(out)])
        assert code == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err == "embedlab: --p must be >= 1 for the folner suite, got 0.5\n"
        assert captured.out == "" and not out.exists()

    def test_folner_suite_that_audits_no_pair_is_a_usage_error(self, tmp_path, capsys):
        # One pair drawn log-uniformly up to 1000 lands beyond every
        # certified radius (at most 20), so no block distance is checked.
        out = tmp_path / "f.json"
        code = run(["verify", "--suite", "folner", "--max-dist", "1000", "--pairs", "1",
                    "--out", str(out)])
        assert code == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert "--pairs 1 at --max-dist 1000" in err and "audited nothing" in err
        assert not out.exists()

    @pytest.mark.parametrize("grid", ["5", "2,2"])
    def test_mazur_grid_without_two_exponents_is_a_usage_error(self, tmp_path, capsys, grid):
        out = tmp_path / "m.json"
        err = refused(["verify", "--suite", "mazur", "--grid", grid, "--samples", "100",
                       "--out", str(out)], capsys)
        assert f"argument --grid: needs two distinct exponents, got {grid}\n" in err
        assert not out.exists()

    @pytest.mark.parametrize("q_type", ["0.5", "3"])  # nan and inf: TestParserDomains
    def test_target_type_outside_one_to_two_is_a_usage_error(self, tmp_path, capsys, q_type):
        # A Banach space has Rademacher type at most 2, so a bound at type 3
        # would report a false violation on the Euclidean identity.
        out = tmp_path / "c.json"
        err = refused(["cube", "--m", "3", "--target-type", q_type, "--out", str(out)], capsys)
        assert f"argument --target-type: must be in [1, 2], got {q_type}" in err
        assert not out.exists()

    def test_json_out_into_missing_dir_is_io_error(self, tmp_path):
        code = run(["moduli", "--preset", "warmup_l2", "--beta", "2",
                    "--backend", "kernel", "--n-terms", "10", "--pairs", "60",
                    "--bins", "6", "--json-out", str(tmp_path / "no" / "dir.json")])
        assert code == cli.EXIT_IO


# Every numeric flag of every subcommand, by domain.  Integers are refused
# at 0 (unless non-negative), -1 and 2.5; floats at nan, inf and -inf.
_INT_FLAGS = {
    "moduli": ("seed", "threads", "n-features", "base-seed", "n-terms", "dim", "bins",
               "pairs"),
    "verify": ("seed", "threads", "samples", "dim", "degree", "n-features", "n-terms",
               "pairs", "n-max", "m-max", "k-max", "ground-max"),
    "cube": ("seed", "threads", "m"),
    "gk": ("seed", "threads", "k", "ground"),
    "folner": ("seed", "threads", "n-min", "n-max", "pairs"),
    "report": ("seed", "threads"),
}
_FLOAT_FLAGS = {
    "moduli": ("q", "beta", "nu", "t-min", "t-max", "fit-lo", "fit-hi"),
    "verify": ("r", "beta", "max-dist", "p", "grid"),  # --grid: a list of them
    "cube": ("p", "target-type"),
    "gk": ("p",),
    "folner": ("p", "max-dist", "bound-scale"),
    "report": (),
}
_NON_NEGATIVE_FLAGS = {"seed", "base-seed", "degree"}
# Required flags, and output paths that a refused run must leave unwritten.
_BASE_ARGV = {
    "moduli": ["--q", "4", "--beta", "1.05", "--out", "m.csv", "--json-out", "m.json"],
    "verify": ["--suite", "cube", "--out", "v.json"],
    "cube": ["--m", "3", "--out", "c.json"],
    "gk": ["--k", "1", "--ground", "4", "--out", "g.json"],
    "folner": ["--out", "f.csv", "--json-out", "f.json"],
    "report": ["--results-dir", "results", "--out", "r.json"],
}
_JSON_NUMBER = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _bad_values():
    for sub in _INT_FLAGS:
        for flag in _INT_FLAGS[sub]:
            for value in ("0", "-1", "2.5"):
                if not (value == "0" and flag in _NON_NEGATIVE_FLAGS):
                    yield sub, flag, value
        for flag in _FLOAT_FLAGS[sub]:
            for value in ("nan", "inf", "-inf"):
                yield sub, flag, value


class TestParserDomains:
    def test_the_table_lists_every_numeric_flag(self):
        parser = cli.build_parser()
        subparsers = next(a for a in parser._actions
                          if isinstance(a, argparse._SubParsersAction)).choices
        for sub, sp in subparsers.items():
            typed = {a.option_strings[0][2:] for a in sp._actions if a.type is not None}
            assert typed == set(_INT_FLAGS[sub]) | set(_FLOAT_FLAGS[sub]), sub

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("sub, flag, value", list(_bad_values()))
    def test_bad_value_is_refused_by_the_parser(self, tmp_path, monkeypatch, capsys,
                                                sub, flag, value, source):
        monkeypatch.chdir(tmp_path)
        if source == "flag":
            argv = [sub, *_BASE_ARGV[sub], f"--{flag}={value}"]
        else:
            (tmp_path / "cfg.json").write_text(f'{{"{flag}": {_JSON_NUMBER.get(value, value)}}}')
            argv = ["--config", "cfg.json", sub, *_BASE_ARGV[sub]]
        err = refused(argv, capsys)
        assert f"argument --{flag}: must be " in err
        assert sorted(os.listdir(tmp_path)) == (["cfg.json"] if source == "config" else [])


class TestModuliCommand:
    def test_kernel_run_artifacts(self, tmp_path, capsys):
        out_json = tmp_path / "run.json"
        out_csv = tmp_path / "run.csv"
        code = run(["moduli", "--preset", "warmup_l2", "--beta", "2",
                    "--backend", "kernel", "--n-terms", "30", "--pairs", "300",
                    "--bins", "12", "--t-min", "0.1", "--t-max", "50",
                    "--out", str(out_csv), "--json-out", str(out_json)])
        assert code == cli.EXIT_OK
        doc = json.loads(out_json.read_text())
        assert doc["report_kind"] == "moduli_run"
        assert doc["domain"] == "l2" and doc["target"] == "l2"
        assert doc["regime"] == "small_t"  # warmup default
        assert doc["violations"] == 0
        assert doc["certified_enforced"] is True
        assert math.isfinite(doc["rho_slope"])
        assert "threads" not in doc["config"]
        assert "json_out" not in doc["config"]
        assert doc["config"]["pairs"] == 300
        header = out_csv.read_text().splitlines()[0]
        assert header == ("bin_edge_t,rho_hat,omega_hat,count,"
                          "certified_lower,certified_upper")

    def test_reruns_are_byte_identical(self, tmp_path):
        def once(tag, threads):
            j = tmp_path / f"{tag}.json"
            c = tmp_path / f"{tag}.csv"
            code = run(["moduli", "--preset", "strong_qge2", "--q", "4",
                        "--beta", "1.1", "--backend", "rff",
                        "--n-features", "64", "--n-terms", "20",
                        "--pairs", "4200", "--bins", "10",
                        "--t-min", "0.5", "--t-max", "50",
                        "--threads", str(threads),
                        "--out", str(c), "--json-out", str(j)])
            assert code == cli.EXIT_OK
            return j.read_bytes(), c.read_bytes()

        first = once("a", 1)
        second = once("b", 3)
        assert first == second

    @pytest.mark.parametrize("q, preset, backend", [
        pytest.param("4", "strong_qge2", "rff", id="4-strong_qge2"),
        pytest.param("1.5", "strong_1leqle2", "rff", id="1.5-strong_1leqle2"),
        pytest.param("2", "warmup_l2", "kernel", id="2-warmup_l2-kernel"),
    ])
    def test_threads_never_change_artifacts_at_slab_edges(self, tmp_path, q, preset, backend):
        # 2049 pairs is a multiple of neither the feature product's 30-row
        # slab (512 features x (16 + 1) columns) nor the 128-pair tile.
        def once(tag, threads):
            j = tmp_path / f"{tag}.json"
            c = tmp_path / f"{tag}.csv"
            code = run(["moduli", "--preset", preset, "--q", q,
                        "--beta", "1.1", "--backend", backend,
                        "--n-features", "512", "--n-terms", "12",
                        "--pairs", "2049", "--bins", "10",
                        "--t-min", "0.5", "--t-max", "50",
                        "--threads", str(threads),
                        "--out", str(c), "--json-out", str(j)])
            assert code == cli.EXIT_OK
            return j.read_bytes(), c.read_bytes()

        assert once("one", 1) == once("two", 2)


class TestVerifyCommand:
    def test_mazur_quick_clean(self, tmp_path):
        out = tmp_path / "mazur.json"
        code = run(["verify", "--suite", "mazur", "--samples", "300",
                    "--grid", "1,2", "--dim", "8", "--out", str(out)])
        assert code == cli.EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["report_kind"] == "verify_mazur"
        assert doc["violations"] == 0
        assert doc["max_sphere_deviation"] <= 1e-12
        assert doc["worst_margin"] > 0

    def test_gluing_negative_control_detected(self, tmp_path):
        out = tmp_path / "nc.json"
        code = run(["verify", "--suite", "gluing", "--negative-control",
                    "--n-terms", "80", "--pairs", "150", "--out", str(out)])
        assert code == cli.EXIT_VIOLATIONS
        doc = json.loads(out.read_text())
        assert doc["eps_scale"] == 0.5
        assert doc["violations"] > 0

    def test_mazur_cells_match_the_standalone_check(self, tmp_path):
        out = tmp_path / "mazur.json"
        run(["verify", "--suite", "mazur", "--samples", "400", "--grid", "1,2,3",
             "--dim", "6", "--seed", "4", "--out", str(out)])
        cells = json.loads(out.read_text())["cells"]
        assert len(cells) == 9
        for cell in cells:
            if cell["p"] == cell["q"]:
                assert "worst_margin" not in cell
                continue
            pair = [cell["p"], cell["q"]]
            tiles = mazur.sphere_pair_tiles(400, 6, 4, 128)
            rep = next(c for c in mazur.audit_sphere_pairs(tiles, pair)["cells"]
                       if [c["p"], c["q"]] == pair)
            assert cell["worst_margin"] == rep["worst_margin"]

    def test_mazur_suite_holds_a_few_tiles_of_rows(self):
        # 200,000 pairs at dim 16 take 51 MB as whole arrays; the stream
        # holds a few tiles of rows.
        args = cli.build_parser().parse_args(["verify", "--suite", "mazur",
                                              "--samples", "200000", "--grid", "1,2"])
        tracemalloc.start()
        try:
            doc = cli._SUITES["mazur"](args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert doc["violations"] == 0
        assert peak < 10e6

    @pytest.mark.parametrize("flags", [
        ["--samples", "4097"],  # two row tiles, the second a partial one
        ["--samples", "3"],
        ["--samples", "2000", "--negative-control"],
        ["--samples", "500", "--grid", "1,2,3", "--dim", "6"],
    ], ids=["4097", "3", "control", "diagonal"])
    def test_mazur_suite_equals_the_per_cell_oracle(self, flags):
        args = cli.build_parser().parse_args(["verify", "--suite", "mazur"] + flags)
        doc = cli._SUITES["mazur"](args)
        grid = [float(v) for v in args.grid.split(",")]
        want = mazur_grid_audit(grid, args.samples, args.dim, args.seed,
                                upper_scale=doc["upper_scale"])
        assert {k: doc.pop(k) for k in ("suite", "grid", "samples", "upper_scale")} == {
            "suite": "mazur", "grid": grid, "samples": args.samples,
            "upper_scale": 0.5 if args.negative_control else 1.0}
        assert doc == want
        assert (doc["violations"] > 0) == args.negative_control
        for cell in doc["cells"]:
            assert ("worst_margin" in cell) == (cell["p"] != cell["q"])

    def test_mazur_suite_scratch_stays_tile_sized(self):
        # Traced peak of the suite at 20000 samples: 7.6-8.4 MiB with the
        # derived tiles (the 4.9 MiB draw and its row norms), 13.8 MiB with
        # tiles four times as large, 23.1 MiB untiled and 22.6 MiB with a
        # draw per exponent and whole-array cells.
        import tracemalloc

        args = cli.build_parser().parse_args(["verify", "--suite", "mazur",
                                              "--samples", "20000"])
        tracemalloc.start()
        try:
            cli._SUITES["mazur"](args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2 ** 20

    def test_kernel_suite_scratch_stays_tile_sized(self):
        # Traced peak of the suite at its defaults: 5.3 MiB with the derived
        # tiles and cold caches (3.6 MiB warm), 15.0 MiB with tiles four
        # times as large, and 51.3 MiB warm with 256-row tiles and float64
        # features.
        import tracemalloc

        args = cli.build_parser().parse_args(["verify", "--suite", "kernel"])
        tracemalloc.start()
        try:
            cli._SUITES["kernel"](args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20

    def test_kernel_suite_bytes_do_not_depend_on_the_tile(self, tmp_path, monkeypatch):
        # 100 samples: twenty series tiles and seven feature tiles, the last
        # one partial, at block_mass's default budget; one pair per tile at
        # one byte.
        from embedlab import gaussian

        def once(tag):
            out = tmp_path / f"{tag}.json"
            code = run(["verify", "--suite", "kernel", "--samples", "100", "--seed", "3",
                        "--out", str(out)])
            assert code == cli.EXIT_OK
            return out.read_bytes()

        default = once("default")
        monkeypatch.setattr(gaussian, "_SCRATCH_BYTES", 1)
        assert once("row") == default

    def test_kernel_suite_measures_the_series_through_block_mass(self, monkeypatch):
        # The series distances the suite audits are sqrt(block_mass) at q = 2,
        # the kernel of every exp run, on the rows it draws.
        from embedlab import gaussian

        calls, block_mass = [], gaussian.block_mass

        def recording(X, Y, backends, q):
            mass = block_mass(X, Y, backends, q)
            calls.append((X, Y, list(backends), q, mass))
            return mass

        monkeypatch.setattr(gaussian, "block_mass", recording)
        args = cli.build_parser().parse_args(["verify", "--suite", "kernel", "--samples", "300",
                                              "--seed", "5"])
        doc = cli._SUITES["kernel"](args)
        (X, Y, backends, q, mass), = [c for c in calls
                                      if isinstance(c[2][0], gaussian.TruncatedExp)]
        assert q == 2.0 and backends == [gaussian.TruncatedExp(args.r, args.degree, 3)]
        exact = gaussian.psi_distance_exact(np.linalg.norm(X - Y, axis=1), args.r)
        assert doc["max_psi_distance_error"] == float(np.max(np.abs(np.sqrt(mass) - exact)))
        assert doc["max_series_residual"] == float(max(backends[0].residual(X).max(),
                                                       backends[0].residual(Y).max()))

    def test_folner_quick_clean_and_control(self, tmp_path):
        code = run(["verify", "--suite", "folner", "--n-max", "6",
                    "--pairs", "80", "--out", str(tmp_path / "f.json")])
        assert code == cli.EXIT_OK
        doc = json.loads((tmp_path / "f.json").read_text())
        assert doc["char_check"]["n_checks"] > 0
        code = run(["verify", "--suite", "folner", "--n-max", "6",
                    "--pairs", "80", "--negative-control",
                    "--out", str(tmp_path / "fnc.json")])
        assert code == cli.EXIT_VIOLATIONS

    def test_folner_suite_past_depth_4000_clean_and_control(self, tmp_path):
        # the tree witnesses reach 21,700-vertex segments at n = 40
        out = tmp_path / "f.json"
        assert run(["verify", "--suite", "folner", "--n-max", "40", "--out", str(out)]) == \
            cli.EXIT_OK
        assert json.loads(out.read_text())["violations"] == 0
        assert run(["verify", "--suite", "folner", "--n-max", "40", "--negative-control",
                    "--out", str(out)]) == cli.EXIT_VIOLATIONS
        assert json.loads(out.read_text())["a_defect_violations"] > 0

    def test_cube_suite_sweeps_past_dimension_24(self, tmp_path):
        # one row per m in 2..m_max, each clean where the identity meets
        # the floor; the control's doubled floor flags every row
        out = tmp_path / "c.json"
        assert run(["verify", "--suite", "cube", "--m-max", "40", "--p", "1",
                    "--out", str(out)]) == cli.EXIT_OK
        doc = json.loads(out.read_text())
        assert [r["m"] for r in doc["rows"]] == list(range(2, 41))
        assert doc["violations"] == 0
        assert run(["verify", "--suite", "cube", "--m-max", "40", "--p", "1",
                    "--negative-control", "--out", str(out)]) == cli.EXIT_VIOLATIONS
        assert json.loads(out.read_text())["violations"] == 39

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_cube_suite_clean_where_the_identity_beats_the_floor(self, tmp_path, p):
        # Off p <= 1 and p = 2 the identity's distortion lies strictly
        # above the Enflo floor; the suite asks only that it not fall below.
        out = tmp_path / "cube.json"
        assert run(["verify", "--suite", "cube", "--p", str(p), "--out", str(out)]) == cli.EXIT_OK
        rows = json.loads(out.read_text())["rows"]
        assert all(r["measured_distortion"] > r["bound"] * (1 + 1e-3) for r in rows)
        assert all(r["violations"] == 0 for r in rows)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_cube_suite_counts_a_bound_above_the_measurement(self, tmp_path, monkeypatch, p):
        from embedlab import finite_geometry

        cube_report = finite_geometry.cube_report

        def raised(m, p):
            rep = cube_report(m, p)
            return {**rep, "bound": rep["measured_distortion"] * 1.01}

        monkeypatch.setattr(finite_geometry, "cube_report", raised)
        out = tmp_path / "cube.json"
        assert run(["verify", "--suite", "cube", "--p", str(p), "--out", str(out)]) \
            == cli.EXIT_VIOLATIONS
        rows = json.loads(out.read_text())["rows"]
        assert all(r["violations"] >= 1 for r in rows)

    def test_folner_suite_audits_the_tree_witnesses_on_every_run(self, tmp_path, monkeypatch):
        # Halved tree budgets, with no control flag: the ray-offset witnesses
        # must trip the tree audit, which runs on every suite run.
        a_eps = amenable.TreeACollection.a_eps
        monkeypatch.setattr(amenable.TreeACollection, "a_eps", lambda self, n: a_eps(self, n) / 2)
        out = tmp_path / "f.json"
        assert run(["verify", "--suite", "folner", "--out", str(out)]) == cli.EXIT_VIOLATIONS
        doc = json.loads(out.read_text())
        assert doc["a_defect_violations"] > 0 and doc["defect_violations"] == 0

    def test_cube_command_and_suite_share_the_exactness_rule(self, tmp_path, monkeypatch):
        # At p = 1 the identity meets the floor, so a floor lowered by 1e-6
        # relative is a violation for the standalone command and the suite.
        from embedlab import finite_geometry

        cube_report = finite_geometry.cube_report

        def lowered(m, p, q_type=2.0):
            rep = cube_report(m, p, q_type)
            return {**rep, "bound": rep["bound"] * (1 - 1e-6)}

        monkeypatch.setattr(finite_geometry, "cube_report", lowered)
        assert run(["cube", "--m", "4", "--p", "1",
                    "--out", str(tmp_path / "c.json")]) == cli.EXIT_VIOLATIONS
        assert run(["verify", "--suite", "cube", "--m-max", "4", "--p", "1",
                    "--out", str(tmp_path / "v.json")]) == cli.EXIT_VIOLATIONS

    def test_config_echoes_every_parsed_flag(self, tmp_path):
        # Runs that differ in one flag echo different configs; the echo
        # holds each parsed value except output paths and --threads.
        for n_max in ("6", "7"):
            run(["verify", "--suite", "folner", "--n-max", n_max, "--pairs", "80",
                 "--out", str(tmp_path / f"f{n_max}.json")])
        echoed = [json.loads((tmp_path / f"f{n}.json").read_text())["config"] for n in "67"]
        assert [c["n_max"] for c in echoed] == [6, 7]
        parsed = vars(cli.build_parser().parse_args(["verify", "--suite", "folner"]))
        assert sorted(echoed[0]) == sorted(set(parsed) - {"config", "handler", "out",
                                                          "threads"})


class TestSmallCommands:
    def test_cube(self, tmp_path):
        out = tmp_path / "cube.json"
        code = run(["cube", "--m", "4", "--p", "1", "--out", str(out)])
        assert code == cli.EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["bound"] == pytest.approx(2.0)
        assert doc["measured_distortion"] == pytest.approx(2.0)
        assert doc["certificate_ratio"] == 1.0

    @pytest.mark.parametrize("m", ["25", "1000", "1000000", str(3 * 4 ** 23)])
    def test_cubes_past_dimension_24_run_clean(self, tmp_path, m):
        # at m = 3 * 4^23 the distortion m / sqrt(m) lies ~1.9e-9 above
        # the bound m^(1/2): equal within the relative slack
        out = tmp_path / "cube.json"
        assert run(["cube", "--m", m, "--p", "1", "--out", str(out)]) == cli.EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["violations"] == 0
        assert doc["measured_distortion"] == pytest.approx(math.sqrt(int(m)), rel=1e-15)

    def test_gk(self, tmp_path):
        out = tmp_path / "gk.json"
        code = run(["gk", "--k", "2", "--ground", "6", "--p", "1",
                    "--out", str(out)])
        assert code == cli.EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["max_ratio"] == 2.0
        assert doc["pairs_checked"] == math.comb(15, 2)
        assert doc["violations"] == 0


class TestFolnerCommand:
    def test_z2_run_artifacts(self, tmp_path):
        out_csv = tmp_path / "fol.csv"
        out_json = tmp_path / "fol.json"
        code = run(["folner", "--group", "z2", "--n-max", "8",
                    "--max-dist", "16", "--pairs", "60",
                    "--out", str(out_csv), "--json-out", str(out_json)])
        assert code == cli.EXIT_OK
        lines = out_csv.read_text().splitlines()
        assert lines[0] == ",".join(moduli._COLUMNS + _FOLNER_COLUMNS)
        assert len(lines) == 1 + 7  # schedule rows n = 2..8
        doc = json.loads(out_json.read_text())
        assert doc["report_kind"] == "moduli_run"
        assert doc["run_kind"] == "folner"
        assert doc["domain"] == "z2"
        assert doc["defect_violations"] == 0
        assert doc["char_check"]["violations"] == 0
        assert doc["glued_bounds"]["upper_violations"] == 0

    def test_tree_run_has_finite_upper_bounds(self, tmp_path):
        out, js = tmp_path / "tree.csv", tmp_path / "tree.json"
        code = run(["folner", "--group", "tree", "--pairs", "60", "--seed", "8484",
                    "--out", str(out), "--json-out", str(js)])
        assert code == cli.EXIT_OK
        rows = np.genfromtxt(out, delimiter=",", names=True)
        assert np.all(np.isfinite(rows["certified_upper"]))
        populated = rows["count"] > 0
        assert np.all(rows["omega_hat"][populated] <= rows["certified_upper"][populated])
        assert json.loads(js.read_text())["glued_bounds"]["worst_upper_margin"] > 0

    def test_heisenberg_run_is_not_a_moduli_run(self, tmp_path):
        out_json = tmp_path / "heis.json"
        out_csv = tmp_path / "heis.csv"
        code = run(["folner", "--group", "heis", "--n-min", "2", "--n-max", "5",
                    "--out", str(out_csv), "--json-out", str(out_json)])
        assert code == cli.EXIT_OK
        doc = json.loads(out_json.read_text())
        assert doc["report_kind"] == "folner_run"
        assert "domain" not in doc
        # the volume growth is fitted over the radii r = 2..5, the run's
        # index range, not 2..20 and not the witness radii rad_n
        assert doc["growth_fit"] == amenable.heisenberg_growth_fit(5, 2)
        assert doc["growth_fit"] != amenable.heisenberg_growth_fit()
        # the gauge-ball witness has radius floor(1 / eps_n): 7 at n = 4
        assert out_csv.read_text().splitlines()[0] == ",".join(moduli._COLUMNS + _FOLNER_COLUMNS)
        rows = {int(r["n"]): r for r in _csv_rows(out_csv)}
        assert rows[4]["rad_n"] == "7"
        assert [float(rows[n]["rad_n"]) for n in range(2, 6)] == [
            math.floor(1.0 / amenable._preset_eps(n)) for n in range(2, 6)]

    def test_heisenberg_defects_are_finite_at_the_default_range(self, tmp_path):
        # gauge balls up to radius 179 (6.8e8 points at n = 20), in closed form
        out_json = tmp_path / "heis.json"
        out_csv = tmp_path / "heis.csv"
        code = run(["folner", "--group", "heis", "--seed", "1",
                    "--out", str(out_csv), "--json-out", str(out_json)])
        assert code == cli.EXIT_OK
        rows = _csv_rows(out_csv)
        assert [int(r["n"]) for r in rows] == list(range(2, 21))
        assert all(math.isfinite(float(r["measured_defect_max"])) for r in rows)
        defects = json.loads(out_json.read_text())["defects"]
        assert sorted(defects, key=int) == [str(n) for n in range(2, 21)]
        assert all(v is not None and math.isfinite(v) for v in defects.values())
        assert defects["2"] == 34 / 29

    def test_heisenberg_growth_fit_follows_the_index_range(self, tmp_path):
        def growth(*argv):
            out_json = tmp_path / "heis.json"
            assert run(["folner", "--group", "heis", *argv,
                        "--json-out", str(out_json)]) == cli.EXIT_OK
            return json.loads(out_json.read_text())["growth_fit"]

        assert growth() == amenable.heisenberg_growth_fit(20, 2)
        # the radii are the indices themselves, not the witness radii
        # floor(1 / eps_n) of the rows (7..179 at n = 4..20)
        assert growth("--n-min", "4", "--n-max", "7") == amenable.heisenberg_growth_fit(7, 4)
        assert 3.5 <= growth("--n-min", "10", "--n-max", "20") <= 4.5
        assert growth("--n-min", "6", "--n-max", "6") is None  # one point, no slope

    @pytest.mark.parametrize("group,argv", [
        ("z2", ["--n-max", "8", "--max-dist", "16", "--pairs", "60"]),
        ("z3", ["--n-min", "3", "--n-max", "9", "--max-dist", "40.6", "--pairs", "120",
                "--p", "2"]),
        ("tree", ["--n-max", "8", "--max-dist", "30", "--pairs", "150", "--p", "1.5"]),
    ])
    def test_rows_equal_a_brute_force_reduction(self, tmp_path, group, argv):
        out_csv, out_json = tmp_path / "f.csv", tmp_path / "f.json"
        assert run(["folner", "--group", group, "--seed", "5", *argv,
                    "--out", str(out_csv), "--json-out", str(out_json)]) == cli.EXIT_OK
        flag = dict(zip(argv[::2], argv[1::2]))
        n_min, n_max = int(flag.get("--n-min", 2)), int(flag["--n-max"])
        p, max_dist = float(flag.get("--p", 1)), float(flag["--max-dist"])
        if group == "tree":
            model = amenable.TreeModel()
            system = amenable.TreeACollection(model, n_min=n_min, n_max=n_max)
            pairs = amenable.sample_tree_pairs(model, int(flag["--pairs"]), int(max_dist), 5)
        else:
            model = amenable.ZkModel(int(group[1]))
            system = amenable.ZkFolnerSystem(model, n_min=n_min, n_max=n_max)
            pairs = amenable.sample_zk_pairs(model, int(flag["--pairs"]), max_dist, 5)
        emb = amenable.glued_group_embedding(system, model, p)
        d = [group_metric(model, x, y) for x, y in pairs]
        img = [sum(block_distance_pth(system, x, y, n) for n in range(n_min, n_max + 1))
               ** (1.0 / p) for x, y in pairs]
        edges = [float(n) for n in range(n_min, n_max + 1)] + [max_dist]
        rows = _csv_rows(out_csv)
        assert len(rows) == n_max - n_min + 1
        for j, row in enumerate(rows):
            left, right = edges[j], edges[j + 1]
            last = j == len(rows) - 1
            above = [v for t, v in zip(d, img) if t >= left]
            below = [v for t, v in zip(d, img) if t < right or (last and t == right)]
            count = sum(1 for t in d if left <= t and (t < right or (last and t == right)))
            assert row["bin_edge_t"] == moduli._cell(left)
            assert row["rho_hat"] == moduli._cell(min(above) if above else math.nan)
            assert row["omega_hat"] == moduli._cell(max(below) if below else math.nan)
            assert row["count"] == str(count)
            lower, upper = emb.certified_lower_pth(left), glued_upper_pth(emb, right)
            assert row["certified_lower"] == moduli._cell(lower ** (1 / p))
            assert row["certified_upper"] == moduli._cell(upper ** (1 / p))
        assert sum(int(r["count"]) for r in rows) == sum(1 for t in d if edges[0] <= t <= max_dist)
        # slopes: least squares over the populated rows, rho at left edges
        # and omega at right edges
        full = [j for j, r in enumerate(rows) if int(r["count"]) > 0]
        doc = json.loads(out_json.read_text())
        for name, col, at in (("rho_slope", "rho_hat", 0), ("omega_slope", "omega_hat", 1)):
            xs = np.log([edges[j + at] for j in full])
            ys = np.log([float(rows[j][col]) for j in full])
            assert doc[name] == pytest.approx(np.polyfit(xs, ys, 1)[0], rel=1e-9)
        # the fits behind the slopes span every row, r(n_min) to --max-dist
        for env in ("rho", "omega"):
            assert doc[f"{env}_fit"]["slope"] == doc[f"{env}_slope"]
            assert doc[f"{env}_fit"]["range"] == [edges[0], max_dist]

    @pytest.mark.parametrize("group,argv", [
        ("z2", ["--n-max", "8", "--max-dist", "40", "--pairs", "120"]),
        ("z3", ["--n-min", "3", "--n-max", "9", "--max-dist", "40.6", "--pairs", "120"]),
        ("tree", ["--n-max", "8", "--max-dist", "30", "--pairs", "150"]),
    ])
    def test_a_run_at_p_is_the_p1_run_rooted(self, tmp_path, group, argv):
        # A block's p-th mass |A Delta B| / |A| and every certified p-th
        # mass bound are the same at every p, so a run at p is the p = 1
        # run with each envelope and certified cell raised to 1/p, its
        # audits unchanged, and its target names its p.
        def folner(p):
            out_csv, out_json = tmp_path / f"p{p}.csv", tmp_path / f"p{p}.json"
            assert run(["folner", "--group", group, "--seed", "5", "--p", p, *argv,
                        "--out", str(out_csv), "--json-out", str(out_json)]) == cli.EXIT_OK
            return _csv_rows(out_csv), json.loads(out_json.read_text())

        rows1, doc1 = folner("1")
        assert doc1["target"] == "l1"
        rooted = ("rho_hat", "omega_hat", "certified_lower", "certified_upper")
        for p in ("2", "5", "1024"):
            rows, doc = folner(p)
            assert doc["target"] == f"l{p}"
            assert len(rows) == len(rows1)
            for row, row1 in zip(rows, rows1):
                assert {k: v for k, v in row.items() if k not in rooted} == {
                    k: v for k, v in row1.items() if k not in rooted}
                for col in rooted:
                    want = float(row1[col]) ** (1 / float(p))
                    if math.isnan(want):
                        assert row[col] == "nan"
                    else:
                        assert float(row[col]) == pytest.approx(want, rel=1e-11, abs=0)
            assert doc["glued_bounds"] == doc1["glued_bounds"]
            assert doc["violations"] == doc1["violations"] == 0
            assert doc["char_check"].pop("p") == float(p)
            assert doc["char_check"] == {k: v for k, v in doc1["char_check"].items() if k != "p"}

    @pytest.mark.parametrize("n_max", ["21", "40", "60"])
    def test_trees_past_depth_4000_run_clean(self, tmp_path, n_max):
        # Segments have 4,088 vertices at n = 21 and 60,350 at n = 60, past
        # the depth where the sampler holds its walks; the tree has no cap.
        out_csv, out_json = tmp_path / "t.csv", tmp_path / "t.json"
        assert run(["folner", "--group", "tree", "--n-max", n_max,
                    "--out", str(out_csv), "--json-out", str(out_json)]) == cli.EXIT_OK
        assert len(_csv_rows(out_csv)) == int(n_max) - 1
        doc = json.loads(out_json.read_text())
        assert doc["violations"] == 0
        assert doc["char_check"]["n_checks"] > 0

    @pytest.mark.parametrize("group", ["z2", "tree"])
    def test_bound_scale_also_tightens_the_glued_upper_bound(self, tmp_path, group):
        def glued(scale):
            out_json = tmp_path / f"{scale}.json"
            code = run(["folner", "--group", group, "--bound-scale", scale,
                        "--json-out", str(out_json)])
            doc = json.loads(out_json.read_text())
            assert code == (cli.EXIT_VIOLATIONS if doc["violations"] else cli.EXIT_OK)
            return doc["glued_bounds"]

        full, quarter = glued("1"), glued("0.25")
        assert full["upper_scale"] == 1.0 and full["upper_violations"] == 0
        assert quarter["upper_scale"] == 0.25 and quarter["upper_violations"] > 0
        assert quarter["worst_upper_margin"] < 0 < full["worst_upper_margin"]
        assert quarter["lower_violations"] == full["lower_violations"] == 0

    def test_few_populated_rows_leave_the_slopes_null(self, tmp_path):
        # n = 2..6 gives five rows and two pairs populate at most two of
        # them, whatever the sampler draws, so empty rows are left out
        out_csv, out_json = tmp_path / "t.csv", tmp_path / "t.json"
        code = run(["folner", "--group", "tree", "--n-max", "6", "--max-dist", "50",
                    "--pairs", "2", "--out", str(out_csv), "--json-out", str(out_json)])
        assert code == cli.EXIT_OK
        rows = _csv_rows(out_csv)
        assert len(rows) == 5
        assert sum(int(r["count"]) > 0 for r in rows) < 5
        doc = json.loads(out_json.read_text())
        assert doc["rho_slope"] is None and doc["omega_slope"] is None
        assert doc["rho_fit"] is None and doc["omega_fit"] is None

    @pytest.mark.parametrize("max_dist", ["10", "20"])
    def test_max_dist_must_exceed_the_last_radius(self, tmp_path, capsys, max_dist):
        out_csv = tmp_path / "bad.csv"
        code = run(["folner", "--group", "z2", "--n-max", "20", "--max-dist", max_dist,
                    "--pairs", "20", "--out", str(out_csv)])
        assert code == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert "--max-dist" in err and "r(n_max) = 20" in err
        assert not out_csv.exists()


# The per-index columns folner writes after the envelope columns.
_FOLNER_COLUMNS = ("n", "eps_n", "rad_n", "measured_defect_max")


def _csv_rows(path):
    header, *lines = path.read_text().splitlines()
    return [dict(zip(header.split(","), line.split(","))) for line in lines]


class TestGroupClosedForms:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_axis_vector_is_the_worst_box_shift(self, k):
        model = amenable.ZkModel(k)
        system = amenable.ZkFolnerSystem(model, n_min=2, n_max=12)
        got = system.worst_defects(None, None)
        for n in range(2, 13):
            M = system.half_side(n)
            want = max(amenable.box_defect(M, g) for g in zk_ball(model, n) if any(g))
            assert got[n] == want


class TestFitsNeedNoLapack:
    """Every fit is the closed form of ``moduli.loglog_fit``: runs whose
    fits cover every path (both envelope fits of a folner and of a
    kernel-mode moduli run, the Heisenberg growth fit) succeed with
    numpy's least-squares solvers unavailable."""

    @pytest.mark.parametrize("argv", [
        ["folner", "--group", "z2", "--n-max", "8", "--max-dist", "16", "--pairs", "60"],
        ["folner", "--group", "heis", "--n-min", "2", "--n-max", "6"],
        ["moduli", "--preset", "warmup_l2", "--beta", "2", "--backend", "kernel",
         "--n-terms", "30", "--pairs", "300", "--bins", "12",
         "--t-min", "0.001", "--t-max", "0.1"],
    ], ids=["folner-z2", "folner-heis", "moduli-kernel"])
    def test_runs_without_polyfit_or_lstsq(self, tmp_path, monkeypatch, argv):
        def refuse(*args, **kwargs):
            raise AssertionError("a fit reached LAPACK")

        monkeypatch.setattr(np, "polyfit", refuse)
        monkeypatch.setattr(np.linalg, "lstsq", refuse)
        out_json = tmp_path / "run.json"
        assert run([*argv, "--json-out", str(out_json)]) == cli.EXIT_OK
        doc = json.loads(out_json.read_text())
        fitted = [doc["growth_fit"]] if argv[2] == "heis" else [doc["rho_slope"],
                                                                 doc["omega_slope"]]
        assert all(isinstance(v, float) for v in fitted)


def test_import_loads_no_scipy_module():
    code = ("import sys, embedlab, embedlab.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"


# Runs the argument lists in argv[1] (JSON) through cli.main in one fresh
# process, in the directory argv[2], with scipy blocked from import, and
# reports their exit codes and which of numpy and the package's modules
# are loaded at the end.
_FRESH_CLI = """
import json, os, sys
sys.modules["scipy"] = None  # any scipy import now raises ImportError
from embedlab import cli

os.chdir(sys.argv[2])
codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes,
                  "modules": sorted(m for m in sys.modules
                                    if m == "numpy" or m.startswith("embedlab."))}))
"""


def _fresh_cli(runs, cwd, env=None):
    out = subprocess.run([sys.executable, "-c", _FRESH_CLI, json.dumps(runs), str(cwd)],
                         capture_output=True, text=True, check=True, env=env)
    return json.loads(out.stdout.splitlines()[-1])


_EXP_MODULI = ["moduli", "--backend", "exp", "--dim", "2", "--q", "4", "--beta", "1.05",
               "--n-terms", "5", "--t-max", "5", "--bins", "6"]


class TestRunsWithoutScipy:
    """Every CLI path runs with scipy blocked from import: the series
    residual is a closed-form Poisson tail, and no preset reaches a tail
    bound that would need an incomplete gamma function."""

    def test_paths_without_the_series_residual(self, tmp_path):
        (tmp_path / "results").mkdir()
        runs = [
            ["moduli", "--preset", "strong_qge2", "--q", "4", "--beta", "1.1",
             "--backend", "rff", "--n-features", "64", "--n-terms", "10",
             "--pairs", "300", "--bins", "6", "--t-min", "0.5", "--t-max", "50",
             "--out", "rff.csv", "--json-out", "rff.json"],
            ["moduli", "--preset", "warmup_l2", "--beta", "2", "--backend", "kernel",
             "--n-terms", "30", "--pairs", "300", "--bins", "12",
             "--t-min", "0.001", "--t-max", "0.1", "--json-out", "results/warmup.json"],
            ["verify", "--suite", "mazur", "--samples", "300", "--grid", "1,2",
             "--dim", "8", "--out", "mazur.json"],
            ["verify", "--suite", "gluing", "--n-terms", "80", "--pairs", "150",
             "--out", "gluing.json"],
            ["verify", "--suite", "folner", "--n-max", "6", "--pairs", "80",
             "--out", "folner.json"],
            ["verify", "--suite", "cube", "--m-max", "4", "--out", "cube.json"],
            ["verify", "--suite", "gk", "--k-max", "2", "--ground-max", "6",
             "--out", "gk.json"],
            ["folner", "--group", "z2", "--n-max", "8", "--max-dist", "16",
             "--pairs", "60", "--json-out", "z2.json"],
            ["folner", "--group", "tree", "--n-max", "6", "--max-dist", "50",
             "--pairs", "40", "--json-out", "tree.json"],
            ["folner", "--group", "heis", "--n-min", "2", "--n-max", "5",
             "--json-out", "heis.json"],
            ["report", "--results-dir", "results", "--out", "tables.json"],
        ]
        got = _fresh_cli(runs, tmp_path)
        assert got["codes"] == [cli.EXIT_OK] * len(runs)

    @pytest.mark.parametrize("argv", [
        ["verify", "--suite", "kernel", "--samples", "200", "--out", "kernel.json"],
        _EXP_MODULI + ["--pairs", "200", "--json-out", "exp.json"],
    ], ids=["verify-kernel", "moduli-exp"])
    def test_series_residual_paths(self, tmp_path, argv):
        got = _fresh_cli([argv], tmp_path)
        assert got["codes"] == [cli.EXIT_OK]

    def test_exp_run_keeps_its_bytes_at_two_threads(self, tmp_path):
        # At 561 series coordinates a tile is 58 pairs, so 2100 pairs are
        # 37 tiles, and with two threads the series coordinates run in two
        # worker threads.
        def once(threads):
            j, c = f"exp{threads}.json", f"exp{threads}.csv"
            got = _fresh_cli([_EXP_MODULI + ["--pairs", "2100", "--threads", str(threads),
                                             "--out", c, "--json-out", j]], tmp_path)
            assert got["codes"] == [cli.EXIT_OK]
            return (tmp_path / j).read_bytes(), (tmp_path / c).read_bytes()

        assert once(1) == once(2)


# The runs of the cross-CPU contract, by artifact name: folner over every
# group and a kernel-mode moduli run, about a second in all.
_CPU_RUNS = {
    "z2": ["folner", "--group", "z2", "--n-max", "8", "--max-dist", "16", "--pairs", "60"],
    "z3": ["folner", "--group", "z3", "--n-min", "3", "--n-max", "9", "--max-dist", "40.6",
           "--pairs", "120"],
    "tree": ["folner", "--group", "tree", "--n-max", "8", "--max-dist", "30", "--pairs", "150"],
    "heis": ["folner", "--group", "heis", "--n-min", "2", "--n-max", "8"],
    "warmup": ["moduli", "--preset", "warmup_l2", "--beta", "2", "--backend", "kernel",
               "--n-terms", "30", "--pairs", "300", "--bins", "12",
               "--t-min", "0.001", "--t-max", "0.1"],
}

_CPU_VARIANTS = {
    "openblas-haswell": {"OPENBLAS_CORETYPE": "Haswell"},
    "numpy-no-avx512": {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"},
}


def _cpu_env(**variables):
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")}
    return {**env, **variables}


def _cpu_runs(directory, env) -> dict:
    """Exit codes and artifact bytes of every run of ``_CPU_RUNS``, made in
    one fresh process with environment ``env``."""
    directory.mkdir()
    codes = _fresh_cli([[*argv, "--out", f"{name}.csv", "--json-out", f"{name}.json"]
                        for name, argv in _CPU_RUNS.items()], directory, env)["codes"]
    files = {f"{name}.{ext}": (directory / f"{name}.{ext}").read_bytes()
             for name in _CPU_RUNS for ext in ("csv", "json")}
    return {"codes": dict(zip(_CPU_RUNS, codes)), "files": files}


def _floats_agree(a: float, b: float, rel: float) -> bool:
    return math.isclose(a, b, rel_tol=rel) or (math.isnan(a) and math.isnan(b))


def _json_agrees(a, b, rel: float) -> bool:
    """Equal structure, keys, integers, strings, booleans and nulls;
    floats within ``rel``."""
    if isinstance(a, float) and isinstance(b, float):
        return _floats_agree(a, b, rel)
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_json_agrees(a[k], b[k], rel) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(_json_agrees(x, y, rel) for x, y in zip(a, b))
    return a == b


def _cell_agrees(a: str, b: str) -> bool:
    """One CSV cell: integers and text equal, numbers within 1e-12
    relative or one unit in the last of their 12 significant digits."""
    if a == b:
        return True
    if a.lstrip("-").isdigit() or b.lstrip("-").isdigit():
        return False
    try:
        x, y = float(a), float(b)
    except ValueError:
        return False
    last_digit = 10.0 ** (math.floor(math.log10(max(abs(x), abs(y)))) - 11)
    return _floats_agree(x, y, 1e-12) or abs(x - y) <= 1.0000001 * last_digit


class TestCrossCpuContract:
    """The cross-CPU contract of README's "Reproducibility across CPUs",
    on runs in child processes whose environment alone selects another
    OpenBLAS core type or disables numpy's newest SIMD targets.

    Under ``OPENBLAS_CORETYPE=Haswell`` every CSV and JSON is
    byte-identical: every fit is a closed form in Python floats, so no
    LAPACK kernel that the core type selects reaches an artifact.  Under
    ``NPY_DISABLE_CPU_FEATURES``, integer, string and boolean fields,
    verdicts and exit codes are identical and floats agree within 1e-12
    relative; a CSV cell, rounded to 12 significant digits, may also move
    one unit in its last digit.  A variant is skipped only when the host
    refuses it at import.
    """

    @pytest.fixture(scope="class")
    def default(self, tmp_path_factory):
        return _cpu_runs(tmp_path_factory.mktemp("cpu") / "default", _cpu_env())

    def test_every_run_succeeds_and_fits(self, default):
        assert default["codes"] == dict.fromkeys(_CPU_RUNS, cli.EXIT_OK)
        for name in ("z2", "z3", "tree", "warmup"):
            doc = json.loads(default["files"][f"{name}.json"])
            assert doc["rho_slope"] is not None and doc["omega_slope"] is not None
        assert json.loads(default["files"]["heis.json"])["growth_fit"] is not None

    @pytest.mark.parametrize("variant", sorted(_CPU_VARIANTS))
    def test_artifacts_keep_the_contract(self, default, tmp_path, variant):
        env = _cpu_env(**_CPU_VARIANTS[variant])
        probe = subprocess.run([sys.executable, "-c", "import numpy"], env=env,
                               capture_output=True, text=True)
        if probe.returncode != 0:
            pytest.skip(f"this host refuses {_CPU_VARIANTS[variant]} at import: "
                        f"{probe.stderr.strip()[-200:]}")
        got = _cpu_runs(tmp_path / variant, env)
        assert got["codes"] == default["codes"]
        if variant == "openblas-haswell":
            assert [f for f, data in got["files"].items() if data != default["files"][f]] == []
            return
        for f, data in got["files"].items():
            want = default["files"][f]
            if f.endswith(".json"):
                assert _json_agrees(json.loads(want), json.loads(data), 1e-12), f
                continue
            rows_want, rows_got = want.decode().splitlines(), data.decode().splitlines()
            assert len(rows_want) == len(rows_got), f
            for rw, rg in zip(rows_want, rows_got):
                cw, cg = rw.split(","), rg.split(",")
                assert len(cw) == len(cg) and all(map(_cell_agrees, cw, cg)), (f, rw, rg)

    def test_the_comparison_refuses_what_the_contract_does_not_allow(self):
        doc = {"violations": 0, "verdict": "pass", "slope": 0.5, "fit": [1.0, None]}
        assert _json_agrees(doc, dict(doc, slope=0.5 * (1 + 1e-13)), 1e-12)
        assert not _json_agrees(doc, dict(doc, slope=0.5 * (1 + 1e-11)), 1e-12)
        assert not _json_agrees(doc, dict(doc, violations=1), 1e-12)
        assert not _json_agrees(doc, dict(doc, verdict="fail"), 1e-12)
        assert not _json_agrees(doc, dict(doc, violations=0.0), 1e-12)
        assert not _json_agrees(doc, dict(doc, fit=[1.0, 0.0]), 1e-12)
        assert _cell_agrees("1.23456789012", "1.23456789013")
        assert not _cell_agrees("1.23456789012", "1.23456789014")
        assert _cell_agrees("nan", "nan")
        assert not _cell_agrees("12", "13")
        assert not _cell_agrees("12", "12.0000000001")


def _peak_rss_mb(argv) -> float:
    """Peak resident set of one fresh ``embedlab`` process, in MB."""
    proc = subprocess.Popen([sys.executable, "-m", "embedlab.cli", *argv],
                            stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    assert os.waitstatus_to_exitcode(status) == cli.EXIT_OK
    return usage.ru_maxrss / 1024  # KiB on Linux


def test_rff_run_memory_does_not_grow_with_the_block_count(tmp_path):
    # One group of feature tables is alive at a time, so 300 more blocks
    # cost no memory; with every table alive, 400 blocks peaked 10 MB
    # above 100.
    def peak(n_terms):
        return _peak_rss_mb(["moduli", "--preset", "strong_qge2", "--q", "4",
                             "--beta", "1.05", "--backend", "rff", "--n-features", "512",
                             "--n-terms", str(n_terms), "--pairs", "1024",
                             "--json-out", str(tmp_path / f"run{n_terms}.json")])

    assert peak(400) - peak(100) < 1.5


class TestEachCommandLoadsOnlyItsModules:
    """A CLI process imports only the package modules its subcommand runs."""

    def test_report_loads_no_numpy(self, tmp_path):
        (tmp_path / "results").mkdir()
        (tmp_path / "results" / "run.json").write_text(json.dumps(
            {"report_kind": "moduli_run", "domain": "l2", "target": "l2",
             "regime": "small_t", "rho_slope": 1.0, "violations": 0}))
        got = _fresh_cli([["report", "--results-dir", "results", "--out", "t.json"]],
                         tmp_path)
        assert got["codes"] == [cli.EXIT_OK]
        assert got["modules"] == ["embedlab.cli", "embedlab.report"]

    @pytest.mark.parametrize("argv, absent", [
        (["folner", "--group", "z2", "--n-max", "8", "--max-dist", "16", "--pairs", "60",
          "--json-out", "z2.json"],
         ("gaussian", "glue", "mazur", "finite_geometry", "metric_core")),
        (["folner", "--group", "heis", "--n-min", "2", "--n-max", "5", "--json-out", "heis.json"],
         ("gaussian", "glue", "mazur", "finite_geometry", "metric_core")),
        (["folner", "--group", "tree", "--n-max", "6", "--max-dist", "50", "--pairs", "40",
          "--json-out", "tree.json"],
         ("gaussian", "glue", "mazur", "finite_geometry", "metric_core")),
        (["moduli", "--preset", "warmup_l2", "--beta", "2", "--backend", "kernel",
          "--n-terms", "30", "--pairs", "300", "--bins", "12", "--json-out", "w.json"],
         ("amenable", "finite_geometry")),
        (["verify", "--suite", "mazur", "--samples", "300", "--grid", "1,2",
          "--out", "mazur.json"],
         ("gaussian", "glue", "moduli", "amenable", "finite_geometry", "metric_core")),
        (["verify", "--suite", "kernel", "--out", "kernel-suite.json"],
         ("glue", "moduli", "amenable", "finite_geometry")),
        (["verify", "--suite", "gluing", "--n-terms", "80", "--pairs", "150",
          "--out", "gluing-suite.json"], ("moduli", "amenable", "finite_geometry")),
        (["verify", "--suite", "folner", "--n-max", "6", "--pairs", "80",
          "--out", "folner-suite.json"],
         ("moduli", "gaussian", "glue", "mazur", "finite_geometry", "metric_core")),
        (["cube", "--m", "6", "--p", "1.5", "--out", "cube.json"],
         ("moduli", "glue", "gaussian", "amenable", "mazur")),
        (["verify", "--suite", "cube", "--out", "cube-suite.json"],
         ("moduli", "glue", "gaussian", "amenable", "mazur")),
        (["verify", "--suite", "gk", "--out", "gk-suite.json"],
         ("moduli", "glue", "gaussian", "amenable", "mazur")),
    ], ids=["folner", "folner-heis", "folner-tree", "moduli", "verify-mazur", "verify-kernel",
            "verify-gluing", "verify-folner", "cube", "verify-cube", "verify-gk"])
    def test_commands_leave_other_layers_unloaded(self, tmp_path, argv, absent):
        got = _fresh_cli([argv], tmp_path)
        assert got["codes"] == [cli.EXIT_OK]
        assert "numpy" in got["modules"]
        assert sorted({f"embedlab.{m}" for m in absent} & set(got["modules"])) == []


# A value for each flag a preset lists, valid for that preset.
_PRESET_FLAG_VALUES = {
    "warmup_l2": {"beta": 2.0},
    "strong_qge2": {"q": 4.0, "beta": 1.1},
    "strong_1leqle2": {"q": 1.5, "beta": 1.1},
    "strong_qle1": {"q": 0.5, "beta": 1.1},
    "coarse_l2": {"nu": 0.75},
}


@pytest.mark.parametrize("preset", sorted(cli.PRESET_PARAMS))
def test_each_preset_builds_from_its_listed_flags_alone(preset):
    # cli.PRESET_PARAMS lists what glue.preset_schedule needs: the listed
    # flags suffice, and each of them is needed.
    from embedlab.glue import preset_schedule

    values = _PRESET_FLAG_VALUES[preset]
    assert sorted(values) == sorted(cli.PRESET_PARAMS[preset])
    assert preset_schedule(preset, **values).name == preset
    for flag in values:
        with pytest.raises(ValueError):
            preset_schedule(preset, **{k: v for k, v in values.items() if k != flag})


# Imports the modules named in argv[1] (comma-separated, in order) in a
# fresh process and reports its OpenBLAS variable and its thread count.
_FRESH_IMPORT = """
import importlib, json, os, sys
for name in sys.argv[1].split(","):
    importlib.import_module(name)
print(json.dumps({"env": os.environ.get("OPENBLAS_NUM_THREADS"),
                  "threads": len(os.listdir("/proc/self/task"))}))
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="thread count read from /proc/self/task")
class TestOneBlasThreadPerProcess:
    """Imported before numpy, embedlab caps OpenBLAS at one thread unless
    the variable is set; imported after numpy, it leaves the variable be."""

    def _fresh(self, modules, **env):
        child = {k: v for k, v in os.environ.items()
                 if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        child.update(env)
        out = subprocess.run([sys.executable, "-c", _FRESH_IMPORT, modules],
                             capture_output=True, text=True, check=True, env=child)
        return json.loads(out.stdout.splitlines()[-1])

    def test_cli_import_leaves_one_thread(self):
        # embedlab.cli loads no numpy itself, so numpy comes second: the cap
        # set at package import must hold when a command loads it.
        assert self._fresh("embedlab.cli,numpy") == {"env": "1", "threads": 1}

    def test_preset_value_is_kept(self):
        assert self._fresh("embedlab.cli", OPENBLAS_NUM_THREADS="2")["env"] == "2"

    def test_numpy_loaded_first_leaves_the_variable_unset(self):
        assert self._fresh("numpy,embedlab")["env"] is None


class TestReportCommand:
    def test_round_trip(self, tmp_path, capsys):
        results = tmp_path / "results"
        results.mkdir()
        code = run(["moduli", "--preset", "warmup_l2", "--beta", "2",
                    "--backend", "kernel", "--n-terms", "60", "--pairs", "300",
                    "--bins", "12", "--t-min", "0.001", "--t-max", "0.1",
                    "--json-out", str(results / "warmup.json")])
        assert code == cli.EXIT_OK
        table_out = tmp_path / "table.json"
        code = run(["report", "--results-dir", str(results),
                    "--out", str(table_out)])
        assert code == cli.EXIT_OK  # one consistent row, none inconsistent
        text = capsys.readouterr().out
        assert "consistent" in text
        doc = json.loads(table_out.read_text())
        rows = {(r["domain"], r["target"], r["regime"]): r for r in doc["rows"]}
        assert rows[("l2", "l2", "small_t")]["verdict"] == "consistent"
        assert rows[("l2", "l4", "large_t")]["verdict"] == "not-run"

    def test_a_window_with_too_few_rows_gives_null_fits_and_a_not_run_row(self, tmp_path):
        # the window [0.05, 0.06] holds two of the 36 left edges (and right
        # edges) over [0.001, 0.1]: both fits are null, the run exits 0
        results = tmp_path / "results"
        results.mkdir()
        code = run(["moduli", "--preset", "warmup_l2", "--beta", "2", "--backend", "kernel",
                    "--pairs", "300", "--t-min", "0.001", "--t-max", "0.1",
                    "--fit-lo", "0.05", "--fit-hi", "0.06",
                    "--json-out", str(results / "warmup.json")])
        assert code == cli.EXIT_OK
        doc = json.loads((results / "warmup.json").read_text())
        assert [doc[k] for k in ("rho_slope", "omega_slope", "rho_fit", "omega_fit")] == [None] * 4
        table_out = tmp_path / "table.json"
        code = run(["report", "--results-dir", str(results), "--out", str(table_out)])
        assert code == cli.EXIT_OK
        rows = {(r["domain"], r["target"], r["regime"]): r
                for r in json.loads(table_out.read_text())["rows"]}
        assert rows[("l2", "l2", "small_t")]["verdict"] == "not-run"
        assert rows[("l2", "l2", "small_t")]["measured_slope"] is None

    def test_empty_results_dir_is_usage_error(self, tmp_path):
        assert run(["report", "--results-dir", str(tmp_path)]) == cli.EXIT_USAGE


class TestConfigFile:
    def test_config_sets_defaults_and_flags_win(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"pairs": 120, "bins": 8, "n-terms": 15}))
        out = tmp_path / "a.json"
        code = run(["--config", str(cfg), "moduli", "--preset", "warmup_l2",
                    "--beta", "2", "--backend", "kernel",
                    "--t-min", "0.1", "--t-max", "10",
                    "--json-out", str(out)])
        assert code == cli.EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["config"]["pairs"] == 120
        assert doc["config"]["bins"] == 8

        out2 = tmp_path / "b.json"
        code = run(["--config", str(cfg), "moduli", "--preset", "warmup_l2",
                    "--beta", "2", "--backend", "kernel", "--pairs", "90",
                    "--t-min", "0.1", "--t-max", "10",
                    "--json-out", str(out2)])
        assert code == cli.EXIT_OK
        assert json.loads(out2.read_text())["config"]["pairs"] == 90

    def test_missing_config_is_io_error(self, tmp_path):
        assert run(["--config", str(tmp_path / "nope.json"),
                    "moduli"]) == cli.EXIT_IO

    def test_malformed_config_is_usage_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2, 3]")
        assert run(["--config", str(bad), "moduli"]) == cli.EXIT_USAGE

    def test_unknown_key_is_a_usage_error(self, tmp_path, capsys):
        # --samples is a verify flag, not a cube one.
        (tmp_path / "cfg.json").write_text('{"samples": 5}')
        out = tmp_path / "c.json"
        err = refused(["--config", str(tmp_path / "cfg.json"), "cube", "--m", "3",
                       "--out", str(out)], capsys)
        assert "unrecognized arguments: --samples=5" in err
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [
        ("preset", "bogus"), ("backend", "bogus"), ("regime", "nonsense"),
    ])
    def test_bad_choice_is_a_usage_error(self, tmp_path, capsys, key, value):
        (tmp_path / "cfg.json").write_text(json.dumps({key: value}))
        out = tmp_path / "m.json"
        err = refused(["--config", str(tmp_path / "cfg.json"), "moduli", "--q", "4",
                       "--beta", "1.05", "--json-out", str(out)], capsys)
        assert f"argument --{key}: invalid choice: '{value}'" in err
        assert not out.exists()

    @pytest.mark.parametrize("config, flags", [
        # a JSON integer is echoed with the flag's type, 4.0
        ({"q": 4, "beta": 1.05, "n_features": 64},
         ["--q", "4", "--beta", "1.05", "--n-features", "64"]),
        ({"preset": "warmup_l2", "beta": 2, "backend": "kernel", "t-min": 0.001,
          "t-max": 0.1, "fit_lo": None, "regime": "small_t"},
         ["--preset", "warmup_l2", "--beta", "2", "--backend", "kernel",
          "--t-min", "0.001", "--t-max", "0.1", "--regime", "small_t"]),
    ], ids=["strong_qge2", "warmup_l2"])
    def test_moduli_config_writes_the_bytes_of_its_flags(self, tmp_path, config, flags):
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        small = ["--n-terms", "10", "--pairs", "60", "--bins", "6"]
        outs = []
        for prefix, argv in ((["--config", str(tmp_path / "cfg.json")], []), ([], flags)):
            tag = str(len(outs))
            code = run([*prefix, "moduli", *small, *argv, "--out", str(tmp_path / f"{tag}.csv"),
                        "--json-out", str(tmp_path / f"{tag}.json")])
            assert code == cli.EXIT_OK
            outs.append([(tmp_path / f"{tag}{ext}").read_bytes() for ext in (".csv", ".json")])
        assert outs[0] == outs[1]
        assert isinstance(json.loads(outs[0][1])["config"]["beta"], float)

    @pytest.mark.parametrize("config, flags", [
        ({"negative_control": True, "pairs": 50}, ["--negative-control", "--pairs", "50"]),
        ({"negative-control": False, "pairs": 50}, ["--pairs", "50"]),
    ], ids=["true", "false"])
    def test_switch_from_config_writes_the_bytes_of_the_flag(self, tmp_path, config, flags):
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        code_a = run(["--config", str(tmp_path / "cfg.json"), "verify", "--suite", "gluing",
                      "--out", str(a)])
        code_b = run(["verify", "--suite", "gluing", *flags, "--out", str(b)])
        assert code_a == code_b == (cli.EXIT_VIOLATIONS if "--negative-control" in flags
                                    else cli.EXIT_OK)
        assert a.read_bytes() == b.read_bytes()

    def test_required_flag_can_come_from_config(self, tmp_path):
        (tmp_path / "cfg.json").write_text('{"m": 3}')
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run(["--config", str(tmp_path / "cfg.json"), "cube", "--out", str(a)]) == 0
        assert run(["cube", "--m", "3", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
