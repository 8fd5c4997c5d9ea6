"""End-to-end runs of the command-line entry point (in-process)."""

import json
import math
import subprocess
import sys

import pytest

from embedlab import amenable, cli, mazur


def run(argv):
    return cli.main(argv)


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

    def test_json_out_into_missing_dir_is_io_error(self, tmp_path):
        code = run(["moduli", "--preset", "warmup_l2", "--beta", "2",
                    "--backend", "kernel", "--n-terms", "10", "--pairs", "60",
                    "--bins", "6", "--json-out", str(tmp_path / "no" / "dir.json")])
        assert code == cli.EXIT_IO


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
            rep = mazur.mazur_bounds_check(cell["p"], cell["q"], samples=400, seed=4, dim=6)
            assert cell["worst_margin"] == rep["worst_margin"]

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


class TestSmallCommands:
    def test_cube(self, tmp_path):
        out = tmp_path / "cube.json"
        code = run(["cube", "--m", "4", "--p", "1", "--out", str(out)])
        assert code == cli.EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["bound"] == pytest.approx(2.0)
        assert doc["measured_distortion"] == pytest.approx(2.0)
        assert doc["certificate_ratio"] == 1.0

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
        assert lines[0] == cli._FOLNER_HEADER
        assert len(lines) == 1 + 7  # schedule rows n = 2..8
        doc = json.loads(out_json.read_text())
        assert doc["report_kind"] == "moduli_run"
        assert doc["run_kind"] == "folner"
        assert doc["domain"] == "z2"
        assert doc["defect_violations"] == 0
        assert doc["char_check"]["violations"] == 0
        assert doc["glued_bounds"]["upper_violations"] == 0

    def test_heisenberg_run_is_not_a_moduli_run(self, tmp_path):
        out_json = tmp_path / "heis.json"
        code = run(["folner", "--group", "heis", "--n-min", "2", "--n-max", "5",
                    "--json-out", str(out_json)])
        assert code == cli.EXIT_OK
        doc = json.loads(out_json.read_text())
        assert doc["report_kind"] == "folner_run"
        assert "domain" not in doc
        assert 3.5 <= doc["growth_fit"] <= 4.5


class TestGroupClosedForms:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_axis_vector_is_the_worst_box_shift(self, k):
        model = amenable.ZkModel(k)
        system = amenable.ZkFolnerSystem(model, n_min=2, n_max=12)
        got = cli._zk_worst_defects(system)
        for n in range(2, 13):
            M = system.half_side(n)
            want = max(amenable.box_defect(M, g) for g in model.ball(n) if any(g))
            assert got[n] == want


def test_cli_import_leaves_scipy_optimize_unloaded():
    code = "import sys, embedlab.cli; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "False"


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
