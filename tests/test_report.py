"""Claims table, run matching, and canonical JSON serialization."""

import json
import math

import pytest

from embedlab.report import (
    CLAIMS,
    canonical_json,
    report_tables,
)

VERDICTS = ("consistent", "inconsistent", "not-run")


def _write_run(directory, name, *, domain="l2", target="l4", regime="large_t",
               rho_slope=0.45, violations=0, preset="strong_qge2",
               kind="moduli_run"):
    doc = {
        "report_kind": kind,
        "domain": domain,
        "target": target,
        "regime": regime,
        "rho_slope": rho_slope,
        "violations": violations,
        "config": {"preset": preset},
    }
    (directory / name).write_text(json.dumps(doc))


class TestClaims:
    def test_table_shape(self):
        assert len(CLAIMS) == 9
        keys = [row.key for row in CLAIMS]
        assert len(set(keys)) == len(keys)
        for row in CLAIMS:
            assert 0 < row.check_floor <= row.claim_exponent <= 1.0
            assert row.regime in ("large_t", "small_t", "coarse")
            assert row.citation

    def test_every_domain_present(self):
        domains = {row.domain for row in CLAIMS}
        assert domains == {"l2", "z2", "tree", "heis"}


class TestReportTables:
    def test_verdicts(self, tmp_path):
        _write_run(tmp_path, "a.json", rho_slope=0.45, violations=0)
        _write_run(tmp_path, "b.json", domain="l2", target="l1.5",
                   rho_slope=0.3, violations=0, preset="strong_1leqle2")
        _write_run(tmp_path, "c.json", domain="z2", target="l1",
                   rho_slope=0.4, violations=3, preset=None)
        # a clean group run at p = 5, whose slope is the p = 1 slope over 5:
        # no row claims l5, so it must not be read against the l1 row
        _write_run(tmp_path, "d.json", domain="tree", target="l5",
                   rho_slope=0.116, violations=0, preset=None)
        table = report_tables(str(tmp_path))
        by_key = {(r["domain"], r["target"], r["regime"]): r for r in table.rows}
        assert by_key[("l2", "l4", "large_t")]["verdict"] == "consistent"
        assert by_key[("l2", "l4", "large_t")]["source"] == "strong_qge2"
        assert by_key[("l2", "l1.5", "large_t")]["verdict"] == "inconsistent"
        assert by_key[("z2", "l1", "large_t")]["verdict"] == "inconsistent"
        assert by_key[("tree", "l1", "large_t")]["verdict"] == "not-run"
        assert by_key[("tree", "l1", "large_t")]["measured_slope"] is None
        assert not any(r["target"] == "l5" for r in table.rows)
        for row in table.rows:
            assert row["verdict"] in VERDICTS

    def test_later_file_wins(self, tmp_path):
        _write_run(tmp_path, "0_old.json", rho_slope=0.1)
        _write_run(tmp_path, "1_new.json", rho_slope=0.45)
        table = report_tables(str(tmp_path))
        row = next(r for r in table.rows
                   if (r["domain"], r["target"], r["regime"]) == ("l2", "l4", "large_t"))
        assert row["verdict"] == "consistent"
        assert row["measured_slope"] == 0.45

    def test_foreign_documents_skipped(self, tmp_path):
        _write_run(tmp_path, "table.json", kind="comparison_table")
        (tmp_path / "junk.json").write_text("{not json")
        (tmp_path / "notes.txt").write_text("ignored")
        with pytest.raises(ValueError):
            report_tables(str(tmp_path))

    def test_missing_directory_is_io_error(self, tmp_path):
        with pytest.raises(OSError):
            report_tables(str(tmp_path / "absent"))

    def test_text_render(self, tmp_path):
        _write_run(tmp_path, "a.json")
        table = report_tables(str(tmp_path))
        text = table.to_text()
        assert text.splitlines()[0].startswith("domain")
        assert len(text.splitlines()) == 2 + len(CLAIMS)
        doc = json.loads(table.to_json())
        assert doc["report_kind"] == "comparison_table"


class TestCanonicalJson:
    def test_stable_and_sorted(self):
        doc = {"b": 1, "a": {"z": 2, "y": 3}}
        out = canonical_json(doc)
        assert out == canonical_json(doc)
        assert out.index('"a"') < out.index('"b"')
        assert out.endswith("\n")

    def test_non_finite_values_become_null(self):
        doc = {"x": math.nan, "nested": [math.inf, {"y": -math.inf}], "ok": 1.5}
        parsed = json.loads(canonical_json(doc))
        assert parsed["x"] is None
        assert parsed["nested"][0] is None
        assert parsed["nested"][1]["y"] is None
        assert parsed["ok"] == 1.5
