"""Static claims table and deterministic comparison reports.

The claims table is reference data: exponent targets for each
(domain, target, regime) row with a literature-style citation key, or a
key naming the certified construction shipped in this package.  Run
artifacts never mutate it; ``report_tables`` only attaches verdicts.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field


@dataclass(frozen=True)
class ClaimRow:
    """One comparison target.

    ``claim_exponent`` is the asymptotic compression exponent claimed
    for the regime; ``check_floor`` is the minimum fitted slope a
    desk-scale run must reach to count as consistent (claims reached
    only asymptotically keep a floor well below the exponent).
    """

    domain: str
    target: str
    regime: str  # "large_t" | "small_t"
    claim_exponent: float
    check_floor: float
    citation: str
    notes: str = ""

    @property
    def key(self) -> tuple[str, str, str]:
        return (self.domain, self.target, self.regime)


# Exponent claims for the embeddings this package can actually run.
# The citation column names the construction a row's certificate comes
# from, so table readers can trace a verdict back to the right checker.
CLAIMS: tuple[ClaimRow, ...] = (
    ClaimRow("l2", "l4", "large_t", 0.5, 0.4, "snowflake-kernel-route",
             "snowflake route attains 2/q for q > 2; fitted slope tolerance 0.1"),
    ClaimRow("l2", "l4", "small_t", 0.5, 0.4, "gaussian-block-gluing",
             "uniform side of the strong gap, exponent 2/q"),
    ClaimRow("l2", "l1.5", "large_t", 1.0, 0.5, "gaussian-block-gluing",
             "exponent 1 approached through log-corrected inverses; "
             "desk-scale fits sit well below the limit"),
    ClaimRow("l2", "l2", "large_t", 1.0, 0.9, "gaussian-block-gluing",
             "warm-up schedule; near-isometric at small t"),
    ClaimRow("l2", "l2", "small_t", 1.0, 0.9, "gaussian-block-gluing", ""),
    ClaimRow("l2", "l2", "coarse", 0.5, 0.2, "gaussian-block-gluing",
             "coarse-only preset; envelope must keep rising, slope is "
             "range-dependent"),
    ClaimRow("z2", "l1", "large_t", 0.5, 0.2, "charfn-block-gluing",
             "certified witness radius grows like n^2 log^2 n for every "
             "rank, so the lower envelope tracks its inverse"),
    ClaimRow("tree", "l1", "large_t", 0.5, 0.2, "charfn-block-gluing",
             "ray-segment collection; same radius growth as the lattice"),
    ClaimRow("heis", "l1", "large_t", 1.0, 0.2, "charfn-block-gluing",
             "gauge-ball witness radius is nearly linear; constant in "
             "the defect bound is absolute, not 1"),
)


@dataclass
class ComparisonTable:
    rows: list[dict] = field(default_factory=list)

    def to_json(self) -> str:
        return canonical_json({"report_kind": "comparison_table", "rows": self.rows})

    def to_text(self) -> str:
        header = ("domain", "target", "regime", "claim", "measured", "verdict", "citation")
        widths = [8, 8, 8, 7, 9, 13, 26]
        lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
        lines.append("  ".join("-" * w for w in widths))
        for r in self.rows:
            measured = "-" if r["measured_slope"] is None else f"{r['measured_slope']:.4f}"
            cells = (r["domain"], r["target"], r["regime"],
                     f"{r['claim_exponent']:g}", measured, r["verdict"], r["citation"])
            lines.append("  ".join(str(c).ljust(w) for c, w in zip(cells, widths)))
        return "\n".join(lines) + "\n"


def _load_runs(results_dir: str) -> list[dict]:
    runs = []
    for name in sorted(os.listdir(results_dir)):
        if not name.endswith(".json"):
            continue
        path = os.path.join(results_dir, name)
        try:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError):
            continue
        if isinstance(doc, dict) and doc.get("report_kind") == "moduli_run":
            runs.append(doc)
    return runs


def _verdict(row: ClaimRow, run: dict) -> tuple[str, float | None]:
    slope = run.get("rho_slope")
    if slope is None or not math.isfinite(slope):
        return "not-run", None
    clean = run.get("violations", 0) == 0
    return ("consistent" if (slope >= row.check_floor and clean) else "inconsistent",
            float(slope))


def report_tables(results_dir: str) -> ComparisonTable:
    """Attach verdicts from completed runs to the static claims table.

    A run matches a row on (domain, target, regime).  Consistency needs
    the fitted compression slope at or above the row's floor and zero
    certified violations in the run; rows without a matching run stay
    "not-run".
    """
    runs = _load_runs(results_dir)
    if not runs:
        raise ValueError(f"no completed runs found under {results_dir!r}")
    by_key: dict[tuple, dict] = {}
    for run in runs:
        key = (run.get("domain"), run.get("target"), run.get("regime"))
        by_key[key] = run  # later files (sorted order) win; deterministic
    table = ComparisonTable()
    for row in CLAIMS:
        run = by_key.get(row.key)
        verdict, slope = _verdict(row, run) if run else ("not-run", None)
        table.rows.append({
            "domain": row.domain, "target": row.target, "regime": row.regime,
            "claim_exponent": row.claim_exponent, "check_floor": row.check_floor,
            "citation": row.citation, "notes": row.notes,
            "measured_slope": slope, "verdict": verdict,
            "source": None if run is None else run.get("config", {}).get("preset"),
        })
    return table


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None  # strict JSON has no NaN/Inf token
    return value


def canonical_json(doc: dict) -> str:
    """Stable serialization used by every JSON artifact."""
    return json.dumps(_jsonable(doc), sort_keys=True, indent=2,
                      allow_nan=False) + "\n"
