"""Negative controls for the benchmark's output checks, and a test of the
self-time arithmetic.

    python3 bench/selfcheck.py [--seed N]

Runs each workload's invocations once, untimed, and requires every check
to pass on the real artifacts.  Then, for each check, it perturbs one
artifact (or one distance) in a copy of the pass directory and requires
the check to report a problem.  Exits 0 when every control fires.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import sys
from pathlib import Path

import numpy as np

import checks
import run
import tracing
import workloads

FAILURES: list[str] = []


def expect(label: str, problems: list[str], should_fail: bool = True, needle: str = "") -> None:
    """Require problems (or none); with a needle, one problem must mention it."""
    ok = bool(problems) == should_fail and (not needle or any(needle in p for p in problems))
    print(f"{'ok  ' if ok else 'FAIL'} {label}" + (f": {problems[0][:100]}" if problems else ""))
    if not ok:
        FAILURES.append(label)


def edit_json(path: Path, fn) -> None:
    doc = json.loads(path.read_text())
    fn(doc)
    path.write_text(json.dumps(doc))


def edit_csv(path: Path, row: int, column: str, fn) -> None:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    cells = lines[row + 1].split(",")
    k = header.index(column)
    cells[k] = repr(float(fn(float(cells[k]))))
    lines[row + 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def control(label: str, needle: str, pass_dir: Path, args: tuple[str, ...], seed: int,
            mutate) -> None:
    """Copy the pass, apply ``mutate(copy)``, and require the check to fail
    with a problem that mentions ``needle``."""
    copy = pass_dir.with_name(pass_dir.name + "-control")
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(pass_dir, copy)
    mutate(copy)
    expect(label, checks.check_invocation(args, str(copy), seed), needle=needle)
    shutil.rmtree(copy)


def populated_row(pass_dir: Path, csv_name: str) -> int:
    rows = np.flatnonzero(checks.read_csv(str(pass_dir / csv_name))["count"] > 0)
    return int(rows[len(rows) // 2])


def real_pass(name: str, seed: int) -> tuple[Path, list[tuple[str, ...]]]:
    pass_dir = run.WORK / "selfcheck" / name
    for o in run.run_pass(name, seed, pass_dir):
        expect(f"{name}: {' '.join(o.args[:3])} passes its checks", o.problems, False)
    return pass_dir, workloads.invocations(name, seed)


def moduli_rff_controls(seed: int) -> None:
    d, inv = real_pass("moduli-rff", seed)
    q4, report = inv[0], inv[2]
    control("violations counted", "violations =", d, q4, seed,
            lambda c: edit_json(c / "results/q4.json", lambda j: j.update(violations=1)))
    cap = 2.0 * 100 ** 0.25
    control("omega_hat <= 2 blocks^(1/q)", "2 blocks^(1/q)", d, q4, seed,
            lambda c: edit_csv(c / "q4.csv", 35, "omega_hat", lambda v: cap * 1.001))
    row = populated_row(d, "q4.csv")
    control("bin counts match the re-drawn separations", "bin counts", d, q4, seed,
            lambda c: (edit_csv(c / "q4.csv", row, "count", lambda v: v + 1),
                       edit_csv(c / "q4.csv", row + 1, "count", lambda v: v - 1)))
    control("envelopes nondecreasing", "decreases", d, q4, seed,
            lambda c: edit_csv(c / "q4.csv", row, "rho_hat", lambda v: v * 10))
    control("report verdicts consistent", "is inconsistent", d, report, seed,
            lambda c: edit_json(c / "tables.json", lambda j: j["rows"][0].update(
                verdict="inconsistent")))
    # fast_rff_engine against the float64 reference, one distance perturbed
    program, ref = checks.rff_engine_values(q4, seed)
    expect("rff engine agrees with the float64 reference", checks.compare_rff(program, ref), False)
    bumped = program.copy()
    bumped[7] *= 1 + 5 * checks.RFF_RTOL
    expect("rff engine disagreement detected", checks.compare_rff(bumped, ref))
    k = q4.index("--base-seed") + 1
    _, other = checks.rff_engine_values(q4[:k] + (str(seed + 1),) + q4[k + 1:], seed)
    expect("rff tables from another seed detected", checks.compare_rff(program, other))


def certify_controls(seed: int) -> None:
    d, inv = real_pass("certify", seed)
    by = {a[2]: a for a in inv if a[0] == "verify"}
    warm, coarse, report = inv[6], inv[7], inv[8]
    control("mazur deviations <= 1e-12", "deviation", d, by["mazur"], seed,
            lambda c: edit_json(c / "results/verify_mazur.json",
                                lambda j: j["cells"][3].update(involution_deviation=2e-12)))
    control("cube --p 1 distortion = sqrt(m)", "is not sqrt(m)", d, by["cube"], seed,
            lambda c: edit_json(c / "results/verify_cube.json",
                                lambda j: j["rows"][2].update(measured_distortion=2.000001)))
    control("gk max ratio = 2", "!= 2", d, by["gk"], seed,
            lambda c: edit_json(c / "results/verify_gk.json",
                                lambda j: j["rows"][0].update(max_ratio=2.0000001)))
    control("gk min image = 2", "!= 2", d, by["gk"], seed,
            lambda c: edit_json(c / "results/verify_gk.json",
                                lambda j: j["rows"][-1].update(min_nonzero_image=1.0)))
    control("gluing has no indeterminate pairs", "indeterminate", d, by["gluing"], seed,
            lambda c: edit_json(c / "results/verify_gluing.json",
                                lambda j: j.update(indeterminate=1)))
    for suite in ("kernel", "folner"):
        control(f"verify {suite} violations counted", "violations =", d, by[suite], seed,
                lambda c, s=suite: edit_json(c / f"results/verify_{s}.json",
                                             lambda j: j.update(violations=2)))
    # move one envelope value just past the exact q = 2 distance at its edge
    row = populated_row(d, "warmup.csv")
    f = checks.l2_edge_distances(warm)
    control("warm-up rho_hat >= f(edge_j)", "f(edge_j)", d, warm, seed,
            lambda c: edit_csv(c / "warmup.csv", row, "rho_hat",
                               lambda v: f[row] * (1 - 1e-6)))
    row = populated_row(d, "coarse.csv")
    f = checks.l2_edge_distances(coarse)
    control("coarse omega_hat <= f(edge_j+1)", "f(edge_j)", d, coarse, seed,
            lambda c: edit_csv(c / "coarse.csv", row, "omega_hat",
                               lambda v: f[row + 1] * (1 + 1e-6)))
    control("certified_lower respected", "below certified_lower", d, coarse, seed,
            lambda c: edit_csv(c / "coarse.csv", row, "certified_lower", lambda v: 1e6))
    control("certify report verdicts consistent", "is inconsistent", d, report, seed,
            lambda c: edit_json(c / "tables.json", lambda j: [
                r.update(verdict="inconsistent") for r in j["rows"] if r["regime"] == "coarse"]))


def groups_controls(seed: int) -> None:
    d, inv = real_pass("groups", seed)
    z2, z3, tree, heis, report = inv
    control("z-k defect column = 2n/(2M_n+1)", "2n/(2M_n+1)", d, z2, seed,
            lambda c: edit_csv(c / "z2.csv", 3, "measured_defect_max", lambda v: v * (1 + 1e-6)))
    control("envelope within certified_upper", "above certified_upper", d, z3, seed,
            lambda c: edit_csv(c / "z3.csv", 18, "certified_upper", lambda v: 0.5))
    control("heisenberg growth exponent near 4", "growth exponent", d, heis, seed,
            lambda c: edit_json(c / "results/heis.json", lambda j: j.update(growth_fit=3.0)))
    control("folner violations counted", "violations =", d, tree, seed,
            lambda c: edit_json(c / "results/tree.json", lambda j: j.update(violations=1)))
    control("groups report verdicts consistent", "is inconsistent", d, report, seed,
            lambda c: edit_json(c / "tables.json", lambda j: [
                r.update(verdict="inconsistent") for r in j["rows"] if r["domain"] == "tree"]))
    # tree block distances: perturbed enumeration, and a perturbed envelope
    from embedlab.amenable import TreeACollection, TreeModel, sample_tree_pairs
    tmodel = TreeModel()
    pairs = sample_tree_pairs(tmodel, 8, 1000, seed)
    system = TreeACollection(tmodel, n_min=2, n_max=20)
    env = checks.read_csv(str(d / "tree.csv"))
    expect("tree distances match enumeration",
           checks.tree_distance_problems(pairs, system, env, 2, 20, "tree"), False)
    expect("tree enumeration mismatch detected", checks.tree_distance_problems(
        pairs, system, env, 2, 20, "tree",
        brute=lambda x, y, s: checks.tree_block_distance(x, y, s) + 1.0 / s))
    lowered = {k: v.copy() for k, v in env.items()}
    lowered["omega_hat"] *= 0.5
    expect("tree pair above omega_hat detected",
           checks.tree_distance_problems(pairs, system, lowered, 2, 20, "tree"))


def byte_identity_control(seed: int) -> None:
    d = run.WORK / "selfcheck" / "groups"  # left by groups_controls
    inv = workloads.invocations("groups", seed)
    copy = d.with_name("groups-copy")
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(d, copy)
    expect("identical artifacts compare equal", run.differing_artifacts(inv[0], d, copy), False)
    path = copy / "z2.csv"
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n", 1))
    expect("one changed byte detected", run.differing_artifacts(inv[0], d, copy))
    shutil.rmtree(copy)


def self_time_arithmetic() -> None:
    spans = [
        ["cli.cmd_x", 0.0, 10.0, -1],
        ["glue.preset_schedule", 1.0, 4.0, 0],
        ["glue.PowerLogSeq.value", 2.0, 3.0, 1],
        ["mazur.mazur_constants", 3.0, 3.5, 1],
        ["gaussian.psi_distance_exact", 5.0, 6.0, 0],
        ["glue.PowerLogSeq.value", 7.0, 7.25, 0],
    ]
    got = tracing.self_times_per_span(spans)
    want = [10 - 3 - 1 - 0.25, 3 - 1 - 0.5, 1.0, 0.5, 1.0, 0.25]
    expect("self time = duration minus children",
           [f"{s[0]}: {g} != {w}" for s, g, w in zip(spans, got, want) if not math.isclose(g, w)],
           False)
    named = tracing.named_times(spans)
    # value() under preset_schedule is build time; the one under cmd_x is not
    expect("named time follows the nearest same-layer root",
           [] if math.isclose(named["glue.build_s"], 1.5 + 1.0) else [str(named["glue.build_s"])],
           False)
    overlap = [["a.p", 0.0, 10.0, -1], ["b.c", 1.0, 5.0, 0], ["b.d", 4.0, 6.0, 0]]
    expect("overlapping children counted once",
           [] if math.isclose(tracing.self_times_per_span(overlap)[0], 5.0) else ["overlap"],
           False)
    audit = [["amenable.char_embedding_bound_check", 0.0, 10.0, -1],
             ["amenable.ZkFolnerSystem.block_distance_pth", 1.0, 2.0, 0],
             ["amenable.ZkFolnerSystem.set_at", 6.0, 7.0, 0],
             ["amenable.ZkFolnerSystem.set_at", 8.0, 8.5, 0]]
    named = tracing.named_times(tracing.attribute_support_audit(audit))
    expect("support audit runs from the first set_at to the check's end",
           [] if (math.isclose(named["amenable.support_audit_s"], 4.0)
                  and math.isclose(named["amenable.char_check_s"], 5.0)) else [str(named)], False)
    totals = tracing.LayerTotals()
    totals.add({"spans": [["cli.import", 0.0, 0.5, -1]] + [
        [n, s + 1, e + 1, p + 1 if p >= 0 else -1] for n, s, e, p in spans], "counts": {}})
    m = totals.metrics(12.0, 11.0)
    parts = m["cli.import_s"][0] + sum(m[f"{l}.self_s"][0] for l in tracing.LAYERS)
    expect("layer self times plus remainder add up to the traced wall time",
           [] if math.isclose(parts + m["trace.untraced_remainder_s"][0], 12.0)
           and math.isclose(m["trace.untraced_remainder_s"][0], 1.5) else [str(parts)], False)


def main() -> int:
    ap = argparse.ArgumentParser(description="negative controls for the bench checks")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    if not (run.SRC / "embedlab" / "cli.py").is_file():
        print(f"selfcheck: no embedlab sources under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    self_time_arithmetic()
    moduli_rff_controls(args.seed)
    certify_controls(args.seed)
    groups_controls(args.seed)
    byte_identity_control(args.seed)
    shutil.rmtree(run.WORK / "selfcheck", ignore_errors=True)
    print(f"{len(FAILURES)} control(s) failed" if FAILURES else "all controls fired")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
