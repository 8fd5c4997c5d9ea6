"""embedlab benchmark: whole CLI invocations, timed end to end or traced.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload's embedlab invocations one at a time, each in a fresh
``python3 -m embedlab.cli`` process started from this script, with the
package taken from ``src/`` of the checkout.  Every artifact is checked
(see ``checks.py``); an invocation fails on an unexpected exit code or a
failed check.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics, medians over the run:
  run_s        wall time of one pass over the workload's invocations
  setup_s      what the invocations pay before their first pair, summed
               (``setup_probe.py`` in fresh processes)
  cpu_s        user plus system CPU time of one pass
  peak_rss_mb  largest peak resident set of any invocation in a pass
Passes repeat until ``--seconds`` of pass time is spent (at least one);
set-up is measured SETUP_ROUNDS times, interleaved with the passes.

``--trace 1`` runs one untraced and one traced pass (``traced_cli.py``)
and reports per-layer self times, named counts, the untraced remainder
and the tracing overhead.  Artifacts of the two passes must be
byte-identical.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import workloads
from tracing import LayerTotals

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"

SETUP_ROUNDS = 3
TIMEOUT_S = 100.0  # per process; the longest invocation takes about 10 s


@dataclass
class Outcome:
    args: tuple[str, ...]
    code: int
    wall: float
    cpu: float
    rss_mb: float
    problems: list[str]


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv: list[str], cwd: Path, log: Path) -> tuple[int, float, float, float]:
    """Run one process to completion: (exit code, wall s, cpu s, peak RSS MB)."""
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=fh,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def run_pass(name: str, seed: int, pass_dir: Path, traced: bool = False) -> list[Outcome]:
    """Run the workload's invocations once in ``pass_dir``, then check them."""
    shutil.rmtree(pass_dir, ignore_errors=True)
    (pass_dir / "results").mkdir(parents=True)
    out = []
    for i, args in enumerate(workloads.invocations(name, seed)):
        if traced:
            argv = [sys.executable, str(BENCH / "traced_cli.py"), f"spans{i}.json", "--", *args]
        else:
            argv = [sys.executable, "-m", "embedlab.cli", *args]
        code, wall, cpu, rss = spawn(argv, pass_dir, pass_dir / f"log{i}.txt")
        out.append(Outcome(args, code, wall, cpu, rss, []))
    # Checks import numpy and the package; running them in their own
    # process keeps this one small, so no child inherits a large
    # resident set into its peak-RSS figure.
    proc = subprocess.run([sys.executable, str(BENCH / "checks.py"), "--workload", name,
                           "--seed", str(seed), "--dir", str(pass_dir),
                           "--codes", ",".join(str(o.code) for o in out)],
                          env=child_env(), capture_output=True, text=True, timeout=TIMEOUT_S)
    if proc.returncode == 0:
        for o, problems in zip(out, json.loads(proc.stdout.strip().splitlines()[-1])):
            o.problems += problems
    else:
        for o in out:
            o.problems.append(f"checks exited {proc.returncode}: {proc.stderr[-2000:]}")
    for o in out:
        for p in o.problems:
            print(f"FAILED {p}", file=sys.stderr)
    return out


def setup_sweep(invocations, cwd: Path) -> float:
    """Summed set-up seconds of the invocations, each in a fresh process."""
    total = 0.0
    for args in invocations:
        proc = subprocess.run([sys.executable, str(BENCH / "setup_probe.py"), *args],
                              cwd=cwd, env=child_env(), capture_output=True, text=True,
                              timeout=TIMEOUT_S, check=True)
        total += float(proc.stdout.strip().splitlines()[-1])
    return total


def differing_artifacts(args: tuple[str, ...], a: Path, b: Path) -> list[str]:
    """Artifacts of one invocation whose bytes differ between two pass directories."""
    rels = [args[i + 1] for i, flag in enumerate(args) if flag in ("--out", "--json-out")]
    return [f"{rel} differs between the traced and untraced pass"
            for rel in rels if (a / rel).read_bytes() != (b / rel).read_bytes()]


def measured_run(name: str, seed: int, seconds: float, work: Path) -> dict:
    invocations = workloads.invocations(name, seed)
    passes: list[list[Outcome]] = []
    setups: list[float] = []
    spent = 0.0
    while spent < seconds or len(setups) < SETUP_ROUNDS:
        if spent < seconds:
            outcomes = run_pass(name, seed, work / f"pass{len(passes)}")
            passes.append(outcomes)
            spent += sum(o.wall for o in outcomes)
        if len(setups) < SETUP_ROUNDS:
            setups.append(setup_sweep(invocations, work))
    flat = [o for p in passes for o in p]
    failed = sum(1 for o in flat if o.problems)
    metrics = {
        "run_s": (statistics.median(sum(o.wall for o in p) for p in passes), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "cpu_s": (statistics.median(sum(o.cpu for o in p) for p in passes), "s"),
        "peak_rss_mb": (statistics.median(max(o.rss_mb for o in p) for p in passes), "MB"),
    }
    return result(failed == 0, len(flat), failed, metrics)


def traced_run(name: str, seed: int, work: Path) -> dict:
    plain = run_pass(name, seed, work / "untraced")
    traced = run_pass(name, seed, work / "traced", traced=True)
    totals = LayerTotals()
    for i, (a, b) in enumerate(zip(plain, traced)):
        if a.code == 0 and b.code == 0:
            b.problems += differing_artifacts(b.args, work / "untraced", work / "traced")
            totals.add(json.loads((work / "traced" / f"spans{i}.json").read_text()))
    flat = plain + traced
    failed = sum(1 for o in flat if o.problems)
    traced_wall = sum(o.wall for o in traced)
    metrics = totals.metrics(traced_wall, sum(o.wall for o in plain))
    # Spans cannot cover more than the processes ran.
    consistent = metrics["trace.untraced_remainder_s"][0] >= 0.0
    return result(failed == 0 and consistent, len(flat), failed, metrics)


def result(correct: bool, attempted: int, failed: int, metrics: dict) -> dict:
    return {"correct": bool(correct), "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "embedlab" / "cli.py").is_file():
        print(f"bench: no embedlab sources under {SRC}", file=sys.stderr)
        return 2
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    # Warm-up: one untimed import fills the file cache (and writes bytecode
    # where the environment allows it) before anything is measured.
    setup_sweep(workloads.invocations(args.workload, args.seed)[-1:], work)
    if args.trace:
        doc = traced_run(args.workload, args.seed, work)
    else:
        doc = measured_run(args.workload, args.seed, args.seconds, work)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
