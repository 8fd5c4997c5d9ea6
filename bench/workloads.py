"""The benchmark's workloads: ordered embedlab invocations built from a seed.

Each invocation is the argument list of one ``embedlab`` run.  Paths are
relative to the pass directory the invocation runs in; JSON artifacts go
to ``results/`` so that the closing ``report`` reads exactly the
workload's runs.  Every invocation passes ``--threads 1`` and the seed.
"""

from __future__ import annotations


def _report(s: str) -> tuple[str, ...]:
    return ("report", "--results-dir", "results", "--out", "tables.json",
            "--seed", s, "--threads", "1")


def moduli_rff(s: str) -> list[tuple[str, ...]]:
    """The c04 rff runs scaled down: 8192 pairs over 100 and 60 blocks."""
    common = ("--backend", "rff", "--n-features", "512", "--base-seed", s,
              "--pairs", "8192", "--bins", "36", "--t-min", "0.1", "--t-max", "100",
              "--seed", s, "--threads", "1")
    return [
        ("moduli", "--preset", "strong_qge2", "--q", "4", "--beta", "1.05",
         "--n-terms", "100", "--fit-lo", "1", "--fit-hi", "8", *common,
         "--out", "q4.csv", "--json-out", "results/q4.json"),
        ("moduli", "--preset", "strong_1leqle2", "--q", "1.5", "--beta", "1.1",
         "--n-terms", "60", "--fit-lo", "2", "--fit-hi", "20", *common,
         "--out", "q1.5.csv", "--json-out", "results/q1.5.json"),
        _report(s),
    ]


def certify(s: str) -> list[tuple[str, ...]]:
    """Every verify suite, two kernel-mode moduli runs, then the report."""
    suites = [("verify", "--suite", "mazur", "--samples", "100000")]
    suites += [("verify", "--suite", name) for name in ("kernel", "gluing", "folner", "cube", "gk")]
    out = [(*v, "--seed", s, "--threads", "1", "--out", f"results/verify_{v[2]}.json")
           for v in suites]
    common = ("--backend", "kernel", "--pairs", "4000", "--bins", "36",
              "--seed", s, "--threads", "1")
    out.append(("moduli", "--preset", "warmup_l2", "--beta", "2", "--n-terms", "200",
                "--t-min", "0.001", "--t-max", "0.1", "--fit-lo", "0.001", "--fit-hi", "0.1",
                *common, "--out", "warmup.csv", "--json-out", "results/warmup.json"))
    out.append(("moduli", "--preset", "coarse_l2", "--nu", "0.75", "--n-terms", "300",
                "--t-min", "1", "--t-max", "1000", *common,
                "--out", "coarse.csv", "--json-out", "results/coarse.json"))
    out.append(_report(s))
    return out


def groups(s: str) -> list[tuple[str, ...]]:
    """folner over Z^2, Z^3, the binary tree and the Heisenberg group."""
    out = []
    for group, pairs in (("z2", 500), ("z3", 500), ("tree", 100), ("heis", 500)):
        out.append(("folner", "--group", group, "--pairs", str(pairs), "--n-min", "2",
                    "--n-max", "20", "--max-dist", "1000", "--seed", s, "--threads", "1",
                    "--out", f"{group}.csv", "--json-out", f"results/{group}.json"))
    out.append(_report(s))
    return out


WORKLOADS = {"moduli-rff": moduli_rff, "certify": certify, "groups": groups}


def invocations(workload: str, seed: int) -> list[tuple[str, ...]]:
    return WORKLOADS[workload](str(seed))
