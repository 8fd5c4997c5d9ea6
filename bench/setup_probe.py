"""Time what one embedlab invocation pays before its first pair.

    python3 bench/setup_probe.py <embedlab arguments>

Imports ``embedlab.cli``, parses the arguments with the CLI's own parser
and calls the public constructors that invocation needs: schedules with
their Mazur transport constants, block families, glued embeddings, the
moduli engine (rff engines build their feature tables), pair samplers,
group models and their set systems.  Prints the elapsed seconds, from
before the import to after the last constructor.
"""

import time

_START = time.perf_counter()

import sys  # noqa: E402


def build(args) -> None:
    from embedlab import amenable, finite_geometry, glue, mazur, moduli

    if args.subcommand == "moduli":
        sched = glue.preset_schedule(args.preset, q=args.q, beta=args.beta, nu=args.nu)
        fam = glue.GaussianBlockFamily(sched, backend=args.backend,
                                       base_seed=args.base_seed,
                                       n_features=args.n_features,
                                       ambient_dim=args.dim)
        e = glue.glue(fam, n_terms=args.n_terms)
        factory = {"kernel": moduli.exact_kernel_engine, "rff": moduli.fast_rff_engine,
                   "exp": moduli.coordinate_engine}[args.backend]
        factory(e)
        moduli.glued_certifier(e)
        moduli.PairSampler(args.t_min, args.t_max, dim=args.dim)
    elif args.subcommand == "verify" and args.suite == "mazur":
        grid = [float(v) for v in args.grid.split(",")]
        for p in grid:
            for q in grid:
                if p != q:
                    mazur.mazur_constants(p, q)
    elif args.subcommand == "verify" and args.suite == "kernel":
        from embedlab.gaussian import RandomFeatures, TruncatedExp
        TruncatedExp(args.r, args.degree, min(args.dim, 3))
        RandomFeatures(args.r, args.n_features, (args.seed, 7))
    elif args.subcommand == "verify" and args.suite == "gluing":
        sched = glue.preset_schedule("warmup_l2", beta=args.beta)
        glue.glue(glue.GaussianBlockFamily(sched, backend="kernel"), n_terms=args.n_terms)
    elif args.subcommand == "verify" and args.suite == "folner":
        amenable.ZkFolnerSystem(amenable.ZkModel(2), n_min=2, n_max=args.n_max)
    elif args.subcommand == "verify" and args.suite == "cube":
        for m in range(2, args.m_max + 1):
            finite_geometry.HammingCube(m, args.p)
    elif args.subcommand == "verify" and args.suite == "gk":
        for k in range(1, args.k_max + 1):
            for ground in range(2 * k, args.ground_max + 1):
                finite_geometry.GkSpace(k, ground)
    elif args.subcommand == "folner":
        if args.group == "heis":
            amenable.HeisenbergModel()
            return
        if args.group == "tree":
            model = amenable.TreeModel()
            system = amenable.TreeACollection(model, n_min=args.n_min, n_max=args.n_max)
        else:
            model = amenable.ZkModel(int(args.group[1]))
            system = amenable.ZkFolnerSystem(model, n_min=args.n_min, n_max=args.n_max)
        amenable.glued_group_embedding(system, model, args.p)
    # report, cube and gk pay only the import and the parse


def main() -> int:
    from embedlab import cli

    build(cli.build_parser().parse_args(sys.argv[1:]))
    print(repr(time.perf_counter() - _START))
    return 0


if __name__ == "__main__":
    sys.exit(main())
