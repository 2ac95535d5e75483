"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``generate``   synthesise a population and save it (a directory)
``info``       summarise a saved population
``simulate``   run the sequential simulator, print the epidemic curve
``run``        run a scenario on a chosen backend (seq / charm / smp)
``scenarios``  list/show the registered model-component scenarios
``partition``  partition a population and report quality metrics
``scale``      analytic strong-scaling sweep (Figure-13 style)
``validate``   differential sequential↔parallel oracle + golden traces
``profile``    trace the full pipeline, emit Chrome trace + timelines
``sweep``      parameter grid × replications over the lab worker pool
``results``    query (or replay from) a sweep's result store

Every command is a thin shell over the library API so scripted studies
can start from the shell and graduate to Python.  ``run``, ``simulate``,
``validate`` and ``sweep`` all assemble a :class:`repro.spec.RunSpec`
first — one canonical, hashable definition of "a run", serialisable to
JSON/TOML (``repro run --save-spec run.json`` / ``--spec run.json``).

A saved population is a directory of ``.npy`` columns plus
``header.json`` (:func:`repro.synthpop.save_population`); every command
that takes a population path reads that format.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    from repro.spec import KERNELS  # not repro.core.exposure: ~80 ms on every command

    p = argparse.ArgumentParser(
        prog="repro",
        description="EpiSimdemics scalability-study reproduction (Yeom et al., IPDPS 2014)",
    )
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="synthesise a population")
    g.add_argument("output", help="output population directory (must not exist)")
    g.add_argument("--state", default="IA", help="Table-I state code or US")
    g.add_argument("--scale", type=float, default=1e-3, help="population scale factor")
    g.add_argument("--persons", type=int, default=None,
                   help="explicit person count (overrides --state/--scale)")
    g.add_argument("--seed", type=int, default=0)

    i = sub.add_parser("info", help="summarise a saved population")
    i.add_argument("population", help="population directory")

    s = sub.add_parser("simulate", help="run the sequential simulator")
    s.add_argument("population", help="population directory")
    s.add_argument("--days", type=int, default=120)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--index-cases", type=int, default=10)
    s.add_argument("--transmissibility", type=float, default=1e-4)
    s.add_argument("--interventions", default=None,
                   help="path to an intervention script")
    s.add_argument("--disease", default=None, help="path to a PTTSL disease model")

    r = sub.add_parser(
        "run", help="run a scenario on a chosen execution backend",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "large populations:\n"
            "  --backing memmap streams generation through disk-backed\n"
            "  arrays (bounded RAM at any --persons; see docs/scaling.md).\n"
            "  Content is bit-identical to --backing ram at equal seeds.\n"
            "    repro run --persons 10000000 --backing memmap --days 8\n"
        ),
    )
    r.add_argument("population", nargs="?", default=None,
                   help="population directory (omit with --persons to synthesise one)")
    r.add_argument("--persons", type=int, default=None,
                   help="synthesise a population of this size instead of loading one")
    r.add_argument("--backing", choices=["ram", "memmap", "auto"], default=None,
                   help="use the streaming generator with this residency "
                        "(memmap = disk-backed arrays, bounded RAM; "
                        "auto = memmap at >=1M persons)")
    r.add_argument("--backend", choices=["seq", "charm", "smp"], default="smp",
                   help="seq = sequential reference; charm = simulated chare "
                        "runtime (virtual time); smp = real shared-memory "
                        "worker processes (measured wall time)")
    r.add_argument("--workers", type=int, default=2,
                   help="worker processes (smp) / PEs (charm)")
    r.add_argument("--days", type=int, default=16)
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--index-cases", type=int, default=10)
    r.add_argument("--transmissibility", type=float, default=2e-4)
    r.add_argument("--kernel", choices=KERNELS, default=None, help="exposure kernel "
                   "(default: compiled where a C compiler builds it, else flat; same bits)")
    r.add_argument("--scenario", default=None, metavar="NAME",
                   help="run a registered scenario (disease model + model "
                        "components); see 'repro scenarios list'")
    r.add_argument("--scenario-param", action="append", default=None,
                   metavar="KEY=VALUE",
                   help="override one scenario parameter (repeatable, "
                        "values parsed as JSON)")
    r.add_argument("--spec", default=None, metavar="PATH",
                   help="load the full RunSpec from a .json/.toml file "
                        "(replaces the population/parameter flags)")
    r.add_argument("--save-spec", default=None, metavar="PATH",
                   help="also write the assembled RunSpec (.toml by suffix, "
                        "JSON otherwise)")

    n = sub.add_parser(
        "scenarios", help="list the registered model-component scenarios"
    )
    n.add_argument("action", nargs="?", default="list", choices=["list", "show"],
                   help="list = one line per scenario; show = full parameter "
                        "table for --name")
    n.add_argument("--name", default=None,
                   help="scenario to show (with action 'show')")

    q = sub.add_parser("partition", help="partition a population, report quality")
    q.add_argument("population", help="population directory")
    q.add_argument("-k", type=int, default=32, help="number of partitions")
    q.add_argument("--method", choices=["rr", "gp"], default="gp")
    q.add_argument("--split", action="store_true", help="apply splitLoc first")
    q.add_argument("--max-partitions", type=int, default=4096,
                   help="splitLoc threshold parameter")

    c = sub.add_parser("scale", help="analytic strong-scaling sweep")
    c.add_argument("population", help="population directory")
    c.add_argument("--cores", type=int, nargs="+",
                   default=[1, 16, 64, 256, 1024, 4096])
    c.add_argument("--strategy", choices=["rr", "gp-lpt"], default="gp-lpt")
    c.add_argument("--split", action="store_true")

    v = sub.add_parser(
        "validate",
        help="run the differential oracle matrix (and optionally golden traces)",
    )
    v.add_argument("--quick", action="store_true",
                   help="shorter run: 4 days instead of --days")
    v.add_argument("--persons", type=int, default=2000,
                   help="synthetic population size for the matrix")
    v.add_argument("--days", type=int, default=8)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--golden", action="store_true",
                   help="also replay the recorded golden traces")
    v.add_argument("--refresh-golden", action="store_true",
                   help="re-record the golden traces instead of running the matrix")
    v.add_argument("--kernel", choices=KERNELS, default=None,
                   help="exposure kernel for the cells (default: compiled where "
                        "a C compiler builds it, else flat; the sequential "
                        "reference always runs 'flat')")
    v.add_argument("--diff-kernels", action="store_true",
                   help="also run the kernel differential flat-vs-compiled when "
                        "a C toolchain is present (ordered events, minutes, "
                        "curve, final state)")
    v.add_argument("--smp", action="store_true",
                   help="also certify the shared-memory backend (real worker "
                        "processes) against the sequential reference")
    v.add_argument("--scenarios", action="store_true",
                   help="also run the scenario differential matrix: every "
                        "registered scenario across seq kernels, the charm "
                        "backend and smp worker counts")
    v.add_argument("--smp-workers", type=int, nargs="+", default=[1, 2, 4],
                   help="worker counts for the --smp cells")
    v.add_argument("--external", action="store_true",
                   help="also run the distribution-level oracle against the "
                        "independent FastSIR/Dijkstra baselines (with --quick: "
                        "tiny preset only, fewer replications, no heavy-tail check)")
    v.add_argument("--replications", type=int, default=30,
                   help="seeded replications per side for the --external ensembles")
    v.add_argument("--alpha", type=float, default=0.01,
                   help="familywise false-positive level of the --external tests")
    v.add_argument("--external-workers", type=int, default=1,
                   help="lab pool size for the --external model replications "
                        "(<= 1 runs them inline; any count is bit-identical)")

    f = sub.add_parser(
        "profile",
        help="run the full pipeline under the observer; write Projections-style reports",
    )
    f.add_argument("--preset", choices=["tiny", "small", "medium"], default="small",
                   help="scenario size (persons/days/machine; see repro.observe.PRESETS)")
    f.add_argument("--seed", type=int, default=0)
    f.add_argument("--days", type=int, default=None,
                   help="override the preset's day count")
    f.add_argument("--out", default="profile-out",
                   help="directory for trace.json / timeline.txt / report.txt "
                        "('-' = print the report only, write nothing)")
    f.add_argument("--backend", choices=["charm", "smp"], default="charm",
                   help="charm = simulated runtime traced in virtual time; "
                        "smp = real worker processes, measured per-PE wall spans")
    f.add_argument("--workers", type=int, default=None,
                   help="smp worker count (default 2)")

    w = sub.add_parser(
        "sweep",
        help="run a parameter grid x seeded replications through the lab pool",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "inspecting before running:\n"
            "  --dry-run prints the fully expanded task list (grid point,\n"
            "  replicate, derived seed, spec hash) without executing, so a\n"
            "  sweep can be reviewed and its hashes pinned ahead of time:\n"
            "    repro sweep --grid transmissibility=1e-4,2e-4 --dry-run\n"
            "  After a sweep, query its store with 'repro results' (see\n"
            "  'repro results --help' and EXPERIMENTS.md).\n"
            "large populations:\n"
            "  --backing memmap makes every template population stream\n"
            "  through disk-backed arrays (docs/scaling.md).\n"
        ),
    )
    w.add_argument("--spec", default=None, metavar="PATH",
                   help="base RunSpec template (.json/.toml) the grid is "
                        "applied to (replaces the template flags below)")
    w.add_argument("--persons", type=int, default=2000,
                   help="template population size")
    w.add_argument("--days", type=int, default=16)
    w.add_argument("--pop-seed", type=int, default=0,
                   help="population-synthesis seed (shared by every run; "
                        "replicates vary only the run seed)")
    w.add_argument("--index-cases", type=int, default=10)
    w.add_argument("--transmissibility", type=float, default=2e-4)
    w.add_argument("--backend", choices=["seq", "charm", "smp"], default="seq",
                   help="backend each individual run executes on")
    w.add_argument("--run-workers", type=int, default=2,
                   help="in-run worker count for --backend smp/charm")
    w.add_argument("--grid", action="append", default=None,
                   metavar="PATH=V1,V2,...",
                   help="sweep a dotted spec path over comma-listed values "
                        "(repeatable, e.g. --grid transmissibility=1e-4,2e-4)")
    w.add_argument("--replications", type=int, default=None,
                   help="seeded replications per grid point "
                        "(default 3; 2 with --quick)")
    w.add_argument("--master-seed", type=int, default=0,
                   help="root of every derived run seed")
    w.add_argument("--workers", type=int, default=2,
                   help="lab pool size (0 = inline in this process, no forks)")
    w.add_argument("--out", default="sweep-out",
                   help="result-store directory (results.jsonl + manifest.json)")
    w.add_argument("--cache", default=None,
                   help="on-disk artifact-cache directory (persists "
                        "populations/partitions across sweeps)")
    w.add_argument("--name", default="sweep")
    w.add_argument("--quick", action="store_true",
                   help="tiny smoke sweep: 150 persons, 4 days, "
                        "2 transmissibilities x 2 replications")
    w.add_argument("--dry-run", action="store_true",
                   help="print the expanded task list without executing")
    w.add_argument("--backing", choices=["ram", "memmap", "auto"], default=None,
                   help="stream template populations with this residency "
                        "(memmap = disk-backed, bounded RAM)")

    t = sub.add_parser(
        "results", help="summarise, filter or replay a sweep's result store",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "filtering:\n"
            "  --point KEY=VALUE restricts output to records whose grid\n"
            "  point matches; repeat the flag to intersect filters:\n"
            "    repro results sweep-out --point transmissibility=2e-4\n"
            "  --replay INDEX re-executes a stored run from its embedded\n"
            "  spec and diffs the trajectory (exit 1 on divergence).\n"
            "  Worked examples live in EXPERIMENTS.md.\n"
        ),
    )
    t.add_argument("store", help="result-store directory (repro sweep --out)")
    t.add_argument("--replay", type=int, default=None, metavar="INDEX",
                   help="re-execute the stored run from its embedded spec and "
                        "diff the trajectory (exit 1 on divergence)")
    t.add_argument("--point", action="append", default=None,
                   metavar="KEY=VALUE",
                   help="print records whose grid point matches (repeatable)")
    return p


def _cmd_generate(args) -> int:
    from pathlib import Path

    from repro.synthpop import (
        PopulationConfig,
        generate_population,
        save_population,
        state_population,
    )

    if Path(args.output).exists():
        print(f"error: {args.output} exists; give a new path", file=sys.stderr)
        return 2
    if args.persons is not None:
        graph = generate_population(
            PopulationConfig(n_persons=args.persons), args.seed,
            name=f"custom-{args.persons}",
        )
    else:
        graph = state_population(args.state, scale=args.scale, seed=args.seed)
    save_population(graph, args.output)
    s = graph.summary()
    print(f"wrote {args.output}: {s['people']:,} people, {s['visits']:,} visits, "
          f"{s['locations']:,} locations")
    return 0


def _cmd_info(args) -> int:
    from repro.synthpop import load_population

    graph = load_population(args.population)
    for k, v in graph.summary().items():
        print(f"{k:24s} {v}")
    ind = graph.location_in_degrees()
    print(f"{'max location in-degree':24s} {int(ind.max())}")
    print(f"{'max location visits':24s} {int(graph.location_visit_counts.max())}")
    return 0


def _cmd_simulate(args) -> int:
    from pathlib import Path

    from repro.spec import PopulationSpec, RunSpec, execute

    spec = RunSpec(
        population=PopulationSpec(kind="file", path=args.population),
        n_days=args.days,
        seed=args.seed,
        initial_infections=args.index_cases,
        transmissibility=args.transmissibility,
        disease=("ptts:" + Path(args.disease).read_text()) if args.disease
        else "influenza",
        interventions=Path(args.interventions).read_text()
        if args.interventions else "",
    )
    result = execute(spec)
    print(f"attack rate : {result.attack_rate:.1%}")
    print(f"peak day    : {result.peak_day}")
    print(f"total cases : {result.total_infections}")
    print("day,new_infections,prevalence")
    for d, (n, prev) in enumerate(zip(result.new_infections, result.prevalence)):
        print(f"{d},{n},{prev:.6f}")
    return 0


def _run_spec_from_args(args):
    """Assemble (or load) the RunSpec behind ``repro run``."""
    import json

    from repro.spec import PopulationSpec, RunSpec, RuntimeSpec

    if args.spec is not None:
        return RunSpec.load(args.spec)
    if (args.population is None) == (args.persons is None):
        return None
    if args.persons is not None:
        if args.backing is not None:
            population = PopulationSpec(
                kind="streamed", n_persons=args.persons, seed=args.seed,
                name=f"run-{args.persons}", backing=args.backing,
            )
        else:
            population = PopulationSpec(
                n_persons=args.persons, seed=args.seed, name=f"run-{args.persons}"
            )
    else:
        population = PopulationSpec(kind="file", path=args.population)
    scenario_params = {}
    for token in args.scenario_param or []:
        key, eq, value = token.partition("=")
        if not eq:
            raise ValueError(
                f"--scenario-param expects KEY=VALUE (got {token!r})"
            )
        try:
            scenario_params[key.strip()] = json.loads(value)
        except ValueError:
            scenario_params[key.strip()] = value
    return RunSpec(
        population=population,
        n_days=args.days,
        seed=args.seed,
        initial_infections=args.index_cases,
        transmissibility=args.transmissibility,
        scenario=args.scenario or "",
        scenario_params=scenario_params,
        runtime=RuntimeSpec(
            backend=args.backend, workers=args.workers, kernel=args.kernel
        ),
    )


def _cmd_run(args) -> int:
    from pathlib import Path

    from repro.spec import execute

    try:
        spec = _run_spec_from_args(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if spec is None:
        print("error: give a population path or --persons (exactly one)",
              file=sys.stderr)
        return 2
    if args.save_spec:
        text = (
            spec.to_toml() if args.save_spec.endswith(".toml")
            else spec.to_json(indent=2)
        )
        Path(args.save_spec).write_text(text + "\n")
        print(f"wrote spec   : {args.save_spec} (hash {spec.content_hash()})")

    result = execute(spec, graph=spec.population.build())
    unit = "process(es)" if result.virtual_seconds is None else "PE(s)"
    print(f"backend      : {result.backend}")
    print(f"wall time    : {result.wall_seconds:.3f}s on {result.n_workers} {unit}")
    if result.virtual_seconds is not None:
        print(f"virtual time : {result.virtual_seconds:.3f}s modelled")
    print(f"attack rate  : {result.attack_rate:.1%}")
    print(f"peak day     : {result.peak_day}")
    print(f"total cases  : {result.total_infections}")
    return 0


def _cmd_scenarios(args) -> int:
    from repro.scenarios import get, names

    if args.action == "show":
        if not args.name:
            print("error: 'scenarios show' needs --name", file=sys.stderr)
            return 2
        defn = get(args.name)
        print(f"{defn.name}: {defn.description}")
        for key, value in sorted(defn.defaults.items()):
            print(f"  {key:<22} {value}")
        return 0
    width = max(len(n) for n in names())
    for name in names():
        defn = get(name)
        print(f"{name:<{width}}  {defn.description}")
    return 0


def _cmd_partition(args) -> int:
    from repro.analysis.speedup import upper_bound_speedup
    from repro.partition import (
        edge_cut,
        imbalance,
        partition_bipartite,
        partition_loads,
        per_partition_edge_cut,
        round_robin_partition,
        split_heavy_locations,
    )
    from repro.synthpop import load_population

    graph = load_population(args.population)
    if args.split:
        sr = split_heavy_locations(graph, max_partitions=args.max_partitions)
        print(f"splitLoc: split {sr.n_split} locations "
              f"({graph.n_locations} -> {sr.graph.n_locations})")
        graph = sr.graph
    bp = (
        round_robin_partition(graph, args.k)
        if args.method == "rr"
        else partition_bipartite(graph, args.k)
    )
    loads = partition_loads(graph, bp)
    ratios = imbalance(loads)
    print(f"method                 {bp.method}")
    print(f"partitions             {args.k}")
    print(f"person-phase imbalance {ratios[0]:.3f}")
    print(f"location imbalance     {ratios[1]:.3f}")
    print(f"S_ub (location phase)  {upper_bound_speedup(loads[:, 1]):.1f}")
    print(f"edge cut               {edge_cut(graph, bp)}")
    print(f"max per-partition cut  {int(per_partition_edge_cut(graph, bp).max())}")
    return 0


def _cmd_scale(args) -> int:
    from repro.analysis.scaling import PhaseCostModel, speedup_table, strong_scaling_curve
    from repro.analysis.speedup import lpt_location_partition
    from repro.loadmodel.workload import WorkloadModel
    from repro.partition import round_robin_partition, split_heavy_locations
    from repro.partition.quality import BipartitePartition
    from repro.synthpop import load_population

    graph = load_population(args.population)
    if args.split:
        graph = split_heavy_locations(graph, max_partitions=max(args.cores)).graph
    if args.strategy == "rr":
        provider = lambda n: round_robin_partition(graph, n)  # noqa: E731
    else:
        loads = WorkloadModel().location_weights(graph).astype(float)

        def provider(n_pes):
            return BipartitePartition(
                person_part=np.arange(graph.n_persons, dtype=np.int64) % n_pes,
                location_part=lpt_location_partition(loads, n_pes),
                k=n_pes,
                method="GP~",
            )

    points = strong_scaling_curve(graph, provider, args.cores, PhaseCostModel())
    print(speedup_table(points))
    return 0


def _cmd_validate(args) -> int:
    from repro.spec import PopulationSpec
    from repro.validate.golden import GOLDEN_CASES, refresh_all, verify
    from repro.validate.oracle import (
        run_kernel_differential,
        run_matrix,
        run_scenario_matrix,
        run_smp_matrix,
    )

    if args.refresh_golden:
        for path in refresh_all():
            print(f"recorded {path}")
        return 0

    graph = PopulationSpec(
        n_persons=args.persons, seed=args.seed, name=f"validate-{args.persons}"
    ).build()
    n_days = 4 if args.quick else args.days
    # Each oracle run prints its cells' lines as they finish; the
    # report's summary follows them.
    reports = [run_matrix(graph, n_days=n_days, seed=args.seed, kernel=args.kernel)]
    print(reports[-1].format())

    if args.diff_kernels:
        from repro.core import ckernel

        if ckernel.available():
            reports.append(run_kernel_differential(
                graph, n_days=n_days, seed=args.seed, kernel_b="compiled",
            ))
            print(reports[-1].format())
        else:
            print(
                "kernel differential flat-vs-compiled: SKIPPED "
                f"(no C toolchain: {ckernel.build_error()})"
            )

    if args.smp:
        reports.append(run_smp_matrix(
            workers=tuple(args.smp_workers), n_days=n_days, seed=args.seed, kernel=args.kernel,
        ))
        print(reports[-1].format())

    if args.scenarios:
        reports.append(run_scenario_matrix(
            workers=(1, 2) if args.quick else (1, 2, 4),
            n_days=n_days, seed=args.seed, kernel=args.kernel,
        ))
        print(reports[-1].format())
    ok = all(r.all_equal for r in reports)

    if args.external:
        from repro.validate.external import run_external_oracle

        ereport = run_external_oracle(
            presets=("tiny",) if args.quick else ("tiny", "heavy"),
            n_days=n_days,
            replications=max(8, args.replications // 3) if args.quick else args.replications,
            seed=args.seed,
            alpha=args.alpha,
            workers=args.external_workers,
            heavy_tail=not args.quick,
            progress=lambda line: print("  " + line),
        )
        print(ereport.format())
        ok = ok and ereport.all_equal

    if args.golden:
        for case in GOLDEN_CASES:
            diffs = verify(case)
            if diffs:
                ok = False
                print(f"golden {case.name}: {len(diffs)} difference(s)")
                for d in diffs[:5]:
                    print(f"  {d}")
            else:
                print(f"golden {case.name}: trace holds")
    return 0 if ok else 1


def _cmd_profile(args) -> int:
    from repro.observe import run_profile

    out_dir = None if args.out == "-" else args.out
    report = run_profile(
        preset=args.preset, seed=args.seed, days=args.days, out_dir=out_dir,
        backend=args.backend, workers=args.workers,
    )
    print(report.summary())
    if report.paths:
        print()
        for name, path in report.paths.items():
            print(f"wrote {name:<9} {path}")
        print("open trace.json in https://ui.perfetto.dev or chrome://tracing")
    return 0 if report.curves_identical else 1


def _parse_values(text: str) -> list:
    """Comma-separated grid values; each parsed as JSON, else a string."""
    import json

    out = []
    for token in text.split(","):
        token = token.strip()
        try:
            out.append(json.loads(token))
        except ValueError:
            out.append(token)
    return out


def _cmd_sweep(args) -> int:
    from repro.lab import SweepConfig, expand, run_sweep
    from repro.spec import PopulationSpec, RunSpec, RuntimeSpec

    if args.spec is not None:
        base = RunSpec.load(args.spec)
    else:
        persons = 150 if args.quick else args.persons
        if args.backing is not None:
            population = PopulationSpec(
                kind="streamed", n_persons=persons, seed=args.pop_seed,
                name=f"sweep-{persons}", backing=args.backing,
            )
        else:
            population = PopulationSpec(
                n_persons=persons, seed=args.pop_seed, name=f"sweep-{persons}",
            )
        base = RunSpec(
            population=population,
            n_days=4 if args.quick else args.days,
            initial_infections=args.index_cases,
            transmissibility=args.transmissibility,
            runtime=RuntimeSpec(
                backend=args.backend,
                workers=args.run_workers if args.backend != "seq" else 1,
            ),
        )

    grid = {}
    for token in args.grid or []:
        path, eq, values = token.partition("=")
        if not eq or not values:
            print(f"error: --grid expects PATH=V1,V2,... (got {token!r})",
                  file=sys.stderr)
            return 2
        grid[path.strip()] = _parse_values(values)
    if args.quick and not grid:
        grid = {"transmissibility": [2e-4, 4e-4]}

    replications = args.replications
    if replications is None:
        replications = 2 if args.quick else 3
    config = SweepConfig(
        base=base, grid=grid, replications=replications,
        master_seed=args.master_seed, name=args.name,
    )

    if args.dry_run:
        print(f"sweep {config.name!r}: {config.n_runs} runs "
              f"({config.n_points} grid points x {config.replications} "
              f"replications)")
        for task in expand(config):
            point = ", ".join(f"{k}={v}" for k, v in task.point.items()) or "-"
            print(f"  [{task.index:>3}] {point:<40} replicate {task.replicate} "
                  f"seed {task.spec.seed} hash {task.spec.content_hash()}")
        return 0

    report = run_sweep(
        config, workers=args.workers, store_dir=args.out, cache_dir=args.cache,
    )
    print(report.format())
    return 0


def _cmd_results(args) -> int:
    import json

    from repro.lab import ResultStore, replay

    store = ResultStore(args.store)
    if args.replay is not None:
        outcome = replay(store, args.replay)
        print(outcome.format())
        return 0 if outcome.match else 1
    if args.point:
        filters = {}
        for token in args.point:
            key, eq, value = token.partition("=")
            if not eq:
                print(f"error: --point expects KEY=VALUE (got {token!r})",
                      file=sys.stderr)
                return 2
            try:
                filters[key.strip()] = json.loads(value)
            except ValueError:
                filters[key.strip()] = value
        for r in store.filter(**filters):
            print(f"[{r['index']:>3}] replicate {r.get('replicate', '?')} "
                  f"seed {r.get('seed', '?')} "
                  f"total infections {r.get('total_infections', '?')} "
                  f"spec {r.get('spec_hash', '?')}")
        return 0
    print(store.format_summary())
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "info": _cmd_info,
    "simulate": _cmd_simulate,
    "run": _cmd_run,
    "scenarios": _cmd_scenarios,
    "partition": _cmd_partition,
    "scale": _cmd_scale,
    "validate": _cmd_validate,
    "profile": _cmd_profile,
    "sweep": _cmd_sweep,
    "results": _cmd_results,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
