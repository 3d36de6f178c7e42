"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``run``          simulate a workload under one policy and print the summary
``compare``      run every policy on one fabric combination
``library``      inspect the compile-time ISE library for a budget
``case-study``   print the Section 2 deblocking-filter case study
``experiments``  run the full figure-reproduction suite
``sweep``        run a (budget x seed x policy) sweep through the engine
``results``      summarise/aggregate/export stored sweep results
``report``       write the full markdown experiment dossier
``export``       run one experiment and write its data as CSV/JSON
``cache``        inspect or clear the on-disk sweep cell cache
``worker``       join a ``repro serve`` daemon as a socket worker process
``serve``        run the always-on async sweep service daemon
``lint``         static determinism & invariant linter (CI gate, fast tier)
``analyze``      whole-program taint + protocol conformance (CI gate, deep tier)

The sweep-shaped commands accept ``--jobs`` (process fan-out),
``--no-cache`` and ``--cache-dir`` (the content-addressed cell cache under
``.repro_cache/``), plus the executor knobs ``--backend``
(serial/pool/service), ``--workers`` and ``--coordinator``;
``sweep``
additionally takes ``--cache-max-bytes`` (LRU eviction budget).  See
``docs/sweeps.md``.
"""

from __future__ import annotations

import argparse
import sys

#: The single policy registry, shared with the sweep engine.
from repro.experiments.engine import POLICIES, WORKLOADS
from repro.fabric.resources import ResourceBudget
from repro.sim.simulator import Simulator
from repro.util.tables import render_table
from repro.util.validation import ReproError

EXPERIMENTS = (
    "fig1", "fig2", "fig5", "fig8", "fig9", "fig10",
    "overhead", "search-space", "ablations", "contention", "granularity",
    "multitask", "energy",
)


def _workload(args):
    if args.workload == "h264":
        from repro.workloads import h264_application, h264_library

        app = h264_application(frames=args.frames, seed=args.seed)
        make_library = h264_library
    elif args.workload == "jpeg":
        from repro.workloads import jpeg_application, jpeg_library

        app = jpeg_application(images=args.frames, seed=args.seed)
        make_library = jpeg_library
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(args.workload)
    budget = ResourceBudget(n_prcs=args.prc, n_cg_fabrics=args.cg)
    return app, make_library(budget), budget


def _add_workload_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workload", choices=("h264", "jpeg"), default="h264")
    parser.add_argument("--frames", type=int, default=8,
                        help="frames (h264) or images (jpeg)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--cg", type=int, default=2, help="CG fabrics")
    parser.add_argument("--prc", type=int, default=2, help="PRCs")


def cmd_run(args) -> int:
    from repro.analysis import run_summary

    app, library, budget = _workload(args)
    policy = POLICIES[args.policy]()
    result = Simulator(app, library, budget, policy, collect_trace=args.trace).run()
    if args.trace:
        print(run_summary(result))
    else:
        print(f"{result.policy_name} on {app.name} at ({args.cg} CG, {args.prc} PRC): "
              f"{result.total_cycles:,} cycles")
        for mode, count in sorted(result.stats.executions_by_mode.items()):
            print(f"  {mode:14s} {count:,}")
    return 0


def _workload_params(args) -> dict:
    """The cell ``workload_params`` of ``--workload``/``--frames``."""
    return {"images" if args.workload == "jpeg" else "frames": args.frames}


def cmd_compare(args) -> int:
    from repro.experiments.engine import SweepCell, resolve_engine

    params = _workload_params(args)
    cells = [
        SweepCell.make((args.cg, args.prc), args.seed, name,
                       workload=args.workload, workload_params=params)
        for name in POLICIES
    ]
    with resolve_engine() as engine:
        cycles = {
            record["policy"]: record["total_cycles"]
            for record in engine.run(cells)
        }
    rows = [
        [name, cycles[name], round(cycles["risc"] / cycles[name], 2)]
        for name in POLICIES
    ]
    app_name = WORKLOADS[args.workload].application(args.seed, params).name
    print(render_table(
        ["policy", "cycles", "speedup vs RISC"], rows,
        title=f"{app_name} at ({args.cg} CG, {args.prc} PRC)",
    ))
    return 0


def cmd_library(args) -> int:
    _, library, budget = _workload(args)
    if args.pareto:
        from repro.ise.pareto import render_front

        for kernel_name in library.kernel_names():
            candidates = library.candidates(kernel_name)
            if candidates:
                print(render_front(
                    candidates, title=f"Pareto front of {kernel_name}"
                ))
                print()
        return 0
    rows = []
    for kernel_name in library.kernel_names():
        candidates = library.candidates(kernel_name)
        kernel = library.kernel(kernel_name)
        best = min((c.full_latency for c in candidates), default=kernel.risc_latency)
        rows.append([
            kernel_name,
            kernel.risc_latency,
            len(candidates),
            best,
            library.monocg(kernel_name).latency,
        ])
    print(render_table(
        ["kernel", "RISC latency", "candidate ISEs", "best hw latency", "monoCG latency"],
        rows,
        title=f"ISE library at ({args.cg} CG, {args.prc} PRC)",
    ))
    print(f"joint search space: {library.search_space_size():,} combinations")
    return 0


def cmd_case_study(args) -> int:
    from repro.experiments import run_fig1, run_fig2

    print(run_fig1().render())
    print()
    print(run_fig2(frames=args.frames, seed=args.seed).render())
    return 0


def _engine_kwargs(args) -> dict:
    return dict(
        jobs=args.jobs,
        use_cache=not args.no_cache,
        cache_dir=args.cache_dir,
        backend=args.backend,
        workers=args.workers,
        coordinator=args.coordinator,
    )


def _add_engine_arguments(parser: argparse.ArgumentParser) -> None:
    from repro.experiments.backends import backend_names

    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for sweep cells")
    parser.add_argument("--no-cache", action="store_true",
                        help="do not read/write the on-disk cell cache")
    parser.add_argument("--cache-dir", default=None,
                        help="cell cache location (default: .repro_cache)")
    parser.add_argument("--backend", default=None, choices=backend_names(),
                        help="executor backend (default: pool when "
                             "--jobs > 1, else serial)")
    parser.add_argument("--workers", type=int, default=None,
                        help="local workers of the daemon --backend service "
                             "self-hosts (default: 2)")
    parser.add_argument("--coordinator", default=None,
                        help="HOST:PORT of a running repro serve daemon for "
                             "--backend service (default: self-host one)")


def cmd_experiments(args) -> int:
    from repro.experiments.runner import run_all

    run_all(fast=args.fast, **_engine_kwargs(args))
    return 0


def cmd_sweep(args) -> int:
    from repro.experiments.engine import resolve_engine
    from repro.experiments.sweep import run_sweep, run_sweep_stored

    try:
        budgets = []
        for label in args.budgets.split(","):
            label = label.strip()
            if len(label) != 2 or not label.isdigit():
                raise ReproError(
                    f"budget {label!r} must be a two-digit combination label "
                    "(CG fabrics then PRCs, e.g. 21)"
                )
            budgets.append((int(label[0]), int(label[1])))
        seeds = [int(s) for s in args.seeds.split(",")]
        policies = [p.strip() for p in args.policies.split(",")]
        with resolve_engine(cache_max_bytes=args.cache_max_bytes,
                            **_engine_kwargs(args)) as engine:
            kwargs = dict(
                workload=args.workload,
                workload_params=_workload_params(args),
                engine=engine,
            )
            if args.store is not None:
                result, stored_path = run_sweep_stored(
                    budgets, seeds, policies,
                    store=args.store, sweep=args.store_sweep,
                    shard_rows=args.store_shard_rows, **kwargs,
                )
            else:
                stored_path = None
                result = run_sweep(budgets, seeds, policies, **kwargs)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(result.render())
    if stored_path is not None:
        # On stderr so stored and plain sweeps stay stdout-comparable.
        print(f"stored: {stored_path}", file=sys.stderr)
    if args.verbose:
        # Engine + wire counters go to stderr for the same reason: CI
        # byte-compares sweep stdout across backends and wire modes.
        payload = engine.stats.engine_payload()
        print(
            "engine: " + " ".join(
                f"{name}={payload[name]}" for name in sorted(payload)
            ),
            file=sys.stderr,
        )
    return 0


def _resolve_sweep(store: str, sweep):
    """The sweep directory to read: explicit name, or the store's only one."""
    import os

    from repro.results import list_sweeps

    if sweep is not None:
        return os.path.join(store, sweep)
    sweeps = list_sweeps(store)
    if not sweeps:
        raise ReproError(f"no committed sweeps under {store!r}")
    if len(sweeps) > 1:
        raise ReproError(
            f"{store!r} holds {len(sweeps)} sweeps; pick one with "
            f"--sweep (available: {', '.join(sweeps)})"
        )
    return os.path.join(store, sweeps[0])


def cmd_results(args) -> int:
    import json as json_module

    from repro.results import (
        ResultReader,
        ResultStoreError,
        fleet_summary,
        speedup_summary,
        store_stats,
    )

    try:
        if args.action == "summary" and args.sweep is None:
            payload = store_stats(args.store)
        else:
            reader = ResultReader(
                _resolve_sweep(args.store, args.sweep), recover=args.recover
            )
            if args.action == "summary":
                payload = fleet_summary(reader)
            elif args.action == "kpi":
                payload = speedup_summary(reader, reference=args.reference)
            else:  # export: stream rows as JSON lines, never materialised
                out = (
                    open(args.out, "w", encoding="utf-8")
                    if args.out else sys.stdout
                )
                try:
                    for index, cell, record in reader.iter_rows():
                        out.write(json_module.dumps(
                            {"index": index, "cell": cell, "record": record},
                            sort_keys=True, separators=(",", ":"),
                        ))
                        out.write("\n")
                except BrokenPipeError:
                    pass  # downstream consumer (head, etc.) closed the pipe
                finally:
                    if args.out:
                        out.close()
                return 0
    except (ResultStoreError, ReproError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(json_module.dumps(payload, indent=2, sort_keys=True))
    return 0


def cmd_cache(args) -> int:
    from repro.experiments.engine import cache_stats, clear_cache, evict_cache

    if args.action == "clear":
        removed = clear_cache(args.cache_dir)
        print(f"removed {removed} cached records")
        return 0
    if args.max_bytes is not None:
        report = evict_cache(args.cache_dir, args.max_bytes)
        print(
            f"evicted {report['evicted']} records "
            f"({report['freed_bytes']:,} bytes freed)"
        )
    stats = cache_stats(args.cache_dir)
    print(f"cache dir:    {stats['cache_dir']}")
    print(f"records:      {stats['records']}")
    print(f"total bytes:  {stats['total_bytes']:,}")
    return 0


def cmd_worker(args) -> int:
    from repro.experiments.backends.worker import main as worker_main

    argv = ["--coordinator", args.coordinator]
    if args.reconnect:
        argv.append("--reconnect")
    argv += ["--max-attempts", str(args.max_attempts)]
    return worker_main(argv)


def cmd_serve(args) -> int:
    import asyncio

    from repro.service.daemon import SweepService

    service = SweepService(
        host=args.host,
        port=args.port,
        workers=args.workers,
        cache_dir=args.cache_dir,
        quantum=args.quantum,
    )

    async def _serve() -> int:
        run = asyncio.ensure_future(service.run())
        # run() binds before awaiting the drain event, so the address is
        # readable as soon as we yield once.
        while service.address is None and not run.done():
            await asyncio.sleep(0.05)
        if service.address is not None:
            host, port = service.address
            print(f"repro service listening on {host}:{port} "
                  f"({service.n_workers} local workers)", flush=True)
        await run
        print(
            f"repro service drained: {service.jobs_finished} jobs finished, "
            f"{service.jobs_failed} failed",
            flush=True,
        )
        return 0

    return asyncio.run(_serve())


def cmd_lint(args) -> int:
    import json as json_module

    from repro.analysis.lint import default_rules, run_lint

    rules = default_rules()
    if args.list_rules:
        # Importing the invariants module populates INVARIANT_RULE_NAMES.
        import repro.analysis.lint.invariants  # noqa: F401
        from repro.analysis.lint.core import INVARIANT_RULE_NAMES

        for rule in rules:
            print(f"{rule.name:22s} {rule.summary}")
        for name in INVARIANT_RULE_NAMES:
            print(f"{name:22s} project invariant (see docs/analysis.md)")
        return 0
    if args.rules:
        wanted = {name.strip() for name in args.rules.split(",")}
        known = {rule.name for rule in rules}
        unknown = sorted(wanted - known)
        if unknown:
            print(f"error: unknown rule(s) {unknown}; "
                  f"known: {sorted(known)}", file=sys.stderr)
            return 2
        rules = [rule for rule in rules if rule.name in wanted]
    try:
        # None (not the full default list) when unrestricted: run_lint
        # only checks suppression staleness under the complete rule set.
        report = run_lint(
            paths=args.paths or None,
            rules=rules if args.rules else None,
            invariants=not args.no_invariants,
        )
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.fix_suppressions:
        if args.rules:
            print(
                "error: --fix-suppressions needs the full rule set "
                "(staleness is undecidable under --rules)",
                file=sys.stderr,
            )
            return 2
        candidates = [
            f for f in report.findings if f.rule == "unused-suppression"
        ]
        for finding in candidates:
            print(f"{finding.path}:{finding.line}: {finding.message}")
        print(
            f"repro lint --fix-suppressions: {len(candidates)} stale "
            f"suppression comment(s) to remove"
        )
        return 0 if report.ok else 1
    if args.format == "json":
        print(json_module.dumps(report.to_payload(), indent=2, sort_keys=True))
    else:
        print(report.render_text())
    return 0 if report.ok else 1


def cmd_analyze(args) -> int:
    import json as json_module

    from repro.analysis.deep import dump_callgraph, run_deep

    try:
        if args.callgraph:
            print(dump_callgraph(paths=args.paths or None))
            return 0
        report = run_deep(
            paths=args.paths or None,
            taint=not args.no_taint,
            protocol=not args.no_protocol,
        )
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(json_module.dumps(report.to_payload(), indent=2, sort_keys=True))
    else:
        print(report.render_text())
    return 0 if report.ok else 1


def cmd_report(args) -> int:
    from repro.experiments.report import write_markdown_report

    path = write_markdown_report(args.out, fast=args.fast, store=args.store)
    print(f"wrote {path}")
    return 0


def cmd_export(args) -> int:
    from repro.experiments import (
        run_ablations, run_contention, run_fig1, run_fig2, run_fig5,
        run_fig8, run_fig9, run_fig10, run_energy, run_granularity, run_multitask,
        run_overhead, run_search_space,
    )
    from repro.experiments.engine import resolve_engine
    from repro.experiments.export import export_csv, export_json

    frames = args.frames
    # Experiments that simulate: each runs its cells on the one engine
    # built from the engine flags.
    simulating = {
        "fig2": lambda engine: run_fig2(engine=engine),
        "fig8": lambda engine: run_fig8(frames=frames, engine=engine),
        "fig9": lambda engine: run_fig9(frames=frames, engine=engine),
        "fig10": lambda engine: run_fig10(frames=frames, engine=engine),
        "overhead": lambda engine: run_overhead(frames=frames, engine=engine),
        "ablations": lambda engine: run_ablations(frames=frames, engine=engine),
        "contention": lambda engine: run_contention(frames=frames, engine=engine),
        "granularity": lambda engine: run_granularity(frames=frames, engine=engine),
        "multitask": lambda engine: run_multitask(
            frames=max(2, frames // 2), engine=engine
        ),
        "energy": lambda engine: run_energy(frames=frames, engine=engine),
    }
    if args.experiment in simulating:
        with resolve_engine(**_engine_kwargs(args)) as engine:
            result = simulating[args.experiment](engine)
    else:
        result = {
            "fig1": run_fig1,
            "fig5": run_fig5,
            "search-space": run_search_space,
        }[args.experiment]()
    writer = export_json if args.format == "json" else export_csv
    path = writer(result, f"{args.out}/{args.experiment}.{args.format}")
    print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate one policy")
    _add_workload_arguments(p_run)
    p_run.add_argument("--policy", choices=sorted(POLICIES), default="mrts")
    p_run.add_argument("--trace", action="store_true",
                       help="collect a trace and print the full run summary")
    p_run.set_defaults(fn=cmd_run)

    p_cmp = sub.add_parser("compare", help="all policies on one budget")
    _add_workload_arguments(p_cmp)
    p_cmp.set_defaults(fn=cmd_compare)

    p_lib = sub.add_parser("library", help="inspect the compile-time ISE library")
    _add_workload_arguments(p_lib)
    p_lib.add_argument("--pareto", action="store_true",
                       help="show each kernel's Pareto front instead")
    p_lib.set_defaults(fn=cmd_library)

    p_case = sub.add_parser("case-study", help="the Section 2 deblocking case study")
    p_case.add_argument("--frames", type=int, default=16)
    p_case.add_argument("--seed", type=int, default=0)
    p_case.set_defaults(fn=cmd_case_study)

    p_exp = sub.add_parser("experiments", help="run the full figure suite")
    p_exp.add_argument("--fast", action="store_true")
    _add_engine_arguments(p_exp)
    p_exp.set_defaults(fn=cmd_experiments)

    p_sweep = sub.add_parser(
        "sweep", help="(budget x seed x policy) sweep through the engine"
    )
    p_sweep.add_argument(
        "--budgets", default="11,22,33",
        help="comma-separated combination labels, CG then PRC (e.g. 01,11,23)",
    )
    p_sweep.add_argument("--seeds", default="7", help="comma-separated seeds")
    p_sweep.add_argument(
        "--policies", default="mrts",
        help=f"comma-separated policy names from {sorted(POLICIES)}",
    )
    p_sweep.add_argument("--workload", choices=sorted(WORKLOADS), default="h264")
    p_sweep.add_argument("--frames", type=int, default=8,
                         help="frames (h264/deblocking) or images (jpeg)")
    _add_engine_arguments(p_sweep)
    p_sweep.add_argument("--cache-max-bytes", type=int, default=None,
                         help="shrink the cell cache to this many bytes "
                              "after the run (LRU eviction)")
    p_sweep.add_argument("--store", default=None,
                         help="stream per-cell records into a result "
                              "store at this directory "
                              "(e.g. .repro_results)")
    p_sweep.add_argument("--store-sweep", default=None,
                         help="sweep name inside --store (default: a "
                              "fresh auto-allocated sweep-* directory)")
    p_sweep.add_argument("--store-shard-rows", type=int, default=0,
                         help="rows buffered per result-store shard "
                              "(default: 512)")
    p_sweep.add_argument("--verbose", action="store_true",
                         help="print engine + wire transport counters to "
                              "stderr after the sweep (stdout stays "
                              "byte-comparable across backends)")
    p_sweep.set_defaults(fn=cmd_sweep)

    p_res = sub.add_parser(
        "results", help="summarise/aggregate/export stored sweep results"
    )
    p_res.add_argument("action", choices=("summary", "kpi", "export"))
    p_res.add_argument("--store", default=".repro_results",
                       help="result store root (default %(default)s)")
    p_res.add_argument("--sweep", default=None,
                       help="sweep name under --store (default: the only "
                            "committed sweep; 'summary' without it lists "
                            "all sweeps)")
    p_res.add_argument("--reference", default="risc",
                       help="reference policy for 'kpi' speedups "
                            "(default %(default)s)")
    p_res.add_argument("--recover", action="store_true",
                       help="salvage intact shards of an uncommitted "
                            "sweep (crash-mid-write recovery)")
    p_res.add_argument("--out", default=None,
                       help="with 'export': JSONL output file "
                            "(default: stdout)")
    p_res.set_defaults(fn=cmd_results)

    p_cache = sub.add_parser(
        "cache", help="inspect or clear the on-disk sweep cell cache"
    )
    p_cache.add_argument("action", choices=("stats", "clear"))
    p_cache.add_argument("--cache-dir", default=None,
                         help="cache location (default: .repro_cache)")
    p_cache.add_argument("--max-bytes", type=int, default=None,
                         help="with 'stats': first evict down to this size")
    p_cache.set_defaults(fn=cmd_cache)

    p_worker = sub.add_parser(
        "worker", help="join a repro serve daemon as a socket worker"
    )
    p_worker.add_argument("--coordinator", required=True,
                          help="HOST:PORT of the daemon to join")
    p_worker.add_argument("--reconnect", action="store_true",
                          help="redial a lost coordinator on a capped "
                          "exponential backoff schedule")
    p_worker.add_argument("--max-attempts", type=int, default=8,
                          help="failed dials tolerated before --reconnect "
                          "gives up (default %(default)s)")
    p_worker.set_defaults(fn=cmd_worker)

    p_serve = sub.add_parser(
        "serve", help="run the always-on sweep service daemon"
    )
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="bind address (default %(default)s)")
    p_serve.add_argument("--port", type=int, default=7341,
                         help="listen port; 0 picks an ephemeral port "
                         "(default %(default)s)")
    p_serve.add_argument("--workers", type=int, default=2,
                         help="local worker processes to spawn "
                         "(default %(default)s; 0 = coordinator only)")
    p_serve.add_argument("--cache-dir", default=".repro_cache",
                         help="network-served record store root "
                         "(default %(default)s)")
    p_serve.add_argument("--quantum", type=int, default=4,
                         help="deficit-round-robin refill per scheduler "
                         "visit, in cells (default %(default)s)")
    p_serve.set_defaults(fn=cmd_serve)

    p_lint = sub.add_parser(
        "lint", help="static determinism & invariant linter (exit 1 on findings)"
    )
    p_lint.add_argument(
        "paths", nargs="*",
        help="files or directories to lint (default: the shipped repro package)",
    )
    p_lint.add_argument("--format", choices=("text", "json"), default="text")
    p_lint.add_argument("--rules", default=None,
                        help="comma-separated subset of rule names to run")
    p_lint.add_argument("--no-invariants", action="store_true",
                        help="skip the project-level invariant checkers")
    p_lint.add_argument("--list-rules", action="store_true",
                        help="print every rule with its summary and exit")
    p_lint.add_argument("--fix-suppressions", action="store_true",
                        help="print stale '# repro-lint: disable=' comments "
                        "that no longer mask any finding")
    p_lint.set_defaults(fn=cmd_lint)

    p_analyze = sub.add_parser(
        "analyze",
        help="whole-program taint & protocol-conformance analysis "
        "(exit 1 on findings)",
    )
    p_analyze.add_argument(
        "paths", nargs="*",
        help="files or directories to analyze "
        "(default: the shipped repro package)",
    )
    p_analyze.add_argument("--format", choices=("text", "json"),
                           default="text")
    p_analyze.add_argument("--callgraph", action="store_true",
                           help="dump the resolved call graph and exit")
    p_analyze.add_argument("--no-taint", action="store_true",
                           help="skip the nondeterminism taint engine")
    p_analyze.add_argument("--no-protocol", action="store_true",
                           help="skip the frame-protocol conformance checker")
    p_analyze.set_defaults(fn=cmd_analyze)

    p_rep = sub.add_parser("report", help="write the markdown experiment dossier")
    p_rep.add_argument("--out", default="results/report.md")
    p_rep.add_argument("--fast", action="store_true")
    p_rep.add_argument("--store", default=None,
                       help="stream the fig8/9/10 grids through a result "
                            "store at this directory and rebuild "
                            "them from the stored shards")
    p_rep.set_defaults(fn=cmd_report)

    p_out = sub.add_parser("export", help="export one experiment's data")
    p_out.add_argument("experiment", choices=EXPERIMENTS)
    p_out.add_argument("--frames", type=int, default=16)
    p_out.add_argument("--out", default="results")
    p_out.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_engine_arguments(p_out)
    p_out.set_defaults(fn=cmd_export)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
