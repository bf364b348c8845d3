"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``plan``
    Derive a plan for a zoo preset on a mesh, print it (and the Fig. 14
    rendering), optionally save it as JSON.
``models``
    List the model zoo presets with their sizes.
``inspect``
    Show a model's graph statistics, GraphNode compression and the
    shared-subgraph families Algorithm 1 finds.
``simulate``
    Price a named plan (dp / mha_only / ffn_only / megatron / a saved
    JSON plan) on a mesh: step time, breakdown, per-device memory.
    ``--engine {columnar,reference}`` picks the simulation tier
    (bit-identical results, different speed); ``--remote URL`` asks a
    running planner daemon's ``POST /simulate`` instead, which prices a
    whole candidate set in one cached columnar batch.
``verify``
    Static analysis: ``verify plan`` re-checks a derived or saved plan
    against the sharding invariants (divisibility, pattern chains,
    collective legality, packing) without simulating; ``verify lint``
    runs the AST rules guarding the memoization layers over the source
    tree.  Both exit non-zero on findings.
``serve``
    Run the planner daemon: answers plan requests over HTTP from a
    persistent fingerprinted cache, executing misses on a process-pool
    worker fleet.  ``plan --remote URL`` sends a request to it.
``cache``
    ``cache stats`` lists the daemon's disk-cached plans (key, engine
    tier, cost, search time); ``cache clear`` deletes them.

``plan``, ``simulate`` and ``verify plan`` always run the plan verifier
(it is rule-based and cheap): a saved plan is parsed structure-only and
the verifier reports its findings, exiting 1.  ``plan
--trace out.json`` additionally records the whole pipeline (prune,
enumerate, route, price, rewrite, simulate) as a Chrome trace merged
with the simulated iteration's timeline — open it in Perfetto.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from .cluster import Mesh, paper_testbed
from .core import (
    CostConfig,
    CostModel,
    DEFAULT_REGISTRY,
    PlanLoadError,
    RoutingError,
    coarsen,
    load_plan,
    plan_request,
    rewrite_graph,
    route_plan,
    save_plan,
)
from .graph import trim_auxiliary
from .models import MODEL_PRESETS, build_preset
from .baselines import NAMED_PLANS
from .simulator import memory_per_device, simulate_iteration
from .viz import format_table, render_plan

__all__ = ["main", "build_parser"]


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _workers_arg(text: str) -> int:
    """Worker counts: >= 1, or 0 meaning auto-detect ``os.cpu_count()``."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"must be >= 1, or 0 for auto-detect, got {value}"
        )
    return value


def _parse_mesh_shape(text: str) -> tuple:
    try:
        nodes, gpus = (int(x) for x in text.lower().split("x"))
    except ValueError:
        raise SystemExit(f"mesh must look like '2x8', got {text!r}")
    return nodes, gpus


def _parse_mesh(text: str, fabric: str) -> Mesh:
    nodes, gpus = _parse_mesh_shape(text)
    if fabric == "paper":
        return paper_testbed(nodes, gpus)
    return Mesh(nodes, gpus)


def _prep(preset: str):
    """Build a preset and return ``(graph, trimmed, trim_record, ng)``."""
    graph = build_preset(preset)
    trimmed, record = trim_auxiliary(graph)
    return graph, trimmed, record, coarsen(trimmed)


def cmd_models(args) -> int:
    rows = []
    for name in sorted(MODEL_PRESETS):
        graph = build_preset(name)
        s = graph.stats()
        rows.append(
            [name, f"{s['parameters'] / 1e6:.0f}M", s["operators"], s["weights"]]
        )
    print(format_table(["preset", "params", "ops", "weights"], rows,
                       title="model zoo"))
    return 0


def cmd_inspect(args) -> int:
    from .core import prune_graph

    graph, _, _, ng = _prep(args.model)
    s = graph.stats()
    print(format_table(
        ["ops", "edges", "weights", "params", "GraphNodes"],
        [[s["operators"], s["edges"], s["weights"],
          f"{s['parameters'] / 1e6:.0f}M", len(ng)]],
        title=f"{args.model}",
    ))
    result = prune_graph(ng, min_duplicate=args.min_duplicate)
    print()
    print(result.describe())
    return 0


def _print_verification(report, label: str) -> None:
    if report.ok:
        print(f"verification ({label}): ok — "
              f"{report.rules_checked} rules, no errors")
    else:
        print(f"verification ({label}) FAILED:")
        print(report.describe())


def _read_plan_file(path: str):
    """Parse a saved plan's structure only, so the caller's verifier can
    report every finding; an unreadable or malformed document exits with
    one line naming the file."""
    try:
        return load_plan(path)
    except OSError as exc:
        raise SystemExit(f"cannot read plan {path!r}: {exc}")
    except PlanLoadError as exc:
        raise SystemExit(f"cannot load plan {path!r}: {exc}")


def _route_or_report(ng, plan, mesh, source: str):
    """Route *plan*, or print why not (with :func:`verify_plan`'s findings)
    and return ``None``."""
    try:
        return route_plan(ng, plan, DEFAULT_REGISTRY)
    except RoutingError as exc:
        from .verify import verify_plan

        print(f"plan ({source}): routing rejects it — {exc}")
        _print_verification(verify_plan(ng, plan, mesh), "plan")
        return None


def _run_remote_plan(args) -> int:
    import json

    from .core import envelope_from_json
    from .service import PlannerClient, PlanRequest, ServiceError

    nodes, gpus = _parse_mesh_shape(args.mesh)
    request = PlanRequest(
        model=args.model,
        mesh_nodes=nodes,
        mesh_gpus=gpus,
        fabric=args.fabric,
        batch_tokens=args.batch_tokens,
        min_duplicate=args.min_duplicate,
        engine=args.engine,
        zero_stage=args.zero,
    )
    client = PlannerClient(args.remote)
    try:
        reply = client.plan(request)
    except ServiceError as exc:
        raise SystemExit(f"remote plan failed: {exc}")
    print(f"model: {args.model}   mesh: {args.mesh} ({args.fabric})   "
          f"remote: {client.base_url}")
    print(f"key: {reply['key']}")
    print(f"source: {reply['source']} "
          f"({'cache hit' if reply['cached'] else 'fresh search'})")
    timings = reply.get("timings") or {}
    if "search_seconds" in timings:
        print(f"search time (when derived): {timings['search_seconds']:.2f}s "
              f"[{reply.get('engine', '?')} tier]")
    print(f"cost: {reply['cost'] * 1e3:.2f} ms (communication objective)")
    print(f"round trip: {reply['latency_seconds'] * 1e3:.2f} ms service-side")
    if args.output:
        env = envelope_from_json(json.dumps(reply["envelope"]))
        save_plan(env.routed.plan, args.output)
        print(f"plan saved to {args.output}")
    return 0


def cmd_plan(args) -> int:
    if args.remote:
        return _run_remote_plan(args)
    _, trimmed, trim_record, ng = _prep(args.model)
    mesh = _parse_mesh(args.mesh, args.fabric)
    cfg = CostConfig(batch_tokens=args.batch_tokens)
    chrome = None
    if args.trace:
        from . import obs

        chrome = obs.ChromeTraceSink()
        obs.enable(chrome, obs.MemorySink())
    try:
        return _run_plan(args, trimmed, trim_record, ng, mesh, cfg, chrome)
    finally:
        if chrome is not None:
            from . import obs

            obs.disable()


def _run_plan(args, trimmed, trim_record, ng, mesh, cfg, chrome) -> int:
    result = plan_request(
        ng, mesh, cfg,
        min_duplicate=args.min_duplicate,
        engine=args.engine,
        zero_stage=args.zero,
    )
    print(f"model: {args.model}   mesh: {mesh}")
    if args.zero:
        print(f"zero stage: {args.zero} (reduce-scatter grad sync + "
              "post-step weight all-gather)")
    print(f"searched {result.candidates_examined} candidates "
          f"({result.valid_plans} valid) in {result.search_seconds:.2f}s")
    print(f"best: {result.plan.describe()}")
    print(f"cost: {result.cost * 1e3:.2f} ms (communication objective)")
    print()
    print(render_plan(ng, result.plan, title="discovered plan"))
    from .verify import verify_routed

    report = verify_routed(ng, result.routed, mesh, cfg)
    print()
    _print_verification(report, "routed plan")
    if not report.ok:
        return 1
    if args.output:
        save_plan(result.plan, args.output)
        print(f"\nplan saved to {args.output}")
    if chrome is not None:
        from . import obs

        # Run the back half of the pipeline too, so the trace shows every
        # stage: rewrite the winning plan and simulate one iteration, then
        # merge the planner spans (pid 1) with the simulated-device
        # timeline (pid 0) into one Perfetto-loadable file.
        rewrite_graph(
            trimmed, ng, result.routed,
            trim_record=trim_record, packing=cfg.packing,
        )
        prof = simulate_iteration(result.routed, mesh, cfg)
        events = obs.merged_chrome_trace(chrome, prof)
        obs.save_trace_events(events, args.trace)
        print(f"\ntrace written to {args.trace} ({len(events)} events) — "
              "open at https://ui.perfetto.dev")
    return 0


def _run_remote_simulate(args) -> int:
    from .service import PlannerClient, ServiceError, SimulateRequest

    nodes, gpus = _parse_mesh_shape(args.mesh)
    labels = tuple(p.strip() for p in args.plans.split(",") if p.strip()) \
        if args.plans else (args.plan,)
    try:
        request = SimulateRequest(
            model=args.model,
            mesh_nodes=nodes,
            mesh_gpus=gpus,
            fabric=args.fabric,
            batch_tokens=args.batch_tokens,
            plans=labels,
            tp_degree=args.tp,
            engine=args.engine,
        )
    except ValueError as exc:
        raise SystemExit(f"bad simulate request: {exc}")
    client = PlannerClient(args.remote)
    try:
        reply = client.simulate(request)
    except ServiceError as exc:
        raise SystemExit(f"remote simulate failed: {exc}")
    print(f"model: {args.model}   mesh: {args.mesh} ({args.fabric})   "
          f"remote: {client.base_url}")
    print(f"key: {reply['key']}")
    print(f"source: {reply['source']} "
          f"({'cache hit' if reply['cached'] else 'fresh simulation'}) "
          f"[{reply.get('engine', '?')} tier]")
    rows = []
    for entry in reply["profiles"]:
        if not entry.get("valid", True):
            rows.append([entry["plan"], "-", "-", "-", "invalid"])
            continue
        prof = entry["profile"]
        rows.append([
            entry["plan"],
            f"{prof['iteration_time'] * 1e3:.1f}",
            f"{prof['comm_time'] * 1e3:.1f}",
            f"{prof['exposed_comm_time'] * 1e3:.1f}",
            f"{prof['overlap_efficiency'] * 100:.0f}%",
        ])
    print(format_table(
        ["plan", "step (ms)", "comm (ms)", "exposed (ms)", "overlap"],
        rows,
        title=f"{args.model} what-if on {args.mesh}",
    ))
    print(f"round trip: {reply['latency_seconds'] * 1e3:.2f} ms service-side")
    return 0


def cmd_simulate(args) -> int:
    if args.remote:
        return _run_remote_simulate(args)
    _, _, _, ng = _prep(args.model)
    mesh = _parse_mesh(args.mesh, args.fabric)
    cfg = CostConfig(batch_tokens=args.batch_tokens)

    if args.plan in NAMED_PLANS:
        plan = NAMED_PLANS[args.plan](ng, args.tp)
    else:
        plan = _read_plan_file(args.plan)
    routed = _route_or_report(ng, plan, mesh, args.plan)
    if routed is None:
        return 1
    from .verify import verify_routed

    report = verify_routed(ng, routed, mesh, cfg)
    if not report.ok:
        _print_verification(report, "routed plan")
        return 1
    prof = simulate_iteration(routed, mesh, cfg, engine=args.engine)
    mem = memory_per_device(routed, mesh, cfg)
    cost = CostModel(mesh, cfg).plan_cost(routed)
    print(format_table(
        ["plan", "step (ms)", "comm (ms)", "exposed (ms)", "cost (ms)",
         "memory (GB)"],
        [[
            args.plan,
            f"{prof.iteration_time * 1e3:.1f}",
            f"{prof.comm_time * 1e3:.1f}",
            f"{prof.exposed_comm_time * 1e3:.1f}",
            f"{cost * 1e3:.1f}",
            f"{mem.total_gb:.2f}",
        ]],
        title=f"{args.model} on {mesh} [{args.engine} tier]",
    ))
    return 0


def cmd_verify_plan(args) -> int:
    from .verify import verify_rewrite, verify_routed

    _, trimmed, record, ng = _prep(args.model)
    mesh = _parse_mesh(args.mesh, args.fabric)
    cfg = CostConfig(batch_tokens=args.batch_tokens)

    if args.plan is None:
        plan = plan_request(ng, mesh, cfg).plan
        source = "derived"
    elif args.plan in NAMED_PLANS:
        plan = NAMED_PLANS[args.plan](ng, args.tp)
        source = args.plan
    else:
        plan = _read_plan_file(args.plan)
        source = args.plan

    routed = _route_or_report(ng, plan, mesh, source)
    if routed is None:
        return 1
    report = verify_routed(ng, routed, mesh, cfg)
    rewrite = rewrite_graph(
        trimmed, ng, routed, trim_record=record, packing=cfg.packing
    )
    report.extend(verify_rewrite(ng, routed, rewrite, packing=cfg.packing))
    _print_verification(report, f"{args.model} / {source}")
    return 0 if report.ok else 1


def cmd_verify_lint(args) -> int:
    from .verify import format_diagnostics, lint_paths

    paths = args.paths or [str(Path(__file__).parent)]
    diagnostics = lint_paths(paths)
    for line in format_diagnostics(diagnostics, args.format):
        print(line)
    if diagnostics:
        if args.format == "text":
            print(f"{len(diagnostics)} lint finding(s)")
        return 1
    if args.format == "text":
        print("lint: clean")
    return 0


def cmd_verify_analyze(args) -> int:
    from .verify import format_diagnostics
    from .verify.analyze import (
        analyze_paths,
        apply_baseline,
        default_baseline_path,
        load_baseline,
        write_baseline,
    )

    paths = args.paths or [str(Path(__file__).parent)]
    diagnostics = analyze_paths(paths)

    baseline_path = Path(args.baseline) if args.baseline else default_baseline_path()
    if args.write_baseline:
        write_baseline(baseline_path, diagnostics)
        print(f"baseline: wrote {len(diagnostics)} finding(s) to {baseline_path}")
        return 0

    baseline = {} if args.no_baseline else load_baseline(baseline_path)
    fresh, matched = apply_baseline(diagnostics, baseline)
    shown = diagnostics if args.all else fresh
    for line in format_diagnostics(shown, args.format):
        print(line)
    errors = [d for d in fresh if d.severity == "error"]
    if args.format == "text":
        print(
            f"analyze: {len(fresh)} new finding(s) "
            f"({len(errors)} error(s)), {matched} baselined"
        )
    # exit 1 on any *new* error; baselined and warning findings pass
    return 1 if errors else 0


def cmd_serve(args) -> int:
    from .service import default_cache_dir, serve

    cache_dir = Path(args.cache_dir) if args.cache_dir else default_cache_dir()
    server = serve(
        args.host,
        args.port,
        cache_dir=cache_dir,
        workers=None if args.inline else args.workers,
        lru_capacity=args.lru_capacity,
        queue_limit=args.queue_limit,
    )
    host, port = server.address
    stats = server.service.stats()
    mode = "inline" if args.inline else f"{stats['workers']} worker process(es)"
    print(f"planner service on http://{host}:{port}")
    print(f"cache: {cache_dir} ({stats['cache']['disk_entries']} plans on disk; "
          f"{mode})")
    print("endpoints: POST /plan  POST /simulate  GET /stats  GET /health  "
          "POST /shutdown")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        server.close()
        print("\nplanner service stopped")
    return 0


def _open_cache(args):
    from .service import PlanCache, default_cache_dir

    cache_dir = Path(args.cache_dir) if args.cache_dir else default_cache_dir()
    return cache_dir, PlanCache(cache_dir)


def cmd_cache_stats(args) -> int:
    cache_dir, cache = _open_cache(args)
    rows = []
    for key, _path in cache.disk_entries():
        # structural load (no graph to verify against); corrupt blobs
        # are quarantined
        env, _ = cache.get(key, None)
        if env is None:
            continue
        rows.append([
            key,
            env.engine or "?",
            f"{env.cost * 1e3:.2f}",
            f"{env.timings.get('search_seconds', 0.0):.2f}",
            env.created or "?",
        ])
    print(format_table(
        ["key", "engine", "cost (ms)", "search (s)", "created"],
        rows,
        title=f"plan cache at {cache_dir}",
    ))
    quarantined = cache.quarantined_entries()
    print(f"{len(rows)} valid entr{'y' if len(rows) == 1 else 'ies'}, "
          f"{len(quarantined)} quarantined")
    return 0


def cmd_cache_clear(args) -> int:
    cache_dir, cache = _open_cache(args)
    removed = cache.clear()
    print(f"removed {removed} cached plan(s) from {cache_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="TAP/TAPAS automatic tensor parallelism"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("models", help="list model presets")
    p.set_defaults(func=cmd_models)

    p = sub.add_parser("inspect", help="graph stats + shared subgraphs")
    p.add_argument("model", choices=sorted(MODEL_PRESETS))
    p.add_argument("--min-duplicate", type=int, default=2)
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("plan", help="derive the best plan for a model")
    p.add_argument("model", choices=sorted(MODEL_PRESETS))
    p.add_argument("--mesh", default="2x8", help="workers x gpus, e.g. 2x8")
    p.add_argument("--fabric", choices=("paper", "nvlink"), default="paper")
    p.add_argument("--batch-tokens", type=int, default=16 * 512)
    p.add_argument("--min-duplicate", type=int, default=2)
    p.add_argument("--engine", choices=("columnar", "reference"),
                   default="columnar",
                   help="evaluation tier: the vectorized columnar core "
                        "(default) or the reference per-candidate loop — "
                        "bit-identical plans and costs")
    p.add_argument("--zero", type=int, nargs="?", const=1, default=0,
                   choices=(0, 1, 2), metavar="STAGE",
                   help="ZeRO-style optimizer-state sharding stage: "
                        "gradients sync via reduce-scatter and updated "
                        "weights all-gather after the step; stage 1 shards "
                        "optimizer state 1/dp, stage 2 also shards "
                        "gradients (bare --zero means stage 1)")
    p.add_argument("-o", "--output", help="save the plan as JSON")
    p.add_argument("--trace", metavar="FILE",
                   help="record the pipeline as a Chrome trace (merged "
                        "with the simulated iteration; open in Perfetto)")
    p.add_argument("--remote", metavar="URL",
                   help="send the request to a running planner daemon "
                        "(see 'repro serve') instead of searching locally")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("simulate", help="price a named or saved plan")
    p.add_argument("model", choices=sorted(MODEL_PRESETS))
    p.add_argument("--plan", default="megatron",
                   help="dp|mha_only|ffn_only|megatron or a JSON plan path")
    p.add_argument("--tp", type=int, default=8)
    p.add_argument("--mesh", default="2x8")
    p.add_argument("--fabric", choices=("paper", "nvlink"), default="paper")
    p.add_argument("--batch-tokens", type=int, default=16 * 512)
    p.add_argument("--engine", choices=("columnar", "reference"),
                   default="columnar",
                   help="simulation tier: the vectorized columnar tier "
                        "(default) or the reference event loop — "
                        "bit-identical")
    p.add_argument("--remote", metavar="URL",
                   help="send the request to a running planner daemon's "
                        "POST /simulate (see 'repro serve')")
    p.add_argument("--plans", default=None,
                   help="with --remote: comma-separated plan labels "
                        "(named plans and/or 'tap'; default: --plan)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="static analysis (plan checker, lint)")
    vsub = p.add_subparsers(dest="verify_command", required=True)

    v = vsub.add_parser("plan", help="re-check a plan against the "
                                     "sharding invariants (no simulation)")
    v.add_argument("model", choices=sorted(MODEL_PRESETS))
    v.add_argument("--plan", default=None,
                   help="dp|mha_only|ffn_only|megatron or a JSON plan path "
                        "(default: derive one)")
    v.add_argument("--tp", type=int, default=8)
    v.add_argument("--mesh", default="2x8")
    v.add_argument("--fabric", choices=("paper", "nvlink"), default="paper")
    v.add_argument("--batch-tokens", type=int, default=16 * 512)
    v.set_defaults(func=cmd_verify_plan)

    v = vsub.add_parser("lint", help="AST rules over the source tree")
    v.add_argument("paths", nargs="*",
                   help="files or directories (default: the repro package)")
    v.add_argument("--format", choices=("text", "json", "github"),
                   default="text",
                   help="output format (github = workflow annotations)")
    v.set_defaults(func=cmd_verify_lint)

    v = vsub.add_parser(
        "analyze",
        help="interprocedural analysis: call-graph purity + lockset races",
    )
    v.add_argument("paths", nargs="*",
                   help="files or directories (default: the repro package)")
    v.add_argument("--format", choices=("text", "json", "github"),
                   default="text",
                   help="output format (github = workflow annotations)")
    v.add_argument("--baseline", default=None,
                   help="baseline JSON path (default: the committed "
                        "verify/analyze_baseline.json)")
    v.add_argument("--no-baseline", action="store_true",
                   help="report every finding, ignoring the baseline")
    v.add_argument("--all", action="store_true",
                   help="show baselined findings too (exit code still "
                        "reflects only new errors)")
    v.add_argument("--write-baseline", action="store_true",
                   help="accept current findings: rewrite the baseline "
                        "file and exit 0")
    v.set_defaults(func=cmd_verify_analyze)

    p = sub.add_parser("serve", help="run the planner service daemon")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8090,
                   help="TCP port (0 picks a free one)")
    p.add_argument("--cache-dir", default=None,
                   help="plan cache directory (default: $REPRO_CACHE_DIR "
                        "or ~/.cache/repro/plans)")
    p.add_argument("--workers", type=_workers_arg, default=0,
                   help="search worker processes (0 = auto-detect)")
    p.add_argument("--inline", action="store_true",
                   help="execute searches in-process (no worker pool)")
    p.add_argument("--lru-capacity", type=_positive_int, default=128,
                   help="in-memory LRU size (plans)")
    p.add_argument("--queue-limit", type=_positive_int, default=32,
                   help="max distinct searches in flight before "
                        "fast-failing with 429")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("cache", help="plan cache utilities")
    csub = p.add_subparsers(dest="cache_command", required=True)
    c = csub.add_parser("stats", help="list the cached plans")
    c.add_argument("--cache-dir", default=None)
    c.set_defaults(func=cmd_cache_stats)
    c = csub.add_parser("clear", help="delete every cached plan")
    c.add_argument("--cache-dir", default=None)
    c.set_defaults(func=cmd_cache_clear)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
