"""Command-line interface.

``python -m busytime.cli <command>`` (or the ``busytime`` console script once
installed) exposes the library's main flows without writing Python.  Every
scheduling command routes through the solve-session engine
(:mod:`busytime.engine`): the CLI builds a :class:`~busytime.engine.SolveRequest`
and renders the returned :class:`~busytime.engine.SolveReport`.

``generate``
    produce a synthetic instance (uniform / poisson / bursty / proper /
    clique / bounded / fig4) and write it to a JSON file.
``schedule``
    load an instance (JSON or CSV), run one of the registered algorithms and
    print a summary table; optionally write the schedule JSON.
``solve``
    batch mode: solve one or more instance JSONs (or a whole directory via
    ``--batch``) through the engine, optionally across a process pool
    (``--workers``), and write per-instance SolveReport JSONs.  With
    ``--deadline``/``--race`` each solve races the policy's top candidates
    under the shared budget (anytime mode).
``compare``
    run several algorithms on one instance and print the head-to-head table
    with lower bounds (and the exact optimum for small instances).
``groom``
    generate or load path-network traffic, assign wavelengths and report the
    regenerator / ADM / wavelength counts.
``simulate``
    replay a dynamic arrive/depart trace (generated from any of the dynamic
    trace families, or derived from an instance JSON) under the three
    standard churn policies — never-migrate, rolling-horizon, migration
    budget — and print the head-to-head report table.
``info``
    print the structural profile of an instance (class, clique number,
    bounds) and which algorithm the engine's policy would choose.
``serve``
    run the solve-as-a-service HTTP frontend (:mod:`busytime.service`):
    canonicalization, result cache, in-flight dedupe and micro-batching in
    front of the engine, on a stdlib-only JSON API.
``submit``
    post one instance to a running ``busytime serve`` (or ``busytime
    cluster``) endpoint and print (or save) the returned solve report;
    retries shed/draining answers with exponential backoff and jitter.
``cluster``
    run the sharded multi-worker topology: either spin up N in-process
    workers plus the consistent-hash router (``--workers N``), or bind
    just the router over externally started ``busytime serve`` processes
    (repeated ``--worker URL``).

Every command accepts ``--seed`` where randomness is involved, so runs are
reproducible.  User-facing failures — a missing file, an unknown algorithm
name, malformed JSON — exit non-zero with a one-line ``busytime: error:``
message rather than a traceback.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from . import io as bio
from .algorithms import algorithm_table, get_scheduler, select_algorithm
from .analysis import format_table
from .core.bounds import best_lower_bound, parallelism_bound, span_bound
from .core.instance import Instance
from .core.objectives import registered_objectives
from .engine import Engine, SolveRequest, available_policies
from .exact import exact_optimal_cost
from .extensions.dynamic import simulate as run_simulation
from .extensions.dynamic import standard_policies
from .generators import (
    DYNAMIC_TRACE_FAMILIES,
    trace_from_instance,
    bounded_length_instance,
    bursty_instance,
    clique_instance,
    firstfit_lower_bound_instance,
    hotspot_traffic,
    local_traffic,
    poisson_arrivals_instance,
    proper_instance,
    uniform_random_instance,
    uniform_traffic,
)
from .graphs.properties import profile_instance
from .optical import groom as groom_traffic
from .optical import traffic_to_instance

__all__ = ["main", "build_parser", "CliError"]

_DEFAULT_N = 50
_DEFAULT_SEED = 0


class CliError(Exception):
    """A user-facing CLI failure: printed as one line, exit code 2.

    Raised at the points where *user input* is interpreted (algorithm
    names, service replies), so that ``main`` never has to classify bare
    ``KeyError``/``RuntimeError`` — internal bugs of those types keep their
    tracebacks.
    """


def _resolve_scheduler(name: str):
    """`get_scheduler` with the unknown-name KeyError mapped to CliError."""
    try:
        return get_scheduler(name)
    except KeyError as exc:
        raise CliError(exc.args[0]) from None

_GENERATORS: Dict[str, Callable[..., Instance]] = {
    "uniform": lambda n, g, seed: uniform_random_instance(n, g, seed=seed),
    "poisson": lambda n, g, seed: poisson_arrivals_instance(n, g, seed=seed),
    "bursty": lambda n, g, seed: bursty_instance(n, g, seed=seed),
    "proper": lambda n, g, seed: proper_instance(n, g, seed=seed),
    "clique": lambda n, g, seed: clique_instance(n, g, seed=seed),
    "bounded": lambda n, g, seed: bounded_length_instance(n, g, seed=seed),
}

_TRAFFIC_GENERATORS = {
    "uniform": uniform_traffic,
    "hotspot": hotspot_traffic,
    "local": local_traffic,
}


def _load_instance(path: str, g: Optional[int]) -> Instance:
    if path.endswith(".csv"):
        if g is None:
            raise SystemExit("--g is required when loading a CSV job list")
        return bio.jobs_from_csv(path, g=g)
    instance = bio.load_instance(path)
    if g is not None:
        instance = instance.with_g(g)
    return instance


def _load_tariff(spec: str):
    """Resolve a ``--tariff`` value: the builtin ``tou`` shape or a JSON file.

    A file must hold a :class:`~busytime.pricing.TariffSeries` document
    (``{"breakpoints": [...], "rates": [...]}``).
    """
    from .pricing import TariffSeries

    if spec == "tou":
        from .generators import tou_tariff

        return tou_tariff()
    path = Path(spec)
    if not path.is_file():
        raise CliError(
            f"--tariff expects 'tou' or a tariff JSON file, got {spec!r}"
        )
    try:
        return TariffSeries.from_dict(json.loads(path.read_text()))
    except (ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
        raise CliError(f"could not load tariff {spec}: {exc}") from None


def _tariff_objective(args: argparse.Namespace):
    """(objective, CostModel) for a ``--tariff`` run, or (objective, None).

    ``--tariff`` implies the ``tariff_busy_time`` objective unless the user
    forced a different non-default one, which is rejected: pricing a
    ratio-preserving objective by a tariff would silently change what the
    reported numbers mean.
    """
    if not getattr(args, "tariff", None):
        return args.objective, None
    if args.objective not in ("busy_time", "tariff_busy_time"):
        raise CliError(
            f"--tariff prices solves under objective 'tariff_busy_time'; "
            f"it cannot combine with --objective {args.objective}"
        )
    from .core.objectives import CostModel

    return "tariff_busy_time", CostModel(
        objective="tariff_busy_time", tariff=_load_tariff(args.tariff)
    )


def _request_for(instance: Instance, algorithm: str, **options) -> SolveRequest:
    """Build a SolveRequest; the pseudo-name ``auto`` means policy dispatch."""
    if algorithm == "auto":
        forced = None
    else:
        _resolve_scheduler(algorithm)  # unknown names are a one-line CliError
        forced = algorithm
    return SolveRequest(instance=instance, algorithm=forced, **options)


# ---------------------------------------------------------------------------
# Sub-command implementations
# ---------------------------------------------------------------------------


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.family == "fig4":
        # The Fig. 4 (Theorem 2.4) construction is fully determined by g:
        # it has exactly g*(g+1) jobs and no randomness.  Silently ignoring
        # --n/--seed used to mislead; now it is an explicit error.
        if args.n is not None or args.seed is not None:
            raise SystemExit(
                "the fig4 family is fully determined by --g (it has g*(g+1) "
                "jobs and no randomness); --n and --seed do not apply"
            )
        instance = firstfit_lower_bound_instance(max(args.g, 2))
    else:
        maker = _GENERATORS[args.family]
        n = _DEFAULT_N if args.n is None else args.n
        seed = _DEFAULT_SEED if args.seed is None else args.seed
        instance = maker(n, args.g, seed)
    bio.save_instance(instance, args.output)
    print(f"wrote {instance.n} jobs (g={instance.g}, {instance.classify()}) to {args.output}")
    return 0


def _report_row(label: str, report) -> Dict[str, object]:
    summary = report.summary()
    row = {
        "algorithm": label,
        "n": summary["n"],
        "g": summary["g"],
        "busy_time": round(summary["cost"], 3),
        "machines": summary["machines"],
        "lower_bound": round(summary["lower_bound"], 3),
        "ratio_vs_lb": (
            round(summary["ratio_vs_lb"], 3) if summary["lower_bound"] > 0 else 1.0
        ),
    }
    if report.objective != "busy_time":
        # Non-default cost models price the solve differently from the raw
        # busy time; show both so the table stays comparable.
        row["objective"] = report.objective
        row["objective_value"] = round(report.value, 3)
    return row


def _cmd_schedule(args: argparse.Namespace) -> int:
    instance = _load_instance(args.instance, args.g)
    engine = Engine()
    report = engine.solve(
        _request_for(instance, args.algorithm, objective=args.objective)
    )
    print(
        format_table(
            [_report_row(args.algorithm, report)],
            title=f"schedule for {instance.name or args.instance}",
        )
    )
    if args.output:
        bio.save_schedule(report.schedule, args.output)
        print(f"schedule written to {args.output}")
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    paths: List[Path] = [Path(p) for p in args.instances]
    if args.batch:
        batch_dir = Path(args.batch)
        if not batch_dir.is_dir():
            raise SystemExit(f"--batch expects a directory, got {args.batch}")
        paths.extend(sorted(batch_dir.glob(args.glob)))
    if not paths:
        raise SystemExit("nothing to solve: pass instance files and/or --batch DIR")

    objective, cost_model = _tariff_objective(args)
    engine = Engine()
    requests = []
    for path in paths:
        instance = _load_instance(str(path), args.g)
        requests.append(
            _request_for(
                instance,
                args.algorithm,
                objective=objective,
                cost_model=cost_model,
                policy=args.policy,
                portfolio=not args.no_portfolio,
                time_limit=args.time_limit,
                compute_optimum=args.exact,
                race=args.race,
                deadline=args.deadline,
                tags={"file": path.name},
            )
        )
    reports = engine.solve_many(requests, max_workers=args.workers)

    rows = []
    for path, report in zip(paths, reports):
        row = _report_row(report.algorithm, report)
        row = {"file": path.name, **row}
        row["proven_ratio"] = report.proven_ratio
        if report.optimum is not None:
            row["optimum"] = round(report.optimum, 3)
        if report.race is not None:
            row["raced"] = len(report.race.candidates)
            row["decisive"] = report.race.decisive
        row["time_s"] = round(report.wall_time_seconds, 4)
        rows.append(row)
    workers_note = f", workers={args.workers}" if args.workers else ""
    print(format_table(rows, title=f"solved {len(reports)} instances{workers_note}"))

    if args.output_dir:
        out_dir = Path(args.output_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        used: Dict[str, int] = {}
        for path, report in zip(paths, reports):
            # Inputs from different directories may share a stem; suffix
            # duplicates instead of silently overwriting earlier reports.
            count = used.get(path.stem, 0)
            used[path.stem] = count + 1
            stem = path.stem if count == 0 else f"{path.stem}-{count + 1}"
            bio.save_solve_report(report, out_dir / f"{stem}.report.json")
        print(f"{len(reports)} reports written to {out_dir}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    instance = _load_instance(args.instance, args.g)
    if args.algorithms:
        names = args.algorithms
    else:
        # The default line-up is filtered by declared capability, so
        # `compare --objective machines_plus_busy` (or a demand-carrying
        # instance file) compares the declarers instead of dying on the
        # first algorithm that never heard of the problem model.  An
        # explicit --algorithms list is taken literally and may error.
        names = [
            name
            for name in ("first_fit", "proper_greedy", "best_fit", "auto")
            if name == "auto"
            or (
                get_scheduler(name).supports_objective(args.objective)
                and (not instance.has_demands or get_scheduler(name).demand_aware)
            )
        ]
    engine = Engine()
    reports = [
        (name, engine.solve(_request_for(instance, name, objective=args.objective)))
        for name in names
    ]
    lb = reports[0][1].lower_bound
    optimum = None
    from .core.objectives import get_cost_model

    if args.exact and instance.n <= args.exact_limit:
        if get_cost_model(args.objective).preserves_busy_time_ratios:
            optimum = exact_optimal_cost(instance)
        else:
            # The exact solvers minimise busy time; under an
            # activation-priced model that number is not the model optimum
            # and would sit in the table next to a model-priced LB.
            print(
                f"note: --exact is skipped for objective {args.objective!r} "
                f"(the exact solver optimises busy time, not this cost model)"
            )
    rows = []
    for name, report in reports:
        row = {
            "algorithm": name,
            "busy_time": round(report.cost, 3),
            "machines": report.num_machines,
            "ratio_vs_lb": round(report.ratio_vs_lb, 3) if lb > 0 else 1.0,
        }
        if args.objective != "busy_time":
            # ratio_vs_lb is value/LB under the model; show the value so
            # every printed ratio is derivable from printed numbers.
            row["objective_value"] = round(report.value, 3)
        if optimum:
            row["ratio_vs_opt"] = round(report.cost / optimum, 3)
        rows.append(row)
    title = f"comparison on {instance.name or args.instance} (LB={lb:.3f}"
    title += f", OPT={optimum:.3f})" if optimum else ")"
    print(format_table(rows, title=title))
    return 0


def _cmd_groom(args: argparse.Namespace) -> int:
    if args.traffic:
        traffic = bio.load_traffic(args.traffic)
    else:
        maker = _TRAFFIC_GENERATORS[args.family]
        traffic = maker(args.nodes, args.lightpaths, args.g, seed=args.seed)
    algorithm = None
    if args.algorithm:
        algorithm = _resolve_scheduler(args.algorithm)
    assignment = groom_traffic(traffic, algorithm=algorithm)
    assignment.validate()
    lb = best_lower_bound(traffic_to_instance(traffic))
    rows = [
        {
            "lightpaths": traffic.n,
            "nodes": traffic.network.num_nodes,
            "g": traffic.g,
            "wavelengths": assignment.num_wavelengths,
            "regenerators": assignment.regenerators(),
            "adms": assignment.adms(),
            "no_grooming_regens": traffic.total_regenerator_demand(),
            "sched_lower_bound": round(lb, 1),
        }
    ]
    print(format_table(rows, title="traffic grooming (Section 4)"))
    if args.output:
        Path(args.output).write_text(
            json.dumps(
                {
                    "colors": assignment.colors,
                    "summary": assignment.summary(),
                },
                indent=2,
            )
        )
        print(f"assignment written to {args.output}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    if args.instance:
        instance = _load_instance(args.instance, args.g)
        trace = trace_from_instance(
            instance, early_departure_fraction=args.churn, seed=args.seed
        )
    else:
        maker = DYNAMIC_TRACE_FAMILIES[args.family]
        trace = maker(args.n, args.g if args.g is not None else 3, args.seed, args.churn)
    algorithm = None if args.algorithm == "auto" else args.algorithm
    if algorithm is not None:
        _resolve_scheduler(algorithm)  # unknown names are a one-line CliError
    policies = standard_policies(
        trace, period=args.period, budget=args.budget, algorithm=algorithm
    )
    reports = run_simulation(
        trace,
        policies=policies,
        oracle_check_every=args.oracle_check_every or None,
    )
    rows = []
    for report in reports:
        rows.append(
            {
                "policy": report.policy,
                "realized_cost": round(report.realized_cost, 3),
                "migrations": report.migrations,
                "replans": report.replans,
                "machines": report.machines_opened,
                "offline_cost": (
                    round(report.offline_cost, 3)
                    if report.offline_cost is not None
                    else None
                ),
                "gap_vs_offline": (
                    round(report.gap_vs_offline, 3)
                    if report.gap_vs_offline is not None
                    else None
                ),
                "oracle_checks": report.oracle_checks,
            }
        )
    title = (
        f"dynamic replay of {trace.name or 'trace'} "
        f"({trace.num_events} events, {trace.num_jobs} jobs, g={trace.g})"
    )
    print(format_table(rows, title=title))
    if args.output:
        Path(args.output).write_text(
            json.dumps([r.as_dict() for r in reports], indent=2) + "\n"
        )
        print(f"simulation reports written to {args.output}")
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    instance = _load_instance(args.instance, args.g)
    profile = profile_instance(instance)
    rows = [
        {"property": "n", "value": profile.n},
        {"property": "g", "value": profile.g},
        {"property": "class", "value": instance.classify()},
        {"property": "clique number", "value": profile.clique_number},
        {"property": "connected components", "value": profile.num_components},
        {"property": "proper", "value": profile.proper},
        {"property": "clique", "value": profile.clique},
        {"property": "laminar", "value": profile.laminar},
        {"property": "length ratio", "value": round(profile.length_ratio, 3)},
        {"property": "span bound", "value": round(span_bound(instance), 3)},
        {"property": "parallelism bound", "value": round(parallelism_bound(instance), 3)},
        {"property": "best lower bound", "value": round(best_lower_bound(instance), 3)},
        {"property": "dispatcher choice", "value": select_algorithm(instance)},
    ]
    print(format_table(rows, title=f"profile of {instance.name or args.instance}"))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:  # pragma: no cover - blocks
    # serving until interrupted; exercised end-to-end by the CI smoke step.
    import signal
    import threading

    from .service import AdmissionLimits, ResultStore, SolveService, make_server

    service = SolveService(
        store=ResultStore(
            capacity=args.cache_capacity,
            directory=args.store_dir,
            max_disk_entries=args.max_disk_entries,
        ),
        limits=AdmissionLimits(
            max_jobs=args.max_jobs,
            max_time_limit=args.max_time_limit,
            max_forced_jobs=args.max_forced_jobs,
        ),
        batch_size=args.batch_size,
        batch_window=args.batch_window,
        max_workers=args.workers,
        max_pending=args.max_pending,
    )
    server = make_server(
        service,
        host=args.host,
        port=args.port,
        verbose=args.verbose,
        wait_timeout=args.wait_timeout,
    )
    host, port = server.server_address[:2]
    print(f"busytime service listening on http://{host}:{port}", flush=True)

    def _drain_and_stop() -> None:
        # Graceful drain: refuse new admissions (503 + Retry-After at the
        # frontend, so cluster routers spill to replicas), let in-flight
        # solves finish within the grace window, then stop the loop.
        print("busytime service draining", flush=True)
        drained = service.drain(timeout=args.drain_grace)
        print(f"busytime service drained={drained}", flush=True)
        server.shutdown()

    def _on_sigterm(signum, frame) -> None:
        # The handler must return promptly; the drain runs on its own
        # thread while serve_forever keeps answering polls for in-flight
        # jobs until shutdown() is called.
        threading.Thread(target=_drain_and_stop, daemon=True).start()

    try:
        signal.signal(signal.SIGTERM, _on_sigterm)
    except ValueError:
        pass  # not the main thread (embedded use): no signal hook
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
        pass
    finally:
        server.server_close()
        service.close()
    return 0


def _cmd_cluster(args: argparse.Namespace) -> int:  # pragma: no cover - blocks
    # serving until interrupted; exercised end-to-end by the CI cluster smoke.
    import signal
    import threading

    from .service import LocalCluster, make_cluster_router

    router_kwargs = {
        "vnodes": args.vnodes,
        "max_worker_inflight": args.max_worker_inflight,
        "probe_interval": args.probe_interval,
        "verbose": args.verbose,
    }
    if args.worker:
        # Router-only mode over externally started `busytime serve` workers:
        # drain/shutdown is each worker's own business, the router just
        # reroutes around it.
        router = make_cluster_router(
            args.worker, host=args.host, port=args.port, **router_kwargs
        )
        host, port = router.server_address[:2]
        print(
            f"busytime cluster router listening on http://{host}:{port} "
            f"({len(args.worker)} workers)",
            flush=True,
        )
        try:
            signal.signal(
                signal.SIGTERM,
                lambda *_: threading.Thread(
                    target=router.shutdown, daemon=True
                ).start(),
            )
        except ValueError:
            pass
        try:
            router.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            router.server_close()
        return 0

    cluster = LocalCluster(
        workers=args.workers,
        host=args.host,
        store_capacity=args.cache_capacity,
        store_dir=args.store_dir,
        max_disk_entries=args.max_disk_entries,
        max_pending=args.max_pending,
        wait_timeout=args.wait_timeout,
        router_port=args.port,
        router_kwargs=router_kwargs,
    )
    host, port = cluster.router.server_address[:2]
    print(
        f"busytime cluster router listening on http://{host}:{port} "
        f"({args.workers} workers)",
        flush=True,
    )
    for index, url in enumerate(cluster.worker_urls):
        print(f"  worker {index}: {url}", flush=True)
    stopping = threading.Event()
    try:
        signal.signal(signal.SIGTERM, lambda *_: stopping.set())
    except ValueError:
        pass
    try:
        while not stopping.wait(0.5):
            pass
        print("busytime cluster draining workers", flush=True)
        for service in cluster.services:
            service.drain(timeout=args.drain_grace)
    except KeyboardInterrupt:
        pass
    finally:
        cluster.close()
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from .service import submit_instance

    instance = _load_instance(args.instance, args.g)
    objective, cost_model = _tariff_objective(args)
    options: Dict[str, object] = {}
    if args.algorithm != "auto":
        _resolve_scheduler(args.algorithm)  # unknown names fail here, not serverside
        options["algorithm"] = args.algorithm
    if objective != "busy_time":
        options["objective"] = objective
    if cost_model is not None:
        options["cost_model"] = cost_model.to_dict()
    if args.policy:
        options["policy"] = args.policy
    if args.no_portfolio:
        options["portfolio"] = False
    if args.time_limit is not None:
        options["time_limit"] = args.time_limit
    if args.race:
        options["race"] = args.race
    if args.deadline_ms is not None:
        options["deadline_ms"] = args.deadline_ms
    instance_doc = bio.instance_to_dict(instance)
    # Pre-compute the canonical fingerprint and send it as a routing hint:
    # a cluster router then picks the shard straight from the header
    # instead of re-canonicalizing the body.  Plain `busytime serve`
    # ignores the header, so this is always safe to send.
    from .service import request_fingerprint
    from .service.frontend import _request_from_document

    try:
        fingerprint = request_fingerprint(
            _request_from_document({"instance": instance_doc, "options": options})
        )
    except (ValueError, KeyError, TypeError):
        fingerprint = None  # let the server produce the real 400
    try:
        reply = submit_instance(
            args.url,
            instance_doc,
            options=options,
            wait=not args.no_wait,
            timeout=args.timeout,
            retries=args.retries,
            backoff=args.backoff,
            fingerprint=fingerprint,
        )
    except RuntimeError as exc:
        raise CliError(str(exc)) from None  # the service's refusal, one line
    if reply.get("status") != "done":
        print(
            f"job {reply.get('job_id')}: {reply.get('status')}"
            + (f" ({reply['error']})" if reply.get("error") else "")
        )
        return 0 if reply.get("status") in ("queued", "running") else 1
    report = bio.solve_report_from_dict(reply["report"])
    row = _report_row(report.algorithm, report)
    row["cached"] = reply.get("cached", False)
    if report.race is not None:
        row["raced"] = len(report.race.candidates)
        row["decisive"] = report.race.decisive
    print(format_table([row], title=f"served solve of {instance.name or args.instance}"))
    if args.output:
        Path(args.output).write_text(json.dumps(reply["report"], indent=2))
        print(f"report written to {args.output}")
    return 0


def _cmd_session(args: argparse.Namespace) -> int:
    """Create a streaming session, feed a trace in batches, read it back."""
    from .service.frontend import SessionHTTPError, session_call

    if args.trace:
        trace = bio.load_dynamic_trace(args.trace)
    else:
        maker = DYNAMIC_TRACE_FAMILIES[args.family]
        trace = maker(args.n, args.g if args.g is not None else 3, args.seed, args.churn)
    config: Dict[str, object] = {
        "g": trace.g,
        "horizon": list(trace.horizon),
        "policy": args.policy,
        "name": trace.name,
    }
    if args.period is not None:
        config["replan_period"] = args.period
    if args.policy == "migration_budget":
        config["budget"] = args.budget
    if args.tenant != "default":
        config["tenant"] = args.tenant
    rows = [bio.trace_event_to_dict(e) for e in trace.events]
    try:
        created = session_call(args.url, "/sessions", config, retries=args.retries)
        sid = created["session_id"]
        offset = 0
        while offset < len(rows):
            chunk = rows[offset:offset + args.batch]
            try:
                ack = session_call(
                    args.url,
                    f"/sessions/{sid}/events",
                    {"events": chunk, "first_offset": offset},
                    retries=args.retries,
                )
                offset = int(ack["applied"])  # duplicates skip; ack is truth
            except SessionHTTPError as exc:
                if exc.status == 409 and "expected_offset" in exc.payload:
                    # A retried batch landed out of step (e.g. after a
                    # failover); resync to the offset the server expects.
                    offset = int(exc.payload["expected_offset"])
                    continue
                raise
        assignment = session_call(args.url, f"/sessions/{sid}/assignment")
        final = None
        if not args.keep_open:
            final = session_call(args.url, f"/sessions/{sid}/close", {})
    except (SessionHTTPError, RuntimeError) as exc:
        raise CliError(str(exc)) from None
    row: Dict[str, object] = {
        "session": sid[:12],
        "policy": args.policy,
        "events": len(rows),
        "applied": assignment["applied"],
        "machines": assignment["machines"],
        "live jobs": assignment["live_jobs"],
        "realized_cost": round(
            float((final or assignment)["realized_cost"]), 3
        ),
    }
    title = (
        f"streamed {trace.name or 'trace'} "
        f"({trace.num_events} events, g={trace.g}) to {args.url}"
    )
    print(format_table([row], title=title))
    if args.output:
        payload = {"created": created, "assignment": assignment}
        if final is not None:
            payload["final"] = final
        Path(args.output).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"session transcript written to {args.output}")
    return 0


def _cmd_algorithms(args: argparse.Namespace) -> int:
    rows = []
    for info in algorithm_table():
        rows.append(
            {
                "name": info.name,
                "section": info.paper_section,
                "ratio": info.approximation_ratio,
                "class": info.instance_class,
                "classes": ",".join(info.instance_classes),
                "portfolio": info.portfolio_member,
                "windows": info.window_aware,
                "tariff": info.tariff_aware,
            }
        )
    print(format_table(rows, title="registered algorithms"))
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="busytime",
        description="Busy-time scheduling (Flammini et al., IPDPS 2009) command line",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="generate a synthetic instance")
    p_gen.add_argument(
        "--family", choices=sorted(_GENERATORS) + ["fig4"], default="uniform"
    )
    p_gen.add_argument(
        "--n", type=int, default=None,
        help=f"number of jobs (default {_DEFAULT_N}; not applicable to fig4)",
    )
    p_gen.add_argument("--g", type=int, default=3)
    p_gen.add_argument(
        "--seed", type=int, default=None,
        help=f"random seed (default {_DEFAULT_SEED}; not applicable to fig4)",
    )
    p_gen.add_argument("--output", required=True)
    p_gen.set_defaults(func=_cmd_generate)

    p_sched = sub.add_parser("schedule", help="run one algorithm on an instance")
    p_sched.add_argument("instance", help="instance JSON (or CSV job list with --g)")
    p_sched.add_argument("--algorithm", default="auto")
    p_sched.add_argument(
        "--objective", default="busy_time", choices=registered_objectives(),
        help="cost model to price the solve under (problem-model axis)",
    )
    p_sched.add_argument("--g", type=int, default=None)
    p_sched.add_argument("--output", default=None, help="write the schedule JSON here")
    p_sched.set_defaults(func=_cmd_schedule)

    p_solve = sub.add_parser(
        "solve", help="solve a batch of instances through the engine"
    )
    p_solve.add_argument("instances", nargs="*", help="instance JSON files")
    p_solve.add_argument(
        "--batch", default=None, help="directory of instance JSONs to solve"
    )
    p_solve.add_argument(
        "--glob", default="*.json", help="filename pattern inside --batch"
    )
    p_solve.add_argument("--algorithm", default="auto")
    p_solve.add_argument(
        "--objective", default="busy_time", choices=registered_objectives(),
        help="cost model to price the solves under (problem-model axis)",
    )
    p_solve.add_argument(
        "--tariff", default=None, metavar="SPEC",
        help="price solves under a time-varying tariff: 'tou' (builtin "
        "time-of-use day shape) or a TariffSeries JSON file; implies "
        "--objective tariff_busy_time",
    )
    p_solve.add_argument(
        "--policy", default=None, choices=available_policies(),
        help="selection policy for dispatched (auto) solves",
    )
    p_solve.add_argument(
        "--no-portfolio", action="store_true",
        help="run only the selected algorithm per component",
    )
    p_solve.add_argument("--g", type=int, default=None)
    p_solve.add_argument(
        "--workers", type=int, default=None,
        help="fan out across a process pool of this size",
    )
    p_solve.add_argument(
        "--time-limit", type=float, default=None,
        help="soft per-instance budget in seconds (dispatched solves only; "
        "ignored with a forced --algorithm)",
    )
    p_solve.add_argument(
        "--race", type=int, default=0,
        help="race the policy's top N candidates per instance (0 disables; "
        "incompatible with a forced --algorithm)",
    )
    p_solve.add_argument(
        "--deadline", type=float, default=None,
        help="shared race budget in seconds (requires --race >= 2); the "
        "best finished candidate wins when the budget runs out",
    )
    p_solve.add_argument(
        "--exact", action="store_true",
        help="also compute the exact optimum for small instances",
    )
    p_solve.add_argument(
        "--output-dir", default=None, help="write one SolveReport JSON per instance"
    )
    p_solve.set_defaults(func=_cmd_solve)

    p_cmp = sub.add_parser("compare", help="head-to-head of several algorithms")
    p_cmp.add_argument("instance")
    p_cmp.add_argument("--algorithms", nargs="*", default=None)
    p_cmp.add_argument(
        "--objective", default="busy_time", choices=registered_objectives(),
        help="cost model to price the comparison under",
    )
    p_cmp.add_argument("--g", type=int, default=None)
    p_cmp.add_argument("--exact", action="store_true", help="also compute the exact optimum")
    p_cmp.add_argument("--exact-limit", type=int, default=16)
    p_cmp.set_defaults(func=_cmd_compare)

    p_groom = sub.add_parser("groom", help="wavelength assignment on a path network")
    p_groom.add_argument("--traffic", default=None, help="traffic JSON file")
    p_groom.add_argument("--family", choices=sorted(_TRAFFIC_GENERATORS), default="uniform")
    p_groom.add_argument("--nodes", type=int, default=40)
    p_groom.add_argument("--lightpaths", type=int, default=100)
    p_groom.add_argument("--g", type=int, default=4)
    p_groom.add_argument("--seed", type=int, default=0)
    p_groom.add_argument("--algorithm", default=None)
    p_groom.add_argument("--output", default=None)
    p_groom.set_defaults(func=_cmd_groom)

    p_sim = sub.add_parser(
        "simulate", help="replay a dynamic arrive/depart trace under churn policies"
    )
    p_sim.add_argument(
        "--instance", default=None,
        help="derive the trace from this instance JSON instead of a family",
    )
    p_sim.add_argument(
        "--family", choices=sorted(DYNAMIC_TRACE_FAMILIES), default="uniform",
        help="dynamic trace family (ignored with --instance)",
    )
    p_sim.add_argument(
        "--n", type=int, default=200,
        help="number of jobs, i.e. half the event count (ignored with --instance)",
    )
    p_sim.add_argument("--g", type=int, default=None)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument(
        "--churn", type=float, default=0.25,
        help="fraction of jobs that depart early (early cancellations)",
    )
    p_sim.add_argument(
        "--period", type=float, default=None,
        help="replan period for the rolling-horizon policies "
        "(default: an eighth of the trace horizon)",
    )
    p_sim.add_argument(
        "--budget", type=int, default=4,
        help="migrations per replan for the migration-budget policy",
    )
    p_sim.add_argument(
        "--algorithm", default="first_fit",
        help="registered algorithm the replanner solves with "
        "('auto' for policy dispatch)",
    )
    p_sim.add_argument(
        "--oracle-check-every", type=int, default=256,
        help="verify_schedule cross-check cadence in events (0 disables the "
        "periodic checks; replan and end-of-trace checks always run)",
    )
    p_sim.add_argument("--output", default=None, help="write the report JSONs here")
    p_sim.set_defaults(func=_cmd_simulate)

    p_info = sub.add_parser("info", help="structural profile of an instance")
    p_info.add_argument("instance")
    p_info.add_argument("--g", type=int, default=None)
    p_info.set_defaults(func=_cmd_info)

    p_alg = sub.add_parser("algorithms", help="list registered algorithms")
    p_alg.set_defaults(func=_cmd_algorithms)

    p_serve = sub.add_parser(
        "serve", help="run the solve-as-a-service HTTP frontend"
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=8080, help="0 picks a free port"
    )
    p_serve.add_argument(
        "--cache-capacity", type=int, default=256,
        help="in-memory result-cache entries (LRU)",
    )
    p_serve.add_argument(
        "--store-dir", default=None,
        help="persist cached reports as JSON under this directory",
    )
    p_serve.add_argument(
        "--max-disk-entries", type=int, default=None,
        help="disk-tier budget: evict oldest cached reports beyond this "
        "many entries (default: unbounded)",
    )
    p_serve.add_argument(
        "--max-pending", type=int, default=None,
        help="queue-depth cap: shed new submissions with 429 once this "
        "many solves are in flight (default: unbounded)",
    )
    p_serve.add_argument(
        "--drain-grace", type=float, default=30.0,
        help="seconds SIGTERM waits for in-flight solves before stopping",
    )
    p_serve.add_argument(
        "--batch-size", type=int, default=8,
        help="max requests gathered into one engine batch",
    )
    p_serve.add_argument(
        "--batch-window", type=float, default=0.01,
        help="seconds to wait while gathering a batch",
    )
    p_serve.add_argument(
        "--workers", type=int, default=None,
        help="process-pool size for batched solves (default: in-thread)",
    )
    p_serve.add_argument(
        "--max-jobs", type=int, default=20000,
        help="admission limit: largest accepted instance",
    )
    p_serve.add_argument(
        "--max-time-limit", type=float, default=60.0,
        help="admission limit: per-request time budget cap (seconds)",
    )
    p_serve.add_argument(
        "--max-forced-jobs", type=int, default=5000,
        help="admission limit: largest instance accepted with a forced "
        "--algorithm (such solves cannot be preempted by the time budget)",
    )
    p_serve.add_argument(
        "--wait-timeout", type=float, default=300.0,
        help="server-side cap on how long a 'wait: true' solve may block "
        "before answering 504 (seconds)",
    )
    p_serve.add_argument(
        "--verbose", action="store_true", help="log every HTTP request"
    )
    p_serve.set_defaults(func=_cmd_serve)

    p_submit = sub.add_parser(
        "submit", help="post one instance to a running busytime service"
    )
    p_submit.add_argument("instance", help="instance JSON (or CSV job list with --g)")
    p_submit.add_argument(
        "--url", default="http://127.0.0.1:8080", help="service base URL"
    )
    p_submit.add_argument("--algorithm", default="auto")
    p_submit.add_argument(
        "--objective", default="busy_time", choices=registered_objectives(),
        help="cost model the service prices the solve under",
    )
    p_submit.add_argument(
        "--tariff", default=None, metavar="SPEC",
        help="price the solve under a time-varying tariff: 'tou' or a "
        "TariffSeries JSON file; implies --objective tariff_busy_time",
    )
    p_submit.add_argument(
        "--policy", default=None, choices=available_policies(),
        help="selection policy for dispatched (auto) solves",
    )
    p_submit.add_argument(
        "--no-portfolio", action="store_true",
        help="run only the selected algorithm per component",
    )
    p_submit.add_argument("--g", type=int, default=None)
    p_submit.add_argument(
        "--time-limit", type=float, default=None,
        help="soft per-request budget in seconds",
    )
    p_submit.add_argument(
        "--race", type=int, default=0,
        help="ask the service to race the top N candidates (0 disables)",
    )
    p_submit.add_argument(
        "--deadline-ms", type=int, default=None,
        help="race deadline budget in milliseconds (implies a default race "
        "width when --race is not given)",
    )
    p_submit.add_argument(
        "--no-wait", action="store_true",
        help="return the job id immediately instead of waiting for the report",
    )
    p_submit.add_argument(
        "--timeout", type=float, default=300.0, help="client-side wait timeout"
    )
    p_submit.add_argument(
        "--retries", type=int, default=2,
        help="retry connection-refused/429/503 answers this many times "
        "with exponential backoff and jitter (0 disables)",
    )
    p_submit.add_argument(
        "--backoff", type=float, default=0.25,
        help="base backoff delay in seconds (doubles per attempt, jittered)",
    )
    p_submit.add_argument(
        "--output", default=None, help="write the solve-report JSON here"
    )
    p_submit.set_defaults(func=_cmd_submit)

    p_cluster = sub.add_parser(
        "cluster", help="run the sharded multi-worker cluster (router + workers)"
    )
    p_cluster.add_argument("--host", default="127.0.0.1")
    p_cluster.add_argument(
        "--port", type=int, default=8080, help="router port (0 picks a free one)"
    )
    p_cluster.add_argument(
        "--workers", type=int, default=2,
        help="number of in-process workers to start (ignored with --worker)",
    )
    p_cluster.add_argument(
        "--worker", action="append", default=None, metavar="URL",
        help="route to this externally started `busytime serve` worker "
        "(repeatable; router-only mode)",
    )
    p_cluster.add_argument(
        "--vnodes", type=int, default=64,
        help="virtual nodes per worker on the consistent-hash ring",
    )
    p_cluster.add_argument(
        "--max-worker-inflight", type=int, default=64,
        help="router-side per-worker in-flight cap before spilling/shedding",
    )
    p_cluster.add_argument(
        "--probe-interval", type=float, default=1.0,
        help="seconds between liveness probes of dead workers (0 disables)",
    )
    p_cluster.add_argument(
        "--cache-capacity", type=int, default=256,
        help="per-worker in-memory result-cache entries (local workers)",
    )
    p_cluster.add_argument(
        "--store-dir", default=None,
        help="per-worker disk cache root (local workers get w0/, w1/, ...)",
    )
    p_cluster.add_argument(
        "--max-disk-entries", type=int, default=None,
        help="per-worker disk-tier entry budget (local workers)",
    )
    p_cluster.add_argument(
        "--max-pending", type=int, default=None,
        help="per-worker queue-depth cap (local workers)",
    )
    p_cluster.add_argument(
        "--wait-timeout", type=float, default=300.0,
        help="per-worker cap on 'wait: true' blocking (seconds)",
    )
    p_cluster.add_argument(
        "--drain-grace", type=float, default=30.0,
        help="seconds SIGTERM waits for each local worker's in-flight solves",
    )
    p_cluster.add_argument(
        "--verbose", action="store_true", help="log every HTTP request"
    )
    p_cluster.set_defaults(func=_cmd_cluster)

    p_session = sub.add_parser(
        "session",
        help="stream a dynamic trace through a server-side solve session",
    )
    p_session.add_argument(
        "--url", default="http://127.0.0.1:8080",
        help="service or cluster-router base url",
    )
    p_session.add_argument(
        "--trace", default=None,
        help="busytime-trace JSON file to stream (default: generate one)",
    )
    p_session.add_argument(
        "--family", choices=sorted(DYNAMIC_TRACE_FAMILIES), default="uniform",
        help="generated-trace family when --trace is not given",
    )
    p_session.add_argument("--n", type=int, default=64, help="generated-trace jobs")
    p_session.add_argument("--g", type=int, default=None)
    p_session.add_argument("--seed", type=int, default=0)
    p_session.add_argument(
        "--churn", type=float, default=0.25,
        help="generated-trace early-departure fraction",
    )
    p_session.add_argument(
        "--policy",
        choices=["never_migrate", "rolling_horizon", "migration_budget"],
        default="never_migrate",
    )
    p_session.add_argument(
        "--period", type=float, default=None,
        help="replan period (required by the replanning policies)",
    )
    p_session.add_argument(
        "--budget", type=int, default=4,
        help="migrations per replan (migration_budget only)",
    )
    p_session.add_argument(
        "--batch", type=int, default=32, help="events per POST batch"
    )
    p_session.add_argument("--tenant", default="default")
    p_session.add_argument(
        "--keep-open", action="store_true",
        help="leave the session open instead of settling it",
    )
    p_session.add_argument(
        "--retries", type=int, default=2,
        help="retry budget for 429/503/transport failures per call",
    )
    p_session.add_argument("--output", default=None, help="write the transcript JSON here")
    p_session.set_defaults(func=_cmd_session)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Downstream closed early (e.g. `busytime info ... | head`); the
        # truncation is deliberate, not an error worth reporting.  Point
        # the broken stdout at devnull (the Python-docs recipe) so the
        # interpreter's exit-time flush cannot fail again and turn the
        # clean exit into status 120 plus "Exception ignored" noise.
        import os

        try:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        except Exception:  # noqa: BLE001 - e.g. stdout without a real fd
            pass
        return 0
    except (CliError, OSError, ValueError) as exc:
        from .core.schedule import InfeasibleScheduleError

        if isinstance(exc, InfeasibleScheduleError):
            # The oracle rejecting a schedule is an internal correctness
            # bug (it subclasses ValueError for callers that branch on
            # feasibility) — keep the traceback, don't dress it as input.
            raise
        # User-facing failures (missing file, unknown algorithm name,
        # malformed JSON, a rejecting server) get a one-line message and a
        # non-zero exit instead of a traceback.  Internal errors — including
        # KeyError/RuntimeError bugs and ProfileOracleMismatchError — keep
        # their tracebacks; user-input call sites raise CliError instead.
        print(f"busytime: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
