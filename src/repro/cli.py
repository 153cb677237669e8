"""Command-line interface.

    python -m repro generate  --customers 600 --days 5 --out capture.npz \
                              [--workers 4] [--cache [--cache-dir DIR]]
    python -m repro generate  --scenario congested-beam --set workload.days=3
    python -m repro stream    --customers 600 --days 30 --dir capture/ \
                              [--window-days 1] [--resume]
    python -m repro fleet     --customers 600 --days 30 --dir fleet/ \
                              --partitions 8 [--max-parallel 4] [--resume]
    python -m repro scenarios [--names | --json]
    python -m repro stream-report --dir capture/ --which fig2,fig5
    python -m repro serve     --dir capture/ --port 8080 [--watch]
    python -m repro report    --dataset capture.npz --which table1,fig2
    python -m repro report    --scenario leo --which fig8
    python -m repro scorecard --dataset capture.npz
    python -m repro scorecard --compare leo-starlink
    python -m repro scorecard --scenario video-streaming \
                              --compare shaped-vs-unshaped
    python -m repro packet-sim
    python -m repro errant    --dataset capture.npz --country Spain --netem

``generate`` synthesizes a capture; ``stream`` runs the bounded-memory
windowed capture pipeline (checkpointed, resumable) and
``stream-report`` renders figures straight from its rollup sketches
without loading the flows back; ``fleet`` distributes one capture
across partitioned worker processes and merges their rollups
bit-identically to a single-process ``stream``; ``report`` regenerates the
requested tables/figures; ``scorecard`` prints the calibration
scorecard; ``packet-sim`` runs the Figure 1 packet-level validation;
``errant`` fits and compares access-link profiles. ``serve`` exposes a
capture directory's reports over HTTP (``--watch`` republishes as a
concurrently-running capture commits windows), and ``stream``/``fleet``
take ``--serve-port`` to serve the live rollup in-process while they
run (see :mod:`repro.serve`).

``generate``, ``stream``, ``fleet``, ``report`` and ``scorecard`` all
take ``--scenario NAME|file.toml`` plus repeatable ``--set key=value``
dotted-path overrides (see :mod:`repro.scenario`; ``repro scenarios``
lists the registry). Without ``--scenario`` the built-in
``baseline-geo`` is used, which is bit-identical to the pre-scenario
defaults. Explicit flags (``--customers``, ``--days``, ``--seed``,
``--workers``, ``--window-days``) beat ``--set``, which beats the
scenario file.

``report``, ``stream-report``, ``scorecard`` and ``errant`` accept a
frame ``.npz``, a stream capture directory, or a bare rollup ``.npz``
interchangeably — :func:`repro.analysis.source.load_capture`
auto-detects the shape and every report dispatches through
:mod:`repro.analysis.registry`. ``report``/``scorecard`` without
``--dataset`` generate the scenario's capture through the cache first.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING, List, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.scenario import Scenario


def _worker_count(value: str) -> int:
    """Positive worker count, or ``auto`` for one per core."""
    if value.strip().lower() == "auto":
        return 0  # ExecutionSpec.workers: 0 = one per core
    try:
        parsed = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer or 'auto', got {value!r}"
        ) from None
    if parsed <= 0:
        raise argparse.ArgumentTypeError(
            f"worker count must be >= 1 (or 'auto' for one per core), got {parsed}"
        )
    return parsed


def _nonnegative_int(value: str) -> int:
    try:
        parsed = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {value!r}"
        ) from None
    if parsed < 0:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {parsed}"
        )
    return parsed


def _positive_int(value: str) -> int:
    try:
        parsed = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {value!r}"
        ) from None
    if parsed <= 0:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {parsed}"
        )
    return parsed


def _scenario_parent() -> argparse.ArgumentParser:
    """Shared ``--scenario``/``--set`` flags."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--scenario",
        default=None,
        metavar="NAME|PATH",
        help="a registered scenario (see `repro scenarios`) or a "
        ".toml/.json scenario file; default baseline-geo",
    )
    parent.add_argument(
        "--set",
        action="append",
        dest="overrides",
        default=[],
        metavar="KEY=VALUE",
        help="dotted-path scenario override, repeatable "
        "(e.g. --set beams.utilization_scale=1.2)",
    )
    return parent


def _workload_parent() -> argparse.ArgumentParser:
    """Shared workload flags of ``generate`` and ``stream``.

    Defaults are ``None`` so the scenario's values apply unless the
    flag is given explicitly — explicit flags beat ``--set``.
    """
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--customers",
        type=_positive_int,
        default=None,
        help="subscriber count (default: scenario value, 600)",
    )
    parent.add_argument(
        "--days",
        type=_positive_int,
        default=None,
        help="simulated days (default: scenario value, 5)",
    )
    parent.add_argument(
        "--seed", type=int, default=None, help="RNG seed (default 2022)"
    )
    parent.add_argument(
        "--workers",
        type=_worker_count,
        default=None,
        help="worker processes (a positive integer, or 'auto' for one "
        "per core); output is identical for any worker count",
    )
    return parent


def _serve_parent() -> argparse.ArgumentParser:
    """Shared live-serve flags of ``stream`` and ``fleet``."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--serve-port",
        type=_nonnegative_int,
        default=None,
        metavar="PORT",
        help="serve live reports over HTTP while the capture runs "
        "(0 = ephemeral port, printed at startup)",
    )
    parent.add_argument(
        "--serve-host",
        default=None,
        metavar="HOST",
        help="bind address for --serve-port (default 127.0.0.1)",
    )
    parent.add_argument(
        "--serve-linger",
        type=float,
        default=None,
        metavar="SECONDS",
        help="keep serving this long after the capture completes",
    )
    return parent


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'When Satellite is All You Have' (IMC 2022)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    scenario_parent = _scenario_parent()
    workload_parent = _workload_parent()
    serve_parent = _serve_parent()

    gen = sub.add_parser(
        "generate",
        help="synthesize a flow capture",
        parents=[scenario_parent, workload_parent],
    )
    gen.add_argument("--out", default="capture.npz")
    gen.add_argument(
        "--cache",
        action="store_true",
        help="reuse/populate the content-keyed capture cache",
    )
    gen.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="cache directory (implies --cache; default $REPRO_CACHE_DIR, "
        "$XDG_CACHE_HOME/repro, or ~/.cache/repro)",
    )

    stream = sub.add_parser(
        "stream",
        help="run a bounded-memory streaming capture into a directory",
        parents=[scenario_parent, workload_parent, serve_parent],
    )
    stream.add_argument(
        "--window-days",
        type=_positive_int,
        default=None,
        help="simulated days per window (part of the capture key)",
    )
    stream.add_argument("--dir", required=True, help="capture directory")
    stream.add_argument(
        "--resume",
        action="store_true",
        help="continue an interrupted capture from its checkpoint",
    )
    stream.add_argument(
        "--max-windows",
        type=int,
        default=None,
        help="stop after N windows (checkpoint stays resumable)",
    )
    stream.add_argument(
        "--no-compress",
        action="store_true",
        help="spill raw npz windows (faster, ~3x more disk)",
    )
    stream.add_argument(
        "--pipeline-depth",
        type=_nonnegative_int,
        default=None,
        help="windows generated ahead of the spill/fold commit thread "
        "(0 = lockstep; default 1); output is identical at any depth",
    )

    fleet = sub.add_parser(
        "fleet",
        help="run a distributed multi-process capture (partitioned, "
        "healed, merged)",
        parents=[scenario_parent, workload_parent, serve_parent],
    )
    fleet.add_argument("--dir", required=True, help="fleet directory")
    fleet.add_argument(
        "--partitions",
        type=_positive_int,
        default=None,
        help="disjoint shard-range partitions (default: scenario fleet "
        "value; merged digest is identical for any count)",
    )
    fleet.add_argument(
        "--max-parallel",
        type=_positive_int,
        default=None,
        help="worker subprocesses allowed at once (default: scenario "
        "fleet value, 4)",
    )
    fleet.add_argument(
        "--straggler-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="kill+heal a worker after this long without checkpoint "
        "progress (default: scenario fleet value, 120)",
    )
    fleet.add_argument(
        "--resume",
        action="store_true",
        help="continue an interrupted fleet from its manifest and the "
        "partitions' checkpoints",
    )
    fleet.add_argument(
        "--window-days",
        type=_positive_int,
        default=None,
        help="simulated days per window (part of the capture key)",
    )
    fleet.add_argument(
        "--no-compress",
        action="store_true",
        help="spill raw npz windows (faster, ~3x more disk)",
    )

    scen = sub.add_parser(
        "scenarios", help="list the registered scenarios and their digests"
    )
    scen.add_argument(
        "--names",
        action="store_true",
        help="print bare names only (for scripting)",
    )
    scen.add_argument(
        "--json",
        action="store_true",
        help="emit the registry as JSON (name, digest, description, "
        "delay mode) for scripting",
    )

    from repro.analysis import registry

    all_reports = ",".join(registry.names())
    rollup_reports = ",".join(
        spec.name for spec in registry.specs() if spec.supports("rollup")
    )

    stream_rep = sub.add_parser(
        "stream-report",
        help="render figures from a capture's rollup sketches "
        "(no full-frame load)",
    )
    stream_rep.add_argument(
        "--dir", required=True, help="capture directory (or frame .npz)"
    )
    stream_rep.add_argument(
        "--which",
        default="all",
        help=f"comma list from {{{rollup_reports}}} or 'all'",
    )

    serve = sub.add_parser(
        "serve",
        help="serve a capture directory's reports over HTTP (live-"
        "updating with --watch)",
    )
    serve.add_argument(
        "--dir", required=True, help="capture directory or rollup .npz"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port",
        type=_nonnegative_int,
        default=0,
        help="TCP port (0 = ephemeral, printed at startup)",
    )
    serve.add_argument(
        "--watch",
        action="store_true",
        help="poll the capture's checkpoint and republish when new "
        "windows commit (serve a capture another process is running)",
    )
    serve.add_argument(
        "--duration",
        type=float,
        default=None,
        metavar="SECONDS",
        help="stop after this long (default: serve until interrupted)",
    )
    serve.add_argument(
        "--poll-interval",
        type=float,
        default=0.25,
        metavar="SECONDS",
        help="--watch checkpoint poll cadence (default 0.25)",
    )

    rep = sub.add_parser(
        "report",
        help="regenerate tables/figures",
        parents=[scenario_parent],
    )
    rep.add_argument(
        "--dataset",
        default=None,
        help="frame .npz, stream capture directory, or rollup .npz "
        "(auto-detected); omitted: generate the scenario's capture "
        "through the cache",
    )
    rep.add_argument(
        "--which",
        default="all",
        help=f"comma list from {{{all_reports}}} or 'all'",
    )

    score = sub.add_parser(
        "scorecard",
        help="calibration scorecard",
        parents=[scenario_parent],
    )
    score.add_argument(
        "--dataset",
        default=None,
        help="frame .npz or stream capture directory (auto-detected); "
        "omitted: generate the scenario's capture through the cache",
    )
    score.add_argument(
        "--compare",
        default=None,
        metavar="NAME|PATH",
        help="second scenario to run the same workload under (same "
        "--set/flag overrides) and diff the satellite-delay profile "
        "against, e.g. --compare leo-starlink for GEO vs LEO",
    )

    sub.add_parser("packet-sim", help="packet-level methodology validation")

    mixed = sub.add_parser(
        "mixed-sim", help="TLS 1.3 / HTTP / QUIC / RTP through the packet path"
    )
    mixed.add_argument("--country", default="Spain")
    mixed.add_argument("--n", type=int, default=3, help="clients per protocol")

    err = sub.add_parser("errant", help="fit/compare ERRANT profiles")
    err.add_argument("--dataset", required=True)
    err.add_argument("--country", default="Spain")
    err.add_argument("--netem", action="store_true", help="print tc netem commands")

    return parser


def _scenario_from_args(
    args: argparse.Namespace, scenario_name: Optional[str] = None
) -> "Scenario":
    """Resolve ``--scenario``, apply ``--set``, then explicit flags.

    Precedence: scenario file < ``--set`` < explicit flags. Raises
    :class:`~repro.scenario.ScenarioError` (mapped to exit 2 by
    :func:`main`) on unknown names, paths, or invalid values.
    ``scenario_name`` substitutes the base scenario while keeping the
    command line's overrides (``scorecard --compare`` runs the same
    workload under a second scenario this way).
    """
    from repro.scenario import ScenarioError, resolve_scenario

    scenario = resolve_scenario(scenario_name or args.scenario or "baseline-geo")
    overrides = {}
    for item in args.overrides:
        key, sep, value = item.partition("=")
        if not sep or not key.strip():
            raise ScenarioError(item, "--set expects KEY=VALUE")
        overrides[key.strip()] = value
    scenario = scenario.with_overrides(overrides)
    flags = {}
    if getattr(args, "customers", None) is not None:
        flags["population.n_customers"] = args.customers
    if getattr(args, "days", None) is not None:
        flags["workload.days"] = args.days
    if getattr(args, "seed", None) is not None:
        flags["workload.seed"] = args.seed
    if getattr(args, "workers", None) is not None:
        flags["execution.workers"] = args.workers
    if getattr(args, "window_days", None) is not None:
        flags["stream.window_days"] = args.window_days
    if getattr(args, "no_compress", False):
        flags["execution.compress"] = False
    if getattr(args, "pipeline_depth", None) is not None:
        flags["execution.pipeline_depth"] = args.pipeline_depth
    if getattr(args, "serve_port", None) is not None:
        flags["serve.enabled"] = True
        flags["serve.port"] = args.serve_port
    if getattr(args, "serve_host", None) is not None:
        flags["serve.host"] = args.serve_host
    if getattr(args, "serve_linger", None) is not None:
        flags["serve.linger_s"] = args.serve_linger
    return scenario.with_overrides(flags, source="flag")


def _cmd_generate(args: argparse.Namespace) -> int:
    import time

    from repro.pipeline import generate_flow_dataset

    scenario = _scenario_from_args(args)
    cache = args.cache_dir if args.cache_dir is not None else bool(args.cache)
    started = time.perf_counter()
    frame, generator = generate_flow_dataset(scenario=scenario, cache=cache)
    elapsed = time.perf_counter() - started
    frame.save_npz(args.out)
    workers = scenario.execution.workers
    print(
        f"wrote {args.out}: {len(frame):,} flows, "
        f"{len(generator.population)} customers, {scenario.workload.days} days "
        f"(scenario {scenario.name}, digest {scenario.digest()}; "
        f"{elapsed:.1f} s with {workers or 'auto'} worker(s))"
    )
    return 0


def _cmd_scenarios(args: argparse.Namespace) -> int:
    import json

    from repro.scenario import get_scenario, scenario_names

    if args.names:
        for name in scenario_names():
            print(name)
        return 0
    if args.json:
        payload = [
            {
                "name": name,
                "digest": (scenario := get_scenario(name)).digest(),
                "description": scenario.description,
                "delay": scenario.constellation.mode,
            }
            for name in scenario_names()
        ]
        print(json.dumps(payload, indent=2))
        return 0
    width = max(len(name) for name in scenario_names())
    for name in scenario_names():
        scenario = get_scenario(name)
        print(f"{name:{width}s}  {scenario.digest()}  {scenario.description}")
    return 0


def _start_live_server(spec):
    """A running (hub, server) pair for a ``serve``-enabled scenario."""
    from repro.serve import ServerThread, SnapshotHub

    hub = SnapshotHub()
    server = ServerThread(
        hub,
        host=spec.host,
        port=spec.port,
        max_inflight=spec.max_inflight,
    ).start()
    print(
        f"serving live reports on http://{server.host}:{server.port} "
        "(/reports, /progress, /telemetry, /scorecard, /capabilities)",
        file=sys.stderr,
    )
    return hub, server


def _finish_live_server(server, linger_s: float) -> None:
    """Linger (so pollers catch the final state), stop, print counters."""
    import time

    from repro.serve import render_serve_telemetry

    if linger_s > 0:
        print(
            f"capture done; serving final state for {linger_s:g} s more",
            file=sys.stderr,
        )
        time.sleep(linger_s)
    server.stop()
    if server.stats.requests_total:
        print(render_serve_telemetry(server.stats))


def _cmd_stream(args: argparse.Namespace) -> int:
    from repro.analysis.source import CaptureError
    from repro.stream import render_telemetry, run_stream_capture

    scenario = _scenario_from_args(args)
    config = scenario.stream_config()
    hub = server = None
    if scenario.serve.enabled:
        hub, server = _start_live_server(scenario.serve)
    try:
        result = run_stream_capture(
            config,
            args.dir,
            resume=args.resume,
            max_windows=args.max_windows,
            on_window=lambda t: print(
                f"window {t.window}: days [{t.day_lo},{t.day_hi}) "
                f"{t.flows:,} flows in {t.busy_seconds:.1f} s",
                file=sys.stderr,
            ),
            snapshot_hub=hub,
        )
    except CaptureError as exc:
        if server is not None:
            server.stop()
        print(f"cannot run capture: {exc}", file=sys.stderr)
        return 2
    if server is not None:
        _finish_live_server(server, scenario.serve.linger_s)
    print(render_telemetry(result.telemetry))
    if result.fault_stats.faults or result.fault_stats.retries:
        print(result.fault_stats.summary())
    done = result.checkpoint.windows_done
    state = "complete" if result.complete else f"resumable with --resume --dir {args.dir}"
    print(
        f"capture {result.store.capture_key}: {done}/{result.checkpoint.n_windows} "
        f"windows in {args.dir} ({state})"
    )
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    from repro.analysis.source import CaptureError
    from repro.fleet import render_fleet_telemetry, run_fleet_capture

    scenario = _scenario_from_args(args)
    hub = server = None
    if scenario.serve.enabled:
        hub, server = _start_live_server(scenario.serve)
    try:
        result = run_fleet_capture(
            scenario,
            args.dir,
            partitions=args.partitions,
            max_parallel=args.max_parallel,
            straggler_timeout_s=args.straggler_timeout,
            resume=args.resume,
            on_event=lambda line: print(line, file=sys.stderr),
            snapshot_hub=hub,
        )
    except (CaptureError, FileExistsError, FileNotFoundError) as exc:
        if server is not None:
            server.stop()
        print(f"cannot run fleet capture: {exc}", file=sys.stderr)
        return 2
    if server is not None:
        _finish_live_server(server, scenario.serve.linger_s)
    print(render_fleet_telemetry(result.telemetry_rows))
    if result.fault_stats.faults or result.fault_stats.retries:
        print(result.fault_stats.summary())
    print(
        f"fleet {result.plan.base_capture_key}: "
        f"{result.plan.n_partitions} partitions, "
        f"{result.total_heals} heals, merged digest {result.digest} "
        f"-> {result.merged_path}"
    )
    return 0


def _open_capture(path: str):
    """``load_capture`` with CLI error reporting; None means exit 2."""
    from repro.analysis.source import CaptureError, load_capture

    try:
        return load_capture(path)
    except CaptureError as exc:
        print(f"cannot open capture: {exc}", file=sys.stderr)
        return None


def _run_reports(source, which: str, prefer=None) -> int:
    """Dispatch ``--which`` through the report registry."""
    from repro.analysis import registry
    from repro.analysis.source import CaptureError

    kind = "rollup" if prefer == "rollup" else source.kind
    if which == "all":
        names = [s.name for s in registry.specs() if s.supports(kind)]
        skipped = [s.name for s in registry.specs() if not s.supports(kind)]
        if skipped:
            print(
                f"skipping {', '.join(skipped)}: need flow records, not "
                "computable from rollup sketches",
                file=sys.stderr,
            )
    else:
        names = [name.strip() for name in which.split(",")]
    for name in names:
        try:
            rendered = registry.run(name, source, prefer=prefer)
        except KeyError as exc:
            print(exc.args[0], file=sys.stderr)
            return 2
        except CaptureError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        print(rendered)
        print()
    return 0


def _cmd_stream_report(args: argparse.Namespace) -> int:
    from repro.analysis.source import CaptureError
    from repro.stream import load_checkpoint

    source = _open_capture(args.dir)
    if source is None:
        return 2
    if source.kind == "store":
        try:
            checkpoint = load_checkpoint(args.dir)
        except CaptureError as exc:
            print(f"cannot read checkpoint: {exc}", file=sys.stderr)
            return 2
        if checkpoint is not None and not checkpoint.complete:
            print(
                f"note: capture is partial ({checkpoint.windows_done}/"
                f"{checkpoint.n_windows} windows, "
                f"{checkpoint.progress():.0%}); figures cover the stored "
                "windows only",
                file=sys.stderr,
            )
    return _run_reports(source, args.which, prefer="rollup")


def _cmd_serve(args: argparse.Namespace) -> int:
    import time

    from repro.analysis.source import CaptureError
    from repro.serve import (
        ServerThread,
        SnapshotHub,
        render_serve_telemetry,
        snapshot_from_capture,
    )

    hub = SnapshotHub()
    try:
        snapshot = snapshot_from_capture(args.dir)
    except CaptureError as exc:
        print(f"cannot serve capture: {exc}", file=sys.stderr)
        return 2
    hub.publish(snapshot)
    try:
        server = ServerThread(hub, host=args.host, port=args.port).start()
    except (RuntimeError, OSError) as exc:
        print(f"cannot start server: {exc}", file=sys.stderr)
        return 2
    print(
        f"serving {args.dir} on http://{server.host}:{server.port} "
        f"({snapshot.windows_done}/{snapshot.n_windows} windows, "
        f"{snapshot.progress:.0%}, digest {snapshot.digest[:12]})"
        + (", watching for new commits" if args.watch else ""),
        file=sys.stderr,
    )
    deadline = (
        time.monotonic() + args.duration if args.duration is not None else None
    )
    try:
        while deadline is None or time.monotonic() < deadline:
            wait = args.poll_interval
            if deadline is not None:
                wait = min(wait, max(0.0, deadline - time.monotonic()))
            time.sleep(wait)
            if not args.watch:
                continue
            try:
                fresh = snapshot_from_capture(args.dir)
            except CaptureError:
                continue  # mid-commit; keep serving the last snapshot
            if fresh.digest != snapshot.digest:
                snapshot = fresh
                hub.publish(snapshot)
                print(
                    f"republished: {snapshot.windows_done}/"
                    f"{snapshot.n_windows} windows "
                    f"({snapshot.progress:.0%}, digest "
                    f"{snapshot.digest[:12]})",
                    file=sys.stderr,
                )
    except KeyboardInterrupt:
        pass
    server.stop()
    if server.stats.requests_total:
        print(render_serve_telemetry(server.stats))
    return 0


def _source_from_args(args: argparse.Namespace):
    """``--dataset`` capture, or the scenario's capture via the cache."""
    if args.dataset is not None:
        return _open_capture(args.dataset)
    from repro.analysis.source import FrameSource
    from repro.pipeline import generate_flow_dataset

    scenario = _scenario_from_args(args)
    print(
        f"generating scenario {scenario.name} "
        f"(digest {scenario.digest()}) through the cache",
        file=sys.stderr,
    )
    frame, _ = generate_flow_dataset(scenario=scenario, cache=True)
    return FrameSource(frame)


def _cmd_report(args: argparse.Namespace) -> int:
    source = _source_from_args(args)
    if source is None:
        return 2
    return _run_reports(source, args.which)


def _cmd_scorecard(args: argparse.Namespace) -> int:
    from repro.analysis.source import CaptureError
    from repro.analysis.validation import build_scorecard

    source = _source_from_args(args)
    if source is None:
        return 2
    try:
        frame = source.to_frame()
    except CaptureError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    scorecard = build_scorecard(frame)
    print(scorecard.render())
    if args.compare is not None:
        import numpy as np

        from repro.analysis.validation import (
            render_delay_comparison,
            render_qoe_comparison,
        )
        from repro.pipeline import generate_flow_dataset

        base = _scenario_from_args(args)
        other = _scenario_from_args(args, scenario_name=args.compare)
        print(
            f"generating comparison scenario {other.name} "
            f"(digest {other.digest()}) through the cache",
            file=sys.stderr,
        )
        other_frame, _ = generate_flow_dataset(scenario=other, cache=True)
        print()
        print(
            render_delay_comparison(
                frame, other_frame, label_a=base.name, label_b=other.name
            )
        )
        if np.any(frame.session_id >= 0) or np.any(other_frame.session_id >= 0):
            print()
            print(
                render_qoe_comparison(
                    frame, other_frame, label_a=base.name, label_b=other.name
                )
            )
    return 0 if scorecard.passed == scorecard.total else 1


def _cmd_packet_sim(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.pipeline import run_packet_simulation

    result = run_packet_simulation()
    sats = np.array([r.sat_rtt_ms for r in result.tls_records])
    grounds = np.array([r.rtt_avg_ms for r in result.tls_records])
    print(
        f"packet-level validation: {len(result.tls_records)} TLS flows; "
        f"satellite RTT min/median {sats.min():.0f}/{np.median(sats):.0f} ms; "
        f"ground RTT median {np.median(grounds):.1f} ms; "
        f"DNS at probe "
        f"{[round(r.dns_response_ms or 0) for r in result.dns_records]} ms"
    )
    return 0


def _cmd_errant(args: argparse.Namespace) -> int:
    from repro.analysis.source import CaptureError
    from repro.errant.emulator import Emulator, compare_profiles
    from repro.errant.model import fit_profile
    from repro.errant.profiles import BUILTIN_PROFILES

    source = _open_capture(args.dataset)
    if source is None:
        return 2
    try:
        frame = source.to_frame()
    except CaptureError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    fitted = fit_profile(frame, args.country)
    profiles = dict(BUILTIN_PROFILES)
    profiles[fitted.name] = fitted
    print(
        f"fitted {fitted.name}: rtt median {fitted.rtt_median_ms:.0f} ms, "
        f"down {fitted.down_median_mbps:.1f} Mb/s, up {fitted.up_median_mbps:.1f} Mb/s"
    )
    times = compare_profiles(profiles, size_bytes=1_000_000, n=200)
    for name, value in sorted(times.items(), key=lambda kv: kv[1]):
        print(f"  1 MB fetch, {name:28s} {value:6.2f} s")
    if args.netem:
        for command in Emulator(fitted).netem_commands():
            print(command)
    return 0


def _cmd_mixed_sim(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.pipeline import run_mixed_protocol_simulation

    result = run_mixed_protocol_simulation(country=args.country, n_each=args.n)
    by_l7 = {}
    for record in result.records:
        by_l7.setdefault(record.l7.value, []).append(record)
    for label, records in sorted(by_l7.items()):
        domains = {r.domain for r in records if r.domain}
        print(f"{label:10s} {len(records):3d} flows  domains={sorted(domains)}")
    sats = [r.sat_rtt_ms for r in result.records_of("tcp/https")]
    rtts = [t for s in result.rtp_sessions for t in s.round_trips_s]
    print(
        f"TLS 1.3 satellite RTT via client CCS: median {np.median(sats):.0f} ms; "
        f"RTP mouth-to-ear: {np.mean(rtts) * 1000:.0f} ms"
    )
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "stream": _cmd_stream,
    "fleet": _cmd_fleet,
    "scenarios": _cmd_scenarios,
    "stream-report": _cmd_stream_report,
    "serve": _cmd_serve,
    "report": _cmd_report,
    "scorecard": _cmd_scorecard,
    "packet-sim": _cmd_packet_sim,
    "mixed-sim": _cmd_mixed_sim,
    "errant": _cmd_errant,
}


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point (returns an exit code)."""
    from repro.scenario import ScenarioError

    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
