"""Windowed producer: the generator, one simulated time window at a time.

The paper's Tstat probe never sees "the capture" — it sees a continuous
packet stream and periodically ships aggregated views. This module
gives the synthetic generator the same shape: the capture's day range
is cut into fixed-length windows, each (shard, window) cell samples
from its own ``SeedSequence``-derived RNG stream
(:func:`repro.parallel.shard_seed`), and the orchestrator folds
every window into mergeable rollups and spills it to disk before
moving on — peak memory holds one window, never the capture.

Note the sampling plan differs from the one-shot generator (which
draws all days of a shard from a single stream), so a streamed capture
is statistically equivalent but not byte-equal to
``WorkloadGenerator.generate()`` — ``window_days`` is *content*, part
of :func:`repro.cache.stream_capture_key`. What *is* byte-equal, by
construction, is any two streaming runs of the same config — including
a killed-and-resumed one (see :mod:`repro.stream.checkpoint`).

Execution is *pipelined* by default (``StreamConfig.pipeline_depth``):
window N+1's shards are generated on a persistent fork pool
(:class:`repro.parallel.ShardWorkerPool`, forked once for the whole
capture) while window N's spill, rollup fold and checkpoint commit run
on a background thread, connected by a bounded queue so at most
``pipeline_depth + 2`` window frames are ever resident. The commit
thread performs the *entire* PR-2 commit sequence for each window in
index order — spill → rollup save → checkpoint — so every named
kill-point and the byte-identical-resume guarantee survive the
overlap untouched; ``pipeline_depth=0`` recovers the lockstep loop.
Neither knob is content: digests are identical across depths and
worker counts.
"""

from __future__ import annotations

import dataclasses
import queue
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, List, Optional, Tuple, Union

from repro.analysis.dataset import FlowFrame
from repro.analysis.source import CaptureError
from repro.cache import stream_capture_key
from repro.constants import SECONDS_PER_DAY
from repro.faults import FaultInjector, FaultPlan, FaultStats, resolve_injector
from repro.parallel import ShardWorkerPool, resolve_workers
from repro.stream.checkpoint import (
    Checkpoint,
    WindowTelemetry,
    load_checkpoint,
    rollup_path,
    write_checkpoint,
)
from repro.stream.rollup import StreamRollup
from repro.stream.store import FlowStore, WindowEntry
from repro.stream.telemetry import peak_rss_mb
from repro.traffic.workload import WorkloadConfig, WorkloadGenerator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.satcom.delaysource import DelaySource
    from repro.scenario import Scenario
    from repro.serve.snapshot import SnapshotHub


@dataclass(frozen=True)
class WindowSpec:
    """A half-open day range ``[day_lo, day_hi)`` of the capture."""

    index: int
    day_lo: int
    day_hi: int

    def __len__(self) -> int:
        return self.day_hi - self.day_lo


def plan_windows(days: int, window_days: int = 1) -> List[WindowSpec]:
    """Cut ``days`` into day-aligned windows of ``window_days`` each.

    Day alignment is load-bearing: the rollup's customer-day sketches
    (Figure 5) are exact only when no (customer, day) pair straddles
    two windows. The last window absorbs the remainder.
    """
    if days <= 0:
        raise ValueError(f"need at least one day (got {days})")
    if window_days <= 0:
        raise ValueError(f"window_days must be >= 1 (got {window_days})")
    windows: List[WindowSpec] = []
    lo = 0
    while lo < days:
        hi = min(lo + window_days, days)
        windows.append(WindowSpec(index=len(windows), day_lo=lo, day_hi=hi))
        lo = hi
    return windows


@dataclass
class StreamConfig:
    """A streaming capture = a workload config + a window plan.

    When built from a :class:`~repro.scenario.Scenario` (via
    ``Scenario.stream_config()``) the scenario rides along: the capture
    is keyed by the scenario digest and the generator carries the
    scenario's models and plan mix. Without one, the legacy
    workload-only construction is unchanged.
    """

    workload: WorkloadConfig
    window_days: int = 1
    compress: bool = True
    """Compress spilled windows (trade CPU for ~3x less disk)."""
    scenario: Optional["Scenario"] = None
    faults: Optional[FaultPlan] = None
    """Chaos plan for this run — execution-only, never part of the
    capture key (faults change timing and retries, never the flows)."""
    pipeline_depth: int = 1
    """Windows allowed in flight between generation and commit. ``0``
    runs the stages lockstep in one thread; ``N >= 1`` lets generation
    run up to ``N`` windows ahead of the commit thread. Execution-only:
    never part of the capture key, digests are identical at any depth."""

    def capture_key(self) -> str:
        keyed = self.scenario if self.scenario is not None else self.workload
        return stream_capture_key(keyed, self.window_days)

    def build_generator(self) -> WorkloadGenerator:
        if self.scenario is not None:
            return self.scenario.build_generator()
        return WorkloadGenerator(self.workload)


def partition_capture_key(base_key: str, lo: int, hi: int, n_shards: int) -> str:
    """The capture key of a shard-subset (fleet partition) capture.

    Partition directories are ordinary stream captures restricted to
    shards ``[lo, hi)`` of the full ``n_shards`` plan; scoping the key
    keeps resume validation honest (a partition directory can never be
    resumed as the full capture, or as a different slice of it).
    """
    return f"{base_key}:shards{lo}-{hi}of{n_shards}"


class WindowedProducer:
    """Drives one :class:`WorkloadGenerator` window by window.

    ``shards`` restricts generation to a subset of the generator's full
    shard plan (a ``repro.fleet`` partition). The :class:`ShardSpec`
    entries keep their full-plan ``index``/``n_shards``, so each
    (shard, window) cell draws the *same* ``shard_seed`` stream
    it would in an unrestricted run — which is what makes partitioned
    captures bit-identical slices of the single-process capture.
    """

    def __init__(
        self,
        generator: WorkloadGenerator,
        window_days: int = 1,
        shards: Optional[List] = None,
    ) -> None:
        self.generator = generator
        self.windows = plan_windows(generator.config.days, window_days)
        self.shards = (
            list(shards) if shards is not None else generator.shard_plan()
        )

    def generate_window(
        self, window: WindowSpec, pool: ShardWorkerPool
    ) -> FlowFrame:
        """One window's flows, merged in shard order (never ``None`` —
        a windowless window yields an empty frame with the pools).

        The shards generate on ``pool`` (forked once, reused across
        windows); its worker count never changes a byte.
        """
        shard_frames = pool.generate_window(
            self.shards,
            len(self.windows),
            window.index,
            window.day_lo,
            window.day_hi,
        )
        frames = [frame for frame in shard_frames if frame is not None]
        if not frames:
            g = self.generator
            return FlowFrame.empty(
                countries=g.countries_pool,
                beams=g.beams_pool,
                services=g.services_pool,
                domains=g.domains_pool,
                sites=g.sites_pool,
                resolvers=g.resolvers_pool,
            )
        if len(frames) == 1:
            return frames[0]
        return FlowFrame.concat(frames)


@dataclass
class StreamResult:
    """What a (possibly partial) streaming capture run produced."""

    capture_dir: Path
    rollup: StreamRollup
    checkpoint: Checkpoint
    store: FlowStore
    fault_stats: FaultStats = dataclasses.field(default_factory=FaultStats)

    @property
    def complete(self) -> bool:
        return self.checkpoint.complete

    @property
    def telemetry(self) -> List[WindowTelemetry]:
        return self.checkpoint.telemetry


def _recover_rollup(
    capture_dir: Path,
    store: FlowStore,
    checkpoint: Checkpoint,
    injector: FaultInjector,
) -> StreamRollup:
    """The rollup matching ``checkpoint``, healing a torn/stale state.

    The happy path loads ``rollup.npz`` and verifies its digest. A kill
    between ``rollup.save`` and ``write_checkpoint`` leaves the saved
    state one window *ahead* of the checkpoint (and a torn disk can
    corrupt it outright); both cases are healed by re-folding the
    committed windows in index order — bit-identical to the original
    fold by construction. Only when even the re-fold disagrees with the
    checkpoint digest is the directory truly corrupt.
    """
    try:
        rollup = StreamRollup.load(rollup_path(capture_dir))
        if rollup.state_digest() == checkpoint.rollup_digest:
            return rollup
    except (CaptureError, FileNotFoundError):
        pass
    injector.stats.rollup_rebuilds += 1
    pools = store.pools
    rollup = StreamRollup(
        pools["countries"], pools["services"], pools["resolvers"]
    )
    for entry in store.windows[: checkpoint.windows_done]:
        rollup.update(store.read_window(entry.index))
    if rollup.state_digest() != checkpoint.rollup_digest:
        raise CaptureError(
            "rollup state does not match the checkpoint digest even after "
            "re-folding the committed windows — the capture directory is "
            "corrupt; delete and regenerate"
        )
    rollup.save(rollup_path(capture_dir), injector=injector)
    return rollup


class _WindowCommitter:
    """The commit side of the producer: spill → fold → checkpoint.

    One instance performs the whole PR-2 commit sequence for each
    window, **in window-index order**, regardless of execution mode —
    the lockstep loop calls :meth:`commit` inline, the pipelined mode
    calls it from a single background thread. Keeping every
    commit-ordered step (including its kill-points and every
    ``injector.rng`` draw) on one thread in one function is what makes
    the fault plan and the byte-identical-resume guarantee independent
    of ``pipeline_depth``.
    """

    def __init__(
        self,
        capture_dir: Path,
        store: FlowStore,
        rollup: StreamRollup,
        checkpoint: Checkpoint,
        injector: FaultInjector,
        on_window: Optional[Callable[[WindowTelemetry], None]],
        delay_source: Optional["DelaySource"] = None,
        snapshot_hub: Optional["SnapshotHub"] = None,
    ) -> None:
        self.capture_dir = capture_dir
        self.store = store
        self.rollup = rollup
        self.checkpoint = checkpoint
        self.injector = injector
        self.on_window = on_window
        self.delay_source = delay_source
        self.snapshot_hub = snapshot_hub
        # Each window row attributes every fault since the previous
        # commit: directory-setup and resume-recovery faults land on the
        # first row, a checkpoint-write fault on the next row. Under
        # pipelining, generation-side faults (worker crashes) land on
        # whichever window commits while they happen — attribution is
        # approximate across overlapped stages, totals stay exact.
        self._before = injector.stats.copy()

    def commit(
        self, window: WindowSpec, frame: FlowFrame, gen_seconds: float
    ) -> WindowTelemetry:
        injector = self.injector
        t1 = time.perf_counter()
        spilled = self.store.write_window(window.index, frame)
        injector.kill_point(f"stream:w{window.index}:spilled")
        t2 = time.perf_counter()
        self.rollup.update(frame)
        t3 = time.perf_counter()
        self.rollup.save(rollup_path(self.capture_dir), injector=injector)
        injector.kill_point(f"stream:w{window.index}:rollup-saved")
        t4 = time.perf_counter()
        window_stats = injector.stats.delta(self._before)
        self._before = injector.stats.copy()
        # A pure function of the window's day span (and the scenario's
        # constellation), never of mutable source state — so the count
        # is identical across pipeline depths, workers and resumes.
        handovers = 0
        if self.delay_source is not None:
            handovers = self.delay_source.handovers_between(
                window.day_lo * SECONDS_PER_DAY,
                window.day_hi * SECONDS_PER_DAY,
            )
        telemetry = WindowTelemetry(
            window=window.index,
            day_lo=window.day_lo,
            day_hi=window.day_hi,
            flows=len(frame),
            gen_seconds=gen_seconds,
            spill_seconds=t2 - t1,
            fold_seconds=t3 - t2,
            save_seconds=t4 - t3,
            bytes_spilled=spilled,
            peak_rss_mb=peak_rss_mb(),
            faults=window_stats.faults,
            io_retries=window_stats.retries,
            handovers=handovers,
        )
        self.checkpoint.windows_done = window.index + 1
        self.checkpoint.rollup_digest = self.rollup.state_digest()
        self.checkpoint.telemetry.append(telemetry)
        write_checkpoint(self.capture_dir, self.checkpoint, injector=injector)
        injector.kill_point(f"stream:w{window.index}:committed")
        # Publish the committed state to the live serve hub *on the
        # commit thread*, between folds — the copy sees whole windows
        # only, and its digest equals the checkpoint's by construction.
        if self.snapshot_hub is not None:
            self.snapshot_hub.publish_state(self.rollup, self.checkpoint)
        if self.on_window is not None:
            self.on_window(telemetry)
        return telemetry


def _run_pipelined(
    producer: WindowedProducer,
    todo: List[WindowSpec],
    committer: _WindowCommitter,
    injector: FaultInjector,
    pool: ShardWorkerPool,
    depth: int,
) -> None:
    """Overlap generation with the commit sequence.

    The main thread generates windows (through the persistent pool) and
    feeds ``(window, frame, gen_seconds)`` into a queue bounded at
    ``depth``; a single commit thread drains it in order. Worst case
    ``depth + 2`` frames are resident: ``depth`` queued, one being
    committed, one being generated. A commit failure is parked, the
    queue is drained without committing (so the producer's blocking
    ``put`` can never deadlock), and the exception re-raises on the
    main thread after join — with the checkpoint still covering exactly
    the windows whose commit sequence finished.
    """
    in_flight: "queue.Queue" = queue.Queue(maxsize=depth)
    failure: List[BaseException] = []

    def _drain() -> None:
        while True:
            item = in_flight.get()
            if item is None:
                return
            if failure:
                continue  # discard: the producer stops at its next check
            window, frame, gen_seconds = item
            try:
                committer.commit(window, frame, gen_seconds)
            except BaseException as exc:  # noqa: BLE001 - re-raised in main
                failure.append(exc)

    commit_thread = threading.Thread(
        target=_drain, name="stream-commit", daemon=True
    )
    commit_thread.start()
    try:
        for window in todo:
            if failure:
                break
            t0 = time.perf_counter()
            frame = producer.generate_window(window, pool)
            gen_seconds = time.perf_counter() - t0
            injector.kill_point(f"stream:w{window.index}:generated")
            in_flight.put((window, frame, gen_seconds))
            del frame
    finally:
        in_flight.put(None)
        commit_thread.join()
    if failure:
        raise failure[0]


def run_stream_capture(
    config: StreamConfig,
    capture_dir: Union[str, Path],
    resume: bool = False,
    max_windows: Optional[int] = None,
    on_window: Optional[Callable[[WindowTelemetry], None]] = None,
    faults: Optional[FaultPlan] = None,
    shard_range: Optional[Tuple[int, int]] = None,
    snapshot_hub: Optional["SnapshotHub"] = None,
) -> StreamResult:
    """Run (or continue) a streaming capture into ``capture_dir``.

    ``shard_range`` restricts the capture to shards ``[lo, hi)`` of the
    config's full shard plan — a ``repro.fleet`` partition. The capture
    key is scoped with :func:`partition_capture_key`, the spilled
    windows and rollup cover only those shards' customers, and every
    guarantee (checkpoint/resume bit-identity, kill-points, pipelining)
    applies unchanged because the restricted shards keep their
    full-plan RNG streams.

    Fresh runs initialize the directory; ``resume=True`` continues from
    the last committed checkpoint (and is a no-op on a complete
    capture). ``max_windows`` bounds how many windows *this call*
    produces — the checkpoint stays resumable, which is how the tests
    simulate a kill. ``on_window`` observes each window's telemetry as
    it commits, and ``snapshot_hub`` (a :class:`repro.serve.SnapshotHub`)
    receives an immutable checkpoint-consistent rollup snapshot at the
    same commit point — the live serve read path.

    ``faults`` (or ``config.faults``) arms a deterministic chaos plan
    for *this run only*: injected IO errors retry with backoff, torn
    cache writes quarantine, plan-named kill-points SIGKILL the
    process, and the per-window fault/retry counters land in the
    telemetry. Faults never change the generated flows.

    ``config.pipeline_depth`` selects the execution mode: ``0`` is the
    lockstep generate→spill→fold loop; ``>= 1`` (default ``1``)
    overlaps window N+1's generation (persistent fork pool) with
    window N's commit sequence (background thread). The produced
    capture — windows, rollup, digests, resume behaviour — is
    bit-identical across depths; only wall clock and transient RSS
    (up to ``depth + 2`` windows) change.
    """
    capture_dir = Path(capture_dir)
    if config.pipeline_depth < 0:
        raise ValueError(
            f"pipeline_depth must be >= 0 (got {config.pipeline_depth})"
        )
    injector = resolve_injector(faults if faults is not None else config.faults)
    injector.kill_point("stream:init")
    generator = config.build_generator()
    key = config.capture_key()
    shards = None
    if shard_range is not None:
        full_plan = generator.shard_plan()
        lo, hi = shard_range
        if not 0 <= lo < hi <= len(full_plan):
            raise ValueError(
                f"shard_range [{lo}, {hi}) outside the plan's "
                f"{len(full_plan)} shards"
            )
        shards = full_plan[lo:hi]
        key = partition_capture_key(key, lo, hi, len(full_plan))
    producer = WindowedProducer(generator, config.window_days, shards=shards)
    n_windows = len(producer.windows)
    workers = resolve_workers(config.workload.n_workers)

    existing = load_checkpoint(capture_dir) if resume else None
    if resume and existing is None:
        raise FileNotFoundError(
            f"nothing to resume: no checkpoint in {capture_dir}"
        )
    if existing is not None:
        if existing.capture_key != key:
            raise ValueError(
                "capture directory belongs to a different stream config "
                f"(key {existing.capture_key} != {key})"
            )
        store = FlowStore.open(capture_dir, injector=injector)
        rollup = _recover_rollup(capture_dir, store, existing, injector)
        checkpoint = existing
    else:
        if load_checkpoint(capture_dir) is not None and not resume:
            raise FileExistsError(
                f"{capture_dir} already holds a capture; pass resume=True "
                "to continue it or choose a fresh directory"
            )
        store = FlowStore.create(
            capture_dir,
            pools={
                "countries": generator.countries_pool,
                "beams": generator.beams_pool,
                "services": generator.services_pool,
                "domains": generator.domains_pool,
                "sites": generator.sites_pool,
                "resolvers": generator.resolvers_pool,
            },
            windows=[
                WindowEntry(w.index, w.day_lo, w.day_hi)
                for w in producer.windows
            ],
            capture_key=key,
            config={
                **dataclasses.asdict(config.workload),
                **(
                    {"shard_range": list(shard_range)}
                    if shard_range is not None
                    else {}
                ),
            },
            compress=config.compress,
            injector=injector,
        )
        rollup = StreamRollup(
            generator.countries_pool,
            generator.services_pool,
            generator.resolvers_pool,
        )
        checkpoint = Checkpoint(
            capture_key=key,
            n_windows=n_windows,
            windows_done=0,
            rollup_digest=rollup.state_digest(),
        )

    # Live serving: publish the starting state (empty on a fresh run,
    # the healed committed prefix on resume) so the server has a
    # consistent snapshot before the first new window commits, then let
    # the committer publish after every checkpoint write.
    if snapshot_hub is not None:
        snapshot_hub.publish_state(rollup, checkpoint)

    todo = producer.windows[checkpoint.windows_done :]
    if max_windows is not None:
        todo = todo[: max(0, max_windows)]
    committer = _WindowCommitter(
        capture_dir,
        store,
        rollup,
        checkpoint,
        injector,
        on_window,
        delay_source=generator.delay_source,
        snapshot_hub=snapshot_hub,
    )
    # The persistent pool forks eagerly here — before the commit thread
    # exists — so the workers never inherit a lock held mid-commit.
    pool = ShardWorkerPool(
        generator,
        min(workers, len(producer.shards)),
        injector=injector,
    )
    if todo:
        pool.warm()
    try:
        if config.pipeline_depth == 0 or not todo:
            # Lockstep: generate → commit, one thread, one frame resident.
            for window in todo:
                t0 = time.perf_counter()
                frame = producer.generate_window(window, pool)
                gen_seconds = time.perf_counter() - t0
                injector.kill_point(f"stream:w{window.index}:generated")
                committer.commit(window, frame, gen_seconds)
                del frame
        else:
            _run_pipelined(
                producer,
                todo,
                committer,
                injector,
                pool,
                config.pipeline_depth,
            )
    finally:
        pool.close()

    return StreamResult(
        capture_dir=capture_dir,
        rollup=rollup,
        checkpoint=checkpoint,
        store=store,
        fault_stats=injector.stats,
    )
