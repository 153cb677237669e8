"""Deterministic fault injection for the capture pipeline.

The paper's probe ran unattended for three months against 4.3 PB of
traffic; the storage and workers under a real deployment fail. This
module makes those failures *reproducible*: a :class:`FaultPlan` is a
seeded description of what goes wrong — transient IO errors on
write/fsync/rename/read, truncated (torn) writes, worker-process
crashes, and SIGKILL at named kill-points (one grammar,
:data:`KILL_POINT_GRAMMAR`) — and a
:class:`FaultInjector` executes it. Every decision is drawn from the
plan's own RNG (or, for worker crashes, derived as a pure function of
``(seed, window, shard)`` so forked workers agree with the parent), so
the same plan produces the same faults every run. Faults never change
*what* is generated — only whether an IO attempt fails — which is what
lets the chaos tests assert bit-identical rollups.

The production hooks are explicit parameters (``injector=``) on
:class:`~repro.stream.store.FlowStore`,
:func:`~repro.stream.checkpoint.write_checkpoint`,
:meth:`~repro.stream.rollup.StreamRollup.save`,
:class:`~repro.cache.CaptureCache`, and
:class:`~repro.parallel.ShardWorkerPool` — no monkeypatching.
The disabled singleton :data:`NO_FAULTS` costs one no-op ``try`` per
IO, so the hot path is unchanged when no plan is armed.

The same module owns the resilience the faults exercise:

* :func:`atomic_write_bytes` — the one write-temp → flush → fsync →
  ``os.replace`` helper used by every artifact writer (manifest,
  window npz, rollup state, checkpoint, cache entries);
* :meth:`FaultInjector.run_io` — bounded retry with exponential
  backoff, jittered from the plan RNG, for transient ``OSError``
  (injected or real); non-transient errors (``FileNotFoundError``,
  ``PermissionError``, …) are never retried;
* :class:`FaultStats` — the injected/retried/quarantined counters
  surfaced per window in :mod:`repro.stream.telemetry` and in the
  ``repro stream`` summary line.
"""

from __future__ import annotations

import os
import re
import signal
import time
from dataclasses import dataclass, fields
from fnmatch import fnmatch
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

#: Retry policy defaults (a plan can override all three).
DEFAULT_MAX_ATTEMPTS = 4
DEFAULT_BACKOFF_BASE_S = 0.05
DEFAULT_BACKOFF_FACTOR = 2.0

#: ``OSError`` subclasses that are *not* transient: retrying cannot
#: succeed, so :meth:`FaultInjector.run_io` re-raises them immediately.
_NON_TRANSIENT = (
    FileNotFoundError,
    FileExistsError,
    IsADirectoryError,
    NotADirectoryError,
    PermissionError,
)


class InjectedIOError(OSError):
    """A fault-plan-scheduled IO failure (distinguishable from real ones)."""

    def __init__(self, op: str, stage: str) -> None:
        super().__init__(f"injected {stage} failure during {op}")
        self.op = op
        self.stage = stage


@dataclass(frozen=True)
class IoFault:
    """Fail matching IO operations with a transient ``OSError``.

    ``op`` is an ``fnmatch`` pattern over operation names (e.g.
    ``store.*``, ``cache.store``, ``*``); ``stage`` picks where inside
    the operation the error fires (``write``, ``fsync``, ``rename`` for
    writers, ``read`` for readers). When the fault triggers (per-op
    probability ``rate``), the first ``fail_times`` attempts of that
    operation raise; the retry loop then sees the op succeed — or give
    up when ``fail_times`` reaches the plan's ``max_attempts``.
    """

    op: str = "*"
    stage: str = "write"
    rate: float = 1.0
    fail_times: int = 1


@dataclass(frozen=True)
class TruncateFault:
    """Tear a matching write: publish only ``fraction`` of the bytes.

    Models a power cut mid-write on a filesystem without the rename
    barrier. The torn artifact *is* published (the whole point), so the
    reader-side quarantine/regenerate path has something to find.
    """

    op: str = "*"
    rate: float = 1.0
    fraction: float = 0.5


@dataclass(frozen=True)
class WorkerCrash:
    """Kill a forked generation worker (``os._exit``) before it returns.

    ``window``/``shard`` of ``-1`` match any. The decision is a pure
    function of ``(plan seed, window, shard)`` — forked children and
    the parent compute the same answer without shared state.
    """

    window: int = -1
    shard: int = -1
    rate: float = 1.0


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, declarative description of everything that goes wrong."""

    seed: int = 0
    io_faults: Tuple[IoFault, ...] = ()
    truncate_faults: Tuple[TruncateFault, ...] = ()
    worker_crashes: Tuple[WorkerCrash, ...] = ()
    kill_at: Tuple[str, ...] = ()
    max_attempts: int = DEFAULT_MAX_ATTEMPTS
    backoff_base_s: float = DEFAULT_BACKOFF_BASE_S
    backoff_factor: float = DEFAULT_BACKOFF_FACTOR


#: Per-window stream kill-point stages, in commit order: after
#: generation, after the window spilled, after the rollup state saved,
#: after the checkpoint committed.
WINDOW_KILL_STAGES = ("generated", "spilled", "rollup-saved", "committed")

#: Fleet coordinator kill-point stages, in order; each partition's
#: ``fleet:pNNN:done`` falls between ``planned`` and ``merge``.
FLEET_KILL_STAGES = ("init", "planned", "merge", "done")

#: A fleet partition as :func:`partition_kill_prefix` names it.
_PARTITION = r"p(?:\d{3}|[1-9]\d{3,})"

#: The ``pNNN:`` prefix that targets one fleet partition's worker.
PARTITION_KILL_PREFIX = re.compile(rf"{_PARTITION}:")

#: The kill-point grammar — every name a capture passes to
#: :meth:`FaultInjector.kill_point`. A stream capture has
#: ``stream:init`` and ``stream:w<N>:<stage>``; a ``pNNN:`` prefix on a
#: stream point arms it only in fleet partition NNN's worker. A fleet
#: coordinator has ``fleet:<stage>`` and ``fleet:pNNN:done``.
KILL_POINT_GRAMMAR = re.compile(
    rf"(?:{_PARTITION}:)?stream:(?:init"
    rf"|w(?:0|[1-9]\d*):(?:{'|'.join(WINDOW_KILL_STAGES)}))"
    rf"|fleet:(?:{'|'.join(FLEET_KILL_STAGES)}|{_PARTITION}:done)"
)

#: The grammar in words, for error messages.
KILL_POINT_FORMS = (
    f"[pNNN:]stream:init, [pNNN:]stream:w<N>:"
    f"{{{'|'.join(WINDOW_KILL_STAGES)}}}, "
    f"fleet:{{{'|'.join(FLEET_KILL_STAGES)}}}, fleet:pNNN:done"
)


def partition_kill_prefix(index: int) -> str:
    """The ``kill_at`` prefix targeting fleet partition ``index``'s worker."""
    return f"p{index:03d}:"


def stream_kill_points(n_windows: int) -> List[str]:
    """Every named kill-point of an ``n_windows`` stream run, in order.

    The chaos crash matrix SIGKILLs the producer at each of these (via
    ``FaultPlan(kill_at=...)``) and asserts the resumed capture is
    bit-identical to an uninterrupted one.
    """
    points = ["stream:init"]
    for index in range(n_windows):
        points.extend(
            f"stream:w{index}:{stage}" for stage in WINDOW_KILL_STAGES
        )
    return points


def fleet_kill_points(n_partitions: int) -> List[str]:
    """Every coordinator-level kill-point of a fleet run, in order.

    The fleet crash matrix SIGKILLs the coordinator at each and asserts
    the resumed fleet still produces the single-process digest. Worker
    kill-points are the stream ones, prefixed ``pNNN:`` (see
    :mod:`repro.fleet.worker`).
    """
    init, planned, merge, done = (f"fleet:{s}" for s in FLEET_KILL_STAGES)
    points = [init, planned]
    points.extend(
        f"fleet:{partition_kill_prefix(i)}done" for i in range(n_partitions)
    )
    return points + [merge, done]


@dataclass
class FaultStats:
    """Counters of what the injector did (and what survived it)."""

    injected: int = 0
    """Transient IO errors raised by the plan."""
    retries: int = 0
    """IO attempts re-run after a transient error (injected or real)."""
    gave_up: int = 0
    """Operations that still failed after ``max_attempts``."""
    truncated: int = 0
    """Writes torn by a :class:`TruncateFault`."""
    worker_crashes: int = 0
    """Forked worker pools lost to a crash (parent fell back in-process)."""
    quarantined: int = 0
    """Corrupt cache entries renamed aside instead of served."""
    rollup_rebuilds: int = 0
    """Resumes that re-folded the rollup from committed windows."""

    def copy(self) -> "FaultStats":
        return FaultStats(**{f.name: getattr(self, f.name) for f in fields(self)})

    def delta(self, since: "FaultStats") -> "FaultStats":
        return FaultStats(
            **{
                f.name: getattr(self, f.name) - getattr(since, f.name)
                for f in fields(self)
            }
        )

    @property
    def faults(self) -> int:
        """Total fault events (the telemetry "Faults" column)."""
        return self.injected + self.truncated + self.worker_crashes

    def summary(self) -> str:
        """The one-line counter summary printed by ``repro stream``."""
        return (
            f"faults: {self.injected} io injected, {self.retries} retries, "
            f"{self.truncated} truncated, {self.worker_crashes} worker "
            f"crashes, {self.quarantined} quarantined, "
            f"{self.rollup_rebuilds} rollup rebuilds"
        )


class _Ticket:
    """One IO operation's fault budget (decided once, spent per attempt).

    The budget is drawn when the operation starts, *not* per attempt —
    so ``fail_times=2`` means exactly two failing attempts and then
    success, which is what makes retry behaviour decidable from the
    plan instead of racing the retry loop.
    """

    __slots__ = ("_stats", "op", "_budget", "_truncate")

    def __init__(self, injector: "FaultInjector", op: str) -> None:
        self._stats = injector.stats
        self.op = op
        self._budget: Dict[str, int] = {}
        self._truncate: Optional[float] = None
        plan = injector.plan
        if plan is None:
            return
        rng = injector.rng
        for fault in plan.io_faults:
            if fnmatch(op, fault.op) and (
                fault.rate >= 1.0 or rng.random() < fault.rate
            ):
                self._budget[fault.stage] = max(
                    self._budget.get(fault.stage, 0), fault.fail_times
                )
        for fault in plan.truncate_faults:
            if fnmatch(op, fault.op) and (
                fault.rate >= 1.0 or rng.random() < fault.rate
            ):
                self._truncate = fault.fraction

    def check(self, stage: str) -> None:
        """Raise if the plan scheduled a failure for this stage."""
        remaining = self._budget.get(stage, 0)
        if remaining > 0:
            self._budget[stage] = remaining - 1
            self._stats.injected += 1
            raise InjectedIOError(self.op, stage)

    def mangle(self, tmp_path: str) -> None:
        """Tear the not-yet-published temp file if the plan says so."""
        if self._truncate is None:
            return
        size = os.path.getsize(tmp_path)
        os.truncate(tmp_path, max(0, int(size * self._truncate)))
        self._stats.truncated += 1
        self._truncate = None  # one torn publish per operation


class _NullTicket:
    """The zero-overhead ticket used when no plan is armed."""

    __slots__ = ()
    op = "disabled"

    def check(self, stage: str) -> None:
        pass

    def mangle(self, tmp_path: str) -> None:
        pass


_NULL_TICKET = _NullTicket()


class FaultInjector:
    """Executes a :class:`FaultPlan` and owns the retry/backoff loop.

    With ``plan=None`` the injector is *disabled*: no faults fire, no
    RNG is consumed, and :meth:`run_io` only adds a ``try/except`` —
    but real transient ``OSError`` still gets the bounded backoff, so
    production runs inherit the resilience for free.
    """

    def __init__(
        self,
        plan: Optional[FaultPlan] = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.plan = plan
        self.rng = np.random.default_rng(plan.seed if plan is not None else 0)
        self.stats = FaultStats()
        self._sleep = sleep
        self.max_attempts = (
            plan.max_attempts if plan is not None else DEFAULT_MAX_ATTEMPTS
        )
        self.backoff_base_s = (
            plan.backoff_base_s if plan is not None else DEFAULT_BACKOFF_BASE_S
        )
        self.backoff_factor = (
            plan.backoff_factor if plan is not None else DEFAULT_BACKOFF_FACTOR
        )

    @property
    def enabled(self) -> bool:
        return self.plan is not None

    def backoff_delay(self, attempt: int) -> float:
        """Delay before retry ``attempt`` (1-based), jittered ±50%."""
        base = self.backoff_base_s * self.backoff_factor ** (attempt - 1)
        return base * (0.5 + self.rng.random())

    def run_io(self, op: str, attempt_fn: Callable[..., object]):
        """Run ``attempt_fn(ticket)`` with bounded, backed-off retries.

        The ticket carries the plan's failure budget for this single
        operation; ``attempt_fn`` calls ``ticket.check(stage)`` at its
        failure points and ``ticket.mangle(tmp)`` before publishing.
        Transient ``OSError`` (injected or real) is retried up to the
        plan's ``max_attempts``; non-transient errors and everything
        else propagate immediately.
        """
        ticket = _Ticket(self, op) if self.plan is not None else _NULL_TICKET
        attempt = 1
        while True:
            try:
                return attempt_fn(ticket)
            except _NON_TRANSIENT:
                raise
            except OSError:
                if attempt >= self.max_attempts:
                    self.stats.gave_up += 1
                    raise
                self.stats.retries += 1
                self._sleep(self.backoff_delay(attempt))
                attempt += 1

    def kill_point(self, name: str) -> None:
        """SIGKILL this process if the plan names this checkpoint.

        A real ``SIGKILL`` — no cleanup handlers, no flushing — which
        is exactly the failure checkpoint/resume must survive.
        """
        if self.plan is not None and name in self.plan.kill_at:
            os.kill(os.getpid(), signal.SIGKILL)

    def crash_worker(self, window_index: int, shard_index: int) -> bool:
        """Should the worker for this (window, shard) cell die?

        Pure function of the plan — forked children answer identically
        to the parent without any shared mutable state.
        """
        if self.plan is None:
            return False
        for spec in self.plan.worker_crashes:
            if spec.window not in (-1, window_index):
                continue
            if spec.shard not in (-1, shard_index):
                continue
            if spec.rate >= 1.0:
                return True
            draw = np.random.default_rng(
                np.random.SeedSequence(
                    [self.plan.seed, 0x57C, window_index, shard_index]
                )
            ).random()
            if draw < spec.rate:
                return True
        return False


#: The disabled injector every hook defaults to. Shared on purpose:
#: it holds no plan, consumes no RNG, and its stats only move when a
#: *real* transient IO error is retried.
NO_FAULTS = FaultInjector(None)


def resolve_injector(
    faults: Union[None, FaultPlan, FaultInjector]
) -> FaultInjector:
    """Normalize a ``faults=`` argument (plan, injector, or ``None``)."""
    if faults is None:
        return NO_FAULTS
    if isinstance(faults, FaultInjector):
        return faults
    return FaultInjector(faults)


def atomic_write_bytes(
    path: Union[str, Path],
    write_fn: Callable,
    injector: Optional[FaultInjector] = None,
    op: str = "io.write",
) -> int:
    """Write via ``write_fn(handle)`` to a temp file, fsync, publish.

    The single durable-write primitive of the repo: every manifest,
    window, rollup state, checkpoint, and cache entry goes through it.
    The temp file lives in the target directory (same filesystem, so
    ``os.replace`` is atomic), is flushed and fsynced before the
    rename (a kill after publish can't leave a hollow inode), and the
    directory entry is fsynced best-effort after. Returns the
    published size in bytes. Retries and fault hooks come from
    ``injector`` (disabled by default).
    """
    import tempfile

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    inj = injector if injector is not None else NO_FAULTS

    def _attempt(ticket) -> int:
        ticket.check("write")
        fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                write_fn(handle)
                handle.flush()
                ticket.check("fsync")
                os.fsync(handle.fileno())
            ticket.mangle(tmp_name)
            size = os.path.getsize(tmp_name)
            ticket.check("rename")
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        try:  # directory entry durability is best-effort
            dir_fd = os.open(path.parent, os.O_RDONLY)
            try:
                os.fsync(dir_fd)
            finally:
                os.close(dir_fd)
        except OSError:  # pragma: no cover - exotic filesystems
            pass
        return size

    return inj.run_io(op, _attempt)


#: Named chaos profiles reachable from the CLI via
#: ``--set faults.profile=...``. Rates are per *operation*; with the
#: default plan seed a 3-window stream run injects several transient
#: errors, every one of which must be absorbed by the retry loop.
FAULT_PROFILES: Dict[str, FaultPlan] = {
    "flaky-disk": FaultPlan(
        io_faults=(
            IoFault(op="*", stage="write", rate=0.35, fail_times=1),
            IoFault(op="*", stage="fsync", rate=0.15, fail_times=1),
            IoFault(op="*", stage="rename", rate=0.10, fail_times=1),
            IoFault(op="cache.*", stage="read", rate=0.25, fail_times=1),
        ),
        truncate_faults=(TruncateFault(op="cache.store", rate=0.5),),
    ),
    "dying-workers": FaultPlan(
        worker_crashes=(WorkerCrash(rate=0.5),),
    ),
}
