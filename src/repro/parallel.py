"""Sharded parallel execution of the workload generator.

The paper's probe digests 4.3 PB with a Spark cluster; our equivalent
splits the synthetic capture across worker processes the way Tstat
deployments split a capture across trace files. A *shard* is a
contiguous range of customer ids; each shard draws from its own RNG
stream spawned from the config seed with
``np.random.SeedSequence(seed).spawn(n_shards)``, so the merged output
is **bit-identical regardless of how many workers execute the shards**
— one process or eight, the same flows come out in the same order.

One executor, :class:`ShardWorkerPool`, runs every capture's shards:
its workers are forked once (copy-on-write) so the parent's fully
initialized :class:`~repro.traffic.workload.WorkloadGenerator` —
population, categorical pools, precomputed site tables — is inherited
for free instead of being pickled per task. On platforms without
``fork`` (or when process creation fails, e.g. in a sandbox)
execution falls back to an in-process loop over the same shards,
preserving output byte-for-byte.
"""

from __future__ import annotations

import multiprocessing
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.faults import NO_FAULTS, FaultInjector

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.analysis.dataset import FlowFrame
    from repro.traffic.workload import WorkloadGenerator

#: Default upper bound on the number of shards.
DEFAULT_MAX_SHARDS = 8

#: Customers per shard the default plan aims for. Sharding splits the
#: vectorized per-(country, service) batches, so below this size the
#: fixed per-batch numpy cost outweighs any parallelism win and the
#: default collapses to fewer (down to one) wide shards.
TARGET_SHARD_CUSTOMERS = 150


@dataclass(frozen=True)
class ShardSpec:
    """A contiguous customer-id range assigned to one RNG stream.

    ``index``/``n_shards`` identify the spawned seed stream;
    ``lo``/``hi`` bound the half-open customer-index range
    ``[lo, hi)`` the shard generates flows for.
    """

    index: int
    n_shards: int
    lo: int
    hi: int

    def __len__(self) -> int:
        return self.hi - self.lo


def plan_shards(n_customers: int, n_shards: int) -> List[ShardSpec]:
    """Split ``n_customers`` into ``n_shards`` contiguous ranges.

    The split depends only on its arguments — never on worker count —
    which is what makes the parallel output deterministic. Ranges
    differ in size by at most one customer.

    >>> [(s.lo, s.hi) for s in plan_shards(10, 3)]
    [(0, 4), (4, 7), (7, 10)]
    """
    if n_customers <= 0:
        raise ValueError(f"need at least one customer (got {n_customers})")
    n_shards = max(1, min(n_shards, n_customers))
    base, extra = divmod(n_customers, n_shards)
    shards: List[ShardSpec] = []
    lo = 0
    for index in range(n_shards):
        hi = lo + base + (1 if index < extra else 0)
        shards.append(ShardSpec(index=index, n_shards=n_shards, lo=lo, hi=hi))
        lo = hi
    return shards


def default_shard_count(n_customers: int) -> int:
    """Shard count used when the config does not pin one.

    Derived from the population size only (*not* from the machine), so
    the same config yields the same RNG streams everywhere.

    >>> [default_shard_count(n) for n in (100, 300, 600, 5000)]
    [1, 2, 4, 8]
    """
    return max(1, min(DEFAULT_MAX_SHARDS, n_customers // TARGET_SHARD_CUSTOMERS))


def resolve_workers(n_workers: Union[int, str, None], slots: int = 1) -> int:
    """Map the ``n_workers`` knob to a concrete process count.

    ``None``, ``0`` or the string ``"auto"`` mean "one per *available*
    core": the CPUs this process may actually run on
    (``os.sched_getaffinity``), not the machine total (``os.cpu_count``)
    — in a container or cgroup-restricted CI runner the two differ, and
    sizing the fork pool by the machine total oversubscribes the quota.
    Negative counts and other strings are rejected.

    ``slots`` divides the automatic sizing between sibling processes
    that share the affinity set: a ``repro.fleet`` worker running
    alongside ``max_parallel - 1`` peers passes ``slots=max_parallel``
    and gets ``max(1, cores // slots)`` instead of every sibling
    claiming all cores. Explicit counts are honoured verbatim — the
    user pinned them.
    """
    if slots < 1:
        raise ValueError(f"slots must be >= 1 (got {slots})")
    if isinstance(n_workers, str):
        if n_workers.strip().lower() == "auto":
            n_workers = 0
        else:
            raise ValueError(
                f"n_workers must be an integer or 'auto' (got {n_workers!r})"
            )
    if n_workers is None or n_workers == 0:
        try:
            affinity = len(os.sched_getaffinity(0))
        except AttributeError:  # pragma: no cover - non-Linux
            affinity = os.cpu_count() or 1
        return max(1, affinity // slots)
    if n_workers < 0:
        raise ValueError(f"n_workers must be >= 0 (got {n_workers})")
    return n_workers


# -- shard execution ---------------------------------------------------------


def shard_seed(
    seed: int, shard: ShardSpec, window: Optional[Tuple[int, int]] = None
) -> np.random.SeedSequence:
    """The RNG stream of one shard, or of one (shard, window) cell.

    The one-shot stream of shard *i* is
    ``SeedSequence(seed).spawn(n_shards)[i]``; a streaming cell,
    ``window=(n_windows, window_index)``, spawns one level further.
    Either way the stream is a pure function of the seed and the
    coordinates: any subset of cells can be (re)generated in any order,
    by any process, and sample the same flows. This is what makes
    worker counts and checkpoint/resume invisible in the output (see
    :mod:`repro.stream.checkpoint`).
    """
    sequence = np.random.SeedSequence(seed).spawn(shard.n_shards)[shard.index]
    if window is None:
        return sequence
    n_windows, window_index = window
    return sequence.spawn(n_windows)[window_index]


#: One task: (shard, window, day_lo, day_hi). ``window`` is
#: ``(n_windows, window_index)`` for a streaming cell and ``None`` for
#: the one-shot shard stream.
_Task = Tuple[ShardSpec, Optional[Tuple[int, int]], int, int]


def _generate(
    generator: "WorkloadGenerator",
    injector: FaultInjector,
    task: _Task,
    forked: bool,
) -> Optional["FlowFrame"]:
    """One task's frame, in a forked worker or in the parent.

    Only a forked worker of a streaming cell may be crash-injected;
    the in-process fallback that heals the crash never is.
    """
    shard, window, day_lo, day_hi = task
    if (
        forked
        and window is not None
        and injector.crash_worker(window[1], shard.index)
    ):
        # A forked worker dying mid-shard: no cleanup, no return value,
        # the parent's pool surfaces BrokenProcessPool.
        os._exit(66)
    rng = np.random.default_rng(shard_seed(generator.config.seed, shard, window))
    return generator.generate_shard_days(shard, day_lo, day_hi, rng)


# (generator, injector) of a forked worker, set once by the pool's
# initializer. A fork hands the initializer its arguments by
# copy-on-write, never by pickling, and the parent never sets it.
_POOL_CONTEXT: Optional[Tuple["WorkloadGenerator", FaultInjector]] = None


def _init_worker(generator: "WorkloadGenerator", injector: FaultInjector) -> None:
    global _POOL_CONTEXT
    _POOL_CONTEXT = (generator, injector)


def _run_pool_task(task: _Task) -> Optional["FlowFrame"]:
    assert _POOL_CONTEXT is not None, "pool worker started without context"
    generator, injector = _POOL_CONTEXT
    return _generate(generator, injector, task, forked=True)


class ShardWorkerPool:
    """The fork pool every capture generates its shards on.

    The pool forks **once** — the workers inherit the fully initialized
    generator (population, categorical pools, site tables)
    copy-on-write — and then serves every task of the capture: each
    window of a streaming capture (:meth:`generate_window`), or the
    one-shot capture's day range (:meth:`generate_days`). Only the tiny
    task tuple crosses the pipe. The output is byte-identical for any
    worker count, and to in-process execution, because each task draws
    from its own :func:`shard_seed` stream.

    Fork-with-threads note: with the ``fork`` start method the executor
    launches *all* workers in its constructor, so creating the pool
    before any sibling thread starts (the pipelined producer's commit
    thread) guarantees the children never inherit a mid-held lock. A
    worker killed mid-task breaks the executor; the tasks are then
    regenerated in-process (identical frames) and the pool is lazily
    re-forked for the next call — the only fork that can race a live
    thread, and the children run nothing but generator code.

    On platforms without ``fork``, with ``n_workers <= 1``, or when
    process creation fails outright, every task runs in-process.
    """

    def __init__(
        self,
        generator: "WorkloadGenerator",
        n_workers: int,
        injector: Optional[FaultInjector] = None,
    ) -> None:
        self.generator = generator
        self.injector = injector if injector is not None else NO_FAULTS
        self.n_workers = max(0, n_workers)
        self._executor: Optional[ProcessPoolExecutor] = None
        self._serial_forever = (
            self.n_workers <= 1
            or "fork" not in multiprocessing.get_all_start_methods()
        )

    # -- lifecycle -----------------------------------------------------

    def _ensure_executor(self) -> Optional[ProcessPoolExecutor]:
        if self._executor is not None or self._serial_forever:
            return self._executor
        try:
            # Forks all n_workers children right here (fork pools do not
            # spawn lazily); each runs _init_worker once.
            self._executor = ProcessPoolExecutor(
                max_workers=self.n_workers,
                mp_context=multiprocessing.get_context("fork"),
                initializer=_init_worker,
                initargs=(self.generator, self.injector),
            )
        except (OSError, PermissionError) as exc:  # pragma: no cover
            warnings.warn(
                f"worker pool unavailable ({exc}); generating shards "
                "in-process",
                RuntimeWarning,
                stacklevel=3,
            )
            self._serial_forever = True
        return self._executor

    def warm(self) -> None:
        """Fork the workers now (no-op when running serially).

        Call before starting any sibling thread: fork pools launch all
        their children inside the executor constructor, so a warmed
        pool's workers are guaranteed thread-free copies.
        """
        self._ensure_executor()

    def close(self) -> None:
        """Shut the workers down (idempotent)."""
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None

    def __enter__(self) -> "ShardWorkerPool":
        self._ensure_executor()
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # -- work ----------------------------------------------------------

    def generate_window(
        self,
        shards: Sequence[ShardSpec],
        n_windows: int,
        window_index: int,
        day_lo: int,
        day_hi: int,
    ) -> List[Optional["FlowFrame"]]:
        """One streaming window's shard frames, in shard order."""
        window = (n_windows, window_index)
        return self._run(
            [(shard, window, day_lo, day_hi) for shard in shards],
            f"window {window_index}",
        )

    def generate_days(
        self, shards: Sequence[ShardSpec], day_lo: int, day_hi: int
    ) -> List[Optional["FlowFrame"]]:
        """Days ``[day_lo, day_hi)`` of each one-shot shard stream, in
        shard order (a shard with no flows yields ``None``)."""
        return self._run(
            [(shard, None, day_lo, day_hi) for shard in shards],
            f"days [{day_lo}, {day_hi})",
        )

    def _run(
        self, tasks: List[_Task], label: str
    ) -> List[Optional["FlowFrame"]]:
        # A worker crash costs the pool, not the run: the tasks are
        # regenerated in-process from the same streams.
        executor = self._ensure_executor()
        if executor is not None:
            try:
                return list(executor.map(_run_pool_task, tasks))
            except BrokenProcessPool:
                self.injector.stats.worker_crashes += 1
                warnings.warn(
                    f"pool worker died generating {label}; regenerating "
                    "its shards in-process (output unchanged) and "
                    "re-forking the pool",
                    RuntimeWarning,
                    stacklevel=3,
                )
                executor.shutdown(wait=False, cancel_futures=True)
                self._executor = None
        return [
            _generate(self.generator, self.injector, task, forked=False)
            for task in tasks
        ]
