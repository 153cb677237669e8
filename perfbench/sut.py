"""The system under test: one ``repro`` command in its own process.

Usage::

    python3 perfbench/sut.py --out DIR [--trace] [--probe] -- <repro argv>
    python3 perfbench/sut.py --warm

The wrapper runs ``repro.cli.main(argv)`` exactly as the ``repro``
command would, after wrapping a few public functions of the program so
the benchmark can see inside it. Nothing in ``src/`` changes.

Always (tracing off), three marks are taken, one Python call each per
window or per capture:

* ``first_window`` — the first ``WindowedProducer.generate_window``
  call in each process (``setup_s`` ends there);
* ``end`` — ``run_stream_capture`` / ``run_fleet_capture`` returned;
* ``committed`` — every rollup digest ``write_checkpoint`` committed,
  which the live output check compares served digests against.

With ``--trace`` every call listed in ``layer_calls`` is wrapped by
a span/counter recorder that keeps, per thread, the self time (own
duration minus time in nested traced calls) and call count of each
layer, plus spans for the coarse calls the harness reconstructs the
pipeline from. Forked pool workers and fleet partitions end through
``os._exit`` (``atexit`` never runs there), so every child process
writes its own file after each outermost traced call returns.

``--probe`` stops the command when the first window is about to
generate: the set-up path runs in full, the capture does not. The
process that gets there first (the root, or a fleet partition) writes
its marks and SIGKILLs the whole process group.

A live server's linger (``--serve-linger``) ends early on SIGUSR1,
which the harness sends once its reader has the final replies.

``DIR`` receives ``root.json`` (this process) and ``child-<pid>.json``
(each traced or marked child).
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402 - T0 must precede every import
import json  # noqa: E402
import os  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

perf_counter = time.perf_counter


class Recorder:
    """Per-thread self time, call counts, counters and spans.

    Tables are thread-local, so the hot path takes no lock; a flush
    merges them. State is reset in every forked child, which then
    reports only its own work.
    """

    def __init__(self, out_dir: Path, probe: bool) -> None:
        self.out_dir = out_dir
        self.probe = probe
        self.root_pid = os.getpid()
        self._reset()
        os.register_at_fork(after_in_child=self._after_fork)

    def _reset(self) -> None:
        self.local = threading.local()
        self.tables: list = []
        self.spans: list = []
        self.marks: dict = {}
        self.committed: list = []
        self.flush_lock = threading.Lock()

    def _after_fork(self) -> None:
        self._reset()
        self.marks["fork"] = perf_counter()

    def _thread_state(self):
        local = self.local
        local.stack = []
        local.table = {}
        local.counts = {}
        self.tables.append((local.table, local.counts))
        return local

    def wrap(self, owner, attr: str, name, span: bool = False,
             measure=None) -> None:
        """Replace ``owner.attr`` with a timed call of the original.

        ``name`` is the layer name, or a function of the call's
        arguments that returns it.
        """
        original = getattr(owner, attr)
        rec = self
        fixed = name if isinstance(name, str) else None

        def traced(*args, **kwargs):
            local = rec.local
            if not hasattr(local, "stack"):
                local = rec._thread_state()
            stack = local.stack
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                duration = t1 - t0
                if stack:
                    stack[-1][0] += duration
                key = fixed or name(args)
                row = local.table.get(key)
                if row is None:
                    row = local.table[key] = [0.0, 0]
                row[0] += duration - frame[0]
                row[1] += 1
                if span:
                    rec.spans.append(
                        (key, t0, t1, threading.current_thread().name)
                    )
            if measure is not None:
                for key, value in measure(args, result):
                    local.counts[key] = local.counts.get(key, 0) + value
            if not stack and os.getpid() != rec.root_pid:
                rec.flush()
            return result

        setattr(owner, attr, traced)

    def hook(self, owner, attr: str, before=None, after=None) -> None:
        """Untimed hook: ``before(args)`` / ``after(args, result)``."""
        original = getattr(owner, attr)

        def hooked(*args, **kwargs):
            if before is not None:
                before(args)
            result = original(*args, **kwargs)
            if after is not None:
                after(args, result)
            return result

        setattr(owner, attr, hooked)

    # -- marks ---------------------------------------------------------

    def first_window(self, _args) -> None:
        if "first_window" in self.marks:
            return
        self.marks["first_window"] = perf_counter()
        if self.probe:
            self.flush()
            os.killpg(os.getpgrp(), signal.SIGKILL)
        if os.getpid() != self.root_pid:
            self.flush()

    # -- output --------------------------------------------------------

    def payload(self) -> dict:
        table: dict = {}
        counts: dict = {}
        for thread_table, thread_counts in list(self.tables):
            for name, (self_s, calls) in list(thread_table.items()):
                row = table.setdefault(name, [0.0, 0])
                row[0] += self_s
                row[1] += calls
            for key, value in list(thread_counts.items()):
                counts[key] = counts.get(key, 0) + value
        return {
            "t0": T0,
            "pid": os.getpid(),
            "ppid": os.getppid(),
            "marks": dict(self.marks),
            "table": table,
            "counts": counts,
            "spans": list(self.spans),
        }

    def flush(self, extra=None) -> None:
        is_root = os.getpid() == self.root_pid
        path = self.out_dir / (
            "root.json" if is_root else f"child-{os.getpid()}.json"
        )
        with self.flush_lock:
            payload = self.payload()
            payload.update(extra or {})
            tmp = path.with_suffix(".tmp")
            tmp.write_text(json.dumps(payload))
            os.replace(tmp, path)


def install(rec: Recorder, command: str, trace: bool) -> None:
    """Wrap the program's public functions for ``command``."""
    from repro.stream import producer

    rec.hook(producer.WindowedProducer, "generate_window",
             before=rec.first_window)
    if command == "fleet":
        import repro.fleet as fleet

        rec.hook(fleet, "run_fleet_capture",
                 after=lambda _a, _r: rec.marks.setdefault("end", perf_counter()))
    else:
        import repro.stream as stream

        rec.hook(stream, "run_stream_capture",
                 after=lambda _a, _r: rec.marks.setdefault("end", perf_counter()))

    def committed(args, _result) -> None:
        if os.getpid() == rec.root_pid:
            rec.committed.append(args[1].rollup_digest)

    rec.hook(producer, "write_checkpoint", after=committed)
    if trace:
        for owner, attr, name, span, measure in layer_calls():
            rec.wrap(owner, attr, name, span=span, measure=measure)


def release_linger_on_sigusr1() -> None:
    """Let SIGUSR1 cut short the live server's linger after a capture."""
    from repro import cli

    released = []
    signal.signal(signal.SIGUSR1, lambda _sig, _frame: released.append(True))
    finish = cli._finish_live_server

    def finish_when_released(server, linger_s: float) -> None:
        deadline = perf_counter() + linger_s
        while not released and perf_counter() < deadline:
            time.sleep(0.01)
        finish(server, 0.0)

    cli._finish_live_server = finish_when_released


def layer_calls():
    """(owner, attribute, layer name, keep spans, counter) per layer call."""
    from repro.analysis import registry
    from repro.fleet import coordinator
    from repro.parallel import ShardWorkerPool
    from repro.satcom.delaysource import DelaySource
    from repro.scenario import Scenario
    from repro.serve import service
    from repro.serve.snapshot import SnapshotHub
    from repro.stream import producer
    from repro.stream.rollup import StreamRollup
    from repro.stream.store import FlowStore
    from repro.traffic.sessions import VideoSessionModel
    from repro.traffic.workload import WorkloadGenerator

    def flows(_args, frame):
        yield "traffic.flows", 0 if frame is None else len(frame)

    def transfer(args, frames):
        if args[0]._executor is not None:
            yield "parallel.transfer_bytes", sum(
                frame.nbytes for frame in frames if frame is not None)

    def window_bytes(args, _result):
        yield "producer.window_bytes", args[2].nbytes
        yield "producer.windows", 1

    def spilled(_args, written):
        yield "store.spilled_bytes", written

    return [
        (Scenario, "build_generator", "scenario.build_generator", False, None),
        (WorkloadGenerator, "generate_shard_days", "traffic.generate", True, flows),
        (VideoSessionModel, "simulate", "traffic.sessions", False, None),
        (DelaySource, "sample_handshake_rtt_bulk", "satcom.rtt_bulk", False, None),
        (ShardWorkerPool, "warm", "parallel.warm", False, None),
        (ShardWorkerPool, "generate_window", "parallel.window", True, transfer),
        (producer.WindowedProducer, "generate_window", "producer.window", True, None),
        (producer._WindowCommitter, "commit", "producer.commit", True, window_bytes),
        (producer, "write_checkpoint", "checkpoint.write", False, None),
        (FlowStore, "write_window", "store.write", False, spilled),
        (StreamRollup, "update", "rollup.update", False, None),
        (StreamRollup, "save", "rollup.save", False, None),
        (StreamRollup, "state_digest", "rollup.digest", False, None),
        (StreamRollup, "copy", "rollup.copy", False, None),
        (StreamRollup, "merge", "rollup.merge", False, None),
        (coordinator, "partition_process_entry", "fleet.partition", True, None),
        (coordinator, "merge_partition_captures", "fleet.merge", False, None),
        (SnapshotHub, "publish_state", "serve.publish", False, None),
        (service, "build_scorecard_rollup", "analysis.render.scorecard", False, None),
        (registry, "run", lambda args: f"analysis.render.{args[0]}", False, None),
    ]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--warm", action="store_true",
                        help="import every traced module and exit")
    parser.add_argument("argv", nargs="*")
    args = parser.parse_args()
    if args.warm:
        import repro.cli  # noqa: F401

        layer_calls()
        return 0

    # ``repro serve`` stops on SIGINT, even if the caller ignores it.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    rec = Recorder(args.out, args.probe)
    install(rec, args.argv[0], args.trace)
    release_linger_on_sigusr1()
    from repro import cli

    code = cli.main(args.argv)
    rec.flush({"code": code, "committed": rec.committed})
    sys.stdout.flush()
    sys.stderr.flush()
    return code


if __name__ == "__main__":
    os._exit(main())
