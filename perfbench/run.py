"""The repository's benchmark: capture throughput and live reads.

Run from the root of a checkout::

    python3 perfbench/run.py --latency-limit-ms 500 \\
        --workload parallel --seed 1 --seconds 45 --trace 0

It prints one JSON object as the last line of standard output:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0``
the metrics are the end-to-end ones, measured with tracing off; with
``--trace 1`` they are the per-layer ones from one traced capture,
plus the tracing overhead: the median wall-time difference of traced
and untraced captures run in pairs.

Every capture runs ``repro stream`` or ``repro fleet`` in a fresh
process (``perfbench/sut.py``), because peak RSS is a high-water mark
that a second capture in the same process would inherit. The harness
process records the resident high-water mark of that process tree, and
its load generator (``perfbench/loadgen.py``) reads over HTTP from
outside. ``peak_rss_mb`` is the sum of each process's own high-water
mark (``VmHWM``): pages a forked child shares with its parent count in
both, and peaks that did not coincide are added, so it is an upper
bound on the tree's peak, not the peak itself.

An untraced run first sets up ``WARMUP_PROBES + PROBES`` times without
capturing (set-up probes: the capture command, stopped as its first
window starts); ``setup_s`` is the median of the last ``PROBES``. One
set-up takes ~0.8 s, too short to sit out this host's noise on its own,
and the first set-ups after a capture (the previous run's, too) read up
to 50% slower on ``fleet``, so every ``setup_s`` sample is taken after
the warm-up probes and before the run's first capture. The run then
starts captures while another should end within ``--seconds`` of the
run's start: ``CAPTURES`` on the capture-only workloads, whose read
phases take the rest of the time, and as many as fit on ``live``.

On a two-core VM share of a busy host a thread's speed drifts by ~10%
over seconds (the medians of a fixed loop over 2.5 s windows spread
0.12 interquartile, over 10 s windows 0.08), so a metric is as steady
as the stretch of the run it samples is long.

Workloads (the first two capture the same ``baseline-geo`` input, 600
customers in 4 shards over 5 one-day windows, so they must end on one
rollup digest):

* ``parallel`` — depth 2, two workers: fork-pool transfer and the commit
  thread overlapping generation.
* ``fleet`` — two partitions in two processes, then the merge.
* ``live`` — ``video-streaming`` at its defaults (depth 1, one worker)
  with the server on; an open-loop reader sends requests while the
  capture runs. Its spill is uncompressed like the other two: with
  compression the commit thread is the slower stage, the capture
  alternates between a phase where generation holds the interpreter
  and one where only the commit thread runs, and the split between the
  two moved the median latency by 40% from run to run.

The two capture-only workloads have no server during the capture.
Their serve metrics come from a read phase after each capture:
``repro serve`` on the finished capture, with the same open-loop
reader, so they give the idle-snapshot latency that ``live`` contends
against. Reading after every capture spreads the samples over the run;
each read phase lasts an equal share of the time left once the
remaining captures are accounted for, so a run fills ``--seconds``.
On ``live`` the harness ends the server's linger (SIGUSR1, see
``sut.py``) as soon as the reader has its final replies.

Inputs: ``--seed`` picks the scenario seed from ``perfbench/inputs.json``
(``seeds[seed % len(seeds)]``) and shuffles the reader's schedule. With
600 customers the capture's flow count varies by ~10% (interquartile)
between scenario seeds, and generation cost is mostly per call, not per
flow, so capture throughput and memory would follow the seed. The seeds
listed there were screened to within ~2% of the median flow count: the
content varies, the stated input size does not. Each has its flow count
and rollup digest pinned.

Output checks: every capture's on-disk rollup must match its committed
checkpoint (or fleet manifest) digest and the digest pinned for its
seed; every HTTP 200 must carry a digest the capture committed; and on
``live`` the final served digest must equal the on-disk checkpoint
digest. A failed check fails the capture.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import loadgen  # noqa: E402


@dataclass(frozen=True)
class Workload:
    command: str
    scenario: str
    flags: tuple
    live: bool = False


WORKLOADS = {
    "parallel": Workload(
        "stream", "baseline-geo",
        ("--pipeline-depth", "2", "--workers", "2", "--no-compress"),
    ),
    "fleet": Workload(
        "fleet", "baseline-geo",
        ("--partitions", "2", "--max-parallel", "2", "--no-compress"),
    ),
    "live": Workload(
        "stream", "video-streaming",
        ("--serve-port", "0", "--serve-linger", "5", "--no-compress"),
        live=True,
    ),
}

WARMUP_PROBES = 1
"""Set-up probes run first and not counted."""
PROBES = 5
"""Set-up probes that ``setup_s`` is the median of."""
CAPTURES = 3
"""Captures per untraced run of a capture-only workload."""
READ_S = 2.5
"""Length of the traced run's one read phase."""
MIN_READ_S = 1.5
SERVE_START_S = 1.0
"""Time a read phase spends outside its schedule: ``repro serve`` starts,
loads the capture and answers every endpoint once before reading."""
RUN_LIMIT_S = 170.0
RSS_SAMPLE_S = 0.1
MB = float(1 << 20)

END_TO_END = {
    "capture_flows_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "serve_p50_ms": "ms",
    "serve_p90_ms": "ms",
    "serve_success_ratio": "ratio",
}

REPORTS = [path.rsplit("/", 1)[1] for path in dict.fromkeys(loadgen.MIX)
           if path.startswith("/reports/")] + ["scorecard"]
FAIL_KINDS = ("status", "transport", "late", "digest")
PER_LAYER = {
    "scenario.build_generator_s": "s",
    "traffic.generate_s": "s",
    "traffic.calls": "count",
    "traffic.flows": "count",
    "traffic.sessions_s": "s",
    "satcom.rtt_bulk_s": "s",
    "satcom.rtt_bulk_calls": "count",
    "parallel.warm_s": "s",
    "parallel.window_s": "s",
    "parallel.overhead_s": "s",
    "parallel.transfer_mb": "MB",
    "store.write_s": "s",
    "store.spilled_mb": "MB",
    "rollup.update_s": "s",
    "rollup.save_s": "s",
    "rollup.digest_s": "s",
    "rollup.copy_s": "s",
    "checkpoint.write_s": "s",
    "producer.commit_busy_ratio": "ratio",
    "producer.gen_blocked_s": "s",
    "producer.commit_idle_s": "s",
    "producer.window_mb": "MB",
    "fleet.partition_busy_s": "s",
    "fleet.partition_skew": "ratio",
    "fleet.worker_start_s": "s",
    "fleet.merge_s": "s",
    "rollup.merge_s": "s",
    "serve.publish_s": "s",
    "serve.server_ms": "ms",
    "serve.wait_ms": "ms",
    **{f"serve.failed.{kind}": "count" for kind in FAIL_KINDS},
    "loadgen.late_ms": "ms",
    **{f"analysis.render_ms.{name}": "ms" for name in REPORTS},
    "trace.overhead_s": "s",
    "trace.overhead_pct": "%",
}


# -- process tree --------------------------------------------------------


def sample_peaks(pid: int, peaks: Dict[int, int]) -> None:
    """Record the resident high-water mark of ``pid`` and its descendants.

    ``VmHWM`` is exact for each process however short its peak, so the
    sum over processes does not depend on when the sample is taken
    (pages a forked child shares with its parent count in both).
    """
    stack = [pid]
    while stack:
        current = stack.pop()
        try:
            with open(f"/proc/{current}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        kib = int(line.split()[1])
                        peaks[current] = max(peaks.get(current, 0), kib * 1024)
                        break
            for tid in os.listdir(f"/proc/{current}/task"):
                with open(f"/proc/{current}/task/{tid}/children") as handle:
                    stack.extend(int(child) for child in handle.read().split())
        except (OSError, ValueError):
            continue


def _group_alive(pgid: int) -> bool:
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[2]) == pgid and fields[0] != "Z":
            return True
    return False


def stop_group(pgid: int) -> None:
    """SIGKILL whatever is left of a process group and wait until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10.0
    while _group_alive(pgid) and time.monotonic() < deadline:
        time.sleep(0.01)


# -- one process of the system under test --------------------------------


@dataclass
class SutRun:
    code: int
    peak_mb: float
    root: dict
    children: List[dict]
    log: Path

    @property
    def procs(self) -> List[dict]:
        return ([self.root] if self.root else []) + self.children

    def first_window(self) -> Optional[float]:
        marks = [p["marks"]["first_window"] for p in self.procs
                 if "first_window" in p["marks"]]
        return min(marks) if marks else None

    def setup_s(self) -> Optional[float]:
        """From the root's start to the first window, in any process."""
        first = self.first_window()
        return None if first is None else first - self.procs[0]["t0"]


@dataclass
class Phase:
    """What the load generator saw while one server ran."""

    replies: List[loadgen.Reply] = field(default_factory=list)
    telemetry: dict = field(default_factory=dict)
    final_digest: str = ""
    error: str = ""
    failures: Dict[str, int] = field(default_factory=dict)
    run: Optional[SutRun] = None


class Bench:
    def __init__(self, args: argparse.Namespace, root: Path) -> None:
        self.args = args
        self.workload = WORKLOADS[args.workload]
        self.root = root
        self.started = time.monotonic()
        self.work = root / ".perfbench" / f"{args.workload}-{os.getpid()}"
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.runs = 0
        inputs = json.loads((HERE / "inputs.json").read_text())
        inputs = inputs[self.workload.scenario]
        self.scenario_seed = inputs["seeds"][args.seed % len(inputs["seeds"])]
        self.pinned = inputs["digests"][str(self.scenario_seed)]
        self.pinned_flows = inputs["flows"][str(self.scenario_seed)]

    # -- bookkeeping -----------------------------------------------------

    def fail(self, problem: str) -> None:
        self.problems.append(problem)
        print(f"perfbench: {problem}", file=sys.stderr)

    def remaining(self) -> float:
        return RUN_LIMIT_S - (time.monotonic() - self.started)

    def sut(self, argv: List[str], trace: bool = False, probe: bool = False,
            client: Optional[Callable] = None) -> SutRun:
        self.runs += 1
        out = self.work / f"sut{self.runs}"
        out.mkdir(parents=True)
        log = out / "stderr.log"
        command = [sys.executable, str(HERE / "sut.py"), "--out", str(out)]
        command += ["--trace"] * trace + ["--probe"] * probe + ["--"] + argv
        with open(log, "wb") as err:
            proc = subprocess.Popen(
                command, cwd=self.root, stdout=subprocess.DEVNULL,
                stderr=err, start_new_session=True,
            )
        thread = None
        if client is not None:
            thread = threading.Thread(
                target=client, args=(proc, log), name="loadgen-0"
            )
            thread.start()
        peaks: Dict[int, int] = {}
        deadline = time.monotonic() + max(1.0, self.remaining())
        try:
            while proc.poll() is None:
                sample_peaks(proc.pid, peaks)
                if time.monotonic() > deadline:
                    self.fail(f"{argv[0]} exceeded the run time limit")
                    break
                time.sleep(RSS_SAMPLE_S)
        finally:
            stop_group(proc.pid)
            proc.wait()
            if thread is not None:
                thread.join()
        payloads = {p.name: json.loads(p.read_text())
                    for p in out.glob("*.json")}
        return SutRun(
            code=proc.returncode,
            peak_mb=sum(peaks.values()) / MB,
            root=payloads.pop("root.json", {}),
            children=list(payloads.values()),
            log=log,
        )

    def capture_argv(self, directory: Path) -> List[str]:
        w = self.workload
        return [w.command, "--scenario", w.scenario,
                "--seed", str(self.scenario_seed), "--dir", str(directory),
                *w.flags]

    def _log_tail(self, run: SutRun) -> str:
        return run.log.read_text(errors="replace")[-2000:]

    # -- set-up probe ----------------------------------------------------

    def probe(self) -> Optional[float]:
        self.attempted += 1
        directory = self.work / f"probe{self.runs}"
        run = self.sut(self.capture_argv(directory), probe=True)
        shutil.rmtree(directory, ignore_errors=True)
        setup = run.setup_s()
        if setup is None:
            self.failed += 1
            self.fail(f"set-up probe failed (exit {run.code}):\n"
                      + self._log_tail(run))
        return setup

    # -- capture ---------------------------------------------------------

    def capture(self, trace: bool,
                read_s: Callable[[float], float] = lambda _s: 0.0
                ) -> Optional[dict]:
        """One capture, then (without a live server) a read phase on it
        of ``read_s(seconds the capture took)`` seconds, if positive.

        Returns the measurements, or None if either failed a check.
        """
        started = time.monotonic()
        self.attempted += 1
        directory = self.work / f"capture{self.runs}"
        phase = Phase()
        client = None
        if self.workload.live:
            client = lambda proc, log: self._read(proc, log, phase, live=True)
        run = self.sut(self.capture_argv(directory), trace=trace,
                       client=client)
        try:
            result = self._check_capture(run, directory, phase)
            seconds = read_s(time.monotonic() - started)
            if result is not None and seconds > 0:
                result["phase"] = self.read_phase(
                    directory, result["digest"], trace, seconds)
                if result["phase"] is None:
                    result = None
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        if result is None:
            self.failed += 1
        return result

    def _check_capture(self, run: SutRun, directory: Path,
                       phase: Phase) -> Optional[dict]:
        first = run.first_window()
        end = run.root.get("marks", {}).get("end")
        if run.code != 0 or first is None or end is None:
            self.fail(f"capture failed (exit {run.code}):\n"
                      + self._log_tail(run))
            return None
        ok, digest, flows = verify_capture(self.workload, directory)
        if not ok:
            self.fail(f"capture in {directory.name}: on-disk rollup does not "
                      "match its committed digest")
            return None
        if digest != self.pinned or flows != self.pinned_flows:
            self.fail(f"rollup digest {digest} ({flows} flows) != "
                      f"{self.pinned} ({self.pinned_flows} flows) pinned for "
                      f"{self.workload.scenario} seed {self.scenario_seed}")
            return None
        result = {
            "wall_s": end - first,
            "flows": flows,
            "peak_rss_mb": run.peak_mb,
            "digest": digest,
            "run": run,
            "phase": None,
        }
        if self.workload.live:
            committed = set(run.root.get("committed", []))
            if phase.final_digest != digest:
                self.fail(f"final served digest {phase.final_digest!r} != "
                          f"on-disk checkpoint digest {digest}")
                return None
            if not self._count_replies(phase, committed):
                return None
            result["phase"] = phase
        return result

    # -- reads -----------------------------------------------------------

    def _read(self, proc, log: Path, phase: Phase, live: bool,
              seconds: float = 0.0) -> None:
        """The load generator's first thread, for one server process:
        until the capture completes (``live``) or for ``seconds``."""
        alive = lambda: proc.poll() is None
        try:
            address = loadgen.wait_for_address(log, alive, 60.0)
            if address is None:
                phase.error = "server never printed its address"
                return
            if not loadgen.wait_ready(address, loadgen.MIX, alive, 60.0):
                phase.error = "endpoints never all answered 200"
                return
            count = 100_000 if live else max(1, round(seconds * loadgen.RATE))
            paths = loadgen.schedule(self.args.seed, count)
            phase.replies = loadgen.OpenLoop(address, paths, live, alive).run()
            _, headers, _ = loadgen.get(address, "/progress")
            phase.final_digest = headers.get("X-Capture-Digest", "")
            status, _, body = loadgen.get(address, "/telemetry?format=json")
            if status == 200:
                phase.telemetry = json.loads(body)
        except (OSError, ValueError) as exc:
            phase.error = f"{type(exc).__name__}: {exc}"
        finally:
            if alive():  # stop serving (``live``: end the linger)
                proc.send_signal(signal.SIGUSR1 if live else signal.SIGINT)

    def read_phase(self, directory: Path, digest: str, trace: bool,
                   seconds: float) -> Optional[Phase]:
        """``repro serve`` on a finished capture, read by the open loop
        for ``seconds``."""
        fleet = self.workload.command == "fleet"
        target = directory / "merged_rollup.npz" if fleet else directory
        phase = Phase()
        run = self.sut(
            ["serve", "--dir", str(target)], trace=trace,
            client=lambda proc, log: self._read(proc, log, phase, False,
                                                seconds),
        )
        phase.run = run
        if run.code != 0:
            self.fail(f"serve exited {run.code}:\n" + self._log_tail(run))
            return None
        if not self._count_replies(phase, {digest}):
            return None
        return phase

    def _count_replies(self, phase: Phase, committed: set) -> bool:
        if phase.error:
            self.failed += 1
            self.attempted += 1
            self.fail(f"load generator: {phase.error}")
            return False
        limit = self.args.latency_limit_ms / 1000.0
        phase.failures = {kind: 0 for kind in FAIL_KINDS}
        for reply in phase.replies:
            self.attempted += 1
            kind = classify(reply, committed, limit)
            if kind:
                phase.failures[kind] += 1
                self.failed += 1
        if phase.failures["digest"]:
            self.fail(f"{phase.failures['digest']} replies carried a digest "
                      "the capture never committed")
        if not phase.replies:
            self.fail("no request was scheduled")
            return False
        latency = [r.latency_s * 1000.0 for r in phase.replies]
        print(f"perfbench: {len(latency)} replies, p50 "
              f"{percentile(latency, 50):.2f} ms, p90 "
              f"{percentile(latency, 90):.2f} ms", file=sys.stderr)
        return True

    # -- runs ------------------------------------------------------------

    def repeat(self, step: Callable[[], None]) -> None:
        """Call ``step``, then again while another call should end
        within ``--seconds`` of the run's start."""
        durations: List[float] = []
        while not durations or (time.monotonic() - self.started
                                + statistics.mean(durations)
                                <= self.args.seconds):
            step_started = time.monotonic()
            step()
            durations.append(time.monotonic() - step_started)

    def untraced(self) -> Dict[str, float]:
        setups = [self.probe() for _ in range(WARMUP_PROBES + PROBES)]
        setups = [s for s in setups[WARMUP_PROBES:] if s is not None]
        captures: List[dict] = []
        spent: List[float] = []  # per capture, its read phase excluded

        def read_s(capture_s: float) -> float:
            """An equal share of the time the remaining captures leave."""
            spent.append(capture_s)
            if self.workload.live:
                return 0.0
            reads = max(1, CAPTURES - len(spent) + 1)
            left = (self.args.seconds - (time.monotonic() - self.started)
                    - (reads - 1) * statistics.mean(spent))
            return max(MIN_READ_S, left / reads - SERVE_START_S)

        while not spent or (time.monotonic() - self.started
                            + statistics.mean(spent) <= self.args.seconds):
            result = self.capture(trace=False, read_s=read_s)
            if result is not None:
                captures.append(result)
        print("perfbench: set-up probes " + " ".join(
            f"{s:.3f}" for s in setups) + " s", file=sys.stderr)
        if not captures or not setups:
            return {}
        metrics = {
            "capture_flows_per_s": statistics.median(
                c["flows"] / c["wall_s"] for c in captures),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in captures),
        }
        metrics.update(serve_metrics([c["phase"] for c in captures]))
        return metrics

    def traced(self) -> Dict[str, float]:
        """Per-layer metrics from the first traced capture; the overhead
        from untraced/traced pairs, as the median of their differences.
        Only the first traced capture gets a read phase, so more pairs fit."""
        pairs: List[tuple] = []

        def pair() -> None:
            plain = self.capture(trace=False)
            traced = self.capture(
                trace=True, read_s=lambda _s: 0.0 if pairs or self.workload.live
                else READ_S)
            if plain is not None and traced is not None:
                pairs.append((plain, traced))

        self.repeat(pair)
        if not pairs:
            return {}
        traced = pairs[0][1]
        phase = traced["phase"]
        procs = traced["run"].procs + (phase.run.procs if phase.run else [])
        metrics = layer_metrics(procs)
        metrics.update(serve_layer_metrics(phase))
        metrics["trace.overhead_s"] = statistics.median(
            t["wall_s"] - p["wall_s"] for p, t in pairs)
        metrics["trace.overhead_pct"] = statistics.median(
            100.0 * (t["wall_s"] - p["wall_s"]) / p["wall_s"] for p, t in pairs)
        print("perfbench: capture wall untraced/traced: " + ", ".join(
            f"{p['wall_s']:.2f}/{t['wall_s']:.2f} s" for p, t in pairs),
            file=sys.stderr)
        return metrics

    def run(self) -> dict:
        warm = subprocess.run(
            [sys.executable, str(HERE / "sut.py"), "--warm"],
            cwd=self.root, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            timeout=120,
        )
        if warm.returncode != 0:
            self.fail("cannot import repro:\n" + warm.stderr.decode()[-2000:])
            return {}
        if self.args.trace:
            return self.traced()
        return self.untraced()


def classify(reply: loadgen.Reply, committed: set, limit_s: float) -> str:
    """The failure kind of one reply, or "" when it succeeded."""
    if reply.error:
        return "transport"
    if reply.status != 200:
        return "status"
    if reply.digest not in committed:
        return "digest"
    if reply.latency_s > limit_s:
        return "late"
    return ""


def verify_capture(workload: Workload, directory: Path):
    """(ok, digest, flows) recomputed from what the capture left on disk."""
    from repro.fleet import MERGED_ROLLUP, load_fleet_manifest
    from repro.stream import StreamRollup, load_checkpoint, rollup_path

    try:
        if workload.command == "fleet":
            manifest = load_fleet_manifest(directory)
            rollup = StreamRollup.load(directory / MERGED_ROLLUP)
            digest = rollup.state_digest()
            ok = (manifest is not None and manifest["status"] == "complete"
                  and manifest.get("merged_digest") == digest)
        else:
            checkpoint = load_checkpoint(directory)
            rollup = StreamRollup.load(rollup_path(directory))
            digest = rollup.state_digest()
            ok = (checkpoint is not None and checkpoint.complete
                  and checkpoint.rollup_digest == digest)
    except (OSError, ValueError) as exc:
        print(f"perfbench: cannot verify {directory}: {exc}", file=sys.stderr)
        return False, "", 0
    return ok and rollup.flows_total > 0, digest, rollup.flows_total


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    lo = int(position)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (position - lo)


def serve_metrics(phases: List[Phase]) -> Dict[str, float]:
    replies = [r for phase in phases for r in phase.replies]
    answered = [r.latency_s * 1000.0 for r in replies
                if not r.error and r.status == 200]
    failed = sum(sum(phase.failures.values()) for phase in phases)
    return {
        "serve_p50_ms": percentile(answered, 50) if answered else 0.0,
        "serve_p90_ms": percentile(answered, 90) if answered else 0.0,
        "serve_success_ratio": (len(replies) - failed) / len(replies),
    }


def serve_layer_metrics(phase: Phase) -> Dict[str, float]:
    """Server-side time (from ``/telemetry``) against the client's view.

    Both sides are per-endpoint medians, weighted by the requests the
    load generator sent to each endpoint; ``wait`` is what the client
    saw beyond the server's own handling time.
    """
    server = {"/" + row["endpoint"]: row["p50_ms"]
              for row in phase.telemetry.get("endpoints", [])}
    answered: Dict[str, List[float]] = {}
    for r in phase.replies:
        if not r.error and r.status == 200 and r.path in server:
            answered.setdefault(r.path, []).append((r.done - r.sent) * 1000.0)
    weight = sum(len(v) for v in answered.values())
    server_ms = wait_ms = 0.0
    for path, client in answered.items():
        server_ms += server[path] * len(client) / weight
        wait_ms += (percentile(client, 50) - server[path]) * len(client) / weight
    metrics = {
        "serve.server_ms": server_ms,
        "serve.wait_ms": wait_ms,
        "loadgen.late_ms": percentile(
            [(r.sent - r.due) * 1000.0 for r in phase.replies], 90
        ) if phase.replies else 0.0,
    }
    for kind in FAIL_KINDS:
        metrics[f"serve.failed.{kind}"] = phase.failures[kind]
    return metrics


def layer_metrics(procs: List[dict]) -> Dict[str, float]:
    """Per-layer self times, counts and pipeline shape from traced processes."""
    table: Dict[str, List[float]] = {}
    counts: Dict[str, float] = {}
    for proc in procs:
        for name, (self_s, calls) in proc["table"].items():
            row = table.setdefault(name, [0.0, 0])
            row[0] += self_s
            row[1] += calls
        for key, value in proc["counts"].items():
            counts[key] = counts.get(key, 0) + value

    def self_s(name: str) -> float:
        return table.get(name, [0.0, 0])[0]

    def calls(name: str) -> int:
        return table.get(name, [0.0, 0])[1]

    def spans(proc: dict, name: str) -> List[tuple]:
        return sorted((s for s in proc["spans"] if s[0] == name),
                      key=lambda s: s[1])

    m: Dict[str, float] = {
        "scenario.build_generator_s": self_s("scenario.build_generator"),
        "traffic.generate_s": self_s("traffic.generate"),
        "traffic.calls": calls("traffic.generate"),
        "traffic.flows": counts.get("traffic.flows", 0),
        "traffic.sessions_s": self_s("traffic.sessions"),
        "satcom.rtt_bulk_s": self_s("satcom.rtt_bulk"),
        "satcom.rtt_bulk_calls": calls("satcom.rtt_bulk"),
        "parallel.warm_s": self_s("parallel.warm"),
        "parallel.window_s": self_s("parallel.window"),
        "parallel.transfer_mb": counts.get("parallel.transfer_bytes", 0) / MB,
        "store.write_s": self_s("store.write"),
        "store.spilled_mb": counts.get("store.spilled_bytes", 0) / MB,
        "rollup.update_s": self_s("rollup.update"),
        "rollup.save_s": self_s("rollup.save"),
        "rollup.digest_s": self_s("rollup.digest"),
        "rollup.copy_s": self_s("rollup.copy"),
        "checkpoint.write_s": self_s("checkpoint.write"),
        "rollup.merge_s": self_s("rollup.merge"),
        "fleet.merge_s": self_s("fleet.merge"),
        "serve.publish_s": self_s("serve.publish"),
    }
    for name in REPORTS:
        n = calls(f"analysis.render.{name}")
        m[f"analysis.render_ms.{name}"] = (
            1000.0 * self_s(f"analysis.render.{name}") / n if n else 0.0
        )

    # Pool overhead: each pool window's wall minus the busiest worker's
    # generation inside it (a serial pool's only worker is itself).
    overhead = 0.0
    for proc in procs:
        workers = [q for q in procs
                   if q["pid"] == proc["pid"] or q["ppid"] == proc["pid"]]
        for _, t0, t1, _ in spans(proc, "parallel.window"):
            busy = [sum(s[2] - s[1] for s in spans(q, "traffic.generate")
                        if t0 <= s[1] and s[2] <= t1) for q in workers]
            overhead += (t1 - t0) - max(busy, default=0.0)
    m["parallel.overhead_s"] = overhead

    # Producer: generation waits between windows; the commit thread idles
    # between commits from the first window on.
    blocked = idle = busy_total = wall_total = 0.0
    for proc in procs:
        gens = spans(proc, "producer.window")
        commits = spans(proc, "producer.commit")
        if not gens or not commits:
            continue
        blocked += sum(b[1] - a[2] for a, b in zip(gens, gens[1:]))
        busy = sum(s[2] - s[1] for s in commits)
        wall = commits[-1][2] - gens[0][1]
        idle += wall - busy
        busy_total += busy
        wall_total += wall
    m["producer.gen_blocked_s"] = blocked
    m["producer.commit_idle_s"] = idle
    m["producer.commit_busy_ratio"] = busy_total / wall_total if wall_total else 0.0
    windows = counts.get("producer.windows", 0)
    m["producer.window_mb"] = (
        counts.get("producer.window_bytes", 0) / windows / MB if windows else 0.0
    )

    partitions = [p for p in procs if spans(p, "fleet.partition")]
    busy = [sum(s[2] - s[1] for s in spans(p, "fleet.partition"))
            for p in partitions]
    starts = [p["marks"]["first_window"] - p["marks"]["fork"]
              for p in partitions
              if "first_window" in p["marks"] and "fork" in p["marks"]]
    m["fleet.partition_busy_s"] = max(busy, default=0.0)
    m["fleet.partition_skew"] = max(busy) / min(busy) if busy else 0.0
    m["fleet.worker_start_s"] = statistics.median(starts) if starts else 0.0
    return m


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--latency-limit-ms", type=float, required=True,
        help="a reply slower than this (from its due time) counts as failed",
    )
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from a checkout of the repository "
              "(src/repro is missing here)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))  # for the output checks

    bench = Bench(args, root)
    try:
        metrics = bench.run()
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
        try:
            bench.work.parent.rmdir()
        except OSError:
            pass
    wanted = PER_LAYER if args.trace else END_TO_END
    if not metrics:
        bench.fail("no complete measurement")
    correct = not bench.problems and bool(metrics)
    result = {
        "correct": correct,
        "attempted": max(1, bench.attempted),
        "failed": bench.failed if correct else max(1, bench.failed),
        "metrics": {
            name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
            for name, unit in wanted.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
