"""Session-structured video workload: ABR chunks and per-session QoE.

The paper's capture sees video only as flows, but shaping-plan
questions ("Watching Stars in Pixels") are really statements about
*sessions*: an adaptive-bitrate player fetching chunks against the
plan rate and the operator's video shaper, rebuffering when the
buffer runs dry and switching resolution with its throughput
estimate. :class:`VideoSessionModel` expands one sampled session
(capacity, duration) into a deterministic chunk schedule — the chunk
fetches run through the plan's :class:`TokenBucketShaper` — and
produces the three QoE metrics the fig12 report and the rollup's v4
bank aggregate: rebuffer ratio, mean resolution level, and resolution
switches.

The model itself consumes no RNG: all stochastic inputs (arrival
hour, session duration, effective capacity) are drawn upstream by the
workload generator from the per-(shard, window) streams, so sessions
stay bit-identical for any worker count or day partitioning.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.satcom.qos import video_session_shaper
from repro.traffic.distributions import Distribution, LogNormal, parse_spec


@dataclass(frozen=True)
class VideoQoeConfig:
    """Resolved knobs of the video session model (scenario ``traffic.qoe``)."""

    sessions_per_day: float = 0.6
    """Mean video sessions per customer-day (Poisson)."""
    chunk_s: float = 4.0
    """Media seconds per ABR chunk."""
    startup_chunks: int = 3
    """Chunks buffered before playback starts (and after a stall)."""
    max_buffer_s: float = 30.0
    """Player buffer cap: downloads pause when the buffer is full."""
    ladder_mbps: Tuple[float, ...] = (1.0, 2.5, 4.0, 8.0, 16.0)
    """Bitrate ladder, ascending (level index = position)."""
    duration: Distribution = LogNormal(900.0, 0.8)
    """Session duration distribution (seconds)."""
    shape_bps: Optional[float] = None
    """Operator video shaping rate (None = unshaped)."""

    def __post_init__(self) -> None:
        if isinstance(self.duration, str):
            object.__setattr__(self, "duration", parse_spec(self.duration))


@dataclass(frozen=True)
class SessionResult:
    """One simulated session: its chunk schedule and QoE summary."""

    chunk_bytes: np.ndarray
    """Downlink bytes per chunk."""
    chunk_time_s: np.ndarray
    """Wall-clock download time per chunk (shaper delay included)."""
    start_offset_s: np.ndarray
    """Fetch start offset of each chunk from session start."""
    rebuffer_ratio: float
    """Stalled time (startup included) over stalled + played time."""
    mean_level: float
    """Mean ladder index across chunks."""
    switches: int
    """Number of resolution changes."""


class VideoSessionModel:
    """Expands sampled sessions into ABR chunk schedules with QoE."""

    #: ABR safety margin: pick the highest level sustainable at this
    #: fraction of the estimated throughput.
    ABR_MARGIN = 0.85
    #: EWMA weight of the newest chunk's throughput sample.
    ABR_GAIN = 0.2
    #: Hard cap on chunks per session (runtime guard).
    MAX_CHUNKS = 4000

    def __init__(self, config: Optional[VideoQoeConfig] = None) -> None:
        self.config = config or VideoQoeConfig()

    def simulate(self, capacity_bps: float, duration_s: float) -> SessionResult:
        """Deterministically play one session at ``capacity_bps``.

        The chunk loop models a throughput-driven ABR player: each
        chunk is fetched at the current ladder level, its download
        time comes from the link capacity plus the video shaper's
        token-bucket delay, playback consumes buffer in parallel, and
        the level for the next chunk follows an EWMA throughput
        estimate. Rebuffers re-enter the startup phase.
        """
        cfg = self.config
        capacity_bps = max(float(capacity_bps), 1.0)
        chunk_s = cfg.chunk_s
        max_buffer_s = cfg.max_buffer_s
        startup_s = cfg.startup_chunks * chunk_s
        n_chunks = min(max(1, math.ceil(duration_s / chunk_s)), self.MAX_CHUNKS)
        ladder_bps = [rate * 1e6 for rate in cfg.ladder_mbps]
        ladder_bytes = [rate * chunk_s / 8.0 for rate in ladder_bps]
        shaper = video_session_shaper(cfg.shape_bps)

        level = 0
        estimate = capacity_bps
        t = 0.0
        buffer_s = 0.0
        playing = False
        stalled = 0.0
        played = 0.0
        switches = 0
        level_sum = 0

        # plain lists: a numpy scalar store per chunk costs more than
        # the whole ABR step
        sizes: List[float] = []
        times: List[float] = []
        starts: List[float] = []

        for _ in range(n_chunks):
            # a full buffer pauses fetching; playback drains meanwhile
            if playing and buffer_s + chunk_s > max_buffer_s:
                drain = buffer_s + chunk_s - max_buffer_s
                t += drain
                played += drain
                buffer_s -= drain
            starts.append(t)
            size = ladder_bytes[level]
            delay = shaper.delay_for(size, t) if shaper is not None else 0.0
            dl = size * 8.0 / capacity_bps + delay
            sizes.append(size)
            times.append(dl)
            level_sum += level

            if playing:
                consumed = min(buffer_s, dl)
                played += consumed
                stalled += dl - consumed
                buffer_s -= consumed
                if buffer_s <= 0.0:
                    playing = False  # stall: back to startup buffering
            else:
                stalled += dl
            t += dl
            buffer_s += chunk_s
            if not playing and buffer_s >= startup_s:
                playing = True

            tput = size * 8.0 / dl if dl > 0 else capacity_bps
            estimate += self.ABR_GAIN * (tput - estimate)
            # the highest rung sustainable at the margin (ladder ascending)
            target = max(bisect_right(ladder_bps, self.ABR_MARGIN * estimate) - 1, 0)
            if target != level:
                switches += 1
                level = target

        played += buffer_s  # the tail of the buffer still plays out
        denom = stalled + played
        return SessionResult(
            chunk_bytes=np.array(sizes, dtype=np.float64),
            chunk_time_s=np.array(times, dtype=np.float64),
            start_offset_s=np.array(starts, dtype=np.float64),
            rebuffer_ratio=float(stalled / denom) if denom > 0 else 0.0,
            mean_level=float(level_sum / n_chunks),
            switches=switches,
        )
