"""Multi-frame Monte-Carlo simulation of the opportunistic access loop.

Each frame: fresh user-to-FC channel gains, a Bernoulli primary-user
state, a full design/selection/allocation pass at the fusion center,
Bernoulli hard decisions from the selected users, a fused idle/busy
declaration, FIFO buffer drain at the rate of the *true* hypothesis, and
Pareto-idle traffic arrivals feeding the buffers in continuous time.

Randomness is organized as one independent PCG64 stream per
(trial, user, purpose), split off a master seed, so trials are
reproducible and parallelizable without draw-order coupling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .allocator import AllocationResult
from .economics import (
    SecondaryUser,
    SystemParams,
    rate_idle,
    rate_interfered,
)
from .optimizer import DesignGrid, joint_optimize
from .sensing import local_pd


@dataclass(frozen=True)
class TrafficModel:
    """Pareto on/off arrivals: after each idle gap plus a fixed
    accumulation window, a batch of ``batch_bits`` lands in the buffer."""

    shape: float = 1.0
    scale: float = 7.0
    batch_bits: int = 10
    accumulation_time: float = 0.0

    def __post_init__(self) -> None:
        if self.shape <= 0.0 or self.scale <= 0.0:
            raise ValueError("Pareto shape and scale must be positive")
        if self.batch_bits < 0 or self.accumulation_time < 0.0:
            raise ValueError("batch_bits and accumulation_time must be >= 0")


@dataclass
class _Batch:
    arrival_time: float
    bits_remaining: int


@dataclass
class BufferState:
    """FIFO backlog of one user; ``bits`` always equals the sum over
    pending batches."""

    pending: list = field(default_factory=list)

    @property
    def bits(self) -> int:
        return sum(b.bits_remaining for b in self.pending)

    def add_batch(self, arrival_time: float, bits: int) -> None:
        if bits > 0:
            self.pending.append(_Batch(arrival_time, bits))

    def drain(self, bits: int, completion_time: float) -> list:
        """Remove up to ``bits`` in FIFO order; returns (arrival, delay)
        pairs for every batch completed by this drain."""
        completed = []
        remaining = bits
        while remaining > 0 and self.pending:
            batch = self.pending[0]
            take = min(batch.bits_remaining, remaining)
            batch.bits_remaining -= take
            remaining -= take
            if batch.bits_remaining == 0:
                self.pending.pop(0)
                completed.append((batch.arrival_time, completion_time - batch.arrival_time))
        return completed


@dataclass(frozen=True)
class FrameTrace:
    """One frame's record, enough to replay the decision bookkeeping."""

    frame_index: int
    pu_active: bool
    local_votes: tuple  # per selected user, aligned with selected_set
    fc_decision_busy: bool
    selected_set: tuple
    allocation: Optional[AllocationResult]
    bits_out: tuple
    realized_rate_hypothesis: Optional[int]  # 0 / 1, None when busy-declared
    chosen_pfa: Optional[float]
    chosen_k: Optional[int]
    buffers_at_start: tuple


@dataclass(frozen=True)
class DelayStats:
    """Per-user mean clearance delays and their Jain fairness score."""

    per_su_mean_delay: tuple
    jain: float
    completed_batches: tuple
    dropped_batches: tuple


class StreamFactory:
    """Named, reproducible PCG64 streams split from one master seed."""

    _PURPOSES = ("pu", "gain", "vote", "traffic")

    def __init__(self, master_seed: int, trial: int = 0):
        self.master_seed = int(master_seed)
        self.trial = int(trial)
        self._streams: dict = {}

    def stream(self, purpose: str, su: int = -1) -> np.random.Generator:
        if purpose not in self._PURPOSES:
            raise ValueError(f"unknown stream purpose {purpose!r}")
        key = (purpose, su)
        if key not in self._streams:
            seq = np.random.SeedSequence(
                entropy=self.master_seed,
                spawn_key=(self.trial, su + 1, self._PURPOSES.index(purpose)),
            )
            self._streams[key] = np.random.Generator(np.random.PCG64(seq))
        return self._streams[key]


def sample_pareto_idle(model: TrafficModel, rng: np.random.Generator) -> float:
    """One Pareto(shape, scale) idle gap via inverse-CDF: scale * u^(-1/shape)
    with u uniform on (0, 1]; support is [scale, inf)."""
    u = 1.0 - rng.random()  # (0, 1]
    return model.scale * u ** (-1.0 / model.shape)


def sample_exponential_gain(mean: float, rng: np.random.Generator) -> float:
    """One exponential channel gain via inverse-CDF: -mean * ln(u)."""
    if mean <= 0.0:
        raise ValueError(f"mean must be positive, got {mean}")
    u = 1.0 - rng.random()
    return -mean * math.log(u)


@dataclass
class EpisodeState:
    """Mutable per-trial simulation state.

    ``last_completions`` holds, per user, the (arrival_time, delay) pairs
    of batches fully drained by the most recent frame.
    """

    buffers: list
    next_batch_time: list
    frame_index: int = 0
    last_completions: list = field(default_factory=list)


@dataclass(frozen=True)
class UserProfile:
    """Static description of one simulated user (prices fixed per run).

    ``gain_mean`` is the mean of the user's per-frame exponential channel
    gain and ``initial_bits`` its backlog at t=0.
    """

    pay_rate: float = 0.1
    earn_rate: float = 10.0
    gain_mean: float = 1.0
    initial_bits: int = 10

    def __post_init__(self) -> None:
        if not self.gain_mean > 0.0:
            raise ValueError(f"gain_mean must be positive, got {self.gain_mean}")
        if self.initial_bits < 0:
            raise ValueError(f"initial_bits must be >= 0, got {self.initial_bits}")
        if self.pay_rate < 0.0 or self.earn_rate < 0.0:
            raise ValueError("price fields must be non-negative")


def init_state(
    profiles: Sequence[UserProfile],
    traffic: TrafficModel,
    streams: StreamFactory,
) -> EpisodeState:
    """Fresh buffers holding each profile's initial batch at t=0, with
    each user's first arrival countdown already sampled."""
    buffers = []
    next_batch = []
    for i, profile in enumerate(profiles):
        buf = BufferState()
        buf.add_batch(0.0, profile.initial_bits)
        buffers.append(buf)
        gap = sample_pareto_idle(traffic, streams.stream("traffic", i))
        next_batch.append(gap + traffic.accumulation_time)
    return EpisodeState(buffers=buffers, next_batch_time=next_batch)


def step_frame(
    state: EpisodeState,
    params: SystemParams,
    traffic: TrafficModel,
    streams: StreamFactory,
    profiles: Sequence[UserProfile],
    grid: DesignGrid,
) -> FrameTrace:
    """Advance one frame and return its trace.

    The fusion center re-optimizes the design and allocation from the
    frame-start buffer snapshot (its computation time is neglected), the
    selected users vote through Bernoulli draws of the closed-form local
    probabilities, and on an idle declaration each selected user drains
    floor(rate * t) bits at the rate of the true hypothesis.
    """
    n = len(profiles)
    frame_start = state.frame_index * params.frame_duration
    frame_end = frame_start + params.frame_duration
    buffers_at_start = tuple(buf.bits for buf in state.buffers)

    pu_active = bool(streams.stream("pu").random() < (1.0 - params.p_h0))

    votes: tuple = ()
    fc_busy = True
    selected: tuple = ()
    bits_out = [0] * n
    completions: list = [[] for _ in range(n)]
    realized = None
    chosen_pfa = None
    chosen_k = None
    alloc = None
    outcome = None

    # With every buffer empty there is nothing to sell: no user can be
    # selected (zero upper bounds), so the optimization is skipped whole.
    if any(buffers_at_start):
        gains = [
            sample_exponential_gain(p.gain_mean, streams.stream("gain", i))
            for i, p in enumerate(profiles)
        ]
        sus = [
            SecondaryUser(
                id=i,
                gain_to_fc=gains[i],
                buffer_bits=buffers_at_start[i],
                pay_rate=profiles[i].pay_rate,
                earn_rate=profiles[i].earn_rate,
            )
            for i in range(n)
        ]
        outcome = joint_optimize(sus, params, grid)

    if outcome is not None and outcome.feasible:
        design = outcome.best_design
        chosen_pfa, chosen_k = design.pfa_local, design.k_threshold
        alloc = outcome.best_allocation
        selected = alloc.selected_ids
        p_vote = design.pfa_local
        if pu_active:
            p_vote = local_pd(design.pfa_local, params.geometry())
        votes = tuple(
            bool(streams.stream("vote", i).random() < p_vote) for i in selected
        )
        fc_busy = sum(votes) >= design.k_threshold
        if not fc_busy:
            realized = 1 if pu_active else 0
            for i in selected:
                su = sus[i]
                rate = rate_interfered(su, params) if pu_active else rate_idle(su, params)
                drained = min(
                    buffers_at_start[i], math.floor(rate * alloc.times[i])
                )
                bits_out[i] = drained
                completions[i] = state.buffers[i].drain(drained, frame_end)
    elif outcome is not None:
        alloc = outcome.best_allocation

    # Traffic: batches whose completion instant falls inside this frame.
    for i in range(n):
        while state.next_batch_time[i] < frame_end:
            state.buffers[i].add_batch(state.next_batch_time[i], traffic.batch_bits)
            gap = sample_pareto_idle(traffic, streams.stream("traffic", i))
            state.next_batch_time[i] += gap + traffic.accumulation_time
    state.frame_index += 1
    state.last_completions = completions

    return FrameTrace(
        frame_index=state.frame_index - 1,
        pu_active=pu_active,
        local_votes=votes,
        fc_decision_busy=fc_busy,
        selected_set=selected,
        allocation=alloc,
        bits_out=tuple(bits_out),
        realized_rate_hypothesis=realized,
        chosen_pfa=chosen_pfa,
        chosen_k=chosen_k,
        buffers_at_start=buffers_at_start,
    )


def run_episode(
    n_frames: int,
    params: SystemParams,
    traffic: TrafficModel,
    rng_seed: int,
    profiles: Sequence[UserProfile],
    grid: Optional[DesignGrid] = None,
    trial: int = 0,
    keep_traces: bool = True,
) -> tuple:
    """Run ``n_frames`` frames for one user per profile (its gain mean,
    backlog at t=0 and prices) and aggregate per-user clearance delays.
    ``grid`` defaults to :meth:`DesignGrid.uniform` over the users.

    A batch's delay runs from its arrival instant to the end of the frame
    that drains its last bit; batches still pending at the horizon are
    dropped from the averages and counted in ``dropped_batches``.
    Deterministic for a fixed (seed, trial, config).

    Returns
    -------
    (DelayStats, list of FrameTrace)
    """
    if n_frames < 1:
        raise ValueError(f"n_frames must be >= 1, got {n_frames}")
    profiles = list(profiles)
    n = len(profiles)
    if not n:
        raise ValueError("profiles must hold at least one user")
    if grid is None:
        grid = DesignGrid.uniform(n)
    streams = StreamFactory(rng_seed, trial)
    state = init_state(profiles, traffic, streams)
    delays: list = [[] for _ in range(n)]
    traces = []

    for _ in range(n_frames):
        trace = step_frame(state, params, traffic, streams, profiles, grid)
        for i in range(n):
            delays[i].extend(delay for _, delay in state.last_completions[i])
        if keep_traces:
            traces.append(trace)

    per_su_mean = tuple(
        (sum(d) / len(d)) if d else math.nan for d in delays
    )
    completed = tuple(len(d) for d in delays)
    dropped = tuple(len(buf.pending) for buf in state.buffers)
    finite = [d for d in per_su_mean if not math.isnan(d)]
    jain = jain_index(finite) if finite and any(d > 0 for d in finite) else math.nan
    return (
        DelayStats(
            per_su_mean_delay=per_su_mean,
            jain=jain,
            completed_batches=completed,
            dropped_batches=dropped,
        ),
        traces,
    )


def jain_index(values: Sequence[float]) -> float:
    """Jain's fairness score (sum x)^2 / (n sum x^2), in [1/n, 1].

    Raises
    ------
    ValueError
        If no value is strictly positive (the score is undefined).
    """
    vals = list(values)
    if not vals or not any(v > 0.0 for v in vals):
        raise ValueError("jain_index needs at least one strictly positive value")
    total = sum(vals)
    return total * total / (len(vals) * sum(v * v for v in vals))
