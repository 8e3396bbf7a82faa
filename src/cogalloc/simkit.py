"""Multi-frame Monte-Carlo simulation of the opportunistic access loop.

Each frame: fresh user-to-FC channel gains, a Bernoulli primary-user
state, a full design/selection/allocation pass at the fusion center,
Bernoulli hard decisions from the selected users, a fused idle/busy
declaration, FIFO buffer drain at the rate of the *true* hypothesis, and
Pareto-idle traffic arrivals feeding the buffers in continuous time.

Randomness is organized as one independent PCG64 stream per
(trial, user, purpose), split off a master seed, so trials are
reproducible and parallelizable without draw-order coupling. Each stream
is drawn in blocks of uniforms, consumed in stream order, so a value is
the one the stream's n-th scalar draw gives. A lockstep frame's stacked
user table is built from columns (the drawn gains, the backlogs and the
profiles' prices), and the drain reads the rates the allocation was
priced with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Collection, Iterator, Optional, Sequence

import numpy as np

from .allocator import AllocationResult, DesignTable, UserTable, design_table
from .economics import SystemParams
from .optimizer import DesignGrid, optimize_table


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
    pending batches, kept by :meth:`add_batch` and :meth:`drain`, the
    only ways bits enter or leave."""

    pending: list = field(default_factory=list)
    bits: int = field(init=False)

    def __post_init__(self) -> None:
        self.bits = sum(b.bits_remaining for b in self.pending)

    def add_batch(self, arrival_time: float, bits: int) -> None:
        if bits > 0:
            self.pending.append(_Batch(arrival_time, bits))
            self.bits += bits

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
        self.bits -= bits - remaining
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


#: Uniforms drawn per refill of a stream's block (:meth:`StreamFactory.uniforms`):
#: a stream holds at most this many values, however long its episode.
#: Blocks of 64 ran no faster on ten 5-user trials and raised the
#: process's peak RSS by about 0.4 MB more.
_BLOCK = 16


class StreamFactory:
    """Named, reproducible PCG64 streams split from one master seed."""

    _PURPOSES = ("pu", "gain", "vote", "traffic")

    def __init__(self, master_seed: int, trial: int = 0):
        self.master_seed = int(master_seed)
        self.trial = int(trial)
        self._streams: dict = {}
        self._uniforms: dict = {}

    def stream(self, purpose: str, su: int = -1) -> np.random.Generator:
        key = (purpose, su)
        got = self._streams.get(key)
        if got is None:
            if purpose not in self._PURPOSES:
                raise ValueError(f"unknown stream purpose {purpose!r}")
            seq = np.random.SeedSequence(
                entropy=self.master_seed,
                spawn_key=(self.trial, su + 1, self._PURPOSES.index(purpose)),
            )
            got = self._streams[key] = np.random.Generator(np.random.PCG64(seq))
        return got

    def uniforms(self, purpose: str, su: int = -1) -> Iterator[float]:
        """The uniforms on [0, 1) of :meth:`stream` (purpose, su), in
        stream order: bit for bit the values of successive
        ``stream(purpose, su).random()`` calls, drawn ``_BLOCK`` at a time
        (PCG64's ``random(n)`` gives its next n scalar draws). One
        iterator per stream, shared by every caller; a stream read
        through it is not also drawn from directly."""
        key = (purpose, su)
        got = self._uniforms.get(key)
        if got is None:
            got = self._uniforms[key] = _blocks(self.stream(purpose, su))
        return got


def _blocks(rng: np.random.Generator) -> Iterator[float]:
    # ``rng``'s uniforms in order, one block of _BLOCK at a time.
    while True:
        yield from rng.random(_BLOCK).tolist()


def _pareto_gap(model: TrafficModel, r: float) -> float:
    # The Pareto idle gap of a uniform draw r on [0, 1), by inverse CDF:
    # scale * u^(-1/shape) with u = 1 - r, on the support [scale, inf).
    return model.scale * (1.0 - r) ** (-1.0 / model.shape)


def _exponential_gains(means, uniforms) -> list:
    # One exponential gain per (mean, uniform draw r on [0, 1)) pair, by
    # inverse CDF: -mean * ln(u) with u = 1 - r, each by math.log (numpy's
    # log may differ by an ulp).
    return [-mean * math.log(1.0 - r) for mean, r in zip(means, uniforms)]


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


class _Trial:
    """One simulated trial: its streams, each user's buffer (holding the
    profile's initial batch at t=0) and next arrival instant (the first
    countdown already sampled), the index of its next frame, each user's
    (arrival, delay) pairs of fully drained batches, and its frame traces
    (None when the trial is not traced)."""

    def __init__(
        self, profiles: Sequence[UserProfile], traffic: TrafficModel, seed: int,
        trial: int, traced: bool,
    ):
        self.streams = StreamFactory(seed, trial)
        self.buffers = []
        self.next_batch_time = []
        for i, profile in enumerate(profiles):
            buf = BufferState()
            buf.add_batch(0.0, profile.initial_bits)
            self.buffers.append(buf)
            gap = _pareto_gap(traffic, next(self.streams.uniforms("traffic", i)))
            self.next_batch_time.append(gap + traffic.accumulation_time)
        self.frame_index = 0
        self.completed: list = [[] for _ in profiles]
        self.traces: Optional[list] = [] if traced else None

    def stats(self) -> DelayStats:
        """The trial's statistics from its completed batches and the
        batches still pending."""
        per_su_mean = tuple(
            (sum(d for _, d in done) / len(done)) if done else math.nan
            for done in self.completed
        )
        finite = [d for d in per_su_mean if not math.isnan(d)]
        jain = jain_index(finite) if finite and any(d > 0 for d in finite) else math.nan
        return DelayStats(
            per_su_mean_delay=per_su_mean,
            jain=jain,
            completed_batches=tuple(len(done) for done in self.completed),
            dropped_batches=tuple(len(buf.pending) for buf in self.buffers),
        )


def _step_frames(
    trials: Sequence[_Trial],
    params: SystemParams,
    traffic: TrafficModel,
    profiles: Sequence[UserProfile],
    grid: DesignGrid,
) -> None:
    # One frame of every trial in ``trials``, in lockstep: each trial
    # draws its PU state and gains, every trial with a non-empty buffer is
    # optimized in one stacked table built from the columns (gains,
    # backlogs, the profiles' prices), and then each trial votes, drains
    # and takes its traffic. The optimization reads the frame-start
    # backlogs (its computation time is neglected), and on an idle
    # declaration each selected user drains floor(rate * t) bits at the
    # rate of the true hypothesis. Every draw comes from the trial's own
    # streams, so each trace is the one the trial gives alone.
    n = len(profiles)
    means = [p.gain_mean for p in profiles]
    starts = []
    gains: list = []
    backlogs: list = []
    for trial in trials:
        buffers_at_start = tuple([buf.bits for buf in trial.buffers])
        pu_active = next(trial.streams.uniforms("pu")) < (1.0 - params.p_h0)
        # With every buffer empty there is nothing to sell: no user can be
        # selected (zero upper bounds), so the optimization is skipped whole.
        optimized = any(buffers_at_start)
        if optimized:
            draws = [next(trial.streams.uniforms("gain", i)) for i in range(n)]
            gains += _exponential_gains(means, draws)
            backlogs += buffers_at_start
        starts.append((buffers_at_start, pu_active, optimized))
    designs = design_table(params, grid.pfa_values, grid.k_values)
    found: list = []
    if backlogs:
        count = len(backlogs) // n
        table = UserTable(
            params, (count, n), gains, backlogs,
            [p.pay_rate for p in profiles] * count,
            [p.earn_rate for p in profiles] * count,
            list(range(n)) * count,
        )
        found = optimize_table(table, designs)
        # Each optimized trial's rates as priced: r0 (PU absent), r1 (present).
        rates = (table.r0[:, 0].tolist(), table.r1[:, 0].tolist())
    j = 0
    for trial, (buffers_at_start, pu_active, optimized) in zip(trials, starts):
        outcome = None
        if optimized:
            outcome = found[j] + (rates[pu_active][j],)
            j += 1
        _finish_frame(trial, params, traffic, designs, buffers_at_start, pu_active, outcome)


def _finish_frame(
    trial: _Trial,
    params: SystemParams,
    traffic: TrafficModel,
    designs: DesignTable,
    buffers_at_start: tuple,
    pu_active: bool,
    outcome: Optional[tuple],
) -> None:
    # The vote, drain and traffic half of one trial's frame, after its
    # optimization: ``outcome`` is (design row of ``designs`` or None,
    # allocation, each user's rate under the true hypothesis), None when
    # every buffer was empty. The trial's trace is built only where it
    # keeps traces.
    n = len(trial.buffers)
    frame_start = trial.frame_index * params.frame_duration
    frame_end = frame_start + params.frame_duration
    votes: tuple = ()
    fc_busy = True
    selected: tuple = ()
    bits_out = [0] * n
    realized = None
    chosen_pfa = None
    chosen_k = None
    alloc = None

    if outcome is not None:
        d, alloc, rates = outcome
        if d is not None:
            design = designs.design(d)
            chosen_pfa, chosen_k = design.pfa_local, design.k_threshold
            selected = alloc.selected_ids
            p_vote = designs.pd.item(d) if pu_active else design.pfa_local
            votes = tuple([next(trial.streams.uniforms("vote", i)) < p_vote for i in selected])
            fc_busy = sum(votes) >= design.k_threshold
            if not fc_busy:
                realized = 1 if pu_active else 0
                for i in selected:
                    drained = min(buffers_at_start[i], math.floor(rates[i] * alloc.times[i]))
                    bits_out[i] = drained
                    trial.completed[i] += trial.buffers[i].drain(drained, frame_end)

    # Traffic: batches whose completion instant falls inside this frame.
    arrivals = trial.next_batch_time
    for i in range(n):
        if arrivals[i] < frame_end:
            draws = trial.streams.uniforms("traffic", i)
            while arrivals[i] < frame_end:
                trial.buffers[i].add_batch(arrivals[i], traffic.batch_bits)
                gap = _pareto_gap(traffic, next(draws))
                arrivals[i] += gap + traffic.accumulation_time
    trial.frame_index += 1
    if trial.traces is not None:
        trial.traces.append(FrameTrace(
            frame_index=trial.frame_index - 1,
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
        ))


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
    Deterministic for a fixed (seed, trial, config): the one-trial case
    of :func:`run_episodes`, which gives every trial this same result.

    Returns
    -------
    (DelayStats, list of FrameTrace)
    """
    traced = (trial,) if keep_traces else ()
    return run_episodes(
        n_frames, params, traffic, rng_seed, profiles, (trial,), grid, traced
    )[0]


def run_episodes(
    n_frames: int,
    params: SystemParams,
    traffic: TrafficModel,
    rng_seed: int,
    profiles: Sequence[UserProfile],
    trials: Sequence[int],
    grid: Optional[DesignGrid] = None,
    traced_trials: Collection[int] = (),
) -> list:
    """:func:`run_episode` of every trial in ``trials``, in order, stepped
    frame by frame in lockstep. Each trial is one object holding its own
    :class:`StreamFactory`, buffers, next arrivals, completed batches and
    traces, and each frame the trials with a non-empty buffer are
    optimized together: one stacked
    :class:`~cogalloc.allocator.UserTable` built from their columns,
    searched by :func:`~cogalloc.optimizer.optimize_table`. So each trial's
    result is the one it gives alone, whichever trials run with it. Only
    the trials in ``traced_trials`` keep their frame traces; the others
    return an empty list.

    Returns
    -------
    list of (DelayStats, list of FrameTrace), one per trial
    """
    if n_frames < 1:
        raise ValueError(f"n_frames must be >= 1, got {n_frames}")
    profiles = list(profiles)
    n = len(profiles)
    if not n:
        raise ValueError("profiles must hold at least one user")
    if grid is None:
        grid = DesignGrid.uniform(n)
    runs = [_Trial(profiles, traffic, rng_seed, t, t in traced_trials) for t in trials]
    for _ in range(n_frames):
        _step_frames(runs, params, traffic, profiles, grid)
    return [(run.stats(), run.traces or []) for run in runs]


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
