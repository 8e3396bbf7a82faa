"""Samplers, frame stepping, buffer/delay bookkeeping, and fairness."""

import math

import numpy as np
import pytest

from cogalloc import (
    DesignGrid,
    StreamFactory,
    TrafficModel,
    UserProfile,
    default_system_params,
    global_pd,
    global_pfa,
    jain_index,
    run_episode,
    run_episodes,
)
from cogalloc.sensing import SensingDesign
from cogalloc import simkit
from cogalloc.simkit import BufferState

from helpers import monte_carlo_average, step_frame


def _pareto_draws(model, rng, n):
    # n idle gaps from rng's next n uniforms, as the simulator draws them.
    return [simkit._pareto_gap(model, r) for r in rng.random(n).tolist()]


def _exponential_draws(rng, n):
    # n unit-mean gains from rng's next n uniforms, as the simulator draws them.
    return simkit._exponential_gains([1.0] * n, rng.random(n).tolist())


class TestParetoSampler:
    def test_support_starts_at_scale(self):
        model = TrafficModel(shape=2.0, scale=3.0)
        rng = np.random.default_rng(0)
        draws = _pareto_draws(model, rng, 10_000)
        assert min(draws) >= 3.0

    def test_finite_mean_case(self):
        # shape 2, scale 1: mean is 2.
        model = TrafficModel(shape=2.0, scale=1.0)
        rng = np.random.default_rng(42)
        draws = np.array(_pareto_draws(model, rng, 1_000_000))
        assert draws.mean() == pytest.approx(2.0, rel=0.01)

    def test_heavy_tail_at_unit_shape(self):
        # shape 1 has no mean: the sample average drifts far above scale.
        model = TrafficModel(shape=1.0, scale=7.0)
        rng = np.random.default_rng(7)
        draws = np.array(_pareto_draws(model, rng, 1_000_000))
        assert draws.mean() > 5.0 * model.scale

    def test_validation(self):
        with pytest.raises(ValueError):
            TrafficModel(shape=0.0)
        with pytest.raises(ValueError):
            TrafficModel(scale=-1.0)
        with pytest.raises(ValueError):
            TrafficModel(batch_bits=-1)


class TestExponentialSampler:
    def test_non_negative_support(self):
        rng = np.random.default_rng(1)
        draws = _exponential_draws(rng, 10_000)
        assert min(draws) >= 0.0

    def test_law_of_large_numbers(self):
        rng = np.random.default_rng(2)
        draws = np.array(_exponential_draws(rng, 1_000_000))
        assert draws.mean() == pytest.approx(1.0, abs=0.01)

    def test_memorylessness_spot_check(self):
        rng = np.random.default_rng(3)
        draws = np.array(_exponential_draws(rng, 500_000))
        p_gt_1 = (draws > 1.0).mean()
        p_gt_2_given_1 = (draws > 2.0).sum() / (draws > 1.0).sum()
        assert p_gt_2_given_1 == pytest.approx(p_gt_1, abs=0.01)


class TestStreamFactory:
    def test_streams_are_cached_and_deterministic(self):
        a = StreamFactory(111, trial=2)
        b = StreamFactory(111, trial=2)
        assert a.stream("gain", 1) is a.stream("gain", 1)
        assert a.stream("gain", 1).random() == b.stream("gain", 1).random()

    def test_streams_differ_across_purpose_user_trial(self):
        base = StreamFactory(5, trial=0).stream("gain", 0).random()
        assert StreamFactory(5, trial=0).stream("vote", 0).random() != base
        assert StreamFactory(5, trial=0).stream("gain", 1).random() != base
        assert StreamFactory(5, trial=1).stream("gain", 0).random() != base

    def test_block_draws_equal_scalar_draws(self):
        # Each stream's uniforms, drawn in blocks, are its scalar random()
        # draws in order, bit for bit, across several refills, whatever
        # the order in which the streams are read.
        blocks = StreamFactory(29, trial=3)
        twin = StreamFactory(29, trial=3)
        keys = [("pu", -1), ("gain", 0), ("gain", 4), ("vote", 2), ("traffic", 1)]
        count = 3 * simkit._BLOCK + 5
        got = {key: [] for key in keys}
        for j in range(count * len(keys)):
            key = keys[(j * 7 + j // len(keys)) % len(keys)]
            got[key].append(next(blocks.uniforms(*key)))
        for key in keys:
            want = [twin.stream(*key).random() for _ in range(len(got[key]))]
            assert len(want) > 2 * simkit._BLOCK
            assert got[key] == want
        assert blocks.uniforms("gain", 0) is blocks.uniforms("gain", 0)

    def test_unknown_purpose_rejected(self):
        with pytest.raises(ValueError):
            StreamFactory(1).stream("nope")


class TestBufferState:
    def test_bits_equals_pending_sum(self):
        buf = BufferState()
        buf.add_batch(0.0, 10)
        buf.add_batch(1.0, 7)
        assert buf.bits == 17
        # The count add_batch and drain keep follows random sequences of
        # both, with empty batches and drains past the backlog.
        rng = np.random.default_rng(5)
        for _ in range(20):
            buf = BufferState()
            for step in range(100):
                if rng.random() < 0.5:
                    buf.add_batch(float(step), int(rng.integers(0, 30)))
                else:
                    buf.drain(int(rng.integers(0, 60)), completion_time=float(step))
                assert buf.bits == sum(b.bits_remaining for b in buf.pending)

    def test_fifo_drain_and_delays(self):
        buf = BufferState()
        buf.add_batch(0.0, 10)
        buf.add_batch(1.0, 10)
        done = buf.drain(12, completion_time=5.0)
        assert done == [(0.0, 5.0)]
        assert buf.bits == 8
        done = buf.drain(8, completion_time=6.0)
        assert done == [(1.0, 5.0)]
        assert buf.bits == 0

    def test_partial_drain_completes_nothing(self):
        buf = BufferState()
        buf.add_batch(0.0, 10)
        assert buf.drain(4, completion_time=2.0) == []
        assert buf.bits == 6


def _episode_setup(p_h0=0.8, zeta=0.7, gamma_db=-7.0, n_users=3, seed=17):
    params = default_system_params(p_h0=p_h0, zeta=zeta, gamma_db=gamma_db)
    traffic = TrafficModel(shape=1.0, scale=7.0, batch_bits=10)
    profiles = [UserProfile() for _ in range(n_users)]
    trial = simkit._Trial(profiles, traffic, seed, 0, traced=True)
    grid = DesignGrid.uniform(n_users)
    return params, traffic, profiles, trial, grid


class TestStepFrame:
    def test_busy_declaration_moves_no_bits(self):
        params, traffic, profiles, trial, grid = _episode_setup()
        for _ in range(30):
            trace = step_frame(trial, params, traffic, profiles, grid)
            if trace.fc_decision_busy:
                assert trace.bits_out == (0, 0, 0)
                assert trace.realized_rate_hypothesis is None

    def test_drain_bounded_by_backlog(self):
        params, traffic, profiles, trial, grid = _episode_setup(seed=23)
        checked = 0
        for _ in range(40):
            buffers = tuple(b.bits for b in trial.buffers)
            trace = step_frame(trial, params, traffic, profiles, grid)
            if trace.fc_decision_busy or not trace.selected_set:
                continue
            for i in trace.selected_set:
                assert trace.bits_out[i] <= buffers[i]
            checked += 1
        assert checked > 0

    def test_drain_equals_floor_rate_times_allocation(self):
        # Exact arithmetic replay: reconstruct each frame's drawn gains
        # from a twin stream factory and verify
        # bits_out = min(backlog, floor(rate_truth * t)).
        from cogalloc.economics import idle_rates, interfered_rates

        params, traffic, profiles, trial, grid = _episode_setup(seed=47)
        twin = StreamFactory(47, trial=0)
        n = len(profiles)
        checked = 0
        for _ in range(50):
            buffers = tuple(b.bits for b in trial.buffers)
            trace = step_frame(trial, params, traffic, profiles, grid)
            if not any(buffers):
                continue
            gains = simkit._exponential_gains(
                [1.0] * n, [twin.stream("gain", i).random() for i in range(n)]
            )
            if trace.fc_decision_busy:
                continue
            for i in trace.selected_set:
                rate = (
                    interfered_rates([gains[i]], params)[0]
                    if trace.pu_active
                    else idle_rates([gains[i]], params)[0]
                )
                expected = min(
                    buffers[i], math.floor(rate * trace.allocation.times[i])
                )
                assert trace.bits_out[i] == expected
                checked += 1
        assert checked > 0

    def test_idle_frames_use_true_hypothesis_label(self):
        params, traffic, profiles, trial, grid = _episode_setup(seed=29)
        seen = set()
        for _ in range(60):
            trace = step_frame(trial, params, traffic, profiles, grid)
            if not trace.fc_decision_busy and trace.selected_set:
                assert trace.realized_rate_hypothesis == (1 if trace.pu_active else 0)
                seen.add(trace.realized_rate_hypothesis)
        assert 0 in seen

    def test_votes_only_from_selected_users(self):
        params, traffic, profiles, trial, grid = _episode_setup(seed=31)
        for _ in range(20):
            trace = step_frame(trial, params, traffic, profiles, grid)
            assert len(trace.local_votes) == len(trace.selected_set)


class TestBufferConservation:
    def test_recursion_with_replayed_arrivals(self):
        # Replay each user's arrival process from a twin stream factory and
        # check bits(n+1) = bits(n) - out(n) + in(n) exactly, frame by frame.
        params, traffic, profiles, trial, grid = _episode_setup(seed=37)
        n_users = len(profiles)
        twin = StreamFactory(37, trial=0)
        arrivals = {i: [] for i in range(n_users)}
        for i in range(n_users):
            t = simkit._pareto_gap(traffic, twin.stream("traffic", i).random())
            t += traffic.accumulation_time
            while t < 60 * params.frame_duration:
                arrivals[i].append(t)
                t += simkit._pareto_gap(traffic, twin.stream("traffic", i).random())
                t += traffic.accumulation_time
        prev_bits = tuple(b.bits for b in trial.buffers)
        for n in range(50):
            trace = step_frame(trial, params, traffic, profiles, grid)
            start, end = n * params.frame_duration, (n + 1) * params.frame_duration
            for i in range(n_users):
                landed = sum(
                    traffic.batch_bits for t in arrivals[i] if start <= t < end
                )
                expected = prev_bits[i] - trace.bits_out[i] + landed
                assert trial.buffers[i].bits == expected
            prev_bits = tuple(b.bits for b in trial.buffers)

    @pytest.mark.parametrize("scale", [0.002, 7.0])
    def test_every_arrived_batch_completes_or_is_dropped(self, scale):
        # Per user and trial of a lockstep chunk: the batches that arrived
        # before the horizon (the t=0 batch where the backlog is positive,
        # then each arrival replayed from a twin stream factory) are the
        # completed ones plus those still pending.
        params = default_system_params()
        traffic = TrafficModel(scale=scale)
        profiles = [
            UserProfile(initial_bits=5),
            UserProfile(gain_mean=0.4, initial_bits=40),
            UserProfile(gain_mean=2.5, initial_bits=0),
        ]
        n_frames, seed, trials = 60, 19, tuple(range(6))
        # The last frame's end, summed as the simulator sums it.
        horizon = (n_frames - 1) * params.frame_duration + params.frame_duration
        got = run_episodes(n_frames, params, traffic, seed, profiles, trials)
        landed_in_all = 0
        for trial, (stats, _) in zip(trials, got):
            twin = StreamFactory(seed, trial)
            for i, profile in enumerate(profiles):
                rng = twin.stream("traffic", i)
                landed = 0
                t = simkit._pareto_gap(traffic, rng.random()) + traffic.accumulation_time
                while t < horizon:
                    landed += 1
                    t += simkit._pareto_gap(traffic, rng.random()) + traffic.accumulation_time
                landed_in_all += landed
                at_start = 1 if profile.initial_bits > 0 else 0
                assert stats.completed_batches[i] + stats.dropped_batches[i] == at_start + landed
        # At 0.002 s traffic arrives within the horizon; at the shipped 7.0 s none does.
        assert (landed_in_all > 0) == (scale < 1.0)


def _nan_as_none(stats):
    # DelayStats with every NaN replaced by None, so == treats NaN as equal.
    def clean(value):
        return None if isinstance(value, float) and math.isnan(value) else value

    return (
        tuple(map(clean, stats.per_su_mean_delay)),
        clean(stats.jain),
        stats.completed_batches,
        stats.dropped_batches,
    )


class TestRunEpisodes:
    """Trials stepped frame by frame in lockstep, with one batched joint
    search per frame, give each trial what it gives alone."""

    PROFILES = {
        "shared": [UserProfile(initial_bits=5)] * 5,
        "distinct": [
            UserProfile(pay_rate=0.1, earn_rate=10.0, gain_mean=1.0, initial_bits=5),
            UserProfile(pay_rate=0.3, earn_rate=6.0, gain_mean=0.4, initial_bits=40),
            UserProfile(pay_rate=0.05, earn_rate=12.0, gain_mean=2.5, initial_bits=0),
            UserProfile(pay_rate=0.2, earn_rate=8.0, gain_mean=1.0, initial_bits=25),
        ],
    }

    @pytest.mark.parametrize("kind", sorted(PROFILES))
    def test_lockstep_equals_each_trial_alone(self, kind):
        params = default_system_params()
        traffic = TrafficModel(scale=0.002)
        profiles = self.PROFILES[kind]
        trials = tuple(range(8))
        together = run_episodes(
            60, params, traffic, 21, profiles, trials, traced_trials=trials
        )
        alone = [
            run_episode(60, params, traffic, rng_seed=21, profiles=profiles, trial=t)
            for t in trials
        ]
        for (stats, traces), (want_stats, want_traces) in zip(together, alone):
            assert _nan_as_none(stats) == _nan_as_none(want_stats)
            assert traces == want_traces
        # Some frame optimizes some trials while others have nothing to sell.
        mixed = [
            frame
            for frame in zip(*(traces for _, traces in alone))
            if any(trace.allocation is not None for trace in frame)
            and any(not any(trace.buffers_at_start) for trace in frame)
        ]
        assert mixed

    def test_traced_trials_and_order(self):
        params = default_system_params()
        traffic = TrafficModel(scale=0.002)
        profiles = self.PROFILES["distinct"]
        got = run_episodes(25, params, traffic, 3, profiles, (5, 0, 2), traced_trials=(0,))
        assert [len(traces) for _, traces in got] == [0, 25, 0]
        for trial, (stats, _) in zip((5, 0, 2), got):
            want = run_episode(25, params, traffic, rng_seed=3, profiles=profiles, trial=trial)
            assert _nan_as_none(stats) == _nan_as_none(want[0])
        assert got[1][1] == run_episode(25, params, traffic, rng_seed=3, profiles=profiles)[1]


class TestRunEpisode:
    def test_deterministic_traces(self):
        params = default_system_params()
        traffic = TrafficModel()
        one = run_episode(50, params, traffic, rng_seed=5, profiles=[UserProfile()] * 4)
        two = run_episode(50, params, traffic, rng_seed=5, profiles=[UserProfile()] * 4)
        assert one[0] == two[0]
        assert repr(one[1]) == repr(two[1])

    def test_different_trials_differ(self):
        params = default_system_params()
        traffic = TrafficModel()
        profiles = [UserProfile()] * 4
        a = run_episode(50, params, traffic, rng_seed=5, profiles=profiles, trial=0)
        b = run_episode(50, params, traffic, rng_seed=5, profiles=profiles, trial=1)
        assert repr(a[1]) != repr(b[1])

    def test_delays_nonnegative_and_fifo_ordered(self):
        params, traffic, profiles, trial, grid = _episode_setup(seed=41)
        for _ in range(80):
            step_frame(trial, params, traffic, profiles, grid)
        assert any(trial.completed)
        for done in trial.completed:
            arrivals = [a for a, _ in done]
            assert arrivals == sorted(arrivals)
            assert all(d >= 0.0 for _, d in done)

    def test_fast_clearance_with_immediate_access(self):
        # Near-certain idle band and tiny backlog: the initial batch clears
        # in the first idle-declared frame, delay about one frame.
        params = default_system_params(p_h0=0.99, zeta=0.6)
        traffic = TrafficModel(shape=1.0, scale=100.0, batch_bits=0)
        stats, _ = run_episode(
            30, params, traffic, rng_seed=11, profiles=[UserProfile(initial_bits=5)] * 2
        )
        for d in stats.per_su_mean_delay:
            assert d < 6 * params.frame_duration

    def test_dropped_batches_counted(self):
        # A band that is never declared idle leaves every batch pending.
        params = default_system_params(p_h0=0.01, zeta=0.6)
        traffic = TrafficModel(shape=1.0, scale=1000.0, batch_bits=0)
        stats, _ = run_episode(
            10, params, traffic, rng_seed=13, profiles=[UserProfile(initial_bits=5)] * 2
        )
        assert sum(stats.dropped_batches) >= 1

    def test_profile_gain_and_backlog_are_per_user(self):
        # Each profile's own gain mean and initial backlog drive its user.
        params = default_system_params()
        traffic = TrafficModel(scale=0.002)

        def first_frames(profiles):
            _, traces = run_episode(3, params, traffic, rng_seed=7, profiles=profiles)
            return traces

        shared = first_frames([UserProfile()] * 3)
        own = first_frames(
            [UserProfile(gain_mean=50.0, initial_bits=b) for b in (0, 5, 700)]
        )
        assert own[0].buffers_at_start == (0, 5, 700)
        assert shared[0].buffers_at_start == (10, 10, 10)
        assert repr(own) != repr(shared)
        with pytest.raises(ValueError, match="gain_mean"):
            UserProfile(gain_mean=0.0)
        with pytest.raises(ValueError, match="initial_bits"):
            UserProfile(initial_bits=-1)

    def test_profile_prices_must_be_non_negative(self):
        # Checked when the profile is built, as SecondaryUser checks them:
        # an empty backlog never builds a SecondaryUser in any frame.
        with pytest.raises(ValueError, match="price"):
            UserProfile(pay_rate=-1.0, initial_bits=0)
        with pytest.raises(ValueError, match="price"):
            UserProfile(earn_rate=-1.0)

    def test_empty_profiles_rejected(self):
        with pytest.raises(ValueError, match="profiles"):
            run_episode(5, default_system_params(), TrafficModel(), rng_seed=1, profiles=[])


class TestDecisionStatistics:
    def test_empirical_frequencies_match_closed_forms(self):
        # Saturated traffic keeps buffers busy, so the fusion center
        # decides every frame; empirical busy rates under each truth must
        # sit within 3 standard errors of the averaged closed forms.
        params = default_system_params(p_h0=0.6)
        geom = params.geometry()
        traffic = TrafficModel(shape=1.0, scale=2e-3, batch_bits=200)
        _, traces = run_episode(
            20_000,
            params,
            traffic,
            rng_seed=3,
            profiles=[UserProfile(initial_bits=5000)] * 3,
        )
        for truth in (False, True):
            frames = [
                t
                for t in traces
                if t.pu_active is truth and t.selected_set and t.chosen_pfa is not None
            ]
            assert len(frames) > 1000
            probs = []
            for t in frames:
                design = SensingDesign(t.chosen_pfa, t.chosen_k)
                size = len(t.selected_set)
                probs.append(
                    global_pd(design, geom, size)
                    if truth
                    else global_pfa(design, size)
                )
            expected = float(np.mean(probs))
            observed = float(np.mean([t.fc_decision_busy for t in frames]))
            stderr = math.sqrt(
                sum(p * (1 - p) for p in probs)
            ) / len(frames)
            assert abs(observed - expected) <= 3.0 * max(stderr, 1e-12)


class TestJainIndex:
    def test_perfect_fairness(self):
        assert jain_index([1.0, 1.0, 1.0, 1.0]) == pytest.approx(1.0, rel=1e-12)

    def test_worst_case(self):
        assert jain_index([1.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25, rel=1e-12)

    def test_mixed_values(self):
        assert jain_index([1.0, 2.0, 3.0]) == pytest.approx(36.0 / 42.0, rel=1e-12)

    def test_scale_invariance(self):
        values = [0.5, 1.7, 0.9, 4.0]
        assert jain_index([10 * v for v in values]) == pytest.approx(
            jain_index(values), rel=1e-12
        )

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            jain_index([0.0, 0.0])
        with pytest.raises(ValueError):
            jain_index([])


class TestMonteCarloAverage:
    def test_single_trial(self):
        mean, se = monte_carlo_average(lambda t: 42.0, 1)
        assert mean == 42.0 and se == 0.0

    def test_constant_metric_zero_error(self):
        mean, se = monte_carlo_average(lambda t: 3.5, 50)
        assert mean == 3.5 and se == 0.0

    def test_reproducible_for_fixed_master_seed(self):
        def metric(trial):
            rng = np.random.Generator(
                np.random.PCG64(np.random.SeedSequence(9, spawn_key=(trial,)))
            )
            return rng.random()

        assert monte_carlo_average(metric, 20) == monte_carlo_average(metric, 20)

    def test_standard_error_scale(self):
        def metric(trial):
            rng = np.random.Generator(
                np.random.PCG64(np.random.SeedSequence(10, spawn_key=(trial,)))
            )
            return rng.normal()

        mean, se = monte_carlo_average(metric, 400)
        assert se == pytest.approx(1.0 / 20.0, rel=0.2)
