"""Rates, bounds, utilities, and frame accounting, with a Monte-Carlo
oracle for the fading-averaged rate."""

import math

import numpy as np
import pytest

from cogalloc import (
    SecondaryUser,
    SensingDesign,
    SystemParams,
    default_system_params,
    effective_time,
    global_pd,
    global_pfa,
    rate_idle,
    rate_interfered,
    select_and_allocate,
)
from cogalloc.allocator import UserTable, time_bound_arrays
from cogalloc.economics import _exp_scaled_e1, interfered_rates
from cogalloc.units import dbm_to_watts

from helpers import rate_interfered_quadrature, scalar_effective_rate


def user(gain=1.0, buffer_bits=1000, pay=0.1, earn=10.0, uid=0):
    return SecondaryUser(
        id=uid, gain_to_fc=gain, buffer_bits=buffer_bits, pay_rate=pay, earn_rate=earn
    )


def priced(su, design, params, l_active):
    """(rate, lower bound, upper bound) of one user from the library's
    pricing kernel, with ``l_active`` reporting users."""
    rates, lowers, uppers, _ = UserTable([su], params).level(design, l_active)
    return float(rates[0]), float(lowers[0]), float(uppers[0])


def net_utility(su, rate, t, params):
    """R t (b - a) - c: an active user's net utility at grant ``t``."""
    return rate * t * (su.earn_rate - su.pay_rate) - params.sensing_cost


def custom_params(**overrides):
    return default_system_params(**overrides)


class TestRateIdle:
    def test_unit_snr_gives_bandwidth(self):
        params = custom_params()
        su = user(gain=params.noise_power / params.p_st)
        assert rate_idle(su, params) == pytest.approx(params.bandwidth, rel=1e-12)

    def test_vanishing_gain(self):
        params = custom_params()
        assert rate_idle(user(gain=1e-30), params) < 1e-9

    def test_table_operating_point(self):
        # Independent recomputation from the quoted constants.
        params = custom_params()
        noise = dbm_to_watts(-174.0 + 10.0 * math.log10(15000.0))
        expected = 15000.0 * math.log2(1.0 + dbm_to_watts(23.0) / noise)
        assert rate_idle(user(gain=1.0), params) == pytest.approx(expected, rel=1e-12)

    def test_monotone_in_gain(self):
        params = custom_params()
        rates = [rate_idle(user(gain=g), params) for g in (0.1, 0.5, 1.0, 3.0)]
        assert all(a < b for a, b in zip(rates, rates[1:]))


class TestRateInterfered:
    def test_no_primary_power_recovers_idle_rate(self):
        params = custom_params(p_pt=1e-300)
        su = user()
        assert rate_interfered(su, params) == pytest.approx(
            rate_idle(su, params), rel=1e-9
        )

    def test_overwhelming_primary_power(self):
        params = custom_params(p_pt=1e30)
        assert rate_interfered(user(), params) < 1e-6

    def test_below_idle_rate(self):
        params = custom_params()
        for g in (0.2, 1.0, 4.0):
            assert rate_interfered(user(gain=g), params) < rate_idle(
                user(gain=g), params
            )

    def test_monte_carlo_oracle_at_table_point(self):
        params = custom_params()
        su = user(gain=1.0)
        rng = np.random.default_rng(20240817)
        n = 10_000_000
        x = rng.exponential(1.0, size=n)
        samples = params.bandwidth * np.log2(
            1.0 + su.gain_to_fc * params.p_st / (x * params.p_pt + params.noise_power)
        )
        mc = float(samples.mean())
        se = float(samples.std(ddof=1) / math.sqrt(n))
        assert abs(rate_interfered(su, params) - mc) < 3.0 * se

    @pytest.mark.parametrize("p_pt", [None, 1e-300, 1.0, 1e30])
    def test_equals_the_literal_formula(self, p_pt):
        # The params-only term is computed once per call of
        # interfered_rates; every rate must still be the literal
        # ((ln c1 + e^c1 E1(c1)) - ln c2) - e^c2 E1(c2), bit for bit.
        params = custom_params() if p_pt is None else custom_params(p_pt=p_pt)

        def literal(gain):
            a = gain * params.p_st / params.noise_power
            b = params.p_pt / params.noise_power
            c1 = (1.0 + a) / b
            c2 = 1.0 / b
            nats = (
                math.log(c1) + _exp_scaled_e1(c1) - math.log(c2) - _exp_scaled_e1(c2)
            )
            return params.bandwidth * nats / math.log(2.0)

        rng = np.random.default_rng(1905)
        gains = rng.exponential(1.0, 2000).tolist()
        gains += (10.0 ** rng.uniform(-300, 200, 500)).tolist()
        gains += [5e-324, 1e-300, 1e-17, 1e-12, 0.5, 1.0, 50.0, 1e6, 1e15, 1e100, 1e200]
        batch = interfered_rates(gains, params)
        for gain, rate in zip(gains, batch):
            want = literal(gain)
            assert rate == want and rate_interfered(user(gain=gain), params) == want

    def test_quadrature_route_agrees(self):
        params = custom_params()
        for g in (0.3, 1.0, 2.7):
            su = user(gain=g)
            assert rate_interfered_quadrature(su, params) == pytest.approx(
                rate_interfered(su, params), rel=1e-9
            )


class TestEffectiveRate:
    def test_convex_combination_structure(self, params, geom):
        su = user()
        design = SensingDesign(0.1, 2)
        r0, r1 = rate_idle(su, params), rate_interfered(su, params)
        p_fa, p_d = global_pfa(design, 5), global_pd(design, geom, 5)
        expected = params.p_h0 * (1 - p_fa) * r0 + params.p_h1 * (1 - p_d) * r1
        assert priced(su, design, params, 5)[0] == pytest.approx(
            expected, rel=1e-12
        )

    def test_degenerate_tails(self, params):
        # Both access opportunities vanish at unit tails; full access at zero.
        su = user()
        r0, r1 = rate_idle(su, params), rate_interfered(su, params)
        table = UserTable([su], params)
        blend = lambda fa, d: table.price(
            params.p_h0 * (1 - fa), params.p_h1 * (1 - d)
        )[0][0]
        assert blend(1.0, 1.0) == 0.0
        assert blend(0.0, 0.0) == pytest.approx(
            params.p_h0 * r0 + params.p_h1 * r1, rel=1e-12
        )

    def test_composition_oracle_table_point(self, params, geom):
        from helpers import fused_tail_enumeration
        from cogalloc.sensing import local_pd

        su = user()
        design = SensingDesign(0.1, 2)
        p_fa = fused_tail_enumeration(0.1, 2, 5)
        p_d = fused_tail_enumeration(local_pd(0.1, geom), 2, 5)
        expected = (
            params.p_h0 * (1 - p_fa) * rate_idle(su, params)
            + params.p_h1 * (1 - p_d) * rate_interfered(su, params)
        )
        assert priced(su, design, params, 5)[0] == pytest.approx(
            expected, rel=1e-12
        )

    def test_k_above_l_propagates(self, params):
        with pytest.raises(ValueError):
            priced(user(), SensingDesign(0.1, 6), params, 5)


class TestTimeBounds:
    def test_sensing_cost_value(self, params):
        assert params.sensing_cost == pytest.approx(0.005, rel=1e-12)

    def test_lower_bound_arithmetic(self, params):
        su = user()
        design = SensingDesign(0.2, 2)
        rate, lb, _ = priced(su, design, params, 4)
        assert lb * rate * (su.earn_rate - su.pay_rate) == pytest.approx(
            params.sensing_cost, rel=1e-12
        )

    def test_lower_bound_direct_ratio(self):
        # 0.005 / (1000 * 9.9) with rate and margin frozen by hand.
        assert 0.005 / (1000.0 * 9.9) == pytest.approx(5.0505e-7, rel=1e-4)

    def test_never_profitable_marker(self, params):
        # b <= a: the lower bound is infinite, whatever the rate.
        lowers, _ = time_bound_arrays(
            np.array([1000.0, 1000.0]),
            np.array([0.0, -1.0]),
            np.array([1000.0, 1000.0]),
            params.sensing_cost,
        )
        assert lowers.tolist() == [math.inf, math.inf]
        design = SensingDesign(0.2, 1)
        assert priced(user(pay=1.0, earn=1.0), design, params, 3)[1] == math.inf
        assert priced(user(pay=2.0, earn=1.0), design, params, 3)[1] == math.inf

    def test_upper_bound_empty_buffer(self, params):
        design = SensingDesign(0.2, 1)
        assert priced(user(buffer_bits=0), design, params, 3)[2] == 0.0

    def test_upper_bound_clears_buffer_exactly(self, params):
        design = SensingDesign(0.3, 2)
        su = user(buffer_bits=1000)
        rate, _, ub = priced(su, design, params, 5)
        assert rate * ub == pytest.approx(su.buffer_bits, rel=1e-9)

    def test_upper_bound_linearity(self, params):
        design = SensingDesign(0.3, 2)
        one = priced(user(buffer_bits=700), design, params, 5)[2]
        two = priced(user(buffer_bits=1400), design, params, 5)[2]
        assert two == pytest.approx(2.0 * one, rel=1e-12)

    def test_bounds_pair_matches_scalar_ops(self, params):
        # The array kernel and the scalar formulas agree bit for bit.
        design = SensingDesign(0.4, 3)
        su = user(gain=0.8)
        rate, lb, ub = priced(su, design, params, 5)
        scalar = scalar_effective_rate(su, design, params, 5)
        assert rate == scalar
        assert lb == params.sensing_cost / (scalar * (su.earn_rate - su.pay_rate))
        assert ub == su.buffer_bits / scalar

    def test_bounds_shrink_and_rates_grow_when_set_shrinks(self, params):
        # One fewer reporting user lowers both fused tails, so each
        # remaining user's rate rises and both bounds contract.
        design = SensingDesign(0.2, 2)
        su = user()
        for l_active in range(3, 8):
            small = priced(su, design, params, l_active - 1)
            large = priced(su, design, params, l_active)
            assert small[0] > large[0]
            assert small[1] < large[1]
            assert small[2] < large[2]


class TestEffectiveTime:
    def test_no_reporting_users(self, params):
        expected = (
            params.frame_duration
            - params.tau2
            - params.n_samples * params.sample_interval
            - params.tau5
        )
        assert effective_time(params, 0) == pytest.approx(expected, rel=1e-12)

    def test_each_user_costs_one_report_slot(self, params):
        for l_active in range(6):
            delta = effective_time(params, l_active) - effective_time(
                params, l_active + 1
            )
            assert delta == pytest.approx(params.tau_r_prime, rel=1e-9)

    def test_table_defaults_hand_value(self, params):
        # 1 ms - 10 us - 40/6 us - 10 us - 5 L us
        assert effective_time(params, 0) == pytest.approx(9.733333333e-4, rel=1e-9)
        assert effective_time(params, 5) == pytest.approx(9.483333333e-4, rel=1e-9)

    def test_negative_l_rejected(self, params):
        with pytest.raises(ValueError):
            effective_time(params, -1)


class TestUtilities:
    def test_su_utility_inactive_is_zero(self, params):
        # A never-profitable user is pruned: inactive, zero time, zero utility.
        sus = [user(uid=0), user(uid=1, pay=1.0, earn=1.0), user(uid=2), user(uid=3)]
        alloc = select_and_allocate(sus, SensingDesign(0.2, 2), params)
        assert alloc.feasible and not alloc.active[1]
        assert alloc.times[1] == 0.0 and alloc.su_utilities[1] == 0.0

    def test_break_even_identity(self, params):
        design = SensingDesign(0.2, 2)
        su = user()
        rate, lb, _ = priced(su, design, params, 5)
        assert net_utility(su, rate, lb, params) == pytest.approx(0.0, abs=1e-12)

    def test_double_break_even_earns_one_sensing_cost(self, params):
        design = SensingDesign(0.2, 2)
        su = user()
        rate, lb, _ = priced(su, design, params, 5)
        assert net_utility(su, rate, 2 * lb, params) == pytest.approx(
            params.sensing_cost, rel=1e-9
        )

    def test_break_even_identity_over_design_grid(self, params):
        for pfa in (0.1, 0.4, 0.7):
            for k, l_active in ((1, 2), (2, 4), (3, 6)):
                design = SensingDesign(pfa, k)
                for gain in (0.3, 1.0, 2.5):
                    su = user(gain=gain)
                    rate, lb, _ = priced(su, design, params, l_active)
                    assert net_utility(su, rate, lb, params) == pytest.approx(
                        0.0, abs=1e-12
                    )

    def test_positivity_iff_above_lower_bound(self, params):
        design = SensingDesign(0.3, 2)
        su = user()
        rate, lb, _ = priced(su, design, params, 5)
        for factor in (0.2, 0.9, 0.999):
            assert net_utility(su, rate, factor * lb, params) < 0
        for factor in (1.001, 3.0):
            assert net_utility(su, rate, factor * lb, params) > 0


class TestSystemParamsValidation:
    def test_frame_must_exceed_overheads(self):
        with pytest.raises(ValueError, match="usable time"):
            default_system_params(frame_duration=2e-5)

    def test_probability_fields(self):
        with pytest.raises(ValueError):
            default_system_params(p_h0=1.0)
        with pytest.raises(ValueError):
            default_system_params(zeta=0.0)

    def test_multiple_violations_reported_together(self):
        with pytest.raises(ValueError) as err:
            SystemParams(
                n_samples=0,
                sample_interval=-1.0,
                frame_duration=1e-3,
                tau2=1e-5,
                tau5=1e-5,
                tau_r=5e-6,
                tau_r_prime=5e-6,
                p_st=0.2,
                p_pt=20.0,
                bandwidth=15e3,
                noise_power=6e-17,
                sense_cost=1e-4,
                report_cost=1e-3,
                p_h0=0.8,
                zeta=0.7,
                gamma_db=-7.0,
            )
        message = str(err.value)
        assert "sample_interval" in message and "n_samples" in message
