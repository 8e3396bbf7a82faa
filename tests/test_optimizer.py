"""Grid search, exhaustive oracle, non-joint baseline, and the probe."""

import math
import warnings

import numpy as np
import pytest

from cogalloc import (
    DesignGrid,
    HessianProbeConfig,
    SecondaryUser,
    SensingDesign,
    count_negative_utility,
    default_system_params,
    effective_rate,
    exhaustive_oracle,
    joint_optimize,
    nonjoint_baseline,
    quasiconcavity_probe,
    select_and_allocate,
    time_lower_bound,
)
from cogalloc.optimizer import binom_term, probe_utility, smooth_binom_tail
from cogalloc.sensing import global_pd, local_pd

from helpers import make_users, scalar_exhaustive_oracle


class TestDesignGrid:
    def test_uniform_default(self):
        grid = DesignGrid.uniform(5)
        assert grid.pfa_values == tuple((i) / 10 for i in range(1, 10))
        assert grid.k_values == tuple(range(1, 6))

    @pytest.mark.parametrize(
        "pfas", [(), (0.0, 0.5), (0.5, 0.5), (0.9, 0.1), (0.2, 1.0)]
    )
    def test_bad_pfa_grids(self, pfas):
        with pytest.raises(ValueError):
            DesignGrid(pfa_values=pfas, k_values=(1,))

    def test_bad_k_grid(self):
        with pytest.raises(ValueError):
            DesignGrid(pfa_values=(0.5,), k_values=(0, 1))


class TestJointOptimize:
    def test_single_grid_point_equals_inner_solver(self, params, geom):
        sus = make_users(1, 4)
        grid = DesignGrid(pfa_values=(0.3,), k_values=(2,))
        outcome = joint_optimize(sus, geom, params, grid)
        direct = select_and_allocate(sus, SensingDesign(0.3, 2), geom, params)
        assert outcome.best_allocation == direct
        assert outcome.best_design == SensingDesign(0.3, 2)

    def test_unreachable_floor_all_infeasible(self):
        params = default_system_params(zeta=0.999999, gamma_db=-15.0)
        sus = make_users(2, 3)
        outcome = joint_optimize(sus, params.geometry(), params, DesignGrid.uniform(3))
        assert not outcome.feasible
        assert outcome.best_design is None
        assert outcome.fc_utility == 0.0

    def test_surface_collection(self, params, geom):
        sus = make_users(3, 3)
        grid = DesignGrid(pfa_values=(0.1, 0.5), k_values=(1, 2))
        outcome = joint_optimize(sus, geom, params, grid, keep_surface=True)
        assert set(outcome.utility_surface) == {
            (0.1, 1), (0.5, 1), (0.1, 2), (0.5, 2)
        }
        feasible_values = [
            v for v in outcome.utility_surface.values() if v is not None
        ]
        assert outcome.fc_utility == pytest.approx(max(feasible_values), rel=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_utility_non_increasing_in_detection_floor(self, seed):
        # Same instance, rising floor: the feasible design set only
        # shrinks, so the optimum cannot improve.
        sus = make_users(seed + 900, 5)
        grid = DesignGrid.uniform(5)
        utilities = []
        for zeta in (0.6, 0.7, 0.8, 0.9, 0.95):
            params = default_system_params(zeta=zeta)
            utilities.append(
                joint_optimize(sus, params.geometry(), params, grid).fc_utility
            )
        assert all(a >= b - 1e-12 for a, b in zip(utilities, utilities[1:]))

    def test_tie_break_prefers_small_pfa_then_small_k(self, params, geom):
        # Abundant time: every feasible design clears every buffer, so the
        # utility surface is flat and the tie-break decides.
        sus = make_users(4, 4, buffer_bits=5)
        outcome = joint_optimize(sus, geom, params, DesignGrid.uniform(4))
        surface_best = outcome.best_design
        grid = DesignGrid.uniform(4)
        candidates = []
        for k in grid.k_values:
            for pfa in grid.pfa_values:
                alloc = select_and_allocate(sus, SensingDesign(pfa, k), geom, params)
                if alloc.feasible and alloc.fc_utility == pytest.approx(
                    outcome.fc_utility, rel=1e-12
                ):
                    candidates.append((pfa, k))
        assert (surface_best.pfa_local, surface_best.k_threshold) == min(candidates)


class TestExhaustiveOracle:
    def test_user_cap(self, params, geom):
        sus = make_users(5, 13)
        with pytest.raises(ValueError, match="capped"):
            exhaustive_oracle(sus, geom, params, DesignGrid.uniform(13))

    def test_single_user_reduces_to_grid_scan(self, params, geom):
        sus = make_users(6, 1, buffer_bits=500)
        grid = DesignGrid.uniform(1)
        oracle = exhaustive_oracle(sus, geom, params, grid)
        joint = joint_optimize(sus, geom, params, grid)
        assert oracle.fc_utility == pytest.approx(joint.fc_utility, rel=1e-12)

    @pytest.mark.parametrize("seed", range(25))
    def test_dominates_joint_everywhere(self, seed):
        # Heterogeneous costs allowed: the oracle scans a superset.
        params, sus = _heterogeneous_instance(seed)
        geom = params.geometry()
        grid = DesignGrid.uniform(5)
        oracle = exhaustive_oracle(sus, geom, params, grid)
        joint = joint_optimize(sus, geom, params, grid)
        assert oracle.fc_utility >= joint.fc_utility - 1e-9 * max(oracle.fc_utility, 1.0)

    @pytest.mark.parametrize("seed", range(30))
    def test_identical_cost_exactness(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.choice([3, 5, 7]))
        params = default_system_params(zeta=float(rng.choice([0.6, 0.7, 0.8, 0.9])))
        sus = make_users(seed + 40, m, buffer_bits=1000)
        geom = params.geometry()
        grid = DesignGrid.uniform(m)
        oracle = exhaustive_oracle(sus, geom, params, grid)
        joint = joint_optimize(sus, geom, params, grid)
        if oracle.feasible:
            assert joint.fc_utility == pytest.approx(oracle.fc_utility, rel=1e-9)
        else:
            assert not joint.feasible

    @pytest.mark.parametrize("seed", range(5))
    def test_zero_rate_designs_are_infeasible(self, seed):
        # At pfa 0.99 both opportunity weights round to 0, so every user's
        # effective rate is 0 at that design: the oracle must skip it, as
        # the allocator does, without dividing by zero.
        params = default_system_params()
        geom = params.geometry()
        grid = DesignGrid(pfa_values=(0.5, 0.99), k_values=tuple(range(1, 10)))
        sus = make_users(seed, 9)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            oracle = exhaustive_oracle(sus, geom, params, grid)
            joint = joint_optimize(sus, geom, params, grid)
        assert oracle.feasible
        assert oracle.fc_utility == pytest.approx(joint.fc_utility, rel=1e-9)
        assert oracle.best_design == joint.best_design


def _heterogeneous_instance(seed):
    rng = np.random.default_rng(seed)
    params = default_system_params(zeta=float(rng.uniform(0.6, 0.9)))
    sus = [
        SecondaryUser(
            id=i,
            gain_to_fc=float(rng.exponential(1.0)),
            buffer_bits=int(rng.integers(100, 2000)),
            pay_rate=float(rng.uniform(0.05, 0.3)),
            earn_rate=float(rng.uniform(2.0, 12.0)),
        )
        for i in range(5)
    ]
    return params, sus


def _assert_same_as_scalar_oracle(sus, params, grid):
    geom = params.geometry()
    got = exhaustive_oracle(sus, geom, params, grid)
    want = scalar_exhaustive_oracle(sus, geom, params, grid)
    assert got.best_design == want.best_design
    assert got.best_allocation.active == want.best_allocation.active
    assert got.best_allocation.times == want.best_allocation.times
    assert got.best_allocation.su_utilities == want.best_allocation.su_utilities
    assert got.fc_utility == want.fc_utility
    assert got.feasible == want.feasible
    return got


class TestOracleMatchesScalarReference:
    """The design-batched oracle reproduces the one-pair-at-a-time scalar
    oracle exactly (no tolerance): same design, set, times, utilities."""

    @pytest.mark.parametrize(
        "buffer_bits,earn_rate",
        # Buffers that mostly fit the budget; buffers that contest it, so
        # the fill stops part-way; and a thin price margin, whose lower
        # bounds are a sizeable share of the budget, so the order of the
        # member sums shows in the last bits.
        [(1000, 10.0), (20000, 10.0), (20000, 0.1001)],
    )
    @pytest.mark.parametrize(
        "m,zeta,seed",
        [(m, zeta, seed) for m in (3, 5, 7) for zeta in (0.6, 0.8) for seed in range(3)]
        + [(9, 0.7, 0), (9, 0.9, 1)],
    )
    def test_identical_costs(self, m, zeta, seed, buffer_bits, earn_rate):
        params = default_system_params(zeta=zeta)
        sus = make_users(
            seed * 17 + m, m, buffer_bits=buffer_bits, earn_rate=earn_rate
        )
        _assert_same_as_scalar_oracle(sus, params, DesignGrid.uniform(m))

    @pytest.mark.parametrize("seed", range(25))
    def test_heterogeneous_prices(self, seed):
        params, sus = _heterogeneous_instance(seed)
        _assert_same_as_scalar_oracle(sus, params, DesignGrid.uniform(5))

    def test_equal_priorities_fill_in_index_order(self, params):
        # Users sharing a gain share a priority at every design; with a
        # contested budget the fill order among them decides who gets
        # the remainder.
        sus = [
            SecondaryUser(
                id=i, gain_to_fc=g, buffer_bits=20000, pay_rate=0.1, earn_rate=10.0
            )
            for i, g in enumerate((0.7, 1.5, 0.7, 0.7, 1.5))
        ]
        _assert_same_as_scalar_oracle(sus, params, DesignGrid.uniform(5))

    def test_flat_surface_tie_break(self, params, geom):
        # Users who pay nothing make every feasible (set, design) pair
        # worth exactly 0, so the (pfa, k) tie-break alone picks the design.
        sus = [
            SecondaryUser(
                id=i, gain_to_fc=g, buffer_bits=800, pay_rate=0.0, earn_rate=5.0
            )
            for i, g in enumerate((0.4, 1.3, 0.9, 2.2))
        ]
        grid = DesignGrid.uniform(4)
        got = _assert_same_as_scalar_oracle(sus, params, grid)
        assert got.feasible and got.fc_utility == 0.0
        admissible = [
            (pfa, k)
            for pfa in grid.pfa_values
            for k in grid.k_values
            for size in range(k, 5)
            if global_pd(SensingDesign(pfa, k), geom, size) >= params.zeta
        ]
        assert len(set(admissible)) > 1
        design = got.best_design
        assert (design.pfa_local, design.k_threshold) == min(admissible)

    @pytest.mark.parametrize("m", [0, 1])
    def test_tiny_instances(self, params, m):
        grid = DesignGrid.uniform(max(m, 1))
        _assert_same_as_scalar_oracle(make_users(m + 3, m), params, grid)

    def test_user_with_crossed_bounds_is_never_served(self, params):
        # Its buffer is worth less than the sensing cost (lower bound above
        # the upper bound at every design).
        marginal = SecondaryUser(
            id=9, gain_to_fc=1.0, buffer_bits=10, pay_rate=0.1, earn_rate=0.1004
        )
        sus = make_users(7, 3, buffer_bits=20000) + [marginal]
        got = _assert_same_as_scalar_oracle(sus, params, DesignGrid.uniform(4))
        assert got.feasible and not got.best_allocation.active[3]

    def test_no_profitable_user(self, params):
        sus = make_users(12, 4, pay_rate=5.0, earn_rate=5.0)
        got = _assert_same_as_scalar_oracle(sus, params, DesignGrid.uniform(4))
        assert not got.feasible


class TestNonJointBaseline:
    def test_worthless_buffer_excluded(self, params, geom):
        # One user whose full buffer earns less than the sensing cost.
        good = make_users(7, 3, buffer_bits=1000)
        marginal = SecondaryUser(
            id=9, gain_to_fc=1.0, buffer_bits=10, pay_rate=0.1, earn_rate=0.1004
        )
        nj = nonjoint_baseline(good + [marginal], geom, params, DesignGrid.uniform(4))
        assert nj.feasible
        assert not nj.outcome.best_allocation.active[3]

    def test_budget_slack_clears_every_buffer(self, params, geom):
        sus = make_users(8, 4, buffer_bits=20)
        nj = nonjoint_baseline(sus, geom, params, DesignGrid.uniform(4))
        alloc = nj.outcome.best_allocation
        assert all(alloc.active)
        design, size = nj.outcome.best_design, 4
        for su, t in zip(sus, alloc.times):
            ub = su.buffer_bits / effective_rate(su, design, geom, params, size)
            assert t == pytest.approx(ub, rel=1e-9)

    def test_stage1_minimizes_false_alarm(self, params, geom):
        from cogalloc.sensing import global_pd, global_pfa

        sus = make_users(9, 5)
        grid = DesignGrid.uniform(5)
        nj = nonjoint_baseline(sus, geom, params, grid)
        chosen = nj.outcome.best_design
        best_pfa = min(
            global_pfa(SensingDesign(p, k), 5)
            for k in grid.k_values
            for p in grid.pfa_values
            if global_pd(SensingDesign(p, k), geom, 5) >= params.zeta
        )
        assert global_pfa(chosen, 5) == pytest.approx(best_pfa, rel=1e-12)

    def test_infeasible_when_floor_unreachable(self, geom):
        params = default_system_params(zeta=0.999999, gamma_db=-15.0)
        nj = nonjoint_baseline(make_users(10, 3), params.geometry(), params, DesignGrid.uniform(3))
        assert not nj.feasible

    @pytest.mark.parametrize("seed", range(40))
    def test_joint_dominates_up_to_lower_bound_displacement(self, seed):
        # The baseline solves a relaxation (no break-even bounds), so on a
        # shared design/set it can exceed joint only by the displacement
        # sum over lower bounds; joint must never trail by more.
        rng = np.random.default_rng(seed)
        params = default_system_params(
            zeta=float(rng.choice([0.6, 0.7, 0.8, 0.9])),
            gamma_db=float(rng.choice([-5.0, -7.0])),
        )
        sus = make_users(seed + 60, 5, buffer_bits=1000)
        geom = params.geometry()
        grid = DesignGrid.uniform(5)
        joint = joint_optimize(sus, geom, params, grid)
        nj = nonjoint_baseline(sus, geom, params, grid)
        if not nj.feasible:
            return
        design = nj.outcome.best_design
        prios = [
            effective_rate(su, design, geom, params, 5) * su.pay_rate for su in sus
        ]
        lbs = [time_lower_bound(su, design, geom, params, 5) for su in sus]
        slack = sum(lb * max(prios) for lb in lbs)
        assert joint.fc_utility >= nj.fc_utility - slack - 1e-12

    def test_mean_gap_positive_over_batch(self):
        gaps = []
        for seed in range(40):
            for zeta in (0.6, 0.75, 0.9):
                params = default_system_params(zeta=zeta, gamma_db=-7.0)
                sus = make_users(seed + 120, 5, buffer_bits=1000)
                geom = params.geometry()
                grid = DesignGrid.uniform(5)
                gaps.append(
                    joint_optimize(sus, geom, params, grid).fc_utility
                    - nonjoint_baseline(sus, geom, params, grid).fc_utility
                )
        assert np.mean(gaps) > 0.0


class TestCountNegativeUtility:
    def test_joint_never_negative(self, params, geom):
        for seed in range(10):
            sus = make_users(seed, 5)
            outcome = joint_optimize(sus, geom, params, DesignGrid.uniform(5))
            assert count_negative_utility(outcome.best_allocation) == 0

    def test_zero_time_active_users_pay_sensing_cost(self, params, geom):
        # Deep contest: the baseline zeroes some users' time but they
        # still sense and report.
        sus = make_users(11, 5, buffer_bits=100_000)
        nj = nonjoint_baseline(sus, geom, params, DesignGrid.uniform(5))
        zero_time = [
            u
            for t, u in zip(nj.outcome.best_allocation.times, nj.su_utilities)
            if t == 0.0
        ]
        assert zero_time and all(u == pytest.approx(-params.sensing_cost) for u in zero_time)

    def test_plain_sequences_accepted(self):
        assert count_negative_utility([-1.0, 0.0, 2.0, -0.5]) == 2


class TestSmoothTail:
    @pytest.mark.parametrize("p", [0.1, 0.45, 0.9])
    @pytest.mark.parametrize("m", [3, 5, 8])
    def test_matches_discrete_tail_at_integer_k(self, p, m):
        from helpers import fused_tail_enumeration

        for k in range(1, m + 1):
            assert smooth_binom_tail(p, float(k), m) == pytest.approx(
                fused_tail_enumeration(p, k, m), abs=1e-12
            )

    def test_boundary_values(self):
        assert smooth_binom_tail(0.3, 0.0, 5) == pytest.approx(1.0, abs=1e-12)
        assert smooth_binom_tail(0.3, 6.0, 5) == 0.0

    def test_knot_slope_equals_summand(self):
        # Central difference at the knot must recover the one-step
        # difference C(m,k)p^k(1-p)^(m-k).
        p, m, h = 0.35, 5, 1e-5
        for k in (1, 3, 5):
            fd = (smooth_binom_tail(p, k + h, m) - smooth_binom_tail(p, k - h, m)) / (2 * h)
            assert fd == pytest.approx(-binom_term(p, float(k), m), rel=1e-6)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            smooth_binom_tail(0.5, -0.5, 5)


class TestQuasiconcavityProbe:
    def test_worked_example_sign_pattern(self):
        points = quasiconcavity_probe(HessianProbeConfig())
        assert any(p.det_h < 0.0 for p in points)
        assert all(p.det_ha < 0.0 for p in points)

    def test_bordered_minor_is_negated_square(self):
        # det_Ha = -(dU/dpfa)^2 by construction; cross-check against an
        # independent finite difference of the probe objective.
        cfg = HessianProbeConfig()
        u = probe_utility(cfg)
        points = quasiconcavity_probe(cfg, pfa_grid=[0.2, 0.5, 0.8])
        for pt in points:
            h = 1e-4
            du = (u(pt.pfa + h, 5.0) - u(pt.pfa - h, 5.0)) / (2 * h)
            assert pt.det_ha == pytest.approx(-(du**2), rel=1e-9)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            quasiconcavity_probe(HessianProbeConfig(), pfa_grid=[])

    def test_first_derivative_spot_checks(self):
        # FD gradients vs the closed-form discrete-sum derivatives, at
        # 5 randomly drawn false-alarm points and integer thresholds.
        cfg = HessianProbeConfig()
        geom = cfg.geometry()
        u = probe_utility(cfg)
        a_coef = cfg.p_h0 * sum(r * cfg.pay_times_t for r in cfg.r0)
        b_coef = (1 - cfg.p_h0) * sum(r * cfg.pay_times_t for r in cfg.r1)
        m = cfg.m_users
        rng = np.random.default_rng(77)
        for _ in range(5):
            pfa = float(rng.uniform(0.1, 0.9))
            k = int(rng.integers(2, m + 1))
            # d/dk magnitude: the summand at k for both tails.
            hk = 1e-3
            fd_k = (u(pfa, k + hk) - u(pfa, k - hk)) / (2 * hk)
            expected_k = a_coef * binom_term(pfa, float(k), m) + b_coef * binom_term(
                local_pd(pfa, geom), float(k), m
            )
            assert abs(fd_k) == pytest.approx(expected_k, rel=1e-3)
            # d/dpfa: differentiate the discrete sums term by term.
            hp = 1e-4
            fd_p = (u(pfa + hp, k) - u(pfa - hp, k)) / (2 * hp)
            pd = local_pd(pfa, geom)
            dpd = (local_pd(pfa + 1e-7, geom) - local_pd(pfa - 1e-7, geom)) / 2e-7
            total = 0.0
            for i in range(k, m + 1):
                comb = math.comb(m, i)
                total += comb * (
                    a_coef * pfa ** (i - 1) * (1 - pfa) ** (m - i - 1) * (i - m * pfa)
                    + b_coef * pd ** (i - 1) * (1 - pd) ** (m - i - 1) * (i - m * pd) * dpd
                )
            assert fd_p == pytest.approx(-total, rel=1e-3)
