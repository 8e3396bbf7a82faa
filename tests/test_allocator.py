"""Selection and allocation against LP and subset-enumeration oracles."""

import itertools
import math
import warnings

import numpy as np
import pytest

from cogalloc import (
    AllocationResult,
    CaseLabel,
    DesignGrid,
    SecondaryUser,
    SensingDesign,
    classify_case,
    default_system_params,
    effective_rate,
    effective_time,
    exchange_search,
    greedy_topup,
    joint_optimize,
    reduce_feasible_set,
    select_and_allocate,
    waterfill_allocate,
)
from cogalloc.allocator import _evaluate_set

from helpers import (
    lp_time_allocation,
    make_users,
    subset_oracle_fixed_design,
)


DESIGN = SensingDesign(0.1, 2)


def sized_params(frame_duration, **overrides):
    return default_system_params(frame_duration=frame_duration, **overrides)


def frame_for_budget(budget, l_active, params=None):
    """Frame duration making T'(l_active) equal the requested budget."""
    p = params or default_system_params()
    overhead = p.tau2 + p.n_samples * p.sample_interval + p.tau5
    return budget + overhead + l_active * p.tau_r_prime


class TestClassifyCase:
    def _setup(self, budget_factor, seed=0, m=4):
        """Instance whose budget is ``budget_factor`` times the upper-bound
        sum (well above the lower-bound sum for factors near one)."""
        params = default_system_params()
        sus = make_users(seed, m)
        geom = params.geometry()
        ev = _evaluate_set(sus, DESIGN, geom, params)
        budget = budget_factor * sum(ev.uppers)
        params = sized_params(frame_for_budget(budget, m))
        return sus, params.geometry(), params

    def test_case1_when_budget_exceeds_upper_sum(self):
        sus, geom, params = self._setup(1.5)
        assert classify_case(sus, DESIGN, geom, params) is CaseLabel.CASE1

    def test_case2_between_sums(self):
        sus, geom, params = self._setup(0.5)
        assert classify_case(sus, DESIGN, geom, params) is CaseLabel.CASE2

    def test_case3_below_lower_sum(self):
        sus, geom, params = self._setup(1e-9)
        assert classify_case(sus, DESIGN, geom, params) is CaseLabel.CASE3

    def test_equality_with_upper_sum_is_case1(self):
        sus, geom, params = self._setup(1.0)
        # Budget was set to the exact upper-bound sum at this set size.
        assert classify_case(sus, DESIGN, geom, params) is CaseLabel.CASE1

    def test_equality_with_lower_sum_is_case2(self):
        params = default_system_params()
        sus = make_users(3, 4)
        geom = params.geometry()
        ev = _evaluate_set(sus, DESIGN, geom, params)
        params = sized_params(frame_for_budget(sum(ev.lowers), 4))
        assert classify_case(sus, DESIGN, params.geometry(), params) is CaseLabel.CASE2

    def test_never_profitable_rejected(self):
        params = default_system_params()
        sus = make_users(0, 3) + [
            SecondaryUser(id=9, gain_to_fc=1.0, buffer_bits=10, pay_rate=1.0, earn_rate=1.0)
        ]
        with pytest.raises(ValueError, match="never-profitable"):
            classify_case(sus, DESIGN, params.geometry(), params)

    def test_empty_and_small_sets_rejected(self):
        params = default_system_params()
        with pytest.raises(ValueError):
            classify_case([], DESIGN, params.geometry(), params)
        with pytest.raises(ValueError):
            classify_case(make_users(0, 1), DESIGN, params.geometry(), params)


class TestReduceFeasibleSet:
    def test_well_ordered_bounds_keep_everyone(self):
        params = default_system_params()
        sus = make_users(1, 5, buffer_bits=10_000)
        assert reduce_feasible_set(sus, DESIGN, params.geometry(), params) == sus

    def test_tiny_buffer_with_thin_margin_dropped(self):
        # Bound ordering needs buffer_bits > cost/(earn-pay); a thin margin
        # pushes that threshold above the backlog.
        params = default_system_params()
        keep = make_users(2, 3)
        drop = SecondaryUser(
            id=7, gain_to_fc=1.0, buffer_bits=1000, pay_rate=0.1, earn_rate=0.1 + 1e-6
        )
        reduced = reduce_feasible_set(keep + [drop], DESIGN, params.geometry(), params)
        assert drop not in reduced and len(reduced) == 3

    def test_never_profitable_dropped(self):
        params = default_system_params()
        flat = SecondaryUser(id=8, gain_to_fc=1.0, buffer_bits=1000, pay_rate=0.1, earn_rate=0.1)
        reduced = reduce_feasible_set(
            make_users(3, 2) + [flat], DESIGN, params.geometry(), params
        )
        assert flat not in reduced

    def test_empty_input(self):
        params = default_system_params()
        assert reduce_feasible_set([], DESIGN, params.geometry(), params) == []


class TestGreedyTopup:
    def test_hand_trace(self):
        # Budget 10: bounds use 3, best tops 1->5 (4 granted), second gets
        # the remaining 3 on top of its bound.
        assert greedy_topup([1, 2], [5, 6], [2.0, 1.0], 10.0) == [5, 5]

    def test_no_slack_returns_lower_bounds(self):
        assert greedy_topup([1, 2], [5, 6], [2.0, 1.0], 3.0) == [1, 2]

    def test_priority_tie_breaks_to_first(self):
        assert greedy_topup([0, 0], [5, 5], [1.0, 1.0], 5.0) == [5, 0]

    @pytest.mark.parametrize("seed", range(1000))
    def test_lp_optimality_random_instances(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        lowers = rng.uniform(0.0, 1.0, n)
        uppers = lowers + rng.uniform(0.1, 3.0, n)
        prios = rng.uniform(0.1, 5.0, n)
        # Case-2 style budget: strictly between the bound sums.
        budget = float(
            lowers.sum() + rng.uniform(0.05, 0.95) * (uppers.sum() - lowers.sum())
        )
        times = greedy_topup(list(lowers), list(uppers), list(prios), budget)
        achieved = float(np.dot(prios, times))
        optimum = lp_time_allocation(list(lowers), list(uppers), list(prios), budget)
        assert achieved == pytest.approx(optimum, rel=1e-9)
        assert sum(times) <= budget + 1e-9
        assert all(lo - 1e-12 <= t <= up + 1e-12 for lo, t, up in zip(lowers, times, uppers))


class TestWaterfillAllocate:
    def _case2_instance(self, seed, m=4):
        params = default_system_params()
        sus = make_users(seed, m, buffer_bits=int(np.random.default_rng(seed).integers(200, 3000)))
        geom = params.geometry()
        ev = _evaluate_set(sus, DESIGN, geom, params)
        rng = np.random.default_rng(seed + 1)
        lo, hi = sum(ev.lowers), sum(ev.uppers)
        budget = lo + float(rng.uniform(0.1, 0.9)) * (hi - lo)
        params = sized_params(frame_for_budget(budget, m))
        return sus, params.geometry(), params

    def test_requires_case2(self):
        params = default_system_params()
        sus = make_users(5, 3, buffer_bits=1)
        with pytest.raises(ValueError, match="Case-2"):
            waterfill_allocate(sus, DESIGN, params.geometry(), params)

    def test_budget_exhausted_exactly(self):
        sus, geom, params = self._case2_instance(11)
        alloc = waterfill_allocate(sus, DESIGN, geom, params)
        assert sum(alloc.times) == pytest.approx(
            effective_time(params, len(sus)), abs=1e-12
        )

    @pytest.mark.parametrize("seed", range(150))
    def test_lp_optimality_end_to_end(self, seed):
        sus, geom, params = self._case2_instance(seed)
        ev = _evaluate_set(sus, DESIGN, geom, params)
        alloc = waterfill_allocate(sus, DESIGN, geom, params)
        optimum = lp_time_allocation(
            list(ev.lowers), list(ev.uppers), list(ev.priorities), ev.t_prime
        )
        assert alloc.fc_utility == pytest.approx(optimum, rel=1e-9)
        # Box and budget safety at machine tolerance.
        for lo, t, up in zip(ev.lowers, alloc.times, ev.uppers):
            assert lo - 1e-12 <= t <= up + 1e-12
        assert sum(alloc.times) <= ev.t_prime + 1e-12


class TestExchangeSearch:
    def test_empty_excluded_returns_kept(self):
        params = default_system_params()
        sus = make_users(7, 4, buffer_bits=10)
        geom = params.geometry()
        best_set, alloc = exchange_search(sus, [], DESIGN, geom, params)
        assert [su.id for su in best_set] == [su.id for su in sus]
        assert alloc is not None and alloc.feasible

    def test_one_for_one_swap(self):
        params = default_system_params()
        pool = make_users(13, 3, buffer_bits=5)
        kept, excluded = pool[:2], pool[2:]
        best_set, alloc = exchange_search(kept, excluded, DESIGN, params.geometry(), params)
        candidates = {
            tuple(sorted(su.id for su in kept)),
            tuple(sorted([kept[0].id, excluded[0].id])),
            tuple(sorted([kept[1].id, excluded[0].id])),
        }
        assert tuple(sorted(su.id for su in best_set)) in candidates

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_full_same_cardinality_enumeration(self, seed):
        # 3-vs-2 identical-cost instances: the search must find the best
        # size-3 subset of the 5-user pool.
        rng = np.random.default_rng(seed)
        params = default_system_params()
        pool = make_users(seed + 100, 5, buffer_bits=int(rng.integers(50, 500)))
        geom = params.geometry()
        ev = _evaluate_set(pool, DESIGN, geom, params)
        budget = float(rng.uniform(0.3, 1.4)) * sum(ev.uppers) * 3.0 / 5.0
        params = sized_params(frame_for_budget(budget, 3))
        geom = params.geometry()
        kept, excluded = pool[:3], pool[3:]
        if classify_case(kept, DESIGN, geom, params) is not CaseLabel.CASE1:
            pytest.skip("exchange precondition (kept set abundant) not met")
        _, alloc = exchange_search(kept, excluded, DESIGN, geom, params)

        best = -math.inf
        for subset in itertools.combinations(pool, 3):
            ev = _evaluate_set(subset, DESIGN, geom, params)
            case = ev.case
            if case is CaseLabel.CASE1:
                value = sum(p * u for p, u in zip(ev.priorities, ev.uppers))
            elif case is CaseLabel.CASE2:
                times = greedy_topup(ev.lowers, ev.uppers, ev.priorities, ev.t_prime)
                value = sum(p * t for p, t in zip(ev.priorities, times))
            else:
                continue
            best = max(best, value)
        assert alloc.fc_utility == pytest.approx(best, rel=1e-9)


class TestSelectAndAllocate:
    def test_abundant_time_serves_everyone_at_upper_bounds(self):
        # Tiny buffers, default 1 ms frame: revenue is the buffered value.
        params = default_system_params()
        sus = make_users(21, 5, buffer_bits=10)
        alloc = select_and_allocate(sus, DESIGN, params.geometry(), params)
        assert alloc.feasible and alloc.case is CaseLabel.CASE1
        assert all(alloc.active)
        assert alloc.fc_utility == pytest.approx(
            sum(su.pay_rate * su.buffer_bits for su in sus), rel=1e-9
        )

    def test_unreachable_detection_floor_is_infeasible(self):
        params = default_system_params(zeta=0.9999)
        sus = make_users(22, 3, buffer_bits=10)
        alloc = select_and_allocate(sus, DESIGN, params.geometry(), params)
        assert not alloc.feasible
        assert not any(alloc.active)

    def test_alignment_with_input_order(self):
        params = default_system_params()
        sus = make_users(23, 5, buffer_bits=10)
        alloc = select_and_allocate(sus, DESIGN, params.geometry(), params)
        assert len(alloc.active) == len(sus) == len(alloc.times)

    @pytest.mark.parametrize("seed", range(60))
    def test_matches_subset_enumeration_oracle(self, seed):
        # Contested instances, identical costs, M=5: the elimination and
        # exchange walk must land on the enumeration optimum.
        rng = np.random.default_rng(seed)
        params = default_system_params()
        buffer_bits = int(rng.integers(100, 2000))
        sus = make_users(seed + 300, 5, buffer_bits=buffer_bits)
        geom = params.geometry()
        ev = _evaluate_set(sus, DESIGN, geom, params)
        budget = float(rng.uniform(0.05, 0.9)) * sum(ev.uppers)
        params = sized_params(frame_for_budget(budget, 5))
        geom = params.geometry()
        alloc = select_and_allocate(sus, DESIGN, geom, params)
        oracle = subset_oracle_fixed_design(sus, DESIGN, geom, params)
        if oracle is None:
            assert not alloc.feasible
        else:
            assert alloc.feasible
            assert alloc.fc_utility == pytest.approx(oracle, rel=1e-9)

    def test_zero_rate_users_raise_no_warning(self):
        # On the default M=20 grid the high-pfa designs drive some
        # effective rates to exactly 0; those users get inf bounds and are
        # filtered out silently. The values are those the search gave
        # before the division was put under errstate.
        params = default_system_params()
        sus = make_users(0, 20)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            grid = DesignGrid.uniform(20)
            outcome = joint_optimize(sus, params.geometry(), params, grid)
        assert outcome.fc_utility == 58.58482794032329
        assert outcome.best_design == SensingDesign(0.1, 4)

    @pytest.mark.parametrize("seed", range(30))
    def test_budget_and_box_safety(self, seed):
        rng = np.random.default_rng(seed)
        params = default_system_params()
        sus = make_users(seed + 500, 5, buffer_bits=int(rng.integers(50, 3000)))
        geom = params.geometry()
        ev = _evaluate_set(sus, DESIGN, geom, params)
        budget = float(rng.uniform(0.02, 1.5)) * sum(ev.uppers)
        params = sized_params(frame_for_budget(budget, 5))
        geom = params.geometry()
        alloc = select_and_allocate(sus, DESIGN, geom, params)
        if not alloc.feasible:
            return
        chosen = [su for su, a in zip(sus, alloc.active) if a]
        ev = _evaluate_set(chosen, DESIGN, geom, params)
        times = [t for t, a in zip(alloc.times, alloc.active) if a]
        assert sum(times) <= ev.t_prime + 1e-12
        for lo, t, up in zip(ev.lowers, times, ev.uppers):
            assert lo - 1e-12 <= t <= up + 1e-12
        # Every served user at least breaks even.
        assert all(u >= -1e-12 for u in alloc.su_utilities)


class TestPropositionProperties:
    def test_case1_removal_strictly_reduces_utility(self):
        # Abundant time with identical pay rates: utility is the buffered
        # value, so dropping anyone loses that user's contribution.
        params = default_system_params()
        sus = make_users(31, 5, buffer_bits=10)
        geom = params.geometry()
        full = select_and_allocate(sus, DESIGN, geom, params)
        assert full.case is CaseLabel.CASE1
        for drop in sus:
            rest = [su for su in sus if su is not drop]
            smaller = select_and_allocate(rest, DESIGN, geom, params)
            assert smaller.fc_utility < full.fc_utility

    def _case2_chain_instance(self, seed, m):
        rng = np.random.default_rng(seed)
        params = default_system_params()
        sus = make_users(seed + 700, m, buffer_bits=int(rng.integers(300, 1500)))
        geom = params.geometry()
        ev = _evaluate_set(sus, DESIGN, geom, params)
        budget = float(rng.uniform(0.3, 0.7)) * sum(ev.uppers)
        params = sized_params(frame_for_budget(budget, m))
        return sus, params.geometry(), params

    @pytest.mark.parametrize("seed", range(40))
    def test_argmin_elimination_is_best_single_removal(self, seed):
        # Identical costs, contested set staying contested after removal:
        # dropping the lowest-paying user beats dropping anyone else and
        # improves on keeping the full set.
        for m in (5, 6):
            sus, geom, params = self._case2_chain_instance(seed, m)
            if classify_case(sus, DESIGN, geom, params) is not CaseLabel.CASE2:
                continue
            ev = _evaluate_set(sus, DESIGN, geom, params)
            times = greedy_topup(ev.lowers, ev.uppers, ev.priorities, ev.t_prime)
            full_value = sum(p * t for p, t in zip(ev.priorities, times))
            j = min(range(m), key=lambda i: (ev.priorities[i], sus[i].id))
            removal_values = {}
            for drop_idx in range(m):
                rest = [su for i, su in enumerate(sus) if i != drop_idx]
                if classify_case(rest, DESIGN, geom, params) is not CaseLabel.CASE2:
                    removal_values = None
                    break
                alloc = waterfill_allocate(rest, DESIGN, geom, params)
                removal_values[drop_idx] = alloc.fc_utility
            if not removal_values:
                continue
            best_removal = max(removal_values.values())
            assert removal_values[j] == pytest.approx(best_removal, rel=1e-12)
            assert removal_values[j] > full_value

    @pytest.mark.parametrize("seed", range(60))
    def test_no_deeper_swap_beats_depth_when_extremes_contested(self, seed):
        # When the extreme lower-bound orderings are both contested at
        # depth n, no (n+1)-swap found by brute force may do better. The
        # claim presumes the elimination context: every kept user pays
        # more per second than every excluded one, so split the pool by
        # priority (gain order, with identical costs).
        rng = np.random.default_rng(seed)
        params = default_system_params()
        pool = make_users(seed + 900, 6, buffer_bits=int(rng.integers(100, 800)))
        geom = params.geometry()
        by_gain = sorted(pool, key=lambda su: -su.gain_to_fc)
        kept, excluded = by_gain[:3], by_gain[3:]
        ev = _evaluate_set(kept, DESIGN, geom, params)
        budget = float(rng.uniform(0.4, 0.8)) * sum(ev.uppers)
        params = sized_params(frame_for_budget(budget, 3))
        geom = params.geometry()

        def value_of(subset):
            ev = _evaluate_set(subset, DESIGN, geom, params)
            if ev.case is CaseLabel.CASE1:
                return sum(p * u for p, u in zip(ev.priorities, ev.uppers))
            if ev.case is CaseLabel.CASE2:
                times = greedy_topup(ev.lowers, ev.uppers, ev.priorities, ev.t_prime)
                return sum(p * t for p, t in zip(ev.priorities, times))
            return None

        def swaps_at(n):
            for out_c in itertools.combinations(kept, n):
                for in_c in itertools.combinations(excluded, n):
                    out_ids = {su.id for su in out_c}
                    yield [su for su in kept if su.id not in out_ids] + list(in_c)

        # Depth-1 extreme lower-bound swap sets both contested?
        l_active = len(kept)
        lbs = {}
        for su in pool:
            rate = effective_rate(su, DESIGN, geom, params, l_active)
            lbs[su.id] = params.sensing_cost / (rate * (su.earn_rate - su.pay_rate))
        kept_by_lb = sorted(kept, key=lambda su: (-lbs[su.id], su.id))
        ex_by_lb = sorted(excluded, key=lambda su: (-lbs[su.id], su.id))
        g3 = [su for su in kept if su is not kept_by_lb[-1]] + [ex_by_lb[0]]
        g4 = [su for su in kept if su is not kept_by_lb[0]] + [ex_by_lb[-1]]
        try:
            both_case2 = (
                classify_case(g3, DESIGN, geom, params) is CaseLabel.CASE2
                and classify_case(g4, DESIGN, geom, params) is CaseLabel.CASE2
            )
        except ValueError:
            both_case2 = False
        if not both_case2:
            pytest.skip("depth-1 contested-extremes condition not triggered")
        depth1 = [v for v in (value_of(s) for s in swaps_at(1)) if v is not None]
        deeper = [
            v
            for n in range(2, min(len(kept), len(excluded)) + 1)
            for v in (value_of(s) for s in swaps_at(n))
            if v is not None
        ]
        if deeper:
            assert max(depth1) >= max(deeper) - 1e-12


class TestAllocationResultInvariants:
    def test_positive_time_requires_active(self):
        with pytest.raises(ValueError):
            AllocationResult(
                active=(False,),
                times=(1.0,),
                fc_utility=0.0,
                su_utilities=(0.0,),
                case=None,
                feasible=True,
            )

    def test_inactive_time_must_be_zero(self):
        with pytest.raises(ValueError):
            AllocationResult(
                active=(True, False),
                times=(0.5, 0.1),
                fc_utility=0.0,
                su_utilities=(0.0, 0.0),
                case=None,
                feasible=True,
            )

    def test_selected_ids(self):
        alloc = AllocationResult(
            active=(True, False, True),
            times=(0.1, 0.0, 0.2),
            fc_utility=1.0,
            su_utilities=(0.0, 0.0, 0.0),
            case=CaseLabel.CASE2,
            feasible=True,
        )
        assert alloc.selected_ids == (0, 2)
        assert alloc.n_selected == 2
