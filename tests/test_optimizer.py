"""Grid search, exhaustive oracle, non-joint baseline, and the probe."""

import itertools
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from cogalloc import (
    DesignGrid,
    HessianProbeConfig,
    OptimizationOutcome,
    SecondaryUser,
    SensingDesign,
    StreamFactory,
    TrafficModel,
    UserProfile,
    count_negative_utility,
    default_system_params,
    effective_time,
    exhaustive_oracle,
    joint_optimize,
    nonjoint_baseline,
    quasiconcavity_probe,
    run_episode,
    select_and_allocate,
)
from cogalloc import allocator, optimizer
from cogalloc.allocator import TIME_TOL, CaseLabel, UserTable, _allocate, _result, _score
from cogalloc.optimizer import (
    BOUND_SLACK,
    binom_term,
    probe_utility,
    smooth_binom_tail,
)
from cogalloc.sensing import global_pd, local_pd
from cogalloc.simkit import _exponential_gains

from helpers import (
    evaluate_at,
    grid_table,
    level_at,
    make_users,
    reference_joint_optimize,
    reference_screen,
    reference_utility_bound,
    scalar_effective_rate,
    scalar_exhaustive_oracle,
    user_table,
)


class TestDesignGrid:
    def test_uniform_default(self):
        grid = DesignGrid.uniform(5)
        assert grid.pfa_values == tuple((i) / 10 for i in range(1, 10))
        assert grid.k_values == tuple(range(1, 6))

    # A non-numeric or boolean value is a ValueError too, not a TypeError.
    @pytest.mark.parametrize(
        "pfas",
        [(), (0.0, 0.5), (0.5, 0.5), (0.9, 0.1), (0.2, 1.0), ("a",), (0.2, "0.5"), (True,)],
    )
    def test_bad_pfa_grids(self, pfas):
        with pytest.raises(ValueError):
            DesignGrid(pfa_values=pfas, k_values=(1,))

    # A fractional or boolean vote threshold is refused, not truncated.
    @pytest.mark.parametrize("ks", [(), (0, 1), (1.5,), (1, 2.0), (True,), (1, False), ("2",)])
    def test_bad_k_grid(self, ks):
        with pytest.raises(ValueError):
            DesignGrid(pfa_values=(0.5,), k_values=ks)

    @pytest.mark.parametrize("convert", [list, np.array])
    def test_any_sequence_is_kept_as_a_tuple(self, params, convert):
        # A list grid must reach the design-table cache as a hashable
        # key, and numpy integers are vote thresholds.
        given = DesignGrid(convert([0.1, 0.5]), convert([1, 2]))
        assert given == DesignGrid((0.1, 0.5), (1, 2))
        sus = make_users(3, 4)
        got = joint_optimize(sus, params, given)
        want = joint_optimize(sus, params, DesignGrid((0.1, 0.5), (1, 2)))
        assert got.best_design == want.best_design
        assert got.best_allocation == want.best_allocation


class TestJointOptimize:
    def test_single_grid_point_equals_inner_solver(self, params):
        sus = make_users(1, 4)
        grid = DesignGrid(pfa_values=(0.3,), k_values=(2,))
        outcome = joint_optimize(sus, params, grid)
        direct = select_and_allocate(sus, SensingDesign(0.3, 2), params)
        assert outcome.best_allocation == direct
        assert outcome.best_design == SensingDesign(0.3, 2)

    def test_unreachable_floor_all_infeasible(self):
        params = default_system_params(zeta=0.999999, gamma_db=-15.0)
        sus = make_users(2, 3)
        outcome = joint_optimize(sus, params, DesignGrid.uniform(3))
        assert not outcome.feasible
        assert outcome.best_design is None
        assert outcome.fc_utility == 0.0

    def test_surface_collection(self, params):
        sus = make_users(3, 3)
        grid = DesignGrid(pfa_values=(0.1, 0.5), k_values=(1, 2))
        outcome = joint_optimize(sus, params, grid)
        _, surface = reference_joint_optimize(sus, params, grid, keep_surface=True)
        assert set(surface) == {(0.1, 1), (0.5, 1), (0.1, 2), (0.5, 2)}
        feasible_values = [v for v in surface.values() if v is not None]
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
                joint_optimize(sus, params, grid).fc_utility
            )
        assert all(a >= b - 1e-12 for a, b in zip(utilities, utilities[1:]))

    def test_tie_break_prefers_small_pfa_then_small_k(self, params):
        # Abundant time: every feasible design clears every buffer, so the
        # utility surface is flat and the tie-break decides.
        sus = make_users(4, 4, buffer_bits=5)
        outcome = joint_optimize(sus, params, DesignGrid.uniform(4))
        surface_best = outcome.best_design
        grid = DesignGrid.uniform(4)
        candidates = []
        for k in grid.k_values:
            for pfa in grid.pfa_values:
                alloc = select_and_allocate(sus, SensingDesign(pfa, k), params)
                if alloc.feasible and alloc.fc_utility == pytest.approx(
                    outcome.fc_utility, rel=1e-12
                ):
                    candidates.append((pfa, k))
        assert (surface_best.pfa_local, surface_best.k_threshold) == min(candidates)


def _mixed_instance(seed, m, kind):
    # "identical": shared prices and backlog; "heterogeneous": random
    # prices and backlogs; "zero_buffers": a third of the users have
    # nothing to send; "reversed_ids": ids run against the list order.
    rng = np.random.default_rng(seed)
    params = default_system_params(zeta=float(rng.choice([0.6, 0.7, 0.8, 0.9])))
    ids = list(range(m))[::-1] if kind == "reversed_ids" else list(range(m))
    sus = []
    for i in range(m):
        buffer_bits, pay, earn = 1000, 0.1, 10.0
        if kind == "heterogeneous":
            buffer_bits = int(rng.integers(0, 20000))
            pay = float(rng.uniform(0.0, 0.3))
            earn = float(rng.uniform(0.05, 12.0))
        elif kind == "zero_buffers" and i % 3 == 0:
            buffer_bits = 0
        sus.append(
            SecondaryUser(
                id=ids[i],
                gain_to_fc=float(rng.exponential(1.0)),
                buffer_bits=buffer_bits,
                pay_rate=pay,
                earn_rate=earn,
            )
        )
    return params, sus


def _assert_same_outcome(got, want):
    assert got.best_design == want.best_design
    a, b = got.best_allocation, want.best_allocation
    assert a.active == b.active
    assert a.times == b.times
    assert a.su_utilities == b.su_utilities
    assert a.fc_utility == b.fc_utility
    assert a.case == b.case
    assert a.feasible == b.feasible


KINDS = ("identical", "heterogeneous", "zero_buffers", "reversed_ids")


def _small_buffer_users(seed):
    # Five users whose backlogs sit near what a frame clears: the reduced
    # set is every user at most designs, so many designs share sum_R a_i
    # B_i, and R is in abundant time at some of them and not at others.
    rng = np.random.default_rng(seed + 1000)
    return [
        SecondaryUser(
            id=i,
            gain_to_fc=float(rng.exponential(1.0)),
            buffer_bits=int(rng.integers(20, 120)),
            pay_rate=float(rng.uniform(0.05, 0.3)),
            earn_rate=10.0,
        )
        for i in range(5)
    ]


def _record_visits(monkeypatch) -> tuple:
    # Every design joint_optimize sends through the walk entry, in order:
    # those the screen left unsettled (walked) and the settled ones (only
    # a settled winner, for its allocation).
    walked, settled = [], []
    walk = optimizer._allocate

    def recording(table, screen, row):
        # ``row`` is a flat (instance, design) row: a settled winner is
        # placed from the stacked screen, a walked design from its
        # instance's own screen, where the row is the design's.
        design = screen.designs.design(row % len(screen.designs.k))
        (walked if np.isnan(screen.settled.item(row)) else settled).append(design)
        return walk(table, screen, row)

    monkeypatch.setattr(optimizer, "_allocate", recording)
    return walked, settled


class TestPrunedGridSearch:
    """The grid search skips designs whose utility bound falls below the
    incumbent; it must equal the plain per-point loop exactly."""

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize(
        "m,seed", [(0, 0), (1, 1), (1, 2)] + [(5, s) for s in range(4)]
        + [(20, 10), (20, 11), (40, 12)],
    )
    def test_matches_per_point_loop(self, m, seed, kind):
        params, sus = _mixed_instance(seed * 31 + m, m, kind)
        grid = DesignGrid.uniform(max(m, 1))
        _assert_same_outcome(
            joint_optimize(sus, params, grid),
            reference_joint_optimize(sus, params, grid),
        )

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_with_zero_rate_designs(self, seed, kind):
        # At pfa 0.99 every effective rate is 0 from a few users on.
        params, sus = _mixed_instance(seed + 500, 9, kind)
        grid = DesignGrid(pfa_values=(0.05, 0.5, 0.99), k_values=tuple(range(1, 10)))
        _assert_same_outcome(
            joint_optimize(sus, params, grid),
            reference_joint_optimize(sus, params, grid),
        )

    @pytest.mark.parametrize("k_values", [(1, 2, 3, 4), (4, 3, 2, 1)])
    def test_flat_surface_tie_break(self, monkeypatch, params, k_values):
        # Users who pay nothing make every feasible design worth exactly 0,
        # so the bound never falls below the incumbent and the (pfa, k)
        # tie-break decides, also when the grid visits k downwards. No
        # design is in abundant time, so every feasible one is walked, and
        # the tied bounds keep grid order.
        sus = [
            SecondaryUser(
                id=i, gain_to_fc=g, buffer_bits=800, pay_rate=0.0, earn_rate=5.0
            )
            for i, g in enumerate((0.4, 1.3, 0.9, 2.2))
        ]
        grid = DesignGrid(pfa_values=DesignGrid.uniform(4).pfa_values, k_values=k_values)
        feasible = [
            (pfa, k)
            for (pfa, k), u in reference_joint_optimize(
                sus, params, grid, keep_surface=True
            )[1].items()
            if u is not None
        ]
        assert len(feasible) > 1
        visited, allocated = _record_visits(monkeypatch)
        got = joint_optimize(sus, params, grid)
        assert [(d.pfa_local, d.k_threshold) for d in visited] == feasible
        assert allocated == []
        _assert_same_outcome(got, reference_joint_optimize(sus, params, grid))
        assert got.feasible and got.fc_utility == 0.0
        design = got.best_design
        assert (design.pfa_local, design.k_threshold) == min(feasible)

    # Seeds whose bound lands below the utility on this build.
    @pytest.mark.parametrize("seed", [6, 12, 15, 51, 79, 82])
    def test_abundant_time_tie_break_with_unequal_sums(self, seed):
        # Small buffers: every design serves its whole reduced set at the
        # upper bounds, so all designs tie at sum(a_i B_i). The bound sums
        # the same products in another order and can land an ulp below
        # the utility; the slack must keep such a design in the search
        # (the grid visits k downwards, so later designs win ties).
        params = default_system_params()
        rng = np.random.default_rng(seed + 70)
        sus = [
            SecondaryUser(
                id=i,
                gain_to_fc=float(rng.exponential(1.0)),
                buffer_bits=int(rng.integers(1, 12)),
                pay_rate=float(rng.uniform(0.01, 0.3)),
                earn_rate=float(rng.uniform(500.0, 900.0)),
            )
            for i in range(5)
        ]
        grid = DesignGrid(pfa_values=(0.1, 0.3, 0.5, 0.7), k_values=(5, 4, 3, 2, 1))
        _assert_same_outcome(
            joint_optimize(sus, params, grid),
            reference_joint_optimize(sus, params, grid),
        )

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("seed", range(5))
    def test_same_outcome_with_surface(self, seed, kind):
        # The reference searches every design; the pruned search must
        # pick the same result.
        params, sus = _mixed_instance(seed + 300, 8, kind)
        grid = DesignGrid.uniform(8)
        full, surface = reference_joint_optimize(sus, params, grid, keep_surface=True)
        _assert_same_outcome(joint_optimize(sus, params, grid), full)
        assert len(surface) == len(grid.pfa_values) * len(grid.k_values)

    @pytest.mark.parametrize("m", [1, 3, 6])
    def test_vote_threshold_above_user_count_is_infeasible(self, params, m):
        sus = make_users(m + 20, m)
        pfas = DesignGrid.uniform(m).pfa_values
        wide = DesignGrid(pfa_values=pfas, k_values=tuple(range(1, m + 3)))
        narrow = DesignGrid(pfa_values=pfas, k_values=tuple(range(1, m + 1)))
        _assert_same_outcome(
            joint_optimize(sus, params, wide),
            joint_optimize(sus, params, narrow),
        )
        surface = reference_joint_optimize(sus, params, wide, keep_surface=True)[1]
        assert all(
            surface[(pfa, k)] is None
            for pfa in pfas
            for k in (m + 1, m + 2)
        )

    # Seeds where the design with the highest bound is not the winner.
    @pytest.mark.parametrize("seed", [29, 156])
    def test_best_first_search_goes_past_its_first_design(self, monkeypatch, seed):
        # Thin margins make the break-even grants large. The highest bound
        # belongs to a design that must serve every user; their
        # break-even grants take budget from the best payer, which the
        # bound does not count, and a design serving fewer users wins.
        rng = np.random.default_rng(seed)
        m = int(rng.integers(3, 9))
        params = default_system_params(zeta=float(rng.choice([0.6, 0.7, 0.9])))
        sus = [
            SecondaryUser(
                id=i,
                gain_to_fc=float(rng.exponential(1.0)),
                buffer_bits=int(rng.integers(100, 50000)),
                pay_rate=0.1,
                earn_rate=0.1 + float(rng.uniform(0.0005, 0.05)),
            )
            for i in range(m)
        ]
        grid = DesignGrid.uniform(m)
        visited, allocated = _record_visits(monkeypatch)
        got = joint_optimize(sus, params, grid)
        assert got.feasible and visited[0] != got.best_design
        assert got.best_design in visited
        assert allocated == []
        _assert_same_outcome(got, reference_joint_optimize(sus, params, grid))

    def test_flat_abundant_surface_settles_every_tie(
        self, monkeypatch, params
    ):
        # Identical users with tiny backlogs: every feasible design clears
        # every buffer, so every utility and every bound tie. The screen
        # settles every design in abundant time, so none is walked, and
        # the tie-break still picks the smallest pfa, then the smallest k
        # (the grid lists k downwards).
        sus = [
            SecondaryUser(
                id=i, gain_to_fc=1.0, buffer_bits=5, pay_rate=0.1, earn_rate=10.0
            )
            for i in range(5)
        ]
        grid = DesignGrid(pfa_values=(0.1, 0.2, 0.3, 0.4), k_values=(5, 4, 3, 2, 1))
        surface = reference_joint_optimize(sus, params, grid, keep_surface=True)[1]
        feasible = [key for key, u in surface.items() if u is not None]
        assert len(feasible) > 1
        assert len({surface[key] for key in feasible}) == 1
        visited, allocated = _record_visits(monkeypatch)
        got = joint_optimize(sus, params, grid)
        assert visited == []
        assert allocated == [got.best_design]
        assert (got.best_design.pfa_local, got.best_design.k_threshold) == min(feasible)
        _assert_same_outcome(got, reference_joint_optimize(sus, params, grid))

    @pytest.mark.parametrize("seed", range(3))
    def test_designs_tied_with_the_settled_winner_are_not_walked(
        self, monkeypatch, params, seed
    ):
        # Unsettled designs share the settled winner's reduced set, so
        # the reference bound sum_R a_i B_i alone reaches the winner's
        # utility; none of them can earn it, and none is walked.
        sus = _small_buffer_users(seed)
        grid = DesignGrid.uniform(5)
        weights = grid_table(params, grid)
        table, screen = _screened(sus, params, weights)
        settled = screen.settled
        best = np.nanmax(settled)
        tied = [
            design
            for d, design in enumerate(map(weights.design, range(len(weights.k))))
            if np.isnan(settled[d])
            and screen.start(d) is not None
            and reference_utility_bound(table, design) * (1.0 + BOUND_SLACK) >= best
        ]
        assert tied
        visited, allocated = _record_visits(monkeypatch)
        got = joint_optimize(sus, params, grid)
        assert visited == []
        assert allocated == [got.best_design]
        assert got.fc_utility == best
        _assert_same_outcome(got, reference_joint_optimize(sus, params, grid))

    def test_episode_matches_reference_search(self, params):
        # Thirty frames with batches every few frames: the weights shared
        # across frames must give every frame the reference's decision on
        # its users, whose gains a twin stream factory replays.
        traffic = TrafficModel(scale=0.002)
        profiles = [UserProfile()] * 5
        traces = run_episode(30, params, traffic, rng_seed=5, profiles=profiles)[1]
        twin = StreamFactory(5, trial=0)
        grid = DesignGrid.uniform(5)
        checked = 0
        for trace in traces:
            if not any(trace.buffers_at_start):
                assert trace.allocation is None
                continue
            gains = _exponential_gains(
                [p.gain_mean for p in profiles],
                [twin.stream("gain", i).random() for i in range(len(profiles))],
            )
            sus = [
                SecondaryUser(
                    id=i,
                    gain_to_fc=gain,
                    buffer_bits=bits,
                    pay_rate=p.pay_rate,
                    earn_rate=p.earn_rate,
                )
                for i, (p, gain, bits) in enumerate(
                    zip(profiles, gains, trace.buffers_at_start)
                )
            ]
            want = reference_joint_optimize(sus, params, grid)
            assert trace.allocation == want.best_allocation
            design = want.best_design
            if design is None:
                assert trace.chosen_pfa is None and trace.chosen_k is None
            else:
                assert (trace.chosen_pfa, trace.chosen_k) == (design.pfa_local, design.k_threshold)
            checked += 1
        assert checked > 5


def _same_bytes(got, want) -> bool:
    # Columns equal bit for bit (nan, inf and the sign of 0 included).
    return all(a.tobytes() == b.tobytes() for a, b in zip(got, want, strict=True))


class TestWalkPricing:
    """A walked design is priced once per walk, at every size from its
    l_lb to |R| (``allocator._Levels``), and each size's row is
    :meth:`UserTable.price` at that size's weights, bit for bit."""

    # The effective rates vanish from a few users on at pfa 0.99, and
    # from 5 users on at 0.9999.
    PFAS = (0.05, 0.3, 0.6, 0.99, 0.9999)

    @pytest.mark.parametrize("m", [5, 20, 40])
    def test_every_row_is_the_per_size_pricing(self, m):
        # A third of the users have empty buffers (0/0 upper bounds at a
        # zero rate).
        params, sus = _mixed_instance(m + 900, m, "zero_buffers")
        designs = grid_table(params, DesignGrid(self.PFAS, tuple(range(1, m + 1))))
        table = user_table(sus, params)
        zero_rates = 0
        for d in range(len(designs.k)):
            k = int(designs.k[d])
            levels = allocator._Levels(table, designs, d, k, m)
            for size in range(k, m + 1):
                want = table.price(*designs.weights((d,), size)[0].tolist())
                assert _same_bytes(levels.at(size), want), (d, size)
                zero_rates += int((want[0] == 0.0).any())
        assert zero_rates

    @pytest.mark.parametrize("m", [5, 20, 40])
    def test_each_walk_prices_its_design_once(self, monkeypatch, m):
        # Instances whose one walk runs over several sizes.
        params, sus = _mixed_instance(941, m, "zero_buffers")
        grid = DesignGrid(self.PFAS, tuple(range(1, m + 1)))
        walks, priced = [], []
        select, price = allocator._select, UserTable.price

        def counting(self, q0, q1):
            priced.append(np.shape(q0))
            return price(self, q0, q1)

        def recording(table, designs, d, reduced, l_lb):
            priced.clear()
            got = select(table, designs, d, reduced, l_lb)
            walks.append((d, len(reduced) - l_lb + 1, list(priced)))
            return got

        monkeypatch.setattr(UserTable, "price", counting)
        monkeypatch.setattr(allocator, "_select", recording)
        got = joint_optimize(sus, params, grid)
        monkeypatch.undo()
        assert walks
        assert len({d for d, _, _ in walks}) == len(walks)
        # One pricing per walk: one row per size from l_lb to |R|.
        assert all(calls == [(sizes, 1)] for _, sizes, calls in walks)
        assert any(sizes > 1 for _, sizes, _ in walks)
        _assert_same_outcome(got, reference_joint_optimize(sus, params, grid))


def _thin_margin_users(seed, m):
    # Thin margins and large backlogs: the break-even grants take most of
    # the budget, the screen settles few designs, and the search walks.
    rng = np.random.default_rng(seed)
    return [
        SecondaryUser(
            id=i,
            gain_to_fc=float(rng.exponential(1.0)),
            buffer_bits=int(rng.integers(100, 50000)),
            pay_rate=0.1,
            earn_rate=0.1 + float(rng.uniform(0.0005, 0.05)),
        )
        for i in range(m)
    ]


def _optimize_batch(instances, params, grid) -> list:
    # optimize_table of the instances of each user count in one stacked
    # table, as one outcome per instance, in order.
    designs = grid_table(params, grid)
    by_count: dict = {}
    for i, sus in enumerate(instances):
        by_count.setdefault(len(sus), []).append(i)
    got: list = [None] * len(instances)
    for group in by_count.values():
        table = UserTable.stack([instances[i] for i in group], params)
        for i, (d, alloc) in zip(group, optimizer.optimize_table(table, designs)):
            got[i] = OptimizationOutcome(None if d is None else designs.design(d), alloc, 0.0)
    return got


class TestOptimizeTableBatch:
    """optimize_table of a stacked table gives every instance what
    joint_optimize gives it alone, bit for bit, whatever else the table
    holds and however the element cap splits it."""

    @staticmethod
    def _batch():
        never_profitable = make_users(40, 5, pay_rate=1.0, earn_rate=0.5)
        repeated = [replace(su, id=su.id % 2) for su in make_users(41, 5)]
        return [
            [],
            make_users(42, 1),
            _small_buffer_users(0),
            _thin_margin_users(29, 5),
            never_profitable,
            repeated,
            [],
            make_users(43, 1, buffer_bits=0),
            *(_mixed_instance(44 + j, 40, kind)[1] for j, kind in enumerate(KINDS)),
            _thin_margin_users(156, 5),
            _small_buffer_users(1),
            make_users(48, 5, buffer_bits=0),
        ]

    @staticmethod
    def _assert_each_alone(instances, params, grid, got):
        assert len(got) == len(instances)
        for sus, outcome in zip(instances, got):
            alone = joint_optimize(sus, params, grid)
            assert outcome.best_design == alone.best_design
            assert outcome.best_allocation == alone.best_allocation
            assert len(outcome.best_allocation.active) == len(sus)

    def test_mixed_batch_equals_each_instance_alone(self, monkeypatch, params):
        instances = self._batch()
        grid = DesignGrid.uniform(40)
        visited, allocated = _record_visits(monkeypatch)
        got = _optimize_batch(instances, params, grid)
        # The batch both settles winners and walks designs, and holds
        # infeasible instances.
        assert visited and allocated
        assert not all(outcome.feasible for outcome in got)
        monkeypatch.undo()
        self._assert_each_alone(instances, params, grid, got)
        for sus, outcome in zip(instances, got):
            _assert_same_outcome(outcome, reference_joint_optimize(sus, params, grid))

    def test_element_cap_splits_the_batch(self, monkeypatch, params):
        # At M = 40 on the 360-design grid an instance screens 14,400
        # elements, so the cap takes two per pass; a cap of one element
        # screens every instance alone.
        instances = self._batch()
        grid = DesignGrid.uniform(40)
        passes = []
        screen = UserTable.screen

        def counting(table, designs):
            passes.append(table.r0.shape[:1] + table.r0.shape[2:])
            return screen(table, designs)

        monkeypatch.setattr(UserTable, "screen", counting)
        got = _optimize_batch(instances, params, grid)
        assert optimizer._SCREEN_CHUNK // (360 * 40) == 2
        assert sorted(n for n, m in passes if m == 40) == [2, 2]
        passes.clear()
        monkeypatch.setattr(optimizer, "_SCREEN_CHUNK", 1)
        alone = _optimize_batch(instances, params, grid)
        assert len(passes) == len(instances)
        assert {n for n, _ in passes} == {1}
        monkeypatch.setattr(UserTable, "screen", screen)
        self._assert_each_alone(instances, params, grid, got)
        self._assert_each_alone(instances, params, grid, alone)

    @pytest.mark.parametrize("seed", range(4))
    def test_shuffled_batches_agree(self, params, seed):
        # The same instances in another order and another company.
        rng = np.random.default_rng(seed)
        pool = [_mixed_instance(seed * 10 + j, 5, KINDS[j % 4])[1] for j in range(12)]
        pool += [_thin_margin_users(int(s), 5) for s in rng.integers(0, 200, 4)]
        grid = DesignGrid.uniform(5)
        whole = _optimize_batch(pool, params, grid)
        order = rng.permutation(len(pool))
        half = order[: len(pool) // 2]
        part = _optimize_batch([pool[i] for i in half], params, grid)
        for i, outcome in zip(half.tolist(), part):
            assert outcome.best_design == whole[i].best_design
            assert outcome.best_allocation == whole[i].best_allocation
        self._assert_each_alone(pool, params, grid, whole)

    @staticmethod
    def _kinds(m):
        # Every instance kind at M users, each also with its backlogs cut
        # 200-fold (which settles rows), and never-profitable users.
        batch = [_mixed_instance(m * 10 + j, m, kind)[1] for j, kind in enumerate(KINDS)]
        batch += [[replace(su, buffer_bits=su.buffer_bits // 200) for su in sus] for sus in batch]
        return batch + [make_users(m + 60, m, pay_rate=1.0, earn_rate=0.5)]

    @pytest.mark.parametrize("m", [1, 5, 9, 12, 20, 40])
    def test_settled_rows_placed_from_the_stack(self, params, m):
        # A settled row placed by its flat row on the stacked table and
        # screen, as the search places a settled winner, is the
        # allocation _allocate gives on its instance's own table and
        # screen, which is the walk's.
        batch = self._kinds(m)
        designs = grid_table(params, DesignGrid.uniform(m))
        table = UserTable.stack(batch, params)
        screen = table.screen(designs)
        width = len(designs.k)
        placed = 0
        for n in range(len(batch)):
            own, alone = table.instance(n), screen.instance(n)
            _assert_settled_as_walked(own, alone)
            for d in np.flatnonzero(~np.isnan(alone.settled)).tolist():
                got = _allocate(table, screen, n * width + d)
                want = _allocate(own, alone, d)
                assert got == want and got.times == want.times
                assert got.su_utilities == want.su_utilities
                placed += 1
        assert placed

    @pytest.mark.parametrize("m", [1, 5, 40])
    def test_designs_without_l_first_are_infeasible(self, params, m):
        # Designs with no l_first <= M (k above M, or a floor no size up to
        # M meets) are not priced; every instance reads them as
        # infeasible.
        grid = DesignGrid(DesignGrid.uniform(max(m, 2)).pfa_values, tuple(range(1, m + 3)))
        designs = grid_table(params, grid)
        dead = np.flatnonzero(designs.at_users(m)[0] > m)
        assert (designs.k[dead] <= m).any() and (designs.k[dead] > m).any()
        batch = self._kinds(m)
        screen = UserTable.stack(batch, params).screen(designs)
        assert (screen.bounds[:, dead] == -np.inf).all()
        assert np.isnan(screen.settled[:, dead]).all()
        assert not screen.feasible[:, dead].any() and not screen.reduced[:, dead].any()
        for n in range(len(batch)):
            alone = screen.instance(n)
            assert all(alone.start(d) is None for d in dead.tolist())

    def test_empty_batch(self, params):
        designs = grid_table(params, DesignGrid.uniform(3))
        assert optimizer.optimize_table(UserTable.stack([], params), designs) == []


def _screened(sus, params, weights) -> tuple:
    # One instance's table and screen as the search walks them: instance
    # 0 of a stacked table of it alone.
    stacked = UserTable.stack([sus], params)
    return stacked.instance(0), stacked.screen(weights).instance(0)


def _caps(sus, params, weights, rows):
    # The shortfall cap of each design row ``rows`` of the instance's
    # screen, as the screen priced it.
    return UserTable.stack([sus], params).screen(weights).caps[0][rows]


def _assert_settled_as_walked(table, screen):
    # A design is settled exactly when the walk starts on a Case-1 reduced
    # set, at the walk's utility, bit for bit; and _allocate places a
    # settled row, from the screen's pricing at |R|, exactly as the walk's
    # scoring of R would.
    settled = screen.settled
    for d in range(len(screen.designs.k)):
        screened = screen.start(d)
        if screened is None:
            assert np.isnan(settled[d])
            continue
        ev = table.evaluate(screen.designs, d, screened[0])
        assert (not np.isnan(settled[d])) == (ev.case is CaseLabel.CASE1)
        if ev.case is CaseLabel.CASE1:
            assert float(settled[d]) == _score(table, ev)[0]
            got = _allocate(table, screen, d)
            want = _result(table, _score(table, ev), table.r0.shape[-1], ev.idx)
            assert got.times == want.times
            assert got.su_utilities == want.su_utilities
            assert got.fc_utility == want.fc_utility
            assert type(got.fc_utility) is float
            assert got.case is want.case is CaseLabel.CASE1
            assert got == want


def _budget_edge(params, size, total, above):
    # ``params`` with the frame length moved so that the budget check
    # T'(size) + TIME_TOL is the smallest value >= ``total`` (``above``),
    # or the largest value below it.
    def check(frame):
        return effective_time(replace(params, frame_duration=frame), size) + TIME_TOL

    frame = total - check(params.frame_duration) + params.frame_duration
    while check(frame) < total:
        frame = np.nextafter(frame, np.inf)
    while check(np.nextafter(frame, -np.inf)) >= total:
        frame = np.nextafter(frame, -np.inf)
    if not above:
        frame = np.nextafter(frame, -np.inf)
    return replace(params, frame_duration=float(frame))


def _sparse_grid(m):
    # Every pfa level up to 0.99 (where the effective rates vanish), few k.
    return DesignGrid(
        pfa_values=(0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99),
        k_values=tuple(sorted({k for k in (1, 2, 3, m // 2, m) if k >= 1})),
    )


class TestBatchedScreen:
    """Every design's reduced set, minimum viable size and feasibility
    from the batched screen equal the per-design reference screen, and
    its bound covers the utility the search finds there."""

    @staticmethod
    def _check(sus, params, grid):
        # Also returns the number of unsettled designs whose shortfall cap
        # lies below the reference bound (the cap binds there).
        m = len(sus)
        weights = grid_table(params, grid)
        table, screen = _screened(sus, params, weights)
        bounds, settled = screen.bounds, screen.settled
        # The cap of every feasible design the screen leaves unsettled,
        # not only of those it caps (the ones that reach the best
        # settled utility).
        unsettled = np.flatnonzero((bounds > -np.inf) & np.isnan(settled))
        caps = dict(zip(unsettled.tolist(), _caps(sus, params, weights, unsettled).tolist()))
        _assert_settled_as_walked(table, screen)
        binding = 0
        assert len(weights.k) == len(grid.k_values) * len(grid.pfa_values)
        rows = iter(range(len(weights.k)))  # grid order: k as listed, then pfa
        for k in grid.k_values:
            for pfa in grid.pfa_values:
                design = SensingDesign(pfa, k)
                want = reference_screen(table, design)
                d = next(rows)
                assert weights.design(d) == design
                assert screen.start(d) == want
                if k > m:
                    assert want is None and bounds[d] == -np.inf
                    continue
                bound = float(bounds[d])
                assert (bound == -np.inf) == (want is None)
                if want is not None:
                    assert bound <= reference_utility_bound(table, design) * (
                        1.0 + 1e-12
                    )
                alloc = select_and_allocate(sus, design, params)
                if want is None:
                    assert not alloc.feasible
                elif alloc.feasible:
                    assert alloc.fc_utility <= bound * (1.0 + BOUND_SLACK)
                if d in caps:
                    binding += caps[d] < reference_utility_bound(table, design)
                    if alloc.feasible:
                        assert alloc.fc_utility <= caps[d] * (1.0 + BOUND_SLACK)
        return binding

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("m", [0, 1, 2, 3, 5, 8, 9, 12, 13, 20, 21, 40])
    def test_matches_reference_screen(self, m, kind):
        params, sus = _mixed_instance(m + 700, m, kind)
        grid = DesignGrid(
            pfa_values=(0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99),
            k_values=tuple(range(1, m + 3)),
        )
        self._check(sus, params, grid)

    @pytest.mark.parametrize("seed", range(4))
    def test_bound_taken_where_the_walk_ends(self, params, seed):
        # The walk ends below |R| here (see TestUtilityBound), where rates
        # and the budget are larger than at |R|.
        sus = [
            SecondaryUser(
                id=i, gain_to_fc=1.0 + 0.1 * seed, buffer_bits=50000,
                pay_rate=0.1, earn_rate=10.0,
            )
            for i in range(12)
        ]
        grid = DesignGrid(pfa_values=(0.1, 0.3, 0.5), k_values=(1, 2, 3, 4, 5))
        self._check(sus, params, grid)

    @pytest.mark.parametrize("seed", range(8))
    def test_shortfall_caps_small_buffer_designs(self, params, seed):
        # Many designs share sum_R a_i B_i; the cap binds at some of them.
        assert self._check(_small_buffer_users(seed), params, DesignGrid.uniform(5))

    @pytest.mark.parametrize("steps", [1, 3])
    @pytest.mark.parametrize("seed", range(4))
    def test_shortfall_just_past_the_budget(self, params, seed, steps):
        # The frame length puts the budget check T'(|R|) + TIME_TOL of an
        # unsettled design a few TIME_TOL below its members' clearing-time
        # sum, so the overflow e is at most that.
        sus = _small_buffer_users(seed)
        grid = DesignGrid.uniform(5)
        weights = grid_table(params, grid)
        table, screen = _screened(sus, params, weights)
        bounds, settled = screen.bounds, screen.settled
        d = int(np.flatnonzero((bounds > -np.inf) & np.isnan(settled))[0])
        design = weights.design(d)
        reduced = screen.start(d)[0]
        total = float(evaluate_at(table, design, reduced).uppers.sum())
        edge = _budget_edge(params, len(reduced), total - steps * TIME_TOL, above=True)
        weights = grid_table(edge, grid)
        table, screen = _screened(sus, edge, weights)
        assert np.isnan(screen.settled[d])
        excess = total - (table.budgets[len(reduced)] + TIME_TOL)
        assert 0.0 < excess <= steps * TIME_TOL
        self._check(sus, edge, grid)

    @pytest.mark.parametrize("bits", [7, 20])
    @pytest.mark.parametrize("pfa,k", [(0.1, 1), (0.5, 3)])
    def test_shortfall_when_the_fill_overruns_the_budget(self, bits, pfa, k):
        # Thin margins make the break-even grants nearly the clearing
        # times, and the frame length puts their sum at |R| in (T'(|R|),
        # T'(|R|) + TIME_TOL]: the Case-2 fill then grants the lower
        # bounds, TIME_TOL beyond T'. The cap must count that slack in e.
        params = default_system_params(zeta=0.6)
        earn = 0.1 + params.sensing_cost * 1.05 / bits
        sus = [
            SecondaryUser(
                id=i, gain_to_fc=1.0, buffer_bits=bits, pay_rate=0.1, earn_rate=earn
            )
            for i in range(5)
        ]
        design = SensingDesign(pfa, k)
        every = tuple(range(5))
        lowers = float(evaluate_at(user_table(sus, params), design, every).lowers.sum())
        edge = _budget_edge(params, 5, lowers, above=True)
        table, screen = _screened(sus, edge, grid_table(edge, DesignGrid((pfa,), (k,))))
        assert screen.start(0)[0] == every
        ev = evaluate_at(table, design, every)
        assert ev.case is CaseLabel.CASE2 and float(ev.lowers.sum()) > ev.t_prime
        self._check(sus, edge, DesignGrid((pfa,), (k,)))

    @pytest.mark.parametrize("bits", [10**4, 10**6, 10**9])
    def test_shortfall_with_a_dominant_member(self, params, bits):
        # One profitable user with a backlog far beyond a frame, the rest
        # never profitable: R is that user alone, the cut is nearly all of
        # sum_R a_i B_i, and the cap's difference cancels.
        sus = [
            SecondaryUser(
                id=0, gain_to_fc=1.0, buffer_bits=bits, pay_rate=0.1, earn_rate=10.0
            )
        ] + [
            SecondaryUser(
                id=i, gain_to_fc=1.0, buffer_bits=500, pay_rate=0.2, earn_rate=0.1
            )
            for i in range(1, 5)
        ]
        grid = DesignGrid(pfa_values=(0.3, 0.5, 0.7, 0.9), k_values=(1, 2))
        weights = grid_table(params, grid)
        _, screen = _screened(sus, params, weights)
        bounds, settled = screen.bounds, screen.settled
        rows = np.flatnonzero((bounds > -np.inf) & np.isnan(settled))
        assert rows.size
        assert all(screen.start(d)[0] == (0,) for d in rows)
        self._check(sus, params, grid)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("m", [1, 2, 5, 7, 8, 9, 12, 16, 20, 40, 200])
    def test_settles_exactly_the_abundant_designs(self, m, kind):
        params, sus = _mixed_instance(m + 800, m, kind)
        weights = grid_table(params, _sparse_grid(m))
        table, screen = _screened(sus, params, weights)
        bounds, settled = screen.bounds, screen.settled
        _assert_settled_as_walked(table, screen)
        # The instance screened third in a stack of every kind with
        # backlogs cut 200-fold, which settle rows up to M = 40 (with |R| <
        # M where buffers are empty or users never profitable): each
        # instance settles and places its rows as it does alone.
        batch = [
            [replace(su, buffer_bits=su.buffer_bits // 200) for su in other]
            for other in (_mixed_instance(m + 900 + j, m, k)[1] for j, k in enumerate(KINDS))
        ]
        batch.insert(2, sus)
        stacked = UserTable.stack(batch, params)
        mixed = stacked.screen(weights)
        assert m > 40 or not np.isnan(mixed.settled).all()
        for n in range(len(batch)):
            _assert_settled_as_walked(stacked.instance(n), mixed.instance(n))
        # Every unsettled design gets a finite cap, also where a member's
        # rate vanishes at |R| (pfa 0.99): e is then inf and its zero
        # priority must not make a nan or a warning.
        unsettled = np.flatnonzero((bounds > -np.inf) & np.isnan(settled))
        assert np.isfinite(_caps(sus, params, weights, unsettled)).all()

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("m", [1, 5, 7, 8, 9, 16, 40, 200])
    def test_settles_at_the_budget_edge(self, m, kind):
        # The frame length puts the budget check of one design's reduced
        # set R right at the members' upper-bound sum at |R|, just above
        # or just below: only the exact sum (members in order, weights at
        # |R|, TIME_TOL included) decides the case as the walk does.
        params, sus = _mixed_instance(m + 800, m, kind)
        grid = _sparse_grid(m)
        weights = grid_table(params, grid)
        table, screen = _screened(sus, params, weights)
        edges = {}
        for d, design in enumerate(map(weights.design, range(len(weights.k)))):
            screened = screen.start(d)
            if screened is not None:
                edges.setdefault(len(screened[0]), (d, design, screened[0]))
        assert edges or all(su.buffer_bits == 0 for su in sus)
        for d, design, reduced in edges.values():
            total = float(evaluate_at(table, design, reduced).uppers.sum())
            for above in (True, False):
                edge = _budget_edge(params, len(reduced), total, above)
                weights = grid_table(edge, grid)
                table, screen = _screened(sus, edge, weights)
                settled = screen.settled
                assert np.isnan(settled[d]) != above
                _assert_settled_as_walked(table, screen)

    def test_shared_weights_follow_every_key_field(self):
        # One process, calls interleaved so that each differs from the
        # last in exactly one of zeta, p_h0, the sensing SNR, the grid or M:
        # a weight table shared across a key field would serve a stale one.
        params, sus = _mixed_instance(41, 8, "heterogeneous")
        grid = DesignGrid.uniform(8)
        cases = [
            (sus, params, grid),
            (sus, replace(params, zeta=0.95), grid),
            (sus, replace(params, p_h0=0.4), grid),
            (sus, replace(params, gamma_db=params.gamma_db - 3.0), grid),
            (sus, params, DesignGrid(grid.pfa_values[1:], grid.k_values)),
            (sus[:6], params, grid),
        ]
        wants = [reference_joint_optimize(*case) for case in cases]
        base = (wants[0].best_design, wants[0].fc_utility)
        assert all((w.best_design, w.fc_utility) != base for w in wants[1:])
        for i in (0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 1, 2, 3, 4, 5):
            _assert_same_outcome(joint_optimize(*cases[i]), wants[i])


class TestUtilityBound:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("seed", range(6))
    def test_bound_covers_every_design(self, seed, kind):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 13))
        params, sus = _mixed_instance(seed + 900, m, kind)
        table = user_table(sus, params)
        grid = DesignGrid(
            pfa_values=(0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99),
            k_values=tuple(range(1, m + 2)),
        )
        for k in grid.k_values:
            for pfa in grid.pfa_values:
                design = SensingDesign(pfa, k)
                alloc = select_and_allocate(sus, design, params)
                bound = reference_utility_bound(table, design)
                if bound is None:
                    assert not alloc.feasible
                elif alloc.feasible:
                    assert alloc.fc_utility <= bound * (1.0 + BOUND_SLACK)

    @pytest.mark.parametrize("seed", range(4))
    def test_bound_holds_when_the_walk_shrinks_the_set(self, params, seed):
        # Identical users with large backlogs contest the budget at every
        # size, so the walk ends below the reduced set's size, where rates
        # and the budget are larger: the bound has to be taken at l_lb.
        sus = [
            SecondaryUser(
                id=i, gain_to_fc=1.0 + 0.1 * seed, buffer_bits=50000,
                pay_rate=0.1, earn_rate=10.0,
            )
            for i in range(12)
        ]
        table = user_table(sus, params)
        checked = 0
        for k in range(1, 6):
            for pfa in (0.1, 0.3, 0.5):
                design = SensingDesign(pfa, k)
                alloc = select_and_allocate(sus, design, params)
                if alloc.feasible:
                    checked += 1
                    assert alloc.n_selected < len(sus)
                    assert alloc.fc_utility <= reference_utility_bound(table, design) * (
                        1.0 + BOUND_SLACK
                    )
        assert checked > 0


def _tie_instance(seed):
    # M = 2..8 users. Even seeds get backlogs a frame clears at most
    # designs, so many designs tie on sum a_i B_i and the (pfa, k)
    # tie-break decides; odd seeds get larger, varied backlogs.
    rng = np.random.default_rng(seed + 500)
    m = 2 + seed % 7
    params = default_system_params(zeta=float(rng.choice([0.6, 0.7, 0.8, 0.9])))
    high = 60 if seed % 2 == 0 else 2000
    sus = [
        SecondaryUser(
            id=i,
            gain_to_fc=float(rng.exponential(1.0)),
            buffer_bits=int(rng.integers(10, high)),
            pay_rate=float(rng.uniform(0.05, 0.3)),
            earn_rate=10.0,
        )
        for i in range(m)
    ]
    return params, sus, rng


class TestTieBreakOrder:
    """A grid whose k values are shuffled and repeated picks what the
    sorted grid without repeats picks: every search breaks ties by
    (pfa, k), not by grid position."""

    PFAS = (0.1, 0.3, 0.5, 0.7, 0.9)

    @pytest.mark.parametrize("seed", range(20))
    def test_shuffled_repeated_k_grid(self, seed):
        params, sus, rng = _tie_instance(seed)
        m = len(sus)
        shuffled = [int(k) for k in rng.permutation(np.arange(1, m + 1))]
        messy = DesignGrid(self.PFAS, (*shuffled, 1, m))
        clean = DesignGrid(self.PFAS, tuple(range(1, m + 1)))
        batch = [sus, sus[::-1]]
        pairs = [
            (joint_optimize(sus, params, messy), joint_optimize(sus, params, clean)),
            *zip(
                _optimize_batch(batch, params, messy),
                _optimize_batch(batch, params, clean),
            ),
            (exhaustive_oracle(sus, params, messy), exhaustive_oracle(sus, params, clean)),
            (nonjoint_baseline(sus, params, messy), nonjoint_baseline(sus, params, clean)),
        ]
        for got, want in pairs:
            assert got.best_design == want.best_design
            assert got.best_allocation == want.best_allocation


class TestExhaustiveOracle:
    def test_user_cap(self, params):
        sus = make_users(5, 13)
        with pytest.raises(ValueError, match="capped"):
            exhaustive_oracle(sus, params, DesignGrid.uniform(13))

    def test_single_user_reduces_to_grid_scan(self, params):
        sus = make_users(6, 1, buffer_bits=500)
        grid = DesignGrid.uniform(1)
        oracle = exhaustive_oracle(sus, params, grid)
        joint = joint_optimize(sus, params, grid)
        assert oracle.fc_utility == pytest.approx(joint.fc_utility, rel=1e-12)

    @pytest.mark.parametrize("seed", range(25))
    def test_dominates_joint_everywhere(self, seed):
        # Heterogeneous costs allowed: the oracle scans a superset.
        params, sus = _heterogeneous_instance(seed)
        grid = DesignGrid.uniform(5)
        oracle = exhaustive_oracle(sus, params, grid)
        joint = joint_optimize(sus, params, grid)
        assert oracle.fc_utility >= joint.fc_utility - 1e-9 * max(oracle.fc_utility, 1.0)

    @pytest.mark.parametrize("seed", range(30))
    def test_identical_cost_exactness(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.choice([3, 5, 7]))
        params = default_system_params(zeta=float(rng.choice([0.6, 0.7, 0.8, 0.9])))
        sus = make_users(seed + 40, m, buffer_bits=1000)
        grid = DesignGrid.uniform(m)
        oracle = exhaustive_oracle(sus, params, grid)
        joint = joint_optimize(sus, params, grid)
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
        grid = DesignGrid(pfa_values=(0.5, 0.99), k_values=tuple(range(1, 10)))
        sus = make_users(seed, 9)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            oracle = exhaustive_oracle(sus, params, grid)
            joint = joint_optimize(sus, params, grid)
        assert oracle.feasible
        assert oracle.fc_utility == pytest.approx(joint.fc_utility, rel=1e-9)
        assert oracle.best_design == joint.best_design

    def test_repeated_ids_placed_by_position(self, params):
        # Two users share id 3; the second is unprofitable and never a
        # candidate. The time must go to the first, as the joint search
        # and the baseline place it.
        sus = [
            SecondaryUser(id=3, gain_to_fc=2.0, buffer_bits=800, pay_rate=0.1, earn_rate=8.0),
            SecondaryUser(id=3, gain_to_fc=1.0, buffer_bits=500, pay_rate=0.5, earn_rate=0.4),
            SecondaryUser(id=5, gain_to_fc=1.0, buffer_bits=1000, pay_rate=0.1, earn_rate=10.0),
        ]
        grid = DesignGrid.uniform(3)
        oracle = exhaustive_oracle(sus, params, grid)
        joint = joint_optimize(sus, params, grid)
        baseline = nonjoint_baseline(sus, params, grid)
        assert oracle.best_allocation.active == (True, False, True)
        assert joint.best_allocation.active == (True, False, True)
        assert oracle.best_allocation.times[1] == 0.0
        assert oracle.fc_utility == pytest.approx(joint.fc_utility, rel=1e-12)
        assert baseline.best_allocation.active == (True, False, True)
        assert baseline.best_allocation.times[1] == 0.0

    def test_memory_stays_flat_at_twelve_users(self, params):
        # The chunk cap bounds the working arrays, so the peak does not
        # grow with the C(12, 6) = 924 subsets of the largest size.
        sus = make_users(4, 12, buffer_bits=20000)
        grid = DesignGrid.uniform(12)
        exhaustive_oracle(sus, params, grid)  # fills the shared caches
        tracemalloc.start()
        try:
            exhaustive_oracle(sus, params, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


class TestEdgeRegimes:
    """Empty buffers and hundreds of users, with warnings as errors."""

    @pytest.mark.parametrize("m", [1, 5, 9])
    def test_all_zero_buffers_are_infeasible(self, params, m):
        sus = make_users(m, m, buffer_bits=0)
        grid = DesignGrid.uniform(m)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            joint = joint_optimize(sus, params, grid)
            oracle = exhaustive_oracle(sus, params, grid)
            nj = nonjoint_baseline(sus, params, grid)
        assert not joint.feasible and not oracle.feasible and not nj.feasible
        assert joint.fc_utility == oracle.fc_utility == nj.fc_utility == 0.0

    @pytest.mark.parametrize("seed", range(3))
    def test_two_hundred_users_match_reference(self, params, seed):
        sus = make_users(seed, 200)
        grid = DesignGrid((0.25, 0.5, 0.75), (1, 2, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = joint_optimize(sus, params, grid)
            want = reference_joint_optimize(sus, params, grid)
        assert got.feasible
        assert got.best_design == want.best_design
        assert got.best_allocation == want.best_allocation


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
    got = exhaustive_oracle(sus, params, grid)
    want = scalar_exhaustive_oracle(sus, params, grid)
    assert got.best_design == want.best_design
    assert got.best_allocation.active == want.best_allocation.active
    assert got.best_allocation.times == want.best_allocation.times
    assert got.best_allocation.su_utilities == want.best_allocation.su_utilities
    assert got.fc_utility == want.fc_utility
    assert got.feasible == want.feasible
    return got


def _chunk_step(params, grid, m, size):
    # How many subsets of ``size`` the oracle scores per chunk.
    rows = grid_table(params, grid).admissible(size)[0]
    return max(1, optimizer._ORACLE_CHUNK // (m * len(rows)))


def _chunks(params, grid, m, size):
    # How many chunks the oracle scores the subsets of ``size`` in.
    return -(-math.comb(m, size) // _chunk_step(params, grid, m, size))


class TestOracleMatchesScalarReference:
    """The batched oracle reproduces the one-pair-at-a-time scalar
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

    @pytest.mark.parametrize(
        "m,seed,buffer_bits,earn_rate",
        [
            (10, 0, 20000, 10.0),
            (10, 1, 1000, 10.0),
            (11, 2, 20000, 10.0),
            (11, 3, 20000, 0.1001),
        ],
    )
    def test_sizes_spanning_several_chunks(self, m, seed, buffer_bits, earn_rate):
        # Every size from 3 up has more subsets than one chunk holds, so
        # the winner is compared across chunk boundaries.
        params = default_system_params(zeta=0.6)
        grid = DesignGrid((0.1, 0.5), (1, 2, 3))
        assert _chunks(params, grid, m, m // 2) > 1
        sus = make_users(seed * 31 + m, m, buffer_bits=buffer_bits, earn_rate=earn_rate)
        got = _assert_same_as_scalar_oracle(sus, params, grid)
        assert got.feasible

    @pytest.mark.parametrize("offset", [-1, 0])
    def test_winner_at_a_chunk_boundary(self, offset):
        # Five users clear small buffers; the rest have crossed bounds, so
        # only subsets of the five are feasible and all five together
        # win. Their subset is the last of the first chunk of size-5
        # subsets (offset -1) or the first of the second (offset 0).
        m, size = 10, 5
        params = default_system_params(zeta=0.6)
        grid = DesignGrid((0.1, 0.5), (1, 2, 3))
        step = _chunk_step(params, grid, m, size)
        assert math.comb(m, size) > step
        winners = next(
            itertools.islice(itertools.combinations(range(m), size), step + offset, None)
        )
        sus = [
            SecondaryUser(
                id=i, gain_to_fc=1.0 + 0.1 * i, buffer_bits=50, pay_rate=0.1, earn_rate=10.0
            )
            if i in winners
            else SecondaryUser(
                id=i, gain_to_fc=1.0, buffer_bits=10, pay_rate=0.1, earn_rate=0.1004
            )
            for i in range(m)
        ]
        got = _assert_same_as_scalar_oracle(sus, params, grid)
        assert got.best_allocation.selected_ids == winners

    @pytest.mark.parametrize("m", [10, 11])
    def test_identical_users_tie_across_chunks(self, params, m):
        # Every subset of a size ties bit for bit, in every chunk: the
        # first subset in combinations order (the first users) and the
        # first tied design in (pfa, k) order must win.
        sus = [
            SecondaryUser(
                id=i, gain_to_fc=1.0, buffer_bits=20000, pay_rate=0.1, earn_rate=10.0
            )
            for i in range(m)
        ]
        grid = DesignGrid((0.1, 0.3, 0.5), (1, 2, 3))
        got = _assert_same_as_scalar_oracle(sus, params, grid)
        size = got.best_allocation.n_selected
        assert _chunks(params, grid, m, size) > 1
        assert got.best_allocation.active == (True,) * size + (False,) * (m - size)

    @pytest.mark.parametrize("seed", range(3))
    def test_zero_rate_design_inside_a_chunk(self, seed):
        # At pfa 0.99 every effective rate rounds to 0: that design is
        # scored in the same chunks as feasible ones and never wins.
        params = default_system_params(zeta=0.6)
        grid = DesignGrid((0.3, 0.99), (1, 2, 3))
        table = grid_table(params, grid)
        designs = [table.design(d) for d in table.admissible(5)[0]]
        assert SensingDesign(0.99, 1) in designs and len(designs) > 1
        sus = make_users(seed + 70, 10, buffer_bits=20000)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _assert_same_as_scalar_oracle(sus, params, grid)
        assert got.feasible and got.best_design.pfa_local == 0.3


class TestNonJointBaseline:
    def test_worthless_buffer_excluded(self, params):
        # One user whose full buffer earns less than the sensing cost.
        good = make_users(7, 3, buffer_bits=1000)
        marginal = SecondaryUser(
            id=9, gain_to_fc=1.0, buffer_bits=10, pay_rate=0.1, earn_rate=0.1004
        )
        nj = nonjoint_baseline(good + [marginal], params, DesignGrid.uniform(4))
        assert nj.feasible
        assert not nj.best_allocation.active[3]

    def test_budget_slack_clears_every_buffer(self, params):
        sus = make_users(8, 4, buffer_bits=20)
        nj = nonjoint_baseline(sus, params, DesignGrid.uniform(4))
        alloc = nj.best_allocation
        assert all(alloc.active)
        design, size = nj.best_design, 4
        for su, t in zip(sus, alloc.times):
            ub = su.buffer_bits / scalar_effective_rate(su, design, params, size)
            assert t == pytest.approx(ub, rel=1e-9)

    def test_stage1_minimizes_false_alarm(self, params, geom):
        from cogalloc.sensing import global_pd, global_pfa

        sus = make_users(9, 5)
        grid = DesignGrid.uniform(5)
        nj = nonjoint_baseline(sus, params, grid)
        chosen = nj.best_design
        best_pfa = min(
            global_pfa(SensingDesign(p, k), 5)
            for k in grid.k_values
            for p in grid.pfa_values
            if global_pd(SensingDesign(p, k), geom, 5) >= params.zeta
        )
        assert global_pfa(chosen, 5) == pytest.approx(best_pfa, rel=1e-12)

    def test_infeasible_when_floor_unreachable(self):
        params = default_system_params(zeta=0.999999, gamma_db=-15.0)
        nj = nonjoint_baseline(make_users(10, 3), params, DesignGrid.uniform(3))
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
        grid = DesignGrid.uniform(5)
        joint = joint_optimize(sus, params, grid)
        nj = nonjoint_baseline(sus, params, grid)
        if not nj.feasible:
            return
        _, lbs, _, prios = level_at(user_table(sus, params), nj.best_design, 5)
        slack = sum(lb * max(prios) for lb in lbs.tolist())
        assert joint.fc_utility >= nj.fc_utility - slack - 1e-12

    @pytest.mark.parametrize("seed", range(3))
    def test_zero_rate_design_is_inadmissible(self, params, seed):
        # At pfa 0.99 with k=1 both opportunity weights round to 0, so
        # every eligible user's effective rate is 0: the design must not
        # be chosen (it used to divide by zero in the upper bounds).
        sus = make_users(seed, 20)
        design = SensingDesign(0.99, 1)
        assert not level_at(user_table(sus, params), design, 20)[0].any()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            alone = nonjoint_baseline(sus, params, DesignGrid((0.99,), (1,)))
            mixed = nonjoint_baseline(sus, params, DesignGrid((0.99,), (1, 20)))
        assert not alone.feasible and alone.su_utilities == (0.0,) * 20
        assert mixed.feasible and mixed.best_design == SensingDesign(0.99, 20)

    def test_nonpositive_budget_is_infeasible(self, params):
        # 200 reporting users use up the whole frame: T'(200) < 0 leaves
        # no time to split, so the baseline has no allocation (it used to
        # report 200 active users at zero time and utility 0).
        sus = make_users(0, 200)
        assert effective_time(params, 200) < 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            nj = nonjoint_baseline(sus, params, DesignGrid.uniform(200, levels=4))
        assert not nj.feasible
        assert nj.best_design is None
        assert not any(nj.best_allocation.active)
        assert count_negative_utility(nj) == 0

    def test_mean_gap_positive_over_batch(self):
        gaps = []
        for seed in range(40):
            for zeta in (0.6, 0.75, 0.9):
                params = default_system_params(zeta=zeta, gamma_db=-7.0)
                sus = make_users(seed + 120, 5, buffer_bits=1000)
                grid = DesignGrid.uniform(5)
                gaps.append(
                    joint_optimize(sus, params, grid).fc_utility
                    - nonjoint_baseline(sus, params, grid).fc_utility
                )
        assert np.mean(gaps) > 0.0


class TestCountNegativeUtility:
    def test_joint_never_negative(self, params):
        for seed in range(10):
            sus = make_users(seed, 5)
            outcome = joint_optimize(sus, params, DesignGrid.uniform(5))
            assert count_negative_utility(outcome.best_allocation) == 0

    def test_zero_time_active_users_pay_sensing_cost(self, params):
        # Deep contest: the baseline zeroes some users' time but they
        # still sense and report.
        sus = make_users(11, 5, buffer_bits=100_000)
        nj = nonjoint_baseline(sus, params, DesignGrid.uniform(5))
        zero_time = [
            u
            for t, u in zip(nj.best_allocation.times, nj.su_utilities)
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

    @pytest.mark.parametrize(
        "fields",
        [{"r0": (1.0,), "r1": (1.0, 2.0, 3.0)}, {"m_users": 3}, {"r1": (1.0,) * 4}],
    )
    def test_rates_not_one_per_user_rejected(self, fields):
        # The rates sum over len(r0) users while the tails count m_users
        # voters: both must be one rate per user.
        with pytest.raises(ValueError, match="one rate per user"):
            HessianProbeConfig(**fields)

    @pytest.mark.parametrize("pfa", [0.00005, 0.0001, 0.9999, 0.99995])
    def test_grid_point_within_the_step_of_an_end_rejected(self, pfa):
        # pfa +- step must stay inside (0, 1): named, not a math domain error.
        with pytest.raises(ValueError, match=r"steps pfa by \+-0\.0001"):
            quasiconcavity_probe(HessianProbeConfig(), pfa_grid=[0.5, pfa])

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
