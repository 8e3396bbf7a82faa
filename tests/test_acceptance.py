"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines as they complete. Tolerances are pinned here, not configurable.
"""

import itertools
import math

import numpy as np
import pytest

import cogalloc as cg
from cogalloc import (
    DesignGrid,
    HessianProbeConfig,
    SecondaryUser,
    SensingDesign,
    TrafficModel,
    count_negative_utility,
    default_system_params,
    exhaustive_oracle,
    global_pd,
    global_pfa,
    greedy_topup,
    jain_index,
    joint_optimize,
    nonjoint_baseline,
    quasiconcavity_probe,
    run_episode,
)
from cogalloc.allocator import CaseLabel, _evaluate_set

from helpers import (
    fused_tail_enumeration,
    lp_time_allocation,
    make_users,
)

pytestmark = pytest.mark.acceptance

ZETAS = (0.6, 0.7, 0.8, 0.9, 0.95)


def _report(criterion: int, passed: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {'PASS' if passed else 'FAIL'}: {detail}")


def _users(seed, m, buffer_bits=1000):
    return make_users(seed, m, buffer_bits=buffer_bits)


def test_criterion_01_oracle_exactness():
    # Joint grid search equals exhaustive search on >=200 identical-cost
    # instances (M in {3,5,7}, P(H0)=0.8, gamma=-7 dB, B=1000, 9-point
    # grid, zeta sweep), within 1e-9 relative.
    instances = 0
    worst = 0.0
    for m in (3, 5, 7):
        grid = DesignGrid.uniform(m)
        for zeta in ZETAS:
            params = default_system_params(p_h0=0.8, gamma_db=-7.0, zeta=zeta)
            geom = params.geometry()
            for seed in range(14):
                sus = _users(seed * 31 + m, m)
                joint = joint_optimize(sus, geom, params, grid)
                oracle = exhaustive_oracle(sus, geom, params, grid)
                instances += 1
                if oracle.feasible:
                    gap = abs(joint.fc_utility - oracle.fc_utility) / oracle.fc_utility
                else:
                    gap = 0.0 if not joint.feasible else math.inf
                worst = max(worst, gap)
    passed = instances >= 200 and worst <= 1e-9
    _report(1, passed, f"{instances} instances, worst relative gap {worst:.3e}")
    assert instances >= 200
    assert worst <= 1e-9


def test_criterion_02_complexity_trend():
    # Oracle wall time grows exponentially in M (log-time slope above
    # 0.5 ln 2); joint's log-log slope stays below 2, over M = 3..10.
    params = default_system_params(zeta=0.6)
    geom = params.geometry()
    ms = list(range(3, 11))
    joint_t, oracle_t = [], []
    for m in ms:
        sus = _users(m, m)
        grid = DesignGrid.uniform(m)
        joint_t.append(
            min(joint_optimize(sus, geom, params, grid).wall_time for _ in range(3))
        )
        oracle_t.append(
            min(exhaustive_oracle(sus, geom, params, grid).wall_time for _ in range(3))
        )
    oracle_slope = float(np.polyfit(ms, np.log(oracle_t), 1)[0])
    joint_slope = float(np.polyfit(np.log(ms), np.log(joint_t), 1)[0])
    passed = oracle_slope > 0.5 * math.log(2.0) and joint_slope < 2.0
    _report(
        2,
        passed,
        f"oracle log-time slope {oracle_slope:.3f} (> {0.5 * math.log(2.0):.3f}), "
        f"joint log-log slope {joint_slope:.3f} (< 2)",
    )
    assert oracle_slope > 0.5 * math.log(2.0)
    assert joint_slope < 2.0


def test_criterion_03_baseline_dominance():
    # Fig.-6 comparison at M=5 over 1000 Monte-Carlo instances: the
    # criterion asks joint >= non-joint on every instance, a strictly
    # positive mean gap per gamma, and a larger gap at -7 dB than -5 dB.
    stats = {}
    for gamma in (-5.0, -7.0):
        gaps = []
        violations = 0
        worst = 0.0
        for zeta in ZETAS:
            params = default_system_params(gamma_db=gamma, zeta=zeta)
            geom = params.geometry()
            grid = DesignGrid.uniform(5)
            for seed in range(100):
                sus = _users(int(abs(gamma)) * 1000 + seed, 5)
                joint = joint_optimize(sus, geom, params, grid).fc_utility
                nj = nonjoint_baseline(sus, geom, params, grid).fc_utility
                gaps.append(joint - nj)
                if joint < nj:
                    violations += 1
                    worst = min(worst, joint - nj)
        stats[gamma] = (float(np.mean(gaps)), violations, worst, len(gaps))
    per_instance_ok = all(s[1] == 0 for s in stats.values())
    mean_positive = all(s[0] > 0.0 for s in stats.values())
    ordering_ok = stats[-7.0][0] > stats[-5.0][0]
    passed = per_instance_ok and mean_positive and ordering_ok
    _report(
        3,
        passed,
        f"mean gap -5dB {stats[-5.0][0]:.4f} / -7dB {stats[-7.0][0]:.4f}; "
        f"per-instance violations -5dB {stats[-5.0][1]}/500 (worst {stats[-5.0][2]:.2e}), "
        f"-7dB {stats[-7.0][1]}/500 (worst {stats[-7.0][2]:.2e}); "
        f"ordering(-7 > -5) {ordering_ok}. "
        "Known defect: the relaxed baseline exceeds joint by the lower-bound "
        "displacement epsilon whenever both pick the same design and set "
        "(see decisions ledger).",
    )
    assert mean_positive, "mean joint-vs-baseline gap must be positive"
    assert per_instance_ok, (
        f"per-instance dominance violated: {stats[-5.0][1]} + {stats[-7.0][1]} "
        f"instances, worst gaps {stats[-5.0][2]:.2e} / {stats[-7.0][2]:.2e}"
    )
    assert ordering_ok, "mean gap should be larger at -7 dB than at -5 dB"


def test_criterion_04_negative_utility_trend():
    # Non-joint negative-utility counts rise with buffer size; the joint
    # method never leaves an active user negative.
    params = default_system_params(gamma_db=-5.0, zeta=0.7)
    geom = params.geometry()
    grid = DesignGrid.uniform(5)
    means = []
    joint_total = 0
    for buffer_bits in (200, 500, 1000, 2000):
        counts = []
        for seed in range(1000):
            sus = _users(seed, 5, buffer_bits=buffer_bits)
            counts.append(count_negative_utility(nonjoint_baseline(sus, geom, params, grid)))
            joint_total += count_negative_utility(
                joint_optimize(sus, geom, params, grid).best_allocation
            )
        means.append(float(np.mean(counts)))
    non_decreasing = all(a <= b + 1e-12 for a, b in zip(means, means[1:]))
    passed = non_decreasing and joint_total == 0
    _report(
        4,
        passed,
        f"mean non-joint negative counts {['%.3f' % m for m in means]} "
        f"(non-decreasing {non_decreasing}), joint total {joint_total}",
    )
    assert non_decreasing
    assert joint_total == 0


def test_criterion_05_monotone_sweeps():
    # Fig. 5(a): the mean utility curve must fall strictly in zeta for
    # each M (Spearman -1) and rise strictly in M at each zeta (+1).
    mean_curve = {}
    for m in (3, 5, 7):
        grid = DesignGrid.uniform(m)
        for zeta in ZETAS:
            params = default_system_params(zeta=zeta, gamma_db=-7.0)
            geom = params.geometry()
            utilities = [
                joint_optimize(_users(seed, m), geom, params, grid).fc_utility
                for seed in range(200)
            ]
            mean_curve[(m, zeta)] = float(np.mean(utilities))
    falling = {
        m: all(
            mean_curve[(m, a)] > mean_curve[(m, b)]
            for a, b in zip(ZETAS, ZETAS[1:])
        )
        for m in (3, 5, 7)
    }
    rising = all(
        mean_curve[(3, z)] < mean_curve[(5, z)] < mean_curve[(7, z)] for z in ZETAS
    )
    passed = all(falling.values()) and rising
    _report(
        5,
        passed,
        f"strictly falling in zeta per M: {falling}; strictly rising in M: {rising}. "
        "M=3 plateaus are structural: on the finite 9-point grid the same "
        "design stays optimal across adjacent zeta values (see decisions ledger).",
    )
    assert rising, "mean utility must increase with the user count"
    assert all(falling.values()), f"zeta curves not strictly decreasing: {falling}"


def _delay_sweep(points, seeds, frames=80):
    traffic = TrafficModel(shape=1.0, scale=7.0, batch_bits=10)
    curve = []
    fairness = []
    for p_h0, zeta, gamma in points:
        params = default_system_params(p_h0=p_h0, zeta=zeta, gamma_db=gamma)
        geom = params.geometry()
        per_su = []
        for trial in range(seeds):
            stats, _ = run_episode(
                frames,
                params,
                geom,
                traffic,
                rng_seed=42,
                n_users=5,
                trial=trial,
                initial_bits=10,
                keep_traces=False,
            )
            per_su.append(stats.per_su_mean_delay)
        su_means = np.nanmean(np.array(per_su), axis=0)
        curve.append(float(np.mean(su_means)))
        fairness.append(jain_index(list(su_means)))
    return curve, fairness


N_DELAY_SEEDS = 1000
_delay_cache = {}


def _delay_results():
    if "data" not in _delay_cache:
        ph0_points = [(p, 0.7, -7.0) for p in (0.5, 0.6, 0.7, 0.8, 0.9)]
        zeta_points = [(0.8, z, -3.0) for z in (0.6, 0.7, 0.8, 0.9)]
        ph0_curve, ph0_fair = _delay_sweep(ph0_points, N_DELAY_SEEDS)
        zeta_curve, zeta_fair = _delay_sweep(zeta_points, N_DELAY_SEEDS)
        _delay_cache["data"] = (ph0_curve, ph0_fair, zeta_curve, zeta_fair)
    return _delay_cache["data"]


def test_criterion_06_delay_trends():
    # Fig. 9: mean clearance delay falls with P(H0) and rises (weakly)
    # with zeta, 1000 seeds per sweep point.
    ph0_curve, _, zeta_curve, _ = _delay_results()
    ph0_ok = all(a >= b for a, b in zip(ph0_curve, ph0_curve[1:]))
    zeta_ok = all(a <= b for a, b in zip(zeta_curve, zeta_curve[1:]))
    passed = ph0_ok and zeta_ok
    _report(
        6,
        passed,
        f"P(H0) curve (ms) {['%.3f' % (v * 1e3) for v in ph0_curve]} non-increasing {ph0_ok}; "
        f"zeta curve (ms) {['%.3f' % (v * 1e3) for v in zeta_curve]} non-decreasing {zeta_ok}",
    )
    assert ph0_ok
    assert zeta_ok


def test_criterion_07_fairness():
    # Jain index of per-user mean delays at every criterion-6 sweep point.
    _, ph0_fair, _, zeta_fair = _delay_results()
    worst = min(ph0_fair + zeta_fair)
    passed = worst >= 0.95
    _report(7, passed, f"worst Jain index across sweep points {worst:.4f} (>= 0.95)")
    assert worst >= 0.95


def test_criterion_08_appendix_probe():
    # Worked-example parameters: some det[H] < 0, det[H_a] < 0 throughout.
    points = quasiconcavity_probe(HessianProbeConfig())
    negatives = sum(1 for p in points if p.det_h < 0.0)
    minor_ok = all(p.det_ha < 0.0 for p in points)
    passed = negatives >= 1 and minor_ok
    _report(
        8,
        passed,
        f"det_H < 0 at {negatives}/{len(points)} grid points, det_Ha < 0 everywhere: {minor_ok}",
    )
    assert negatives >= 1
    assert minor_ok


def test_criterion_09_simulation_vs_closed_forms():
    # Over >= 1e5 frames with saturated buffers, the empirical busy-
    # declaration frequency under each truth must sit within 3 standard
    # errors of the averaged closed-form fused probabilities.
    params = default_system_params(p_h0=0.6)
    geom = params.geometry()
    traffic = TrafficModel(shape=1.0, scale=2e-3, batch_bits=200)
    grid = DesignGrid(pfa_values=(0.2, 0.5, 0.8), k_values=(1, 2, 3))
    all_traces = []
    for trial in range(5):
        _, traces = run_episode(
            20_000,
            params,
            geom,
            traffic,
            rng_seed=9,
            n_users=3,
            grid=grid,
            trial=trial,
            initial_bits=5000,
        )
        all_traces.extend(traces)
    assert len(all_traces) >= 100_000
    detail = []
    passed = True
    for truth, label in ((False, "false-alarm"), (True, "detection")):
        frames = [
            t
            for t in all_traces
            if t.pu_active is truth and t.selected_set and t.chosen_pfa is not None
        ]
        probs = []
        for t in frames:
            design = SensingDesign(t.chosen_pfa, t.chosen_k)
            size = len(t.selected_set)
            probs.append(
                global_pd(design, geom, size) if truth else global_pfa(design, size)
            )
        expected = float(np.mean(probs))
        observed = float(np.mean([t.fc_decision_busy for t in frames]))
        stderr = math.sqrt(sum(p * (1.0 - p) for p in probs)) / len(frames)
        ok = abs(observed - expected) <= 3.0 * stderr
        passed = passed and ok
        detail.append(
            f"{label}: observed {observed:.5f} vs expected {expected:.5f} "
            f"({abs(observed - expected) / max(stderr, 1e-300):.2f} SE, n={len(frames)})"
        )
    _report(9, passed, "; ".join(detail))
    assert passed, detail


def test_criterion_10_unit_invariant_suites():
    # Compact re-run of the module-invariant suites at acceptance scale.
    from cogalloc import (
        effective_rate,
        local_pd,
        su_utility,
        time_lower_bound,
        time_upper_bound,
    )

    params = default_system_params()
    geom = params.geometry()
    checks = {}

    # Break-even identity across a design/cardinality grid.
    worst = 0.0
    for pfa in (0.1, 0.4, 0.7):
        for k, l_active in ((1, 2), (2, 4), (3, 6)):
            design = SensingDesign(pfa, k)
            for gain in (0.3, 1.0, 2.5):
                su = SecondaryUser(
                    id=0, gain_to_fc=gain, buffer_bits=1000, pay_rate=0.1, earn_rate=10.0
                )
                lb = time_lower_bound(su, design, geom, params, l_active)
                worst = max(
                    worst,
                    abs(su_utility(su, design, geom, params, l_active, lb, True)),
                )
    checks["break-even <= 1e-12"] = worst <= 1e-12

    # Buffer-clearing identity.
    worst = 0.0
    design = SensingDesign(0.3, 2)
    for gain in (0.2, 1.0, 3.0):
        su = SecondaryUser(
            id=0, gain_to_fc=gain, buffer_bits=1234, pay_rate=0.1, earn_rate=10.0
        )
        rate = effective_rate(su, design, geom, params, 5)
        ub = time_upper_bound(su, design, geom, params, 5)
        worst = max(worst, abs(rate * ub - su.buffer_bits) / su.buffer_bits)
    checks["buffer-clearing <= 1e-9"] = worst <= 1e-9

    # Enumeration equivalence for the fused tails up to L = 10.
    worst = 0.0
    for l_active in range(1, 11):
        for pfa in (0.15, 0.5, 0.85):
            for k in range(1, l_active + 1):
                d = SensingDesign(pfa, k)
                worst = max(
                    worst,
                    abs(global_pfa(d, l_active) - fused_tail_enumeration(pfa, k, l_active)),
                    abs(
                        global_pd(d, geom, l_active)
                        - fused_tail_enumeration(local_pd(pfa, geom), k, l_active)
                    ),
                )
    checks["fusion enumeration <= 1e-12"] = worst <= 1e-12

    # Water-filling LP optimality on 1000 random contested instances.
    worst = 0.0
    for seed in range(1000):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        lowers = rng.uniform(0.0, 1.0, n)
        uppers = lowers + rng.uniform(0.1, 3.0, n)
        prios = rng.uniform(0.1, 5.0, n)
        budget = float(
            lowers.sum() + rng.uniform(0.05, 0.95) * (uppers.sum() - lowers.sum())
        )
        times = greedy_topup(list(lowers), list(uppers), list(prios), budget)
        achieved = float(np.dot(prios, times))
        optimum = lp_time_allocation(list(lowers), list(uppers), list(prios), budget)
        worst = max(worst, abs(achieved - optimum) / max(abs(optimum), 1e-12))
    checks["water-filling LP <= 1e-9"] = worst <= 1e-9

    # Proposition 2: abundant-time removal strictly loses utility.
    sus = _users(31, 5, buffer_bits=10)
    full = cg.select_and_allocate(sus, SensingDesign(0.1, 2), geom, params)
    prop2 = full.case is CaseLabel.CASE1 and all(
        cg.select_and_allocate(
            [s for s in sus if s is not drop], SensingDesign(0.1, 2), geom, params
        ).fc_utility
        < full.fc_utility
        for drop in sus
    )
    checks["proposition 2"] = prop2

    # Proposition 3: argmin elimination is the best single removal on
    # contested chains (enumeration over M <= 6).
    prop3_checked = 0
    prop3_ok = True
    design = SensingDesign(0.1, 2)
    for seed in range(40):
        for m in (5, 6):
            rng = np.random.default_rng(seed)
            base = default_system_params()
            sus = make_users(seed + 700, m, buffer_bits=int(rng.integers(300, 1500)))
            ev = _evaluate_set(sus, design, base.geometry(), base)
            budget = float(rng.uniform(0.3, 0.7)) * float(ev.uppers.sum())
            overhead = (
                base.tau2 + base.n_samples * base.sample_interval + base.tau5
            )
            params_m = default_system_params(
                frame_duration=budget + overhead + m * base.tau_r_prime
            )
            geom_m = params_m.geometry()
            ev = _evaluate_set(sus, design, geom_m, params_m)
            if ev.case is not CaseLabel.CASE2:
                continue
            times = greedy_topup(
                list(ev.lowers), list(ev.uppers), list(ev.priorities), ev.t_prime
            )
            full_value = float(np.dot(ev.priorities, times))
            j = int(min(range(m), key=lambda i: (ev.priorities[i], sus[i].id)))
            removals = {}
            for drop in range(m):
                rest = [su for i, su in enumerate(sus) if i != drop]
                ev_r = _evaluate_set(rest, design, geom_m, params_m)
                if ev_r.case is not CaseLabel.CASE2:
                    removals = None
                    break
                t_r = greedy_topup(
                    list(ev_r.lowers), list(ev_r.uppers), list(ev_r.priorities), ev_r.t_prime
                )
                removals[drop] = float(np.dot(ev_r.priorities, t_r))
            if not removals:
                continue
            prop3_checked += 1
            best = max(removals.values())
            prop3_ok = prop3_ok and removals[j] >= best - 1e-12 * abs(best)
            prop3_ok = prop3_ok and removals[j] > full_value
    checks[f"proposition 3 ({prop3_checked} chains)"] = prop3_ok and prop3_checked > 10

    # Proposition 4: with both extreme lower-bound swaps contested at
    # depth n, deeper swaps never win (enumeration over M <= 6).
    prop4_checked = 0
    prop4_ok = True
    for seed in range(60):
        rng = np.random.default_rng(seed)
        pool = make_users(seed + 900, 6, buffer_bits=int(rng.integers(100, 800)))
        by_gain = sorted(pool, key=lambda su: -su.gain_to_fc)
        kept, excluded = by_gain[:3], by_gain[3:]
        base = default_system_params()
        ev = _evaluate_set(kept, design, base.geometry(), base)
        budget = float(rng.uniform(0.4, 0.8)) * float(ev.uppers.sum())
        overhead = base.tau2 + base.n_samples * base.sample_interval + base.tau5
        params_m = default_system_params(
            frame_duration=budget + overhead + 3 * base.tau_r_prime
        )
        geom_m = params_m.geometry()

        def value_of(subset):
            ev = _evaluate_set(subset, design, geom_m, params_m)
            if ev.case is CaseLabel.CASE1:
                return float(np.dot(ev.priorities, ev.uppers))
            if ev.case is CaseLabel.CASE2:
                t = greedy_topup(
                    list(ev.lowers), list(ev.uppers), list(ev.priorities), ev.t_prime
                )
                return float(np.dot(ev.priorities, t))
            return None

        lbs = {}
        for su in pool:
            rate = effective_rate(su, design, geom_m, params_m, 3)
            lbs[su.id] = params_m.sensing_cost / (rate * (su.earn_rate - su.pay_rate))
        kept_lb = sorted(kept, key=lambda su: (-lbs[su.id], su.id))
        ex_lb = sorted(excluded, key=lambda su: (-lbs[su.id], su.id))
        g3 = [su for su in kept if su is not kept_lb[-1]] + [ex_lb[0]]
        g4 = [su for su in kept if su is not kept_lb[0]] + [ex_lb[-1]]
        if not (
            _evaluate_set(g3, design, geom_m, params_m).case is CaseLabel.CASE2
            and _evaluate_set(g4, design, geom_m, params_m).case is CaseLabel.CASE2
        ):
            continue
        depth1 = []
        deeper = []
        for n in range(1, 4):
            for out_c in itertools.combinations(kept, n):
                for in_c in itertools.combinations(excluded, n):
                    out_ids = {su.id for su in out_c}
                    cand = [su for su in kept if su.id not in out_ids] + list(in_c)
                    v = value_of(cand)
                    if v is None:
                        continue
                    (depth1 if n == 1 else deeper).append(v)
        prop4_checked += 1
        if deeper:
            prop4_ok = prop4_ok and max(depth1) >= max(deeper) - 1e-12
    checks[f"proposition 4 ({prop4_checked} instances)"] = prop4_ok and prop4_checked > 10

    passed = all(checks.values())
    _report(10, passed, "; ".join(f"{name}: {ok}" for name, ok in checks.items()))
    assert passed, checks
