"""Independent oracles and instance builders shared across the test suite.

Every oracle here deliberately avoids the library's own code path for the
quantity it checks: Gaussian tails come from adaptive quadrature of the
density, fused probabilities from explicit enumeration of decision
vectors, the inner allocation LP from scipy's linprog, and the selection
optimum from exhaustive subset enumeration at a fixed design. The
design-batched exhaustive oracle is checked against the scalar oracle it
replaced, the pruned grid search against the plain per-point loop it
replaced, the batched design screen against the per-design screen it
replaced, the array pricing kernel against a scalar effective rate,
and the closed-form interfered rate against a quadrature route, all
kept here.

The public wrappers around the allocator's cores that only tests call
(:func:`classify_case`, :func:`reduce_feasible_set`,
:func:`waterfill_allocate`, :func:`exchange_search`), the table of one
user list (:func:`user_table`), the by-design pricing of a user table
(:func:`level_at`, :func:`evaluate_at`), one simulated frame of one
trial (:func:`step_frame`), the forward false-alarm map and the trial
averager live here too.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np
from scipy.integrate import quad
from scipy.optimize import linprog

from cogalloc import (
    AllocationResult,
    CaseLabel,
    DesignGrid,
    OptimizationOutcome,
    SecondaryUser,
    SensingDesign,
    default_system_params,
    effective_time,
    global_pd,
    global_pfa,
    min_active_users,
    q_function,
    select_and_allocate,
)
from cogalloc.allocator import (
    TIME_TOL,
    UserTable,
    design_table,
    _exchange_core,
    _result,
    _score,
)
from cogalloc.economics import idle_rates, interfered_rates
from cogalloc.optimizer import _infeasible_outcome
from cogalloc.simkit import _step_frames


def grid_table(params, grid):
    """The shared design table of a :class:`cogalloc.DesignGrid`."""
    return design_table(params, grid.pfa_values, grid.k_values)


def one_design_table(params, design: SensingDesign):
    """The shared design table of ``design`` alone: its row 0."""
    return design_table(params, (design.pfa_local,), (design.k_threshold,))


def user_table(sus, params) -> UserTable:
    """The table of the user list ``sus`` alone: instance 0 of its
    one-instance stack, columns of M users."""
    return UserTable.stack([sus], params).instance(0)


def level_at(table: UserTable, design: SensingDesign, l_active: int) -> tuple:
    """:meth:`UserTable.level` at ``design`` with ``l_active`` reporting
    users."""
    return table.level(one_design_table(table.params, design), 0, l_active)


def evaluate_at(table: UserTable, design: SensingDesign, idx: tuple):
    """:meth:`UserTable.evaluate` of the set ``idx`` at ``design``."""
    return table.evaluate(one_design_table(table.params, design), 0, idx)


def normal_tail_quad(x: float) -> float:
    """Q(x) by adaptive quadrature of the standard normal density."""
    density = lambda t: math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)
    if x >= 0.0:
        value, _ = quad(density, x, np.inf)
        return value
    value, _ = quad(density, -np.inf, x)
    return 1.0 - value


def pfa_from_threshold(threshold: float, geom) -> float:
    """Forward false-alarm evaluation; inverse of
    :func:`cogalloc.threshold_from_pfa`."""
    return q_function((threshold / geom.noise_var - 1.0) * math.sqrt(geom.n_samples))


def q_inverse_bisect(p: float, lo: float = -40.0, hi: float = 40.0) -> float:
    """Invert the quadrature tail by bisection (independent of ndtri)."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if normal_tail_quad(mid) > p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def fused_tail_enumeration(p_vote: float, k: int, l_active: int) -> float:
    """P(at least k of L independent votes) by enumerating all 2^L vectors."""
    total = 0.0
    for votes in itertools.product((0, 1), repeat=l_active):
        if sum(votes) >= k:
            prob = 1.0
            for v in votes:
                prob *= p_vote if v else (1.0 - p_vote)
            total += prob
    return total


@lru_cache(maxsize=1 << 10)
def _log_comb_terms(n: int) -> tuple:
    return tuple(math.log(math.comb(n, l)) for l in range(n + 1))


@lru_cache(maxsize=1 << 16)
def reference_binom_tail(p: float, k: int, n: int) -> float:
    """The binomial upper tail one (p, k, n) at a time, as the library
    computed it before its shared rows: the log-space terms at l >= k,
    sorted, exponentiated and summed one at a time from the smallest,
    capped at 1. The rows (:func:`cogalloc.sensing.binomial_tails`) must
    reproduce it bit for bit."""
    if p <= 0.0:
        return 0.0
    if p >= 1.0:
        return 1.0
    log_p = math.log(p)
    log_q = math.log1p(-p)
    log_comb = _log_comb_terms(n)
    terms = [log_comb[l] + l * log_p + (n - l) * log_q for l in range(k, n + 1)]
    terms.sort()
    acc = 0.0
    for t in terms:
        acc += math.exp(t)
    return min(acc, 1.0)


def lp_time_allocation(lowers, uppers, priorities, budget) -> float:
    """Optimal value of max sum(c t) s.t. lb <= t <= ub, sum(t) <= budget,
    via scipy linprog (HiGHS)."""
    n = len(lowers)
    res = linprog(
        c=[-c for c in priorities],
        A_ub=[[1.0] * n],
        b_ub=[budget],
        bounds=list(zip(lowers, uppers)),
        method="highs",
    )
    assert res.success, res.message
    return -res.fun


def make_users(
    seed: int,
    count: int,
    buffer_bits: int = 1000,
    pay_rate: float = 0.1,
    earn_rate: float = 10.0,
    gain_mean: float = 1.0,
):
    """Identical-cost users with exponential gains, reproducible by seed."""
    rng = np.random.default_rng(seed)
    return [
        SecondaryUser(
            id=i,
            gain_to_fc=float(-gain_mean * np.log(1.0 - rng.random())),
            buffer_bits=buffer_bits,
            pay_rate=pay_rate,
            earn_rate=earn_rate,
        )
        for i in range(count)
    ]


def scalar_effective_rate(su, design, params, l_active) -> float:
    """P(H0)(1-P_FA) r0 + P(H1)(1-P_D) r1 for one user, in plain floats:
    the scalar reference for the library's array pricing kernel."""
    p_fa = global_pfa(design, l_active)
    p_d = global_pd(design, params.geometry(), l_active)
    r0 = idle_rates([su.gain_to_fc], params)[0]
    r1 = interfered_rates([su.gain_to_fc], params)[0]
    return params.p_h0 * (1.0 - p_fa) * r0 + params.p_h1 * (1.0 - p_d) * r1


def greedy_fill_oracle(lowers, uppers, priorities, budget):
    """Independent greedy reference for the linear top-up (written against
    the LP structure, not the library loop)."""
    times = list(lowers)
    slack = budget - sum(lowers)
    for i in sorted(range(len(times)), key=lambda j: (-priorities[j], j)):
        if slack <= 0:
            break
        add = min(uppers[i] - lowers[i], slack)
        times[i] += add
        slack -= add
    return times


def subset_oracle_fixed_design(all_sus, design, params) -> float:
    """Best fusion-center utility at one fixed design over every subset,
    every feasibility check done from scratch."""
    geom = params.geometry()
    cost = params.sensing_cost
    candidates = [su for su in all_sus if su.earn_rate > su.pay_rate]
    best = 0.0
    feasible_found = False
    for size in range(design.k_threshold, len(candidates) + 1):
        t_prime = effective_time(params, size)
        if t_prime <= 0 or global_pd(design, geom, size) < params.zeta:
            continue
        for subset in itertools.combinations(candidates, size):
            rates = [
                scalar_effective_rate(su, design, params, size) for su in subset
            ]
            lowers = [
                cost / (r * (su.earn_rate - su.pay_rate))
                for su, r in zip(subset, rates)
            ]
            uppers = [su.buffer_bits / r for su, r in zip(subset, rates)]
            if any(lo > up for lo, up in zip(lowers, uppers)):
                continue
            if sum(lowers) > t_prime:
                continue
            prios = [r * su.pay_rate for su, r in zip(subset, rates)]
            times = greedy_fill_oracle(lowers, uppers, prios, t_prime)
            utility = sum(p * t for p, t in zip(prios, times))
            feasible_found = True
            best = max(best, utility)
    return best if feasible_found else None


def nine_point_grid(m: int) -> DesignGrid:
    return DesignGrid.uniform(m, levels=10)


def table_params(**overrides):
    return default_system_params(**overrides)


def scalar_exhaustive_oracle(all_sus, params, grid):
    """The exhaustive oracle written one (subset, design) at a time with
    the scalar rate, bound and greedy-fill code: the reference the
    batched :func:`cogalloc.exhaustive_oracle` must reproduce bit
    for bit. A zero-rate member makes the pair infeasible."""
    geom = params.geometry()
    cost = params.sensing_cost
    positions = [i for i, su in enumerate(all_sus) if su.earn_rate > su.pay_rate]
    best_key = None
    best = None
    for size in range(1, len(positions) + 1):
        t_prime = effective_time(params, size)
        if t_prime <= 0.0:
            continue
        for placed in itertools.combinations(positions, size):
            subset = [all_sus[i] for i in placed]
            for k in grid.k_values:
                if k > size:
                    continue
                for pfa in grid.pfa_values:
                    design = SensingDesign(pfa_local=pfa, k_threshold=k)
                    if global_pd(design, geom, size) < params.zeta:
                        continue
                    rates = [
                        scalar_effective_rate(su, design, params, size)
                        for su in subset
                    ]
                    if any(r == 0.0 for r in rates):
                        continue
                    lowers = [
                        cost / (r * (su.earn_rate - su.pay_rate))
                        for su, r in zip(subset, rates)
                    ]
                    uppers = [su.buffer_bits / r for su, r in zip(subset, rates)]
                    if any(lo > up for lo, up in zip(lowers, uppers)):
                        continue
                    if sum(lowers) > t_prime:
                        continue
                    prios = [r * su.pay_rate for su, r in zip(subset, rates)]
                    times = greedy_fill_oracle(lowers, uppers, prios, t_prime)
                    utility = sum(p * t for p, t in zip(prios, times))
                    key = (utility, -pfa, -k)
                    if best_key is None or key > best_key:
                        best_key = key
                        best = (design, placed, times, rates, prios, lowers)
    if best is None:
        return _infeasible_outcome(len(all_sus), 0.0)
    design, placed, times, rates, prios, lowers = best
    m = len(all_sus)
    active = [False] * m
    t_full = [0.0] * m
    su_utils = [0.0] * m
    for i, t, r, lo in zip(placed, times, rates, lowers):
        su = all_sus[i]
        active[i] = True
        t_full[i] = t
        su_utils[i] = r * (su.earn_rate - su.pay_rate) * (t - lo)
    alloc = AllocationResult(
        active=tuple(active),
        times=tuple(t_full),
        fc_utility=sum(p * t for p, t in zip(prios, times)),
        su_utilities=tuple(su_utils),
        case=None,
        feasible=True,
    )
    return OptimizationOutcome(design, alloc, 0.0)


def evaluate_set(sus, design, params):
    """Bounds, priorities, budget and case of a user list as one candidate
    set at its own cardinality."""
    return evaluate_at(user_table(sus, params), design, tuple(range(len(sus))))


def reference_screen(table: UserTable, design: SensingDesign):
    """The per-design screen the batched :meth:`UserTable.screen`
    replaced: (reduced set, minimum viable set size l_lb) at ``design``,
    or None when the design admits no feasible set (a vote threshold
    above the reduced set's size, or a detection floor no size up to it
    reaches)."""
    m = table.r0.shape[-1]
    if design.k_threshold > m:
        return None
    _, lowers, uppers, _ = level_at(table, design, m)
    reduced = tuple(np.flatnonzero(lowers < uppers).tolist())
    if design.k_threshold > len(reduced):
        return None
    params = table.params
    l_lb = min_active_users(design, params.geometry(), params.zeta, len(reduced))
    if l_lb is None:
        return None
    return reduced, l_lb


def reference_utility_bound(table: UserTable, design: SensingDesign):
    """min(sum_{i in R} a_i B_i, (T'(l_lb) + TIME_TOL) max_{i in R}
    R_i(l_lb) a_i) for one design from :func:`reference_screen`, or None
    when the design is infeasible before any search."""
    screened = reference_screen(table, design)
    if screened is None:
        return None
    reduced, l_lb = screened
    members = np.array(reduced, dtype=np.intp)
    prios = level_at(table, design, l_lb)[3]
    return min(
        float((table.pay[members] * table.buffers[members]).sum()),
        (table.budgets[l_lb] + TIME_TOL) * float(prios[members].max()),
    )


def classify_case(sus, design, params) -> CaseLabel:
    """Which budget regime the set falls in at its own cardinality.

    Equality with the upper-bound sum is Case-1, equality with the
    lower-bound sum is Case-2 (the abundant check runs first).

    Raises
    ------
    ValueError
        On an empty set, a vote threshold above the set size, or a
        never-profitable member (callers must prune those first).
    """
    if not sus:
        raise ValueError("cannot classify an empty set")
    if design.k_threshold > len(sus):
        raise ValueError(
            f"vote threshold k={design.k_threshold} exceeds set size {len(sus)}"
        )
    if any(su.earn_rate <= su.pay_rate for su in sus):
        raise ValueError("never-profitable user present; reduce the set first")
    return evaluate_at(user_table(sus, params), design, tuple(range(len(sus)))).case


def reduce_feasible_set(all_sus, design, params) -> list:
    """Keep exactly the users whose bounds are well ordered at the full
    set size (lower < upper): the users of the design's reduced set."""
    if not all_sus:
        return []
    table = user_table(all_sus, params)
    _, lowers, uppers, _ = level_at(table, design, len(all_sus))
    return [all_sus[i] for i in np.flatnonzero(lowers < uppers).tolist()]


def waterfill_allocate(sus, design, params) -> AllocationResult:
    """Contested-time allocation: lower bounds first, then greedy top-up
    by descending per-second payment R_i a_i.

    Raises
    ------
    ValueError
        If the set is not in the contested-time case.
    """
    table = user_table(sus, params)
    ev = evaluate_at(table, design, tuple(range(len(sus))))
    if ev.case is not CaseLabel.CASE2:
        raise ValueError(f"water-filling requires Case-2, set is {ev.case}")
    return _result(table, _score(table, ev), len(sus), ev.idx)


def exchange_search(kept, excluded, design, params) -> tuple:
    """Same-cardinality exchange refinement between the kept set and the
    eliminated pool, through the allocator's exchange core.

    Returns
    -------
    (tuple of SecondaryUser, AllocationResult)
        The best same-cardinality set found and its allocation (aligned
        to the returned set, sorted by user id); the allocation is None
        when no candidate is feasible.
    """
    kept = sorted(kept, key=lambda su: su.id)
    excluded = sorted(excluded, key=lambda su: su.id)
    if {su.id for su in kept} & {su.id for su in excluded}:
        raise ValueError("kept and excluded sets overlap")
    pool = kept + excluded
    table = user_table(pool, params)
    kept_idx = tuple(range(len(kept)))
    ex_idx = tuple(range(len(kept), len(pool)))
    designs = one_design_table(params, design)
    best = _exchange_core(table, designs, 0, kept_idx, ex_idx)
    if best is None:
        return tuple(kept), None
    idx = best[1].idx
    alloc = _result(table, best, len(idx), range(len(idx)))
    return tuple(pool[i] for i in idx), alloc


def step_frame(trial, params, traffic, profiles, grid):
    """One frame of one traced trial (``simkit._Trial``): the one-trial
    case of the simulator's lockstep frame. Returns the frame's trace."""
    _step_frames([trial], params, traffic, profiles, grid)
    return trial.traces[-1]


def monte_carlo_average(instance_metric, n_trials: int) -> tuple:
    """Mean and standard error of ``instance_metric(trial)`` over seeded,
    reproducible trials."""
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    values = np.array([float(instance_metric(t)) for t in range(n_trials)])
    mean = float(values.mean())
    if n_trials == 1:
        return mean, 0.0
    return mean, float(values.std(ddof=1) / math.sqrt(n_trials))


def reference_joint_optimize(all_sus, params, grid, keep_surface=False):
    """The grid search as one full :func:`cogalloc.select_and_allocate`
    per grid point, nothing skipped: the reference the pruned
    :func:`cogalloc.joint_optimize` must reproduce bit for bit.

    With ``keep_surface`` it returns (outcome, surface) instead, the
    surface mapping every grid point (pfa, k) to its utility, None where
    the design is infeasible."""
    best_key = None
    best = None
    surface = {}
    for k in grid.k_values:
        for pfa in grid.pfa_values:
            design = SensingDesign(pfa_local=pfa, k_threshold=k)
            alloc = select_and_allocate(all_sus, design, params)
            surface[(pfa, k)] = alloc.fc_utility if alloc.feasible else None
            if not alloc.feasible:
                continue
            key = (alloc.fc_utility, -pfa, -k)
            if best_key is None or key > best_key:
                best_key = key
                best = (design, alloc)
    if best is None:
        outcome = _infeasible_outcome(len(all_sus), 0.0)
    else:
        outcome = OptimizationOutcome(best[0], best[1], 0.0)
    return (outcome, surface) if keep_surface else outcome


@lru_cache(maxsize=8)
def _laggauss(order: int):
    return np.polynomial.laguerre.laggauss(order)


def rate_interfered_quadrature(su, params, rel_tol: float = 1e-8) -> float:
    """Quadrature route for the interfered rate: 128-node Gauss-Laguerre,
    validated against a 64-node rule, with adaptive integration as the
    fallback when the two disagree beyond ``rel_tol``. An independent
    check on the closed form of
    :func:`cogalloc.economics.interfered_rates`.

    Raises
    ------
    ArithmeticError
        If the adaptive fallback cannot reach the requested tolerance.
    """
    a = su.gain_to_fc * params.p_st
    b = params.p_pt
    n0 = params.noise_power

    def integrand(x: float) -> float:
        return math.log2(1.0 + a / (x * b + n0))

    estimates = []
    for order in (128, 64):
        nodes, weights = _laggauss(order)
        estimates.append(float(weights @ np.log2(1.0 + a / (nodes * b + n0))))
    if abs(estimates[0] - estimates[1]) <= rel_tol * abs(estimates[0]):
        return params.bandwidth * estimates[0]
    value, err = quad(
        lambda x: math.exp(-x) * integrand(x),
        0.0,
        np.inf,
        limit=500,
        epsabs=1e-13,
        epsrel=1e-11,
    )
    if err > max(rel_tol * abs(value), 1e-13):
        raise ArithmeticError(
            f"interfered-rate quadrature did not converge: value={value}, err={err}"
        )
    return params.bandwidth * value
