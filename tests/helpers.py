"""Independent oracles and instance builders shared across the test suite.

Every oracle here deliberately avoids the library's own code path for the
quantity it checks: Gaussian tails come from adaptive quadrature of the
density, fused probabilities from explicit enumeration of decision
vectors, the inner allocation LP from scipy's linprog, and the selection
optimum from exhaustive subset enumeration at a fixed design. The
design-batched exhaustive oracle is checked against the scalar oracle it
replaced, kept here.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.integrate import quad
from scipy.optimize import linprog

from cogalloc import (
    AllocationResult,
    DesignGrid,
    OptimizationOutcome,
    SecondaryUser,
    SensingDesign,
    default_system_params,
    effective_rate,
    effective_time,
    global_pd,
    greedy_topup,
)
from cogalloc.optimizer import _infeasible_outcome


def normal_tail_quad(x: float) -> float:
    """Q(x) by adaptive quadrature of the standard normal density."""
    density = lambda t: math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)
    if x >= 0.0:
        value, _ = quad(density, x, np.inf)
        return value
    value, _ = quad(density, -np.inf, x)
    return 1.0 - value


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


def subset_oracle_fixed_design(all_sus, design, geom, params) -> float:
    """Best fusion-center utility at one fixed design over every subset,
    every feasibility check done from scratch."""
    cost = params.sensing_cost
    candidates = [su for su in all_sus if su.earn_rate > su.pay_rate]
    best = 0.0
    feasible_found = False
    for size in range(design.k_threshold, len(candidates) + 1):
        t_prime = effective_time(params, size)
        if t_prime <= 0 or global_pd(design, geom, size) < params.zeta:
            continue
        for subset in itertools.combinations(candidates, size):
            rates = [effective_rate(su, design, geom, params, size) for su in subset]
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


def scalar_exhaustive_oracle(all_sus, geom, params, grid):
    """The exhaustive oracle written one (subset, design) at a time with
    the scalar rate, bound and greedy-fill code: the reference the
    design-batched :func:`cogalloc.exhaustive_oracle` must reproduce bit
    for bit. A zero-rate member makes the pair infeasible."""
    cost = params.sensing_cost
    profitable = [su for su in all_sus if su.earn_rate > su.pay_rate]
    best_key = None
    best = None
    for size in range(1, len(profitable) + 1):
        t_prime = effective_time(params, size)
        if t_prime <= 0.0:
            continue
        for subset in itertools.combinations(profitable, size):
            for k in grid.k_values:
                if k > size:
                    continue
                for pfa in grid.pfa_values:
                    design = SensingDesign(pfa_local=pfa, k_threshold=k)
                    if global_pd(design, geom, size) < params.zeta:
                        continue
                    rates = [
                        effective_rate(su, design, geom, params, size)
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
                    times = greedy_topup(lowers, uppers, prios, t_prime)
                    utility = sum(p * t for p, t in zip(prios, times))
                    key = (utility, -pfa, -k)
                    if best_key is None or key > best_key:
                        best_key = key
                        best = (design, subset, times, rates, prios, lowers)
    if best is None:
        return _infeasible_outcome(len(all_sus), None, 0.0)
    design, subset, times, rates, prios, lowers = best
    index = {su.id: i for i, su in enumerate(all_sus)}
    m = len(all_sus)
    active = [False] * m
    t_full = [0.0] * m
    su_utils = [0.0] * m
    for su, t, r, lo in zip(subset, times, rates, lowers):
        i = index[su.id]
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
    return OptimizationOutcome(design, alloc, None, 0.0)
