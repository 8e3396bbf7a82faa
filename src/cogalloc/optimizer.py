"""Outer design search, brute-force oracle, non-joint baseline, and the
quasiconcavity probe.

The outer problem is a mixed-integer grid search: for every (local
false-alarm, vote threshold) pair on a grid, run the inner selection +
allocation and keep the best feasible result.  The exhaustive oracle
enumerates every candidate active set instead and is the correctness
reference.  The non-joint baseline designs detection first (feasible
minimum of the fused false alarm) and splits the time budget afterwards.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

from .allocator import (
    BOUND_SLACK,
    AllocationResult,
    UserTable,
    _allocate,
    _infeasible,
    _placed,
    design_table,
    greedy_topup,
)
from .economics import _EULER_GAMMA, SecondaryUser, SystemParams
from .sensing import SensingDesign, SensingGeometry, _read_only, local_pd
from .units import db_to_linear


@dataclass(frozen=True)
class DesignGrid:
    """Search grid over local false-alarm probabilities and vote thresholds."""

    pfa_values: tuple
    k_values: tuple

    def __post_init__(self) -> None:
        pfas = self.pfa_values
        if not pfas:
            raise ValueError("pfa grid is empty")
        if any(not 0.0 < p < 1.0 for p in pfas):
            raise ValueError("pfa grid values must lie strictly inside (0,1)")
        if list(pfas) != sorted(set(pfas)):
            raise ValueError("pfa grid must be ascending with no duplicates")
        if not self.k_values or any(k < 1 for k in self.k_values):
            raise ValueError("k grid must contain integers >= 1")

    @classmethod
    def uniform(cls, m_users: int, levels: int = 10) -> "DesignGrid":
        """The default grid {i/levels} for i=1..levels-1, k=1..m_users."""
        return cls(
            pfa_values=tuple(i / levels for i in range(1, levels)),
            k_values=tuple(range(1, m_users + 1)),
        )


@dataclass(frozen=True)
class OptimizationOutcome:
    """Best design + allocation over a grid."""

    best_design: Optional[SensingDesign]
    best_allocation: AllocationResult
    wall_time: float

    @property
    def feasible(self) -> bool:
        return self.best_allocation.feasible

    @property
    def fc_utility(self) -> float:
        return self.best_allocation.fc_utility if self.feasible else 0.0

    @property
    def su_utilities(self) -> tuple:
        return self.best_allocation.su_utilities


def _infeasible_outcome(m: int, elapsed: float) -> OptimizationOutcome:
    return OptimizationOutcome(None, _infeasible(m, None), elapsed)


def _incumbent(best: Optional[tuple], designs, d: int, utility: float, alloc):
    # The better of the incumbent (key, row, allocation or None) and row d
    # of ``designs`` at ``utility``: the winner maximizes (utility, -pfa, -k).
    key = (utility, -designs.pfa.item(d), -designs.k.item(d))
    if best is None or key > best[0]:
        return key, d, alloc
    return best


#: Elements (instances x designs x users) in one stacked screen of
#: :func:`joint_optimize_many`: each of its working arrays holds at most
#: this many values (256 kB of floats), however many instances a call
#: takes. An instance larger than that is screened alone.
_SCREEN_CHUNK = 1 << 15


def joint_optimize(
    all_sus: Sequence[SecondaryUser],
    params: SystemParams,
    grid: DesignGrid,
) -> OptimizationOutcome:
    """Grid search over designs, inner selection/allocation per point:
    :func:`joint_optimize_many` of this one instance.

    Feasible ties break toward the smallest false-alarm value, then the
    smallest vote threshold: the winner maximizes (utility, -pfa, -k).
    Returns an all-infeasible outcome when no grid point admits a
    feasible allocation.
    """
    return joint_optimize_many([all_sus], params, grid)[0]


def joint_optimize_many(
    instances: Sequence[Sequence[SecondaryUser]],
    params: SystemParams,
    grid: DesignGrid,
) -> list:
    """:func:`joint_optimize` of every user list in ``instances``, in
    order, bit for bit, with the per-call work shared: the instances of
    one user count are screened together, up to ``_SCREEN_CHUNK``
    elements a pass. Every outcome's ``wall_time`` is the whole call's.

    The users' columns are built in one pass over each batch (one
    stacked :class:`~cogalloc.allocator.UserTable`); the designs' tails,
    weights, l_first and budgets come from the
    :class:`~cogalloc.allocator.DesignTable` of (params, grid), shared
    by every call. One batched
    :meth:`~cogalloc.allocator.UserTable.screen` gives every (instance,
    design) a utility bound U_max, and settles the designs whose reduced
    set is in abundant time with their utility, bit for bit as the walk
    computes it, capping U_max strictly below the instance's best
    settled utility where the design cannot reach it (the screen gives
    the proofs). Each instance's incumbent is its best settled key, all
    picked in one pass, with no walk. The other feasible designs'
    rows are walked in descending order of U_max, equal bounds in grid
    order, until one has U_max * (1 + BOUND_SLACK) below the
    incumbent's utility: no later design can reach it. The slack covers
    rounding in the sums, and the strict comparison lets a tying design
    reach the (pfa, k) tie-break. An allocation is built per walked
    design and, when a settled design wins, for the winner alone, by the
    same walk entry on the instance's own table and screen.

    The result is bit for bit that of searching every design in grid
    order: a design's allocation does not depend on when or whether it
    is walked, the maximum of (utility, -pfa, -k) does not depend on the
    order, and a design is skipped only below the incumbent's utility.
    Nor does it depend on the other instances of a batch: every screen
    sum runs over one instance's members alone, in member order.
    """
    start = time.perf_counter()
    designs = design_table(params, grid.pfa_values, grid.k_values)
    instances = list(instances)
    by_count: dict = {}
    for i, sus in enumerate(instances):
        by_count.setdefault(len(sus), []).append(i)
    found: list = [None] * len(instances)
    for m, group in by_count.items():
        step = max(1, _SCREEN_CHUNK // (len(designs.k) * max(m, 1)))
        for first in range(0, len(group), step):
            batch = group[first : first + step]
            table = UserTable.stack([instances[i] for i in batch], params)
            for i, best in zip(batch, _search(table, table.screen(designs))):
                found[i] = best
    elapsed = time.perf_counter() - start
    return [
        _infeasible_outcome(len(sus), elapsed)
        if best is None
        else OptimizationOutcome(designs.design(best[0]), best[1], elapsed)
        for sus, best in zip(instances, found)
    ]


def _search(table: UserTable, screen) -> list:
    # The (design row, allocation) of every instance of a stacked table's
    # screen, None where no design is feasible.
    designs, bounds, settled = screen.designs, screen.bounds, screen.settled
    unsettled = np.isnan(settled)
    # Per instance, the ceiling of its best unsettled feasible design and
    # its best settled utility, -inf where it has none.
    ceilings = np.where(unsettled, bounds, -np.inf).max(axis=1) * (1.0 + BOUND_SLACK)
    ranked = np.where(unsettled, -np.inf, settled)
    utilities = ranked.max(axis=1).tolist()
    winners: list = []
    if max(utilities) > -np.inf:
        # The settled design maximizing (utility, -pfa, -k): the first
        # maximum with the designs in (pfa, k) order.
        by_tie = np.lexsort((designs.k, designs.pfa))
        winners = by_tie[ranked[:, by_tie].argmax(axis=1)].tolist()
    found = []
    for n, (ceiling, utility) in enumerate(zip(ceilings.tolist(), utilities)):
        best = None
        if utility > -np.inf:
            best = _incumbent(None, designs, winners[n], utility, None)
        # The instance walks only where a ceiling reaches its incumbent's
        # utility; a settled winner is then allocated by the walk entry,
        # on the instance's own table and screen.
        if ceiling > -np.inf and ceiling >= utility:
            best = _walk(table.instance(n), screen.instance(n), best)
        if best is not None and best[2] is None:
            best = best[:2] + (_allocate(table.instance(n), screen.instance(n), best[1]),)
        found.append(None if best is None else best[1:])
    return found


def _walk(table: UserTable, screen, best: Optional[tuple]) -> Optional[tuple]:
    # The incumbent after walking one instance's unsettled feasible
    # designs (its own table and screen) by descending bound, until the
    # next ceiling falls below the incumbent's utility.
    designs, bounds = screen.designs, screen.bounds
    walked = np.flatnonzero((bounds > -np.inf) & np.isnan(screen.settled))
    order = walked[np.argsort(-bounds[walked], kind="stable")]
    ceilings = (bounds[order] * (1.0 + BOUND_SLACK)).tolist()
    for d, ceiling in zip(order.tolist(), ceilings):
        if best is not None and ceiling < best[0][0]:
            break
        alloc = _allocate(table, screen, d)
        if alloc.feasible:
            best = _incumbent(best, designs, d, alloc.fc_utility, alloc)
    return best


#: The most users :func:`exhaustive_oracle` takes (its cost is O(2^M)).
ORACLE_MAX_USERS = 12

#: Elements (members x designs x subsets) in one chunk of the oracle's
#: batched scoring: each working array of a chunk holds at most this
#: many floats (64 kB), whatever the number of subsets of a size.
_ORACLE_CHUNK = 1 << 13


@lru_cache(maxsize=128)
def _subsets(n: int, size: int) -> tuple:
    # Every subset of ``size`` of n users in ``itertools.combinations``
    # order, as an S x size array of members, and its n x S membership
    # mask; both read-only.
    subsets = np.array(list(itertools.combinations(range(n), size)))
    member = np.zeros((n, len(subsets)), dtype=bool)
    member[subsets.T, np.arange(len(subsets))] = True
    return _read_only(subsets), _read_only(member)


def _member_sum(values: np.ndarray) -> np.ndarray:
    # The sum over the leading (member) axis, one row at a time in order:
    # bit for bit the sequential sum of each column.
    total = values[0].copy()
    for row in values[1:]:
        total += row
    return total


def exhaustive_oracle(
    all_sus: Sequence[SecondaryUser],
    params: SystemParams,
    grid: DesignGrid,
) -> OptimizationOutcome:
    """Reference search: every subset of the profitable users, every grid
    design with k <= |subset|, detection floor and box feasibility checked
    directly, inner linear program solved by the (provably optimal)
    greedy fill.

    Per subset size L: the admissible designs (P_D at L itself meeting
    the floor) and their weights come from the shared
    :class:`~cogalloc.allocator.DesignTable`; every profitable user's
    rate, bounds and priority under each are design x user arrays; and
    each design's fill order over all profitable users (priority
    descending, ties to the lower index) is, restricted to a subset,
    the subset's own. Every (subset, design) pair of a size is then
    scored in a few numpy passes, a chunk of subsets at a time (at most
    ``_ORACLE_CHUNK`` elements per array), with 0.0 for each
    non-member's lower bound, gap and time. A pair is infeasible when a
    member has zero rate or crossed bounds, or the lower bounds overflow
    T'(L). Every sum runs one member at a time in member order, as
    Python's ``sum`` does over the members alone (a non-member's 0.0
    leaves a sum unchanged), so every value is bitwise reproducible.

    The winner maximises (utility, -pfa, -k); among equal keys the
    first in (size, ``itertools.combinations`` order) wins. The winning
    members are placed by their position in ``all_sus``.

    Raises
    ------
    ValueError
        When the instance exceeds ``ORACLE_MAX_USERS``.
    """
    if len(all_sus) > ORACLE_MAX_USERS:
        raise ValueError(
            f"exhaustive oracle capped at {ORACLE_MAX_USERS} users, got {len(all_sus)}"
        )
    start = time.perf_counter()
    positions = [i for i, su in enumerate(all_sus) if su.earn_rate > su.pay_rate]
    table = UserTable([all_sus[i] for i in positions], params)
    grid_table = design_table(params, grid.pfa_values, grid.k_values)
    n = len(positions)
    best_key = None
    best: Optional[tuple] = None
    # Pairs ruled out carry inf/nan through the chunk arithmetic; they are
    # masked out, not warned about.
    with np.errstate(all="ignore"):
        for size in range(1, n + 1):
            t_prime = table.budgets[size]
            if t_prime <= 0.0:
                continue
            rows, weights = grid_table.admissible(size)
            n_designs = len(rows)
            if not n_designs:
                continue
            rates, lowers, uppers, prios = table.price(weights[:, :1], weights[:, 1:])
            # Member axis first: user x design (x subset, broadcast). A
            # user whose bounds cross rules the design out for every subset
            # holding it, as does a zero-rate user (infinite lower bound):
            # an infinite lower bound overflows any budget.
            user_lo = np.where(lowers > uppers, np.inf, lowers).T[:, :, None]
            user_prio = prios.T[:, :, None]
            # Each design's fill order (priority descending, ties to the
            # lower index) and its gaps in that order. In a (user, design)
            # x subset array flattened by rows, user i at design d is row
            # i * D + d; ``back`` maps it to the row that holds the same
            # pair in fill order, rank * D + d.
            order = np.argsort(-prios, axis=1, kind="stable")
            fill_gap = np.take_along_axis(uppers - lowers, order, axis=1).T[:, :, None]
            fill_order = order.T
            back = (np.argsort(order, axis=1).T * n_designs + np.arange(n_designs)).ravel()
            subsets, member = _subsets(n, size)
            step = max(1, _ORACLE_CHUNK // (n * n_designs))
            for first in range(0, len(subsets), step):
                inside = member[:, first : first + step]
                lo = np.where(inside[:, None, :], user_lo, 0.0)
                lo_sum = _member_sum(lo)
                fits = lo_sum <= t_prime
                if not fits.any():
                    continue
                # Greedy fill in priority order. ``left`` is the budget left
                # before each user in fill order: a gap below it is granted
                # in full, the first that is not takes what is left, and
                # from there on ``left`` is <= 0 so the rest get nothing.
                gap = np.where(inside[fill_order], fill_gap, 0.0)
                grant = np.empty_like(gap)
                left = t_prime - lo_sum
                for j in range(n):
                    np.minimum(gap[j], left, out=grant[j])
                    np.maximum(grant[j], 0.0, out=grant[j])
                    left -= gap[j]
                # The grants back in user order, added to the lower bounds.
                times = lo + grant.reshape(-1, lo.shape[2])[back].reshape(lo.shape)
                utility = np.where(fits, _member_sum(user_prio * times), -np.inf)
                d, s = divmod(int(utility.argmax()), utility.shape[1])
                design = grid_table.design(rows[d])
                key = (float(utility[d, s]), -design.pfa_local, -design.k_threshold)
                if best_key is None or key > best_key:
                    best_key = key
                    members = subsets[first + s]
                    best = (
                        design,
                        members,
                        times[members, d, s],
                        rates[d, members],
                        prios[d, members],
                        lowers[d, members],
                    )
    elapsed = time.perf_counter() - start
    if best is None:
        return _infeasible_outcome(len(all_sus), elapsed)
    design, members, times, rates, prios, lowers = best
    places = [positions[j] for j in members.tolist()]
    su_utils = (rates * table.margin[members] * (times - lowers)).tolist()
    utility = sum((prios * times).tolist())
    alloc = _placed(len(all_sus), places, times.tolist(), su_utils, utility, None)
    return OptimizationOutcome(design, alloc, elapsed)


def nonjoint_baseline(
    all_sus: Sequence[SecondaryUser],
    params: SystemParams,
    grid: DesignGrid,
) -> OptimizationOutcome:
    """Detection-first baseline.

    Stage 1 keeps the users whose full buffer is worth more than the
    sensing cost, then picks the grid design minimizing the fused false
    alarm subject to the detection floor at that set size (ties: smaller
    false-alarm value, then larger vote threshold); a design that gives a
    kept user a zero effective rate is inadmissible. Stage 2 activates
    the whole set and splits the budget T'(size) greedily with all lower
    bounds forced to zero, so individual utilities may come out negative.

    Infeasible when no user is kept, no design is admissible, or
    T'(size) <= 0 leaves no time to split.
    """
    start = time.perf_counter()
    m = len(all_sus)
    cost = params.sensing_cost
    kept = [
        i
        for i, su in enumerate(all_sus)
        if su.buffer_bits * (su.earn_rate - su.pay_rate) - cost >= 0.0
    ]
    table = UserTable([all_sus[i] for i in kept], params)
    size = len(table.sus)
    budget = table.budgets.item(size)

    best = None
    if budget > 0.0:
        grid_table = design_table(params, grid.pfa_values, grid.k_values)
        rows, weights = grid_table.admissible(size)
        # A design giving a kept user a zero effective rate is inadmissible;
        # the rest are ranked by (P_FA, pfa, -k).
        served = (table.price(weights[:, :1], weights[:, 1:])[0] > 0.0).all(axis=1)
        rows, weights = rows[served], weights[served]
        if rows.size:
            p_fa = grid_table.tails(rows, size)[:, 0]
            best = np.lexsort((-grid_table.k[rows], grid_table.pfa[rows], p_fa))[0]
    if best is None:
        return _infeasible_outcome(m, time.perf_counter() - start)

    best_design = grid_table.design(rows[best])
    rates, _, uppers, prios = table.price(*weights[best].tolist())
    times = np.array(greedy_topup(np.zeros(size), uppers, prios, budget))
    su_utils = (rates * times * table.margin - cost).tolist()
    alloc = _placed(m, kept, times.tolist(), su_utils, sum((prios * times).tolist()), None)
    return OptimizationOutcome(best_design, alloc, time.perf_counter() - start)


def count_negative_utility(report) -> int:
    """How many users ended a run with strictly negative utility.

    Accepts an :class:`OptimizationOutcome`, an :class:`AllocationResult`,
    or a plain sequence of utilities.
    """
    utilities = getattr(report, "su_utilities", report)
    return sum(1 for u in utilities if u < 0.0)


# ---------------------------------------------------------------------------
# Quasiconcavity probe
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HessianProbeConfig:
    """Worked example for the bordered-Hessian probe.

    ``pay_times_t`` is the fixed product a_i * t_i shared by all users.
    Defaults reproduce the non-quasiconcavity demonstration instance.
    """

    m_users: int = 5
    p_h0: float = 0.6
    gamma_db: float = -7.5
    n_samples: int = 40
    r0: tuple = (7.4, 8.0, 8.2, 0.2, 9.5)
    r1: tuple = (2.3, 3.5, 2.7, 0.02, 3.3)
    pay_times_t: float = 0.1

    def geometry(self) -> SensingGeometry:
        return SensingGeometry(
            gamma=db_to_linear(self.gamma_db), n_samples=self.n_samples
        )


@dataclass(frozen=True)
class ProbePoint:
    pfa: float
    det_h: float
    det_ha: float


def _log_binom(m: int, k: float) -> float:
    # ln C(m, k) for real k in [0, m + 1).  With k = j + f (j integer,
    # 0 < f < 1), C(m, k) = C(m, j) sin(pi f)/(pi f) / (prod_{i<=j} (1 + f/i)
    # prod_{i<=m-j} (1 - f/i)); summed exactly, the logs stay within 3e-14
    # of ln C where log-gamma differences lose 4e-13 at m = 400.
    j = math.floor(k)
    f = k - j
    log_comb = math.log(math.comb(m, j))
    if f == 0.0:
        return log_comb
    return math.fsum(
        [
            log_comb,
            math.log(math.sin(math.pi * min(f, 1.0 - f)) / (math.pi * f)),
            *(-math.log1p(f / i) for i in range(1, j + 1)),
            *(-math.log1p(-f / i) for i in range(1, m - j + 1)),
        ]
    )


def _digamma_int(n: int) -> float:
    # psi(n) = -gamma + sum_{i<n} 1/i at a positive integer n.
    return math.fsum([-_EULER_GAMMA, *(1.0 / i for i in range(1, n))])


def binom_term(p: float, k: float, m: int) -> float:
    """C(m,k) p^k (1-p)^(m-k) with the log-gamma binomial coefficient,
    defined for real k in [0, m+1] (zero at k = m+1)."""
    if k >= m + 1.0:
        return 0.0
    return math.exp(_log_binom(m, k) + k * math.log(p) + (m - k) * math.log1p(-p))


def _tail_knot(p: float, j: int, m: int) -> tuple:
    # (tail value, summand g, dg/dk) at integer knot j; the summand's
    # log-derivative is ln(p/q) - psi(j+1) + psi(m-j+1), with the j=m+1
    # endpoint handled by its limit g ~ (m+1-j) p^(m+1)/((m+1)q).
    if j <= 0:
        j = 0
    if j >= m + 1:
        return 0.0, 0.0, -(p ** (m + 1)) / ((m + 1) * (1.0 - p))
    value = sum(binom_term(p, l, m) for l in range(j, m + 1)) if j > 0 else 1.0
    g = binom_term(p, j, m)
    g_prime = g * (
        math.log(p) - math.log1p(-p) - _digamma_int(j + 1) + _digamma_int(m - j + 1)
    )
    return value, g, g_prime


def smooth_binom_tail(p: float, k: float, m: int) -> float:
    """Continuous-k extension of the binomial upper tail.

    Piecewise quintic Hermite through the exact integer-k tails with knot
    slope -C(m,k)p^k(1-p)^(m-k) (log-gamma binomial) and matching knot
    curvature, so the extension is C^2, equals the discrete tail at
    integer k, and its k-derivative there equals the one-step difference
    the closed-form appendix derivatives describe.
    """
    if k < 0.0 or k > m + 1.0:
        raise ValueError(f"k must lie in [0, {m + 1}], got {k}")
    k0 = min(int(math.floor(k)), m)
    theta = k - k0
    f0, g0, gp0 = _tail_knot(p, k0, m)
    if theta == 0.0:
        return f0
    f1, g1, gp1 = _tail_knot(p, k0 + 1, m)
    t2, t3 = theta * theta, theta**3
    t4, t5 = theta**4, theta**5
    h0 = 1 - 10 * t3 + 15 * t4 - 6 * t5
    h1 = theta - 6 * t3 + 8 * t4 - 3 * t5
    h2 = 0.5 * t2 - 1.5 * t3 + 1.5 * t4 - 0.5 * t5
    h3 = 10 * t3 - 15 * t4 + 6 * t5
    h4 = -4 * t3 + 7 * t4 - 3 * t5
    h5 = 0.5 * t3 - t4 + 0.5 * t5
    return (
        h0 * f0
        + h1 * (-g0)
        + h2 * (-gp0)
        + h3 * f1
        + h4 * (-g1)
        + h5 * (-gp1)
    )


def probe_utility(cfg: HessianProbeConfig) -> Callable[[float, float], float]:
    """The probe's smooth objective U(pfa, k): opportunity-weighted revenue
    with the fused tails made continuous in k."""
    geom = cfg.geometry()
    a_coef = cfg.p_h0 * sum(r * cfg.pay_times_t for r in cfg.r0)
    b_coef = (1.0 - cfg.p_h0) * sum(r * cfg.pay_times_t for r in cfg.r1)
    m = cfg.m_users

    def utility(pfa: float, k: float) -> float:
        p_fa_tail = smooth_binom_tail(pfa, k, m)
        p_d_tail = smooth_binom_tail(local_pd(pfa, geom), k, m)
        return a_coef * (1.0 - p_fa_tail) + b_coef * (1.0 - p_d_tail)

    return utility


#: The probe's finite-difference steps in the false-alarm value and in k.
PROBE_STEP_PFA = 1e-4
_PROBE_STEP_K = 1e-3


def quasiconcavity_probe(
    cfg: HessianProbeConfig = HessianProbeConfig(),
    pfa_grid: Optional[Sequence[float]] = None,
) -> list:
    """Evaluate the bordered-Hessian determinants of the probe objective
    across a false-alarm grid at k = M, all partial derivatives by
    central finite differences.

    det_ha is the 2x2 bordered minor (identically -(dU/dpfa)^2, so never
    positive); quasiconcavity additionally needs det_h > 0, and the probe
    exists to exhibit grid points where that fails.

    Raises
    ------
    ValueError
        On an empty grid, or a grid value not strictly inside
        (PROBE_STEP_PFA, 1 - PROBE_STEP_PFA), where a difference would
        leave (0, 1).
    """
    if pfa_grid is None:
        pfa_grid = [round(0.05 * i, 2) for i in range(1, 20)]
    if not len(pfa_grid):
        raise ValueError("pfa grid is empty")
    hp, hk = PROBE_STEP_PFA, _PROBE_STEP_K
    for pfa in pfa_grid:
        if not hp < pfa < 1.0 - hp:
            raise ValueError(
                f"pfa grid value {pfa} must lie strictly inside ({hp}, {1.0 - hp}):"
                f" the probe steps pfa by +-{hp}"
            )
    k = float(cfg.m_users)
    u = probe_utility(cfg)
    points = []
    for pfa in pfa_grid:
        u_pp_ = u(pfa + hp, k)
        u_pm_ = u(pfa - hp, k)
        u_kp_ = u(pfa, k + hk)
        u_km_ = u(pfa, k - hk)
        u_0 = u(pfa, k)
        u_p = (u_pp_ - u_pm_) / (2 * hp)
        u_k = (u_kp_ - u_km_) / (2 * hk)
        u_pp = (u_pp_ - 2 * u_0 + u_pm_) / hp**2
        u_kk = (u_kp_ - 2 * u_0 + u_km_) / hk**2
        u_pk = (
            u(pfa + hp, k + hk)
            - u(pfa + hp, k - hk)
            - u(pfa - hp, k + hk)
            + u(pfa - hp, k - hk)
        ) / (4 * hp * hk)
        det_ha = -(u_p**2)
        det_h = 2 * u_p * u_k * u_pk - u_p**2 * u_kk - u_k**2 * u_pp
        points.append(ProbePoint(pfa=pfa, det_h=det_h, det_ha=det_ha))
    return points
