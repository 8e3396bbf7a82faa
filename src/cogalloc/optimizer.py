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
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .allocator import (
    AllocationResult,
    UserTable,
    _infeasible,
    _placed,
    greedy_topup,
    opportunity_weights,
    select_and_allocate,
    utility_bound,
)
from .economics import _EULER_GAMMA, SecondaryUser, SystemParams
from .sensing import (
    SensingDesign,
    SensingGeometry,
    global_pd,
    global_pfa,
    local_pd,
)
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
    """Best design + allocation over a grid, with the search surface."""

    best_design: Optional[SensingDesign]
    best_allocation: AllocationResult
    utility_surface: Optional[dict]
    wall_time: float

    @property
    def feasible(self) -> bool:
        return self.best_allocation.feasible

    @property
    def fc_utility(self) -> float:
        return self.best_allocation.fc_utility if self.feasible else 0.0


def _infeasible_outcome(m: int, surface, elapsed: float) -> OptimizationOutcome:
    return OptimizationOutcome(None, _infeasible(m, None), surface, elapsed)


#: Relative slack on a design's utility bound before the grid search
#: skips the design; it covers rounding in the utility and bound sums.
BOUND_SLACK = 1e-9


def joint_optimize(
    all_sus: Sequence[SecondaryUser],
    geom: SensingGeometry,
    params: SystemParams,
    grid: DesignGrid,
    keep_surface: bool = False,
) -> OptimizationOutcome:
    """Grid search over designs, inner selection/allocation per point.

    Feasible ties break toward the smallest false-alarm value, then the
    smallest vote threshold. Returns an all-infeasible outcome when no
    grid point admits a feasible allocation.

    The users' design-independent columns are built once per call (one
    :class:`~cogalloc.allocator.UserTable`). Once a feasible incumbent
    exists, a design is searched only if its utility can reach it. With
    R the design's reduced set and l_lb its minimum viable set size, the
    design's utility is at most
    U_max = min(sum_{i in R} a_i B_i, T'(l_lb) max_{i in R} R_i(l_lb) a_i)
    (see :func:`~cogalloc.allocator.utility_bound`, which adds the budget
    check's TIME_TOL to T'): every candidate set lies in R and has
    L >= l_lb users; each grant is at most B_i / R_i(L) and the grants
    sum to at most T'(L); the fused tails grow with L, so
    R_i(L) <= R_i(l_lb) and T'(L) <= T'(l_lb). The design is skipped when
    U_max * (1 + BOUND_SLACK) < the incumbent's utility; the slack covers
    rounding in the sums, and the strict comparison lets a design that
    could tie the incumbent reach the (pfa, k) tie-break. Skipping only
    designs that cannot win leaves the result bit-for-bit that of
    searching every design. With ``keep_surface`` every design is
    searched, so the surface holds every grid point.
    """
    start = time.perf_counter()
    surface: Optional[dict] = {} if keep_surface else None
    table = UserTable(all_sus, geom, params)
    best_key = None
    best: Optional[tuple] = None
    for k in grid.k_values:
        for pfa in grid.pfa_values:
            design = SensingDesign(pfa_local=pfa, k_threshold=k)
            if surface is None and best_key is not None:
                bound = utility_bound(table, design)
                if bound is None or bound * (1.0 + BOUND_SLACK) < best_key[0]:
                    continue
            alloc = select_and_allocate(all_sus, design, geom, params, table)
            if surface is not None:
                surface[(pfa, k)] = alloc.fc_utility if alloc.feasible else None
            if not alloc.feasible:
                continue
            key = (alloc.fc_utility, -pfa, -k)
            if best_key is None or key > best_key:
                best_key = key
                best = (design, alloc)
    elapsed = time.perf_counter() - start
    if best is None:
        return _infeasible_outcome(len(all_sus), surface, elapsed)
    return OptimizationOutcome(best[0], best[1], surface, elapsed)


def exhaustive_oracle(
    all_sus: Sequence[SecondaryUser],
    geom: SensingGeometry,
    params: SystemParams,
    grid: DesignGrid,
    max_users: int = 12,
) -> OptimizationOutcome:
    """Reference search: every subset of the profitable users, every grid
    design with k <= |subset|, detection floor and box feasibility checked
    directly, inner linear program solved by the (provably optimal)
    greedy fill.

    Work that depends only on the subset size L is done once per size:
    the admissible designs (k <= L and fused detection at L meeting the
    floor), their opportunity weights, and every profitable user's rate,
    bounds and priority under each of them, as design x user arrays.
    Each subset then scores all admissible designs in one block. A design
    is infeasible for the subset when a member has zero effective rate
    or a lower bound above its upper bound, or when the lower bounds
    overflow T'(L); the rest get the greedy fill, vectorised over
    designs. Sums over members run one member at a time in member order,
    as Python's ``sum`` does, so every value is bitwise reproducible.

    The winner maximises (utility, -pfa, -k) with a strict comparison,
    so among equal keys the candidate first in (size ascending,
    ``itertools.combinations`` order) wins.

    Raises
    ------
    ValueError
        When the instance exceeds ``max_users`` (cost is O(2^M)).
    """
    if len(all_sus) > max_users:
        raise ValueError(
            f"exhaustive oracle capped at {max_users} users, got {len(all_sus)}"
        )
    start = time.perf_counter()
    profitable = [su for su in all_sus if su.earn_rate > su.pay_rate]
    table = UserTable(profitable, geom, params)
    best_key = None
    best: Optional[tuple] = None
    # Designs ruled out for a subset carry inf/nan through the block
    # arithmetic; they are masked out, not warned about.
    with np.errstate(all="ignore"):
        for size in range(1, len(profitable) + 1):
            t_prime = table.budgets[size]
            if t_prime <= 0.0:
                continue
            # Ordered by (pfa, k), so the first utility maximum of a block
            # also wins the tie-break.
            designs = [
                SensingDesign(pfa, k)
                for pfa in grid.pfa_values
                for k in sorted(grid.k_values)
                if k <= size
            ]
            designs = [
                d for d in designs if global_pd(d, geom, size) >= params.zeta
            ]
            if not designs:
                continue
            weights = np.array(
                [opportunity_weights(d, geom, params, size) for d in designs]
            )
            rates, lowers, uppers, prios = table.price(weights[:, :1], weights[:, 1:])
            # A user whose bounds cross rules the design out for every
            # subset holding it, as does a zero-rate user (infinite lower
            # bound): an infinite lower bound overflows any budget.
            block = np.stack(
                (
                    np.where(lowers > uppers, np.inf, lowers),
                    uppers - lowers,
                    prios,
                    # Each user's place in the design's fill order (priority
                    # descending, ties to the lower index); within a subset
                    # these ranks order the members the same way.
                    np.argsort(np.argsort(-prios, axis=1, kind="stable"), axis=1),
                )
            )
            rows = np.arange(len(designs))[:, None]
            for members in itertools.combinations(range(len(profitable)), size):
                lo, gap, prio, rank = block.take(members, axis=2)
                lo_sum = np.add.accumulate(lo, axis=1)[:, -1]
                fits = lo_sum <= t_prime
                if not fits.any():
                    continue
                # Greedy fill in priority order. ``left`` is the budget left
                # before each member: a gap below it is granted in full, the
                # first that is not takes what is left, and from there on
                # ``left`` is <= 0 so the rest get nothing.
                order = rank.argsort(axis=1)
                gap = gap[rows, order]
                left = np.subtract.accumulate(
                    np.column_stack((t_prime - lo_sum, gap)), axis=1
                )[:, :-1]
                times = lo.copy()
                times[rows, order] += np.maximum(np.minimum(gap, left), 0.0)
                utility = np.where(
                    fits, np.add.accumulate(prio * times, axis=1)[:, -1], -np.inf
                )
                d = int(utility.argmax())
                design = designs[d]
                key = (float(utility[d]), -design.pfa_local, -design.k_threshold)
                if best_key is None or key > best_key:
                    best_key = key
                    best = (
                        design, members, times[d], rates[d, members], prio[d], lo[d]
                    )
    elapsed = time.perf_counter() - start
    if best is None:
        return _infeasible_outcome(len(all_sus), None, elapsed)
    design, members, times, rates, prios, lowers = best
    index = {su.id: i for i, su in enumerate(all_sus)}
    alloc = _placed(
        len(all_sus),
        [index[profitable[j].id] for j in members],
        times.tolist(),
        (rates * table.margin[list(members)] * (times - lowers)).tolist(),
        sum((prios * times).tolist()),
        None,
    )
    return OptimizationOutcome(design, alloc, None, elapsed)


@dataclass(frozen=True)
class NonJointOutcome:
    """Two-stage baseline result: detection-only design, then time split."""

    outcome: OptimizationOutcome
    su_utilities: tuple = field(default_factory=tuple)

    @property
    def feasible(self) -> bool:
        return self.outcome.feasible

    @property
    def fc_utility(self) -> float:
        return self.outcome.fc_utility


def nonjoint_baseline(
    all_sus: Sequence[SecondaryUser],
    geom: SensingGeometry,
    params: SystemParams,
    grid: DesignGrid,
) -> NonJointOutcome:
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
    table = UserTable(
        [
            su
            for su in all_sus
            if su.buffer_bits * (su.earn_rate - su.pay_rate) - cost >= 0.0
        ],
        geom,
        params,
    )
    size = len(table.sus)
    budget = table.budgets[size]

    best_design = None
    if budget > 0.0:
        best_key = None
        for k in grid.k_values:
            if k > size:
                continue
            for pfa in grid.pfa_values:
                design = SensingDesign(pfa_local=pfa, k_threshold=k)
                if global_pd(design, geom, size) < params.zeta:
                    continue
                key = (global_pfa(design, size), pfa, -k)
                if best_key is not None and key >= best_key:
                    continue
                # A design that leaves an eligible user no access time
                # at all (zero effective rate) is inadmissible.
                if (table.level(design, size)[0] > 0.0).all():
                    best_key = key
                    best_design = design
    if best_design is None:
        return NonJointOutcome(
            _infeasible_outcome(m, None, time.perf_counter() - start), (0.0,) * m
        )

    rates, _, uppers, prios = table.level(best_design, size)
    times = np.array(greedy_topup(np.zeros(size), uppers, prios, budget))
    index = {su.id: i for i, su in enumerate(all_sus)}
    alloc = _placed(
        m,
        [index[su.id] for su in table.sus],
        times.tolist(),
        (rates * times * table.margin - cost).tolist(),
        sum((prios * times).tolist()),
        None,
    )
    outcome = OptimizationOutcome(
        best_design, alloc, None, time.perf_counter() - start
    )
    return NonJointOutcome(outcome, alloc.su_utilities)


def count_negative_utility(report) -> int:
    """How many users ended a run with strictly negative utility.

    Accepts a :class:`NonJointOutcome`, an :class:`AllocationResult`, or
    a plain sequence of utilities.
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


def quasiconcavity_probe(
    cfg: HessianProbeConfig = HessianProbeConfig(),
    pfa_grid: Optional[Sequence[float]] = None,
    k_value: Optional[float] = None,
    step_pfa: float = 1e-4,
    step_k: float = 1e-3,
) -> list:
    """Evaluate the bordered-Hessian determinants of the probe objective
    across a false-alarm grid, all partial derivatives by central finite
    differences.

    det_ha is the 2x2 bordered minor (identically -(dU/dpfa)^2, so never
    positive); quasiconcavity additionally needs det_h > 0, and the probe
    exists to exhibit grid points where that fails.
    """
    if pfa_grid is None:
        pfa_grid = [round(0.05 * i, 2) for i in range(1, 20)]
    if not len(pfa_grid):
        raise ValueError("pfa grid is empty")
    k = float(cfg.m_users if k_value is None else k_value)
    u = probe_utility(cfg)
    hp, hk = step_pfa, step_k
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
