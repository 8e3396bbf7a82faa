"""User selection and transmission-time allocation at a fixed sensing design.

Given a fixed (local false-alarm, vote threshold) operating point, the
fusion center classifies the time budget against the users' break-even
and buffer-clearing bounds, prunes users that can never be served
profitably, water-fills the contested-time case, and walks an
elimination/exchange search over candidate active sets.

Internally the users of one call live in a small numpy workspace (idle
and interfered rates, margins, backlogs) and candidate sets are index
tuples into it, so evaluating a set at any cardinality is a handful of
vector operations.

Tie-breaking everywhere (argmax/argmin over users, exchange orderings on
equal keys) is by lowest user id, so results are bit-reproducible.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .economics import (
    SecondaryUser,
    SystemParams,
    rate_idle,
    rate_interfered,
)
from .sensing import (
    SensingDesign,
    SensingGeometry,
    global_pd,
    global_pfa,
    min_active_users,
)

#: Absolute slack (seconds) for <= comparisons on accumulated times.
TIME_TOL = 1e-12


class CaseLabel(enum.Enum):
    """Budget regime for a candidate set at its own cardinality."""

    CASE1 = 1  # abundant time: sum of upper bounds fits the budget
    CASE2 = 2  # contested time: budget sits between bound sums
    CASE3 = 3  # infeasible time: even the lower bounds overflow


@dataclass(frozen=True)
class AllocationResult:
    """Activity vector, time vector, and utilities aligned with the input users."""

    active: tuple
    times: tuple
    fc_utility: float
    su_utilities: tuple
    case: Optional[CaseLabel]
    feasible: bool

    def __post_init__(self) -> None:
        for is_active, t in zip(self.active, self.times):
            if t > 0.0 and not is_active:
                raise ValueError("positive time allocated to an inactive user")
            if not is_active and t != 0.0:
                raise ValueError("inactive users must have zero time")

    @property
    def selected_ids(self) -> tuple:
        return tuple(i for i, flag in enumerate(self.active) if flag)

    @property
    def n_selected(self) -> int:
        return sum(1 for flag in self.active if flag)


def user_arrays(sus: Sequence[SecondaryUser], params: SystemParams) -> tuple:
    """Design-independent per-user columns (r0, r1, margin, buffers, pay):
    idle and interfered rates, price margin b_i - a_i, backlog in bits,
    and pay rate a_i."""
    return (
        np.array([rate_idle(su, params) for su in sus]),
        np.array([rate_interfered(su, params) for su in sus]),
        np.array([su.earn_rate - su.pay_rate for su in sus]),
        np.array([float(su.buffer_bits) for su in sus]),
        np.array([su.pay_rate for su in sus]),
    )


def opportunity_weights(
    design: SensingDesign,
    geom: SensingGeometry,
    params: SystemParams,
    l_active: int,
) -> tuple:
    """(P(H0)(1-P_FA), P(H1)(1-P_D)) with ``l_active`` reporting users: the
    factors on the idle and interfered rates in the effective rate."""
    return (
        params.p_h0 * (1.0 - global_pfa(design, l_active)),
        params.p_h1 * (1.0 - global_pd(design, geom, l_active)),
    )


def time_bound_arrays(rates, margin, buffers, cost: float) -> tuple:
    """Break-even lower and buffer-clearing upper time bounds, elementwise
    (any broadcastable shapes). A never-profitable user (margin <= 0)
    gets an infinite lower bound.

    A zero effective rate divides by zero and gives inf/inf bounds (nan
    upper with an empty buffer). Every caller rejects such a user, since
    ``lower < upper`` is false, so the division warnings are silenced.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        lowers = np.where(margin > 0.0, cost / (rates * margin), np.inf)
        uppers = buffers / rates
    return lowers, uppers


class _Workspace:
    """Per-call arrays for one (user list, design, geometry, params)."""

    __slots__ = (
        "sus", "design", "geom", "params", "r0", "r1", "margin", "buffers",
        "pay", "ids", "cost", "_weights", "_budget",
    )

    def __init__(self, sus, design, geom, params):
        self.sus = list(sus)
        self.design = design
        self.geom = geom
        self.params = params
        self.r0, self.r1, self.margin, self.buffers, self.pay = user_arrays(
            self.sus, params
        )
        self.ids = np.array([su.id for su in self.sus])
        self.cost = params.sensing_cost
        self._weights: dict = {}
        self._budget: dict = {}

    def weights(self, l_active: int) -> tuple:
        got = self._weights.get(l_active)
        if got is None:
            got = opportunity_weights(self.design, self.geom, self.params, l_active)
            self._weights[l_active] = got
        return got

    def budget(self, l_active: int) -> float:
        got = self._budget.get(l_active)
        if got is None:
            p = self.params
            got = (
                p.frame_duration
                - p.tau2
                - p.n_samples * p.sample_interval
                - p.tau5
                - l_active * p.tau_r_prime
            )
            self._budget[l_active] = got
        return got

    def evaluate(self, idx: tuple) -> "_SetEval":
        members = np.fromiter(idx, dtype=np.intp, count=len(idx))
        q0, q1 = self.weights(len(idx))
        rates = q0 * self.r0[members] + q1 * self.r1[members]
        margin = self.margin[members]
        lowers, uppers = time_bound_arrays(
            rates, margin, self.buffers[members], self.cost
        )
        return _SetEval(
            idx=idx,
            rates=rates,
            lowers=lowers,
            uppers=uppers,
            priorities=rates * self.pay[members],
            t_prime=self.budget(len(idx)),
            margin=margin,
        )


@dataclass
class _SetEval:
    """Bounds, priorities, and budget for one candidate set at its own size."""

    idx: tuple
    rates: np.ndarray
    lowers: np.ndarray
    uppers: np.ndarray
    priorities: np.ndarray
    t_prime: float
    margin: np.ndarray

    @property
    def case(self) -> CaseLabel:
        if float(self.uppers.sum()) <= self.t_prime + TIME_TOL:
            return CaseLabel.CASE1
        if float(self.lowers.sum()) <= self.t_prime + TIME_TOL:
            return CaseLabel.CASE2
        return CaseLabel.CASE3


def _workspace(sus, design, geom, params) -> _Workspace:
    return _Workspace(sus, design, geom, params)


def _evaluate_set(sus, design, geom, params) -> _SetEval:
    # Bounds/priorities of a standalone user list at its own cardinality.
    ws = _Workspace(sus, design, geom, params)
    return ws.evaluate(tuple(range(len(sus))))


def classify_case(
    sus: Sequence[SecondaryUser],
    design: SensingDesign,
    geom: SensingGeometry,
    params: SystemParams,
) -> CaseLabel:
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
    ws = _workspace(sus, design, geom, params)
    return ws.evaluate(tuple(range(len(sus)))).case


def reduce_feasible_set(
    all_sus: Sequence[SecondaryUser],
    design: SensingDesign,
    geom: SensingGeometry,
    params: SystemParams,
) -> list:
    """Keep exactly the users whose bounds are well ordered at the full
    set size (lower < upper). Never-profitable users carry an infinite
    lower bound, so the same filter removes them. Exclusion at the full
    size is permanent: both bounds scale as 1/rate, so their order is the
    same at every cardinality.
    """
    if not all_sus:
        return []
    ws = _workspace(all_sus, design, geom, params)
    ev = ws.evaluate(tuple(range(len(all_sus))))
    return [su for su, lo, up in zip(all_sus, ev.lowers, ev.uppers) if lo < up]


def greedy_topup(
    lowers: Sequence[float],
    uppers: Sequence[float],
    priorities: Sequence[float],
    budget: float,
) -> list:
    """Water-filling core: hand everyone their lower bound, then grant the
    remaining budget in descending priority order, each member up to its
    upper bound. Ties go to the earliest position.

    Distributes min(budget, sum of uppers) in total (assuming the lower
    bounds fit the budget).
    """
    times = list(lowers)
    remaining = budget - sum(lowers)
    order = sorted(range(len(times)), key=lambda i: (-priorities[i], i))
    for i in order:
        if remaining <= 0.0:
            break
        grant = min(uppers[i] - lowers[i], remaining)
        times[i] += grant
        remaining -= grant
    return times


def _topup_times(ev: _SetEval) -> np.ndarray:
    times = ev.lowers.copy()
    remaining = ev.t_prime - float(times.sum())
    order = sorted(range(len(times)), key=lambda i: (-ev.priorities[i], i))
    for i in order:
        if remaining <= 0.0:
            break
        grant = min(ev.uppers[i] - ev.lowers[i], remaining)
        times[i] += grant
        remaining -= grant
    return times


def _result_for_times(
    ws: _Workspace, ev: _SetEval, times: np.ndarray, case: CaseLabel
) -> AllocationResult:
    # R t (b-a) - cost == R (b-a) (t - LB); the excess form is exactly
    # zero at the break-even grant instead of rounding to +-1e-19.
    su_utils = ev.rates * ev.margin * (times - ev.lowers)
    return AllocationResult(
        active=tuple(True for _ in ev.idx),
        times=tuple(float(t) for t in times),
        fc_utility=float(np.dot(ev.priorities, times)),
        su_utilities=tuple(float(u) for u in su_utils),
        case=case,
        feasible=True,
    )


def _allocate_at_upper(ws: _Workspace, ev: _SetEval) -> AllocationResult:
    # Serving everyone their buffer-clearing bound earns exactly the
    # buffered value sum(pay_i * B_i); computing it in that closed form
    # keeps the utility bitwise identical across designs, so flat-surface
    # ties resolve by the documented (pfa, k) order.
    members = np.fromiter(ev.idx, dtype=np.intp, count=len(ev.idx))
    su_utils = ev.rates * ev.margin * (ev.uppers - ev.lowers)
    return AllocationResult(
        active=tuple(True for _ in ev.idx),
        times=tuple(float(t) for t in ev.uppers),
        fc_utility=float(np.dot(ws.pay[members], ws.buffers[members])),
        su_utilities=tuple(float(u) for u in su_utils),
        case=CaseLabel.CASE1,
        feasible=True,
    )


def _evaluate_candidate(ws: _Workspace, idx: tuple) -> Optional[AllocationResult]:
    # Case-1 scores at upper bounds, Case-2 via water-filling, Case-3 is
    # discarded (returns None).
    ev = ws.evaluate(idx)
    case = ev.case
    if case is CaseLabel.CASE1:
        return _allocate_at_upper(ws, ev)
    if case is CaseLabel.CASE2:
        return _result_for_times(ws, ev, _topup_times(ev), CaseLabel.CASE2)
    return None


def waterfill_allocate(
    sus: Sequence[SecondaryUser],
    design: SensingDesign,
    geom: SensingGeometry,
    params: SystemParams,
) -> AllocationResult:
    """Contested-time allocation: lower bounds first, then greedy top-up
    by descending per-second payment R_i a_i.

    Raises
    ------
    ValueError
        If the set is not in the contested-time case.
    """
    ws = _workspace(sus, design, geom, params)
    ev = ws.evaluate(tuple(range(len(sus))))
    if ev.case is not CaseLabel.CASE2:
        raise ValueError(f"water-filling requires Case-2, set is {ev.case}")
    return _result_for_times(ws, ev, _topup_times(ev), CaseLabel.CASE2)


def _ordered_desc(ws: _Workspace, idx: Sequence[int], keys: np.ndarray) -> list:
    # Descending by key, ties by lowest user id.
    return sorted(idx, key=lambda i: (-keys[i], ws.ids[i]))


def _exchange_core(ws: _Workspace, kept: tuple, excluded: tuple) -> tuple:
    best_idx = kept
    best_alloc = _evaluate_candidate(ws, kept)
    best_utility = best_alloc.fc_utility if best_alloc is not None else -math.inf

    def consider(candidate: tuple) -> None:
        nonlocal best_idx, best_alloc, best_utility
        alloc = _evaluate_candidate(ws, candidate)
        if alloc is not None and alloc.fc_utility > best_utility:
            best_idx, best_alloc, best_utility = candidate, alloc, alloc.fc_utility

    if not excluded or not kept:
        return best_idx, best_alloc

    # Orderings are taken at the current candidate cardinality |kept|.
    l_active = len(kept)
    q0, q1 = ws.weights(l_active)
    rates = q0 * ws.r0 + q1 * ws.r1
    lb_keys, ub_keys = time_bound_arrays(rates, ws.margin, ws.buffers, ws.cost)
    pay_keys = rates * ws.pay

    by_ub = (_ordered_desc(ws, kept, ub_keys), _ordered_desc(ws, excluded, ub_keys))
    by_lb = (_ordered_desc(ws, kept, lb_keys), _ordered_desc(ws, excluded, lb_keys))
    by_buf = (
        _ordered_desc(ws, kept, ws.buffers),
        _ordered_desc(ws, excluded, ws.buffers),
    )
    by_pay = (_ordered_desc(ws, kept, pay_keys), _ordered_desc(ws, excluded, pay_keys))

    def swap(ordering: tuple, n: int, last_out: bool) -> tuple:
        kept_sorted, ex_sorted = ordering
        out = set(kept_sorted[-n:]) if last_out else set(kept_sorted[:n])
        incoming = ex_sorted[:n] if last_out else ex_sorted[-n:]
        return tuple(sorted([i for i in kept if i not in out] + list(incoming)))

    for n in range(1, min(len(kept), len(excluded)) + 1):
        # Extreme swap constructions at depth n: g1 maximizes the
        # upper-bound sum, g2 minimizes it; g3/g4 the same for lower
        # bounds; g5 maximizes total buffered bits; g6 total payment.
        g1 = swap(by_ub, n, last_out=True)
        g2 = swap(by_ub, n, last_out=False)
        g3 = swap(by_lb, n, last_out=True)
        g4 = swap(by_lb, n, last_out=False)
        g5 = swap(by_buf, n, last_out=True)
        g6 = swap(by_pay, n, last_out=True)

        if (
            ws.evaluate(g1).case is CaseLabel.CASE1
            and ws.evaluate(g2).case is CaseLabel.CASE1
        ):
            consider(g5)
            continue
        if (
            ws.evaluate(g3).case is CaseLabel.CASE2
            and ws.evaluate(g4).case is CaseLabel.CASE2
        ):
            consider(g6)
            break
        if ws.evaluate(g4).case is CaseLabel.CASE3:
            break
        for out_combo in itertools.combinations(kept, n):
            rest = [i for i in kept if i not in out_combo]
            for in_combo in itertools.combinations(excluded, n):
                consider(tuple(sorted(rest + list(in_combo))))

    return best_idx, best_alloc


def exchange_search(
    kept: Sequence[SecondaryUser],
    excluded: Sequence[SecondaryUser],
    design: SensingDesign,
    geom: SensingGeometry,
    params: SystemParams,
) -> tuple:
    """Same-cardinality exchange refinement between the kept set and the
    eliminated pool.

    For each swap depth n the four bound-ordered extreme sets decide
    whether the whole depth can be short-circuited (all-Case-1: score the
    buffer-ordered swap and go deeper; all-Case-2: score the
    payment-ordered swap and stop; min-lower-bound set Case-3: stop), and
    otherwise every n-for-n swap is enumerated. The kept set itself seeds
    the candidate pool, so with nothing better it is returned unchanged.

    Returns
    -------
    (tuple of SecondaryUser, AllocationResult)
        The best same-cardinality set found and its allocation (aligned
        to the returned set, sorted by user id).
    """
    kept = sorted(kept, key=lambda su: su.id)
    excluded = sorted(excluded, key=lambda su: su.id)
    if {su.id for su in kept} & {su.id for su in excluded}:
        raise ValueError("kept and excluded sets overlap")
    pool = kept + excluded
    ws = _workspace(pool, design, geom, params)
    kept_idx = tuple(range(len(kept)))
    ex_idx = tuple(range(len(kept), len(pool)))
    best_idx, best_alloc = _exchange_core(ws, kept_idx, ex_idx)
    return tuple(pool[i] for i in best_idx), best_alloc


def _expand(
    all_sus: Sequence[SecondaryUser],
    positions: Sequence[int],
    alloc: Optional[AllocationResult],
    case: Optional[CaseLabel],
    feasible: bool,
) -> AllocationResult:
    # Map a subset-aligned allocation back onto the full input ordering;
    # ``positions`` are indices into all_sus.
    m = len(all_sus)
    active = [False] * m
    times = [0.0] * m
    su_utils = [0.0] * m
    fc = 0.0
    if alloc is not None:
        for j, i in enumerate(positions):
            active[i] = True
            times[i] = alloc.times[j]
            su_utils[i] = alloc.su_utilities[j]
        fc = alloc.fc_utility
        case = alloc.case
    return AllocationResult(
        active=tuple(active),
        times=tuple(times),
        fc_utility=fc,
        su_utilities=tuple(su_utils),
        case=case,
        feasible=feasible,
    )


def select_and_allocate(
    all_sus: Sequence[SecondaryUser],
    design: SensingDesign,
    geom: SensingGeometry,
    params: SystemParams,
) -> AllocationResult:
    """Full selection + allocation at a fixed sensing design.

    Prunes to the feasible set, checks the detection floor, and then:
    abundant time serves everyone at their upper bounds; otherwise an
    elimination loop drops the lowest-paying user, watching for the
    abundant case to trigger the exchange refinement, and keeps the best
    contested-time incumbent seen anywhere along the way.

    Infeasibility (detection floor unreachable, or lower bounds that
    overflow the budget at the minimum viable set size) is reported via
    ``feasible=False``, never an exception.
    """
    m = len(all_sus)
    infeasible = _expand(all_sus, (), None, None, False)
    if m == 0:
        return infeasible
    ws = _workspace(all_sus, design, geom, params)
    full = ws.evaluate(tuple(range(m)))
    reduced = tuple(i for i in range(m) if full.lowers[i] < full.uppers[i])
    if not reduced or design.k_threshold > len(reduced):
        return infeasible
    l_lb = min_active_users(design, geom, params.zeta, len(reduced))
    if l_lb is None or len(reduced) < l_lb:
        return infeasible

    def finish(idx, alloc):
        return _expand(all_sus, idx, alloc, alloc.case, True)

    ev = ws.evaluate(reduced)
    if ev.case is CaseLabel.CASE1:
        return finish(reduced, _allocate_at_upper(ws, ev))
    if len(reduced) == l_lb:
        if ev.case is CaseLabel.CASE2:
            return finish(
                reduced, _result_for_times(ws, ev, _topup_times(ev), CaseLabel.CASE2)
            )
        return _expand(all_sus, (), None, CaseLabel.CASE3, False)

    # Elimination loop with a global best-so-far contested-time incumbent.
    current = reduced
    incumbent_idx: Optional[tuple] = None
    incumbent: Optional[AllocationResult] = None

    def note_incumbent(idx, alloc):
        nonlocal incumbent_idx, incumbent
        if incumbent is None or alloc.fc_utility > incumbent.fc_utility:
            incumbent_idx, incumbent = idx, alloc

    while len(current) > l_lb:
        if ev.case is CaseLabel.CASE2:
            note_incumbent(
                current, _result_for_times(ws, ev, _topup_times(ev), CaseLabel.CASE2)
            )
        # Drop the user paying the least per second at this set size.
        j = min(
            range(len(current)),
            key=lambda i: (ev.priorities[i], ws.ids[current[i]]),
        )
        current = current[:j] + current[j + 1 :]
        ev = ws.evaluate(current)

        if ev.case is CaseLabel.CASE1:
            excluded = tuple(i for i in reduced if i not in current)
            star_idx, star_alloc = _exchange_core(ws, current, excluded)
            if star_alloc.case is CaseLabel.CASE1:
                if incumbent is not None and incumbent.fc_utility > star_alloc.fc_utility:
                    return finish(incumbent_idx, incumbent)
                return finish(star_idx, star_alloc)
            # Contested-time winner: adopt it and keep eliminating.
            current = star_idx
            ev = ws.evaluate(current)
            note_incumbent(star_idx, star_alloc)

        if len(current) == l_lb:
            final: Optional[AllocationResult] = None
            if ev.case is CaseLabel.CASE1:
                final = _allocate_at_upper(ws, ev)
            elif ev.case is CaseLabel.CASE2:
                final = _result_for_times(ws, ev, _topup_times(ev), CaseLabel.CASE2)
            if final is not None:
                if incumbent is not None and incumbent.fc_utility > final.fc_utility:
                    return finish(incumbent_idx, incumbent)
                return finish(current, final)
            if incumbent is not None:
                return finish(incumbent_idx, incumbent)
            return _expand(all_sus, (), None, CaseLabel.CASE3, False)

    if incumbent is not None:
        return finish(incumbent_idx, incumbent)
    return _expand(all_sus, (), None, CaseLabel.CASE3, False)
