"""User selection and transmission-time allocation at a fixed sensing design.

Given a fixed (local false-alarm, vote threshold) operating point, the
fusion center classifies the time budget against the users' break-even
and buffer-clearing bounds, prunes users that can never be served
profitably, water-fills the contested-time case, and walks an
elimination/exchange search over candidate active sets.

The pricing formulas live here once: the opportunity weights
(:func:`opportunity_weights`), the effective rate blend and per-second
payments (:meth:`UserTable.price`), the break-even and buffer-clearing
bounds (:func:`time_bound_arrays`), and the greedy fill
(:func:`greedy_topup`). The optimizer's oracle and baseline price
through them too.

Internally the users of one call live in a :class:`UserTable`: their
idle and interfered rates, margins, backlogs and the budget at every
set size are built once and shared by every design, and each design's
rates, bounds and priorities at a set size are computed once for all
users. Candidate sets are index tuples into the table, so evaluating a
set is a handful of gathers. Candidates are compared by utility alone;
an :class:`AllocationResult` is built only for the set that is returned.

The screen (each design's reduced set, minimum viable set size and
utility bound) runs for a whole tuple of designs at once
(:meth:`UserTable.screen`) from their user-independent weights
(:class:`DesignWeights`), which a caller may share across calls.

Tie-breaking everywhere (argmax/argmin over users, exchange orderings on
equal keys) is by lowest user id, so results are bit-reproducible.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .economics import (
    SecondaryUser,
    SystemParams,
    effective_time,
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

#: Relative slack on a design's utility bound before the grid search
#: skips the design; it covers rounding in the utility and bound sums.
BOUND_SLACK = 1e-9


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


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class DesignWeights:
    """The user-independent half of the screen of ``designs`` (each with
    k <= m) at ``m`` users.

    Per design, in the given order: the opportunity weights (q0, q1) at
    L = m (``at_m``); l_first, the smallest L in [k, m] whose fused
    detection meets the floor, as :func:`~cogalloc.sensing.min_active_users`
    finds it (m + 1 when no L does); the weights at l_first
    (``at_first``, taken at m when there is no l_first); and the budget
    T'(l_first) + TIME_TOL (``budget_first``). :meth:`at` gives the
    weights at any other size. Nothing here depends on the users, so one
    instance serves every call with the same geometry, params, designs
    and m. Its arrays are read-only, but the instance is not frozen:
    :meth:`at` computes each size's weights on its first request and
    keeps them, so every later call that shares the instance reuses them.
    """

    __slots__ = (
        "designs", "index", "l_first", "at_m", "at_first", "budget_first",
        "_geom", "_params", "_at_size",
    )

    def __init__(
        self,
        designs: Sequence[SensingDesign],
        geom: SensingGeometry,
        params: SystemParams,
        m: int,
    ):
        self.designs = tuple(designs)
        self.index = {design: d for d, design in enumerate(self.designs)}
        self._geom = geom
        self._params = params
        firsts = [min_active_users(d, geom, params.zeta, m) for d in self.designs]
        at_first = [m if l is None else l for l in firsts]
        self.l_first = _read_only(
            np.array([m + 1 if l is None else l for l in firsts], dtype=np.intp)
        )
        self.at_m = self._weights([m] * len(self.designs))
        self.at_first = self._weights(at_first)
        self.budget_first = _read_only(
            np.array([effective_time(params, l) + TIME_TOL for l in at_first])
        )
        self._at_size = {m: self.at_m}

    def _weights(self, sizes: list) -> np.ndarray:
        # One (q0, q1) row per design at its size; nan where the size is None.
        return _read_only(
            np.array(
                [
                    (np.nan, np.nan)
                    if l is None
                    else opportunity_weights(d, self._geom, self._params, l)
                    for d, l in zip(self.designs, sizes)
                ]
            ).reshape(-1, 2)
        )

    def at(self, l_active: int) -> np.ndarray:
        """The weights of every design at ``l_active`` users, computed on
        the first request for each size. The row of a design whose l_first
        exceeds ``l_active`` is not defined (nan below m)."""
        got = self._at_size.get(l_active)
        if got is None:
            got = self._weights(
                [l_active if l <= l_active else None for l in self.l_first.tolist()]
            )
            self._at_size[l_active] = got
        return got


class UserTable:
    """One call's users, geometry and params, shared across designs.

    The design-independent columns (idle and interfered rates r0/r1,
    margins b_i - a_i, backlogs in bits, pay rates a_i, ids) and the
    budget T'(L) for every set size are built once. Each design's
    effective rates, time bounds and priorities at a set size L are
    computed for all users on first use and cached per (design, L).
    """

    __slots__ = (
        "sus", "geom", "params", "r0", "r1", "margin", "buffers", "pay", "ids",
        "cost", "budgets", "_levels", "_screen",
    )

    def __init__(
        self,
        sus: Sequence[SecondaryUser],
        geom: SensingGeometry,
        params: SystemParams,
    ):
        self.sus = list(sus)
        self.geom = geom
        self.params = params
        self.r0 = np.array([rate_idle(su, params) for su in self.sus])
        self.r1 = np.array([rate_interfered(su, params) for su in self.sus])
        self.margin = np.array([su.earn_rate - su.pay_rate for su in self.sus])
        self.buffers = np.array([float(su.buffer_bits) for su in self.sus])
        self.pay = np.array([su.pay_rate for su in self.sus])
        self.ids = np.array([su.id for su in self.sus])
        self.cost = params.sensing_cost
        self.budgets = [effective_time(params, l) for l in range(len(self.sus) + 1)]
        self._levels: dict = {}
        self._screen: Optional[tuple] = None

    def _rates(self, q0, q1):
        # The effective rates q0 r0 + q1 r1.
        return q0 * self.r0 + q1 * self.r1

    def price(self, q0, q1) -> tuple:
        """(rates, lowers, uppers, priorities) of every user under the
        opportunity weights (q0, q1): the effective rates q0 r0 + q1 r1,
        their time bounds, and the per-second payments R_i a_i. The
        weights may be scalars or columns with one row per design."""
        rates = self._rates(q0, q1)
        lowers, uppers = time_bound_arrays(rates, self.margin, self.buffers, self.cost)
        return rates, lowers, uppers, rates * self.pay

    def priorities(self, q0, q1):
        """The priorities R_i a_i of :meth:`price` alone, by the same
        elementwise operations."""
        return self._rates(q0, q1) * self.pay

    def level(self, design: SensingDesign, l_active: int) -> tuple:
        """:meth:`price` at ``design`` with ``l_active`` reporting users,
        cached per (design, l_active)."""
        key = (design.pfa_local, design.k_threshold, l_active)
        got = self._levels.get(key)
        if got is None:
            got = self.price(
                *opportunity_weights(design, self.geom, self.params, l_active)
            )
            self._levels[key] = got
        return got

    def screen(self, weights: DesignWeights) -> tuple:
        """Screen every design of ``weights`` (built for this table's
        size) in one pass; returns (bounds, settled): each design's
        utility bound, -inf where the design admits no feasible set, and
        the utility of each design whose reduced set is in abundant time,
        nan elsewhere.

        A design's reduced set R holds the users whose bounds are well
        ordered at the full size (lower < upper); never-profitable and
        zero-rate users fail that test. Exclusion at the full size is
        permanent: both bounds scale as 1/rate, so their order is the
        same at every cardinality. The design is feasible when l_first
        <= |R| (l_first >= k, so this also puts k within reach), and its
        minimum viable set size l_lb is then l_first, as
        ``min_active_users(design, geom, zeta, |R|)`` stops at the first
        size meeting the floor.

        The bound is min(sum_{i in R} a_i B_i, (T'(l_lb) + TIME_TOL)
        max_{i in R} R_i(l_lb) a_i). Every candidate set is a subset of
        R of size L >= l_lb; its grants satisfy t_i <= B_i / R_i(L) and
        sum to at most T'(L) + TIME_TOL (the budget check's slack); and
        the fused tails grow with L, so R_i(L) <= R_i(l_lb) and T'(L) <=
        T'(l_lb). Exact up to rounding in the sums.

        A feasible design is settled when R is Case 1 at its own size:
        the members' buffer-clearing times at |R| fit T'(|R|). The
        selection then serves all of R to its upper bounds and earns
        sum_{i in R} a_i B_i, so no walk is needed. The rates, bounds
        and sums are the same floating-point operations that
        :meth:`evaluate` and the scoring run on R (each sum over the
        members in order, one contiguous row per design), so the case
        and the utility are bit for bit those of the walk.

        A design that is not settled cannot earn sum_{i in R} a_i B_i,
        and its bound is capped below it (:meth:`_shortfall`)
        wherever the bound reaches the best settled utility; below that
        the grid search skips the design either way.

        R and l_lb are kept for :meth:`screened`.
        """
        _, lowers, uppers, _ = self.price(weights.at_m[:, :1], weights.at_m[:, 1:])
        reduced = lowers < uppers
        sizes = reduced.sum(axis=1)
        feasible = weights.l_first <= sizes
        buffered = np.where(reduced, self.pay * self.buffers, 0.0).sum(axis=1)
        prios = self.priorities(weights.at_first[:, :1], weights.at_first[:, 1:])
        bounds = np.minimum(
            buffered,
            weights.budget_first * prios.max(axis=1, where=reduced, initial=0.0),
        )
        bounds[~feasible] = -np.inf
        settled = np.full(len(sizes), np.nan)
        clearing = np.full(len(sizes), np.nan)
        for size in sorted(set(sizes[feasible].tolist())):
            rows = np.flatnonzero(feasible & (sizes == size))
            if size == len(self.sus):
                at_size = uppers[rows]
            else:
                w = weights.at(size)[rows]
                at_size = self.price(w[:, :1], w[:, 1:])[2]
            # A boolean gather keeps each row's members in member order, as
            # one contiguous row: the layout of a lone set's gather.
            members = reduced[rows]
            sums = at_size[members].reshape(-1, size).sum(axis=1)
            clearing[rows] = sums
            abundant = _fits(sums, self.budgets[size])
            cols = np.nonzero(members[abundant])[1]
            settled[rows[abundant]] = _buffered_value(
                self.pay[cols].reshape(-1, size), self.buffers[cols].reshape(-1, size)
            )
        self._screen = (weights, reduced, feasible, sizes, clearing, buffered)
        resolved = ~np.isnan(settled)
        if resolved.any():
            rows = np.flatnonzero(
                feasible
                & ~resolved
                & (bounds * (1.0 + BOUND_SLACK) >= settled[resolved].max())
            )
            if rows.size:
                bounds[rows] = np.minimum(bounds[rows], self._shortfall(rows))
        return bounds, settled

    def _shortfall(self, rows: np.ndarray) -> np.ndarray:
        """A cap on the utility of each feasible design at ``rows`` of the
        last :meth:`screen` whose reduced set R is not Case 1 at |R|:
        sum_{i in R} a_i B_i less a cut that is positive when every
        member pays for a non-empty buffer (a_i B_i > 0).

        Let e = sum_{i in R} u_i(|R|) - (T'(|R|) + TIME_TOL) > 0, the
        overflow of the screen's Case-1 test, and p_i(|R|) = R_i(|R|)
        a_i. The cap is sum_{i in R} a_i B_i - min(e min_R p_i(|R|),
        min_R a_i B_i). Every candidate set S lies in R, and a_i, B_i
        >= 0 (:class:`~cogalloc.economics.SecondaryUser` checks both).
        If S = R, R is Case 2 or Case 3 at |R|, and Case 3 is never
        scored. A Case-2 fill grants each member t_i <= u_i(|R|), in
        total at most T'(|R|) + TIME_TOL, so at least e seconds of
        clearing time go unsold, each worth at least min_R p_i(|R|);
        in exact arithmetic p_i u_i = a_i B_i, so the utility sum p_i
        t_i is at most sum_R a_i B_i - e min_R p_i(|R|). A proper
        subset S misses a member, so its utility, at most sum_S a_i B_i,
        is at most sum_R a_i B_i - min_R a_i B_i.

        A member whose rate is 0 at |R| has an infinite lower bound, so
        R is then Case 3 and only the second term applies (e is inf
        there, and inf times the member's zero priority is not taken). The
        difference can cancel when the cut is close to the sum, so only
        the part of the cut beyond BOUND_SLACK sum_R a_i B_i is taken:
        the cap is (1 + BOUND_SLACK) sum_R a_i B_i minus the cut, and its
        rounding error, a few ulps of the sum, stays inside that margin.
        """
        weights, reduced, _, sizes, clearing, buffered = self._screen
        at_size = np.array(
            [weights.at(l)[d] for d, l in zip(rows.tolist(), sizes[rows].tolist())]
        ).reshape(-1, 2)
        members = reduced[rows]
        lowest = self.priorities(at_size[:, :1], at_size[:, 1:]).min(
            axis=1, where=members, initial=np.inf
        )
        excess = clearing[rows] - (np.array(self.budgets)[sizes[rows]] + TIME_TOL)
        with np.errstate(invalid="ignore"):
            cut = np.fmin(
                excess * lowest,
                np.where(members, self.pay * self.buffers, np.inf).min(
                    axis=1, initial=np.inf
                ),
            )
        return (1.0 + BOUND_SLACK) * buffered[rows] - cut

    def screened(self, design: SensingDesign) -> Optional[tuple]:
        """(reduced set R, minimum viable set size l_lb) at ``design``, or
        None when the design admits no feasible set: a vote threshold
        above the number of users or above |R|, or a detection floor no
        size up to |R| reaches. Read from the last :meth:`screen` that
        covered the design; any other design is screened on its own."""
        m = len(self.sus)
        if design.k_threshold > m:
            return None
        d = None if self._screen is None else self._screen[0].index.get(design)
        if d is None:
            self.screen(DesignWeights((design,), self.geom, self.params, m))
            d = 0
        weights, reduced, feasible = self._screen[:3]
        if not feasible[d]:
            return None
        return tuple(np.flatnonzero(reduced[d]).tolist()), int(weights.l_first[d])

    def evaluate(self, design: SensingDesign, idx: tuple) -> "_SetEval":
        members = np.array(idx, dtype=np.intp)
        rates, lowers, uppers, prios = self.level(design, len(idx))
        return _SetEval(
            idx,
            members,
            rates[members],
            lowers[members],
            uppers[members],
            prios[members],
            self.budgets[len(idx)],
        )


def _fits(total, t_prime: float):
    # Whether summed times (a float or an array of them) fit the budget
    # T' = ``t_prime``, with the TIME_TOL slack: applied to the upper
    # bounds it is the Case-1 test, to the lower bounds the Case-2 test.
    return total <= t_prime + TIME_TOL


def _buffered_value(pay, buffers):
    # sum_i a_i B_i along the last axis: a Case-1 set's utility, one per
    # row of a batch. Each row is the same dot product as a lone vector
    # (np.vecdot, numpy >= 2.0).
    return np.vecdot(pay, buffers)


class _SetEval:
    """Bounds, priorities, budget and budget case of one candidate set
    (``idx``, positions in its table) at its own size."""

    __slots__ = (
        "idx", "members", "rates", "lowers", "uppers", "priorities", "t_prime",
        "case",
    )

    def __init__(self, idx, members, rates, lowers, uppers, priorities, t_prime):
        self.idx = idx
        self.members = members
        self.rates = rates
        self.lowers = lowers
        self.uppers = uppers
        self.priorities = priorities
        self.t_prime = t_prime
        if _fits(float(uppers.sum()), t_prime):
            self.case = CaseLabel.CASE1
        elif _fits(float(lowers.sum()), t_prime):
            self.case = CaseLabel.CASE2
        else:
            self.case = CaseLabel.CASE3


def greedy_topup(lowers, uppers, priorities, budget: float) -> list:
    """Water-filling core: hand everyone their lower bound, then grant the
    remaining budget in descending priority order, each member up to its
    upper bound. Ties go to the earliest position.

    Distributes min(budget, sum of uppers) in total (assuming the lower
    bounds fit the budget). Takes sequences or arrays; the lower bounds
    are summed by numpy.
    """
    lowers = np.asarray(lowers, dtype=float)
    times = lowers.tolist()
    gaps = (np.asarray(uppers, dtype=float) - lowers).tolist()
    remaining = budget - float(lowers.sum())
    order = np.argsort(-np.asarray(priorities, dtype=float), kind="stable")
    for i in order.tolist():
        if remaining <= 0.0:
            break
        grant = min(gaps[i], remaining)
        times[i] += grant
        remaining -= grant
    return times


def _score(table: UserTable, ev: _SetEval) -> Optional[tuple]:
    # (utility, evaluation, times): Case-1 serves everyone at their upper bounds,
    # Case-2 water-fills, Case-3 is discarded (None). A Case-1 set earns
    # exactly its buffered value sum(pay_i * B_i); computing it in that
    # closed form keeps the utility bitwise identical across designs, so
    # flat-surface ties resolve by the documented (pfa, k) order.
    if ev.case is CaseLabel.CASE1:
        utility = _buffered_value(table.pay[ev.members], table.buffers[ev.members])
        return float(utility), ev, ev.uppers
    if ev.case is CaseLabel.CASE2:
        times = np.array(greedy_topup(ev.lowers, ev.uppers, ev.priorities, ev.t_prime))
        return float(np.dot(ev.priorities, times)), ev, times
    return None


def _better(best: Optional[tuple], candidate: Optional[tuple]) -> Optional[tuple]:
    # The strictly higher-utility scored candidate; ties keep ``best``.
    if candidate is not None and (best is None or candidate[0] > best[0]):
        return candidate
    return best


def _result(
    table: UserTable, scored: tuple, m: int, positions: Sequence[int]
) -> AllocationResult:
    # The allocation of a scored set over ``m`` users, member j placed at
    # positions[j]. R t (b-a) - cost == R (b-a) (t - LB); the excess form
    # is exactly zero at the break-even grant instead of rounding to
    # +-1e-19.
    utility, ev, times = scored
    su_utils = ev.rates * table.margin[ev.members] * (times - ev.lowers)
    return _placed(m, positions, times.tolist(), su_utils.tolist(), utility, ev.case)


def _placed(
    m: int,
    positions: Sequence[int],
    times: Sequence[float],
    su_utils: Sequence[float],
    fc_utility: float,
    case: Optional[CaseLabel],
) -> AllocationResult:
    # A feasible allocation over ``m`` users with member j's time and
    # utility placed at positions[j]; everyone else is inactive.
    active = [False] * m
    t_full = [0.0] * m
    u_full = [0.0] * m
    for i, t, u in zip(positions, times, su_utils):
        active[i] = True
        t_full[i] = t
        u_full[i] = u
    return AllocationResult(
        active=tuple(active),
        times=tuple(t_full),
        fc_utility=fc_utility,
        su_utilities=tuple(u_full),
        case=case,
        feasible=True,
    )


def _infeasible(m: int, case: Optional[CaseLabel]) -> AllocationResult:
    return AllocationResult(
        active=(False,) * m,
        times=(0.0,) * m,
        fc_utility=0.0,
        su_utilities=(0.0,) * m,
        case=case,
        feasible=False,
    )


def _ordered_desc(table: UserTable, idx: Sequence[int], keys: np.ndarray) -> list:
    # Descending by key, ties by lowest user id.
    members = np.array(idx, dtype=np.intp)
    return members[np.lexsort((table.ids[members], -keys[members]))].tolist()


def _exchange_core(
    table: UserTable, design: SensingDesign, kept: tuple, excluded: tuple
) -> Optional[tuple]:
    # The best scored same-cardinality set, the kept set included; None
    # when no candidate is feasible. For each swap depth n the four
    # bound-ordered extreme sets decide whether the whole depth can be
    # short-circuited (all-Case-1: score the buffer-ordered swap and go
    # deeper; all-Case-2: score the payment-ordered swap and stop;
    # min-lower-bound set Case-3: stop); otherwise every n-for-n swap is
    # enumerated.
    best = _score(table, table.evaluate(design, kept))
    if not excluded or not kept:
        return best

    def consider(candidate: tuple) -> None:
        nonlocal best
        best = _better(best, _score(table, table.evaluate(design, candidate)))

    def case(candidate: tuple) -> CaseLabel:
        return table.evaluate(design, candidate).case

    # Orderings are taken at the current candidate cardinality |kept|.
    _, lb_keys, ub_keys, pay_keys = table.level(design, len(kept))

    def ordered(keys: np.ndarray) -> tuple:
        return (_ordered_desc(table, kept, keys), _ordered_desc(table, excluded, keys))

    by_ub = ordered(ub_keys)
    by_lb = ordered(lb_keys)
    by_buf = ordered(table.buffers)
    by_pay = ordered(pay_keys)

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

        if case(g1) is CaseLabel.CASE1 and case(g2) is CaseLabel.CASE1:
            consider(swap(by_buf, n, last_out=True))
            continue
        g4_case = case(g4)
        if case(g3) is CaseLabel.CASE2 and g4_case is CaseLabel.CASE2:
            consider(swap(by_pay, n, last_out=True))
            break
        if g4_case is CaseLabel.CASE3:
            break
        for out_combo in itertools.combinations(kept, n):
            rest = [i for i in kept if i not in out_combo]
            for in_combo in itertools.combinations(excluded, n):
                consider(tuple(sorted(rest + list(in_combo))))

    return best


def _select(
    table: UserTable, design: SensingDesign, reduced: tuple, l_lb: int
) -> Optional[tuple]:
    # The elimination walk with a global best-so-far contested-time
    # incumbent; the scored winner, or None when every set it reaches at
    # the minimum size overflows the budget.
    ev = table.evaluate(design, reduced)
    if ev.case is CaseLabel.CASE1 or len(reduced) == l_lb:
        return _score(table, ev)

    current = reduced
    incumbent: Optional[tuple] = None
    while len(current) > l_lb:
        if ev.case is CaseLabel.CASE2:
            incumbent = _better(incumbent, _score(table, ev))
        # Drop the user paying the least per second at this set size.
        j = int(np.lexsort((table.ids[ev.members], ev.priorities))[0])
        current = current[:j] + current[j + 1 :]
        ev = table.evaluate(design, current)

        if ev.case is CaseLabel.CASE1:
            excluded = tuple(i for i in reduced if i not in current)
            star = _exchange_core(table, design, current, excluded)
            if star[1].case is CaseLabel.CASE1:
                return _better(star, incumbent)
            # Contested-time winner: adopt it and keep eliminating.
            ev = star[1]
            current = ev.idx
            incumbent = _better(incumbent, star)

        if len(current) == l_lb:
            final = _score(table, ev)
            if final is not None:
                return _better(final, incumbent)
            return incumbent

    return incumbent


def select_and_allocate(
    all_sus: Sequence[SecondaryUser],
    design: SensingDesign,
    geom: SensingGeometry,
    params: SystemParams,
    table: Optional[UserTable] = None,
) -> AllocationResult:
    """Full selection + allocation at a fixed sensing design.

    Prunes to the feasible set, checks the detection floor, and then:
    abundant time serves everyone at their upper bounds; otherwise an
    elimination loop drops the lowest-paying user, watching for the
    abundant case to trigger the exchange refinement, and keeps the best
    contested-time incumbent seen anywhere along the way.

    Infeasibility (a vote threshold above the number of users, detection
    floor unreachable, or lower bounds that overflow the budget at the
    minimum viable set size) is reported via ``feasible=False``, never an
    exception.

    ``table`` is a :class:`UserTable` of exactly these users, geometry
    and params, for a caller that searches many designs (built here when
    omitted); the reduced set and minimum viable set size come from its
    batched screen (:meth:`UserTable.screened`).
    """
    if table is None:
        table = UserTable(all_sus, geom, params)
    m = len(table.sus)
    screened = table.screened(design)
    if screened is None:
        return _infeasible(m, None)
    best = _select(table, design, *screened)
    if best is None:
        return _infeasible(m, CaseLabel.CASE3)
    return _result(table, best, m, best[1].idx)
