"""User selection and transmission-time allocation at a fixed sensing design.

Given a (local false-alarm, vote threshold) design, the fusion center
classifies the time budget against the users' break-even and
buffer-clearing bounds, prunes users that can never be served
profitably, water-fills the contested-time case, and walks an
elimination/exchange search over candidate active sets.

The pricing formulas live here once: the opportunity weights
(:meth:`DesignTable.weights`), the effective rates and per-second
payments (:meth:`UserTable.price`), the time bounds
(:func:`time_bound_arrays`) and the greedy fill (:func:`greedy_topup`).
One :class:`DesignTable` per (params, grid) holds the user-independent
half of every search, shared across calls; one :class:`UserTable` per
call holds the columns of N instances of M users (built from the
columns, or by :meth:`UserTable.stack` of user lists) and each design's
rates, bounds and priorities per set size. Candidate sets are index
tuples into one instance's table (:meth:`UserTable.instance`),
compared by utility alone; an :class:`AllocationResult` is built only
for the set that is returned. The screen runs for every design of a
table at once and returns a :class:`Screen` (:meth:`UserTable.screen`),
which keeps what it priced; :func:`_allocate` allocates one of its rows:
a settled row from that pricing, any other by the elimination walk.

Ties (argmax/argmin over users, exchange orderings on equal keys) go to
the lowest user id, so results are bit-reproducible.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .economics import (
    SecondaryUser,
    SystemParams,
    effective_time,
    idle_rates,
    interfered_rates,
)
from .sensing import (
    SensingDesign,
    _read_only,
    binomial_tails,
    local_pd,
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
            if not is_active and t != 0.0:
                raise ValueError("inactive users must have zero time")

    @property
    def selected_ids(self) -> tuple:
        return tuple(i for i, flag in enumerate(self.active) if flag)

    @property
    def n_selected(self) -> int:
        return sum(1 for flag in self.active if flag)


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


class DesignTable:
    """The user-independent half of every search over the designs
    ``pfas`` x ``ks`` under one :class:`SystemParams` (whose geometry
    gives the local P_d), each value filled on first request and kept for
    every call sharing the table.

    Row d is design d in grid order (k as listed, then pfa ascending):
    :meth:`design` builds it once, ``pfa`` and ``k`` hold the rows'
    values and ``pd`` the local P_d at each row's pfa.
    ``order`` lists the rows in the (pfa, k) tie-break order, equal
    designs in grid order, and ``rank`` is its inverse: of two designs
    at one utility, the joint search and the oracle keep the one of
    lower rank. Per design and set size L the table gives the fused tails
    (:meth:`tails`, the shared binomial rows' values) and weights
    (:meth:`weights`); per user count m, l_first (:meth:`at_users`); per
    L, the designs meeting the floor (:meth:`admissible`).

    A computed P_D falls in k bit for bit, so the thresholds meeting the
    floor at L are k <= K(L). P_D at K(L-1) + 0, 1 and 2 gives K(L) when
    it moved by at most one (always, in exact arithmetic), a bisection
    otherwise. So P_D(k, L) >= zeta exactly when k <= K(L), and l_first
    is the first L with max_{L' <= L} K(L') >= k: the scan over L =
    k..m, without assuming that P_D rises with L.
    """

    __slots__ = (
        "pfa", "pd", "k", "order", "rank", "_params", "_ps", "_row", "_reach",
        "_weights", "_users", "_admissible", "_designs",
    )

    def __init__(self, params: SystemParams, pfas, ks):
        self._params = params
        # Binomial rows 0..P-1 are the pfas, P..2P-1 their local P_d.
        self._ps = tuple(pfas) + tuple(local_pd(p, params.geometry()) for p in pfas)
        self._row = np.tile(np.arange(len(pfas)), len(ks))
        self.pfa = _read_only(np.array(pfas, dtype=float)[self._row])
        self.pd = _read_only(np.array(self._ps[len(pfas):], dtype=float)[self._row])
        self.k = _read_only(np.repeat(np.array(ks, dtype=np.intp), len(pfas)))
        self.order = _read_only(np.lexsort((self.k, self.pfa)))
        self.rank = _read_only(np.argsort(self.order))
        # K(L) per pfa for L = 0, 1, ...; the weights per L and design
        # (nan until filled).
        self._reach = [np.zeros(len(pfas), dtype=np.intp)]
        self._weights = np.full((1, len(self.k), 2), np.nan)
        self._users, self._admissible, self._designs = {}, {}, {}

    def design(self, d: int) -> SensingDesign:
        got = self._designs.get(d)
        if got is None:
            got = self._designs[d] = SensingDesign(self._ps[self._row[d]], int(self.k[d]))
        return got

    def _reach_to(self, n: int) -> np.ndarray:
        # K(L) for L = 0..n, one row per L (0 where no k meets the floor).
        count, zeta = len(self._reach[0]), self._params.zeta
        pd_rows = np.arange(count, 2 * count)
        for size in range(len(self._reach), n + 1):
            last = self._reach[-1]
            ks = np.add.outer((0, 1, 2), last).ravel()  # tail 0 for k > size
            met = binomial_tails(self._ps, np.tile(pd_rows, 3), ks, size) >= zeta
            met = met.reshape(3, count).sum(axis=0)
            lo, hi = last + met - 1, np.full(count, size)
            if not ((met == 1) | (met == 2)).all():
                lo = np.zeros(count, dtype=np.intp)
                while (lo < hi).any():
                    mid = (lo + hi + 1) // 2
                    ok = binomial_tails(self._ps, pd_rows, mid, size) >= zeta
                    lo, hi = np.where(ok, mid, lo), np.where(ok, hi, mid - 1)
            self._reach.append(lo)
        return np.array(self._reach[: n + 1])

    def tails(self, rows, sizes) -> np.ndarray:
        """(P_FA, P_D) of design ``rows[j]`` at ``sizes[j]`` (or one shared
        size) reporting users, one row each; ValueError if k > size."""
        rows = np.asarray(rows, dtype=np.intp)
        sizes = np.broadcast_to(np.asarray(sizes, dtype=np.intp), rows.shape)
        bad = self.k[rows] > sizes
        if bad.any():
            k, size = self.k[rows][bad][0], sizes[bad][0]
            raise ValueError(f"vote threshold k={k} exceeds active users L={size}")
        pairs = np.concatenate([self._row[rows], self._row[rows] + len(self._reach[0])])
        both = binomial_tails(self._ps, pairs, np.tile(self.k[rows], 2), np.tile(sizes, 2))
        return both.reshape(2, -1).T

    def weights(self, rows, sizes) -> np.ndarray:
        """The weights (q0, q1) of design ``rows[j]`` at ``sizes[j]`` (or
        one shared size) reporting users, one row each."""
        rows = np.asarray(rows, dtype=np.intp)
        sizes = np.asarray(sizes, dtype=np.intp)
        if sizes.size and sizes.max() >= len(self._weights):
            more = np.full((sizes.max() + 1,) + self._weights.shape[1:], np.nan)
            more[: len(self._weights)] = self._weights
            self._weights = more
        got = self._weights[sizes, rows]
        missing = np.isnan(got[:, 0])
        if missing.any():
            need, at = rows[missing], np.broadcast_to(sizes, rows.shape)[missing]
            scale = np.array([self._params.p_h0, self._params.p_h1])
            got[missing] = self._weights[at, need] = scale * (1.0 - self.tails(need, at))
        return got

    def weight_pair(self, d: int, l_active: int) -> tuple:
        """The weights of design ``d`` at ``l_active`` users as two floats.
        A selection walk asks for a design at every size from its reduced
        set's down, so a miss fills every size from k up at once."""
        if l_active >= len(self._weights) or np.isnan(self._weights[l_active, d, 0]):
            sizes = np.arange(min(int(self.k[d]), l_active), l_active + 1)
            self.weights(np.full(len(sizes), d), sizes)
        return tuple(self._weights[l_active, d].tolist())

    def at_users(self, m: int) -> tuple:
        """(l_first, at_m, at_first, budget_first) for ``m`` users, one
        entry per design, read-only: l_first (m + 1 when no L in [k, m]
        meets the floor), the weights at m and at l_first (nan where
        l_first > m), and T'(min(l_first, m)) + TIME_TOL."""
        got = self._users.get(m)
        if got is None:
            met = np.maximum.accumulate(self._reach_to(m), axis=0)[:, self._row] >= self.k
            l_first = np.where(met.any(axis=0), met.argmax(axis=0), m + 1)
            rows = np.flatnonzero(l_first <= m)
            at_m = np.full((len(self.k), 2), np.nan)
            at_first = at_m.copy()
            at_m[rows] = self.weights(rows, m)
            at_first[rows] = self.weights(rows, l_first[rows])
            budgets = np.array([effective_time(self._params, l) for l in range(m + 1)])
            budget_first = budgets[np.minimum(l_first, m)] + TIME_TOL
            got = tuple(map(_read_only, (l_first, at_m, at_first, budget_first)))
            self._users[m] = got
        return got

    def admissible(self, size: int) -> tuple:
        """(rows, weights), read-only: the designs whose P_D at ``size``
        users meets the floor (so k <= size) in (pfa, k) order, and their
        weights at size."""
        got = self._admissible.get(size)
        if got is None:
            met = self.k <= self._reach_to(size)[size][self._row]
            rows = self.order[met[self.order]]
            got = _read_only(rows), _read_only(self.weights(rows, size))
            self._admissible[size] = got
        return got


@lru_cache(maxsize=64)
def design_table(params: SystemParams, pfas, ks) -> DesignTable:
    """The shared :class:`DesignTable` of these params and grid (tuples
    ``pfas`` and ``ks``): for every frame of an episode, every trial of a
    sweep point, and the joint search, oracle and baseline."""
    return DesignTable(params, pfas, ks)


class UserTable:
    """One call's users and params, shared across designs.

    The design-independent columns (idle and interfered rates r0/r1,
    margins b_i - a_i, backlogs in bits, pay rates a_i, ids) and the
    budget T'(L) for every set size are built once. Each design's
    effective rates, time bounds and priorities at a set size L are
    computed for all users on first use and cached per (design table,
    row, L).

    A table holds N instances of M users each, built from their columns
    or by :meth:`stack` of N user lists, for one batched :meth:`screen`;
    :meth:`instance` gives each one's own table (columns of M users),
    which the walk reads.
    """

    __slots__ = (
        "params", "r0", "r1", "margin", "buffers", "pay", "ids",
        "cost", "budgets", "_levels",
    )

    def __init__(self, params: SystemParams, shape: tuple, gains, buffers, pay, earn, ids):
        """One table over ``shape`` = (N, M): N instances of M users, user
        j of instance n at position n M + j of the flat sequences of gains
        to the FC, backlogs in bits, pay and earn rates (a_i, b_i) and
        ids. Every column is N x 1 x M, so that it broadcasts against one
        weight per design into instance x design x user; T'(L) is kept
        for L = 0..M."""
        self.params = params
        shape = (shape[0], 1, shape[1])
        columns = (idle_rates(gains, params), interfered_rates(gains, params), earn, buffers, pay)
        self.r0, self.r1, earn, self.buffers, self.pay = np.array(
            columns, dtype=float
        ).reshape((len(columns),) + shape)
        self.margin = earn - self.pay
        self.ids = np.array(ids).reshape(shape)
        self.cost = params.sensing_cost
        self.budgets = np.array([effective_time(params, l) for l in range(shape[-1] + 1)])
        self._levels: dict = {}

    @classmethod
    def stack(cls, instances: Sequence[Sequence[SecondaryUser]], params: SystemParams):
        """The table of N user lists of one length M: the one adapter from
        :class:`~cogalloc.economics.SecondaryUser` lists to columns."""
        lists = [list(sus) for sus in instances]
        users = [su for sus in lists for su in sus]
        return cls(
            params,
            (len(lists), len(lists[0]) if lists else 0),
            [su.gain_to_fc for su in users],
            [su.buffer_bits for su in users],
            [su.pay_rate for su in users],
            [su.earn_rate for su in users],
            [su.id for su in users],
        )

    def instance(self, n: int) -> "UserTable":
        """Instance ``n`` as a table of its own: views of its row of every
        column (each of M users), sharing the params and budgets."""
        return self._with(column[n, 0] for column in self._columns())

    def rows(self, start: int, stop: int) -> "UserTable":
        """Instances ``start`` to ``stop`` as a table of their own: views,
        sharing the params and budgets."""
        return self._with(column[start:stop] for column in self._columns())

    def _instances(self, which: np.ndarray) -> "UserTable":
        # A table whose row j holds the columns of instance which[j]
        # (K x M), to price against K x 1 weight columns.
        columns = (column[:, 0].take(which, axis=0) for column in self._columns())
        return self._with(columns)

    def _columns(self) -> tuple:
        return self.r0, self.r1, self.margin, self.buffers, self.pay, self.ids

    def _with(self, columns) -> "UserTable":
        # A table over ``columns`` (in :meth:`_columns` order), with these
        # params and budgets and no rate recomputed.
        table = UserTable.__new__(UserTable)
        table.params, table.cost, table.budgets = self.params, self.cost, self.budgets
        table.r0, table.r1, table.margin, table.buffers, table.pay, table.ids = columns
        table._levels = {}
        return table

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

    def level(self, designs: DesignTable, d: int, l_active: int) -> tuple:
        """:meth:`price` at row ``d`` of ``designs`` with ``l_active``
        reporting users, cached per (designs, d, l_active)."""
        key = (designs, d, l_active)
        got = self._levels.get(key)
        if got is None:
            got = self.price(*designs.weight_pair(d, l_active))
            self._levels[key] = got
        return got

    def evaluate(self, designs: DesignTable, d: int, idx: tuple) -> "_SetEval":
        """The candidate set ``idx`` (positions in this table) at row ``d``
        of ``designs`` and its own size."""
        members = np.array(idx, dtype=np.intp)
        level = [column[members] for column in self.level(designs, d, len(idx))]
        return _SetEval(idx, members, *level, self.budgets.item(len(idx)))

    def screen(self, designs: DesignTable) -> "Screen":
        """Screen every (instance, design) pair of this stacked table
        and ``designs`` at its user count m in one pass, from the shared
        weights, l_first and budgets (:meth:`DesignTable.at_users`, and
        the weights at each |R|), and return the :class:`Screen`: each
        pair's utility bound, -inf where the design admits no feasible
        set, and its utility where the reduced set is in abundant time,
        nan elsewhere.

        A design's reduced set R holds the users whose bounds are well
        ordered at m (lower < upper); never-profitable and zero-rate users
        fail that test, at every size, since both bounds scale as 1/rate.
        The design is feasible when l_first <= |R| (so k <= |R|), and its
        minimum viable set size l_lb is then l_first, where the scan over
        L up to |R| stops. A design with no l_first up to m has no weights
        at m and no reduced set.

        The bound is min(sum_{i in R} a_i B_i, (T'(l_lb) + TIME_TOL)
        max_{i in R} R_i(l_lb) a_i): every candidate set is a subset of R
        of size L >= l_lb, its grants satisfy t_i <= B_i / R_i(L) and sum
        to at most T'(L) + TIME_TOL, and the fused tails grow with L, so
        R_i(L) <= R_i(l_lb) and T'(L) <= T'(l_lb). Exact up to rounding.

        A feasible design is settled when R is Case 1 at |R|: the
        selection serves all of R to its upper bounds and earns sum_{i in
        R} a_i B_i, with no walk. The rates, bounds and sums are the same
        floating-point operations :meth:`evaluate` and the scoring run on
        R (each sum over the members in order, one contiguous row per
        (instance, design)), so the case and utility are bit for bit the
        walk's, whatever the instances screened with it. The screen keeps
        each settled row's times (the upper bounds at |R|) and SU
        utilities, computed as :func:`_result` computes them, so that
        :func:`_allocate` places a settled row without pricing it again.
        A design not settled cannot earn sum_{i in R} a_i B_i; where its
        bound reaches the best utility its instance settled it is capped
        below it (:meth:`_shortfall`), from each feasible row's lowest
        member priority at |R|, which the screen also keeps.
        """
        m = self.r0.shape[-1]
        n_designs = len(designs.k)
        l_first, at_m, at_first, budget_first = designs.at_users(m)
        priced = self.price(at_m[:, :1], at_m[:, 1:])
        reduced = priced[1] < priced[2]
        sizes = reduced.sum(axis=-1)
        feasible = l_first <= sizes
        buffered = np.where(reduced, self.pay * self.buffers, 0.0).sum(axis=-1)
        # Flat views of the instance x design arrays: row r is design
        # r % n_designs of instance r // n_designs, one row per pair, so
        # that each gather takes whole rows (``take``: a fancy index costs
        # several times as much on arrays this small).
        row_sizes, row_feasible = sizes.reshape(-1), feasible.reshape(-1)
        row_members = reduced.reshape(sizes.size, m)
        priced = [column.reshape(sizes.size, m) for column in priced]
        at_first = self.priorities(at_first[:, :1], at_first[:, 1:]).reshape(sizes.size, m)
        highest = _masked_reduce(np.maximum, at_first, row_members, 0.0).reshape(sizes.shape)
        bounds = np.minimum(buffered, budget_first * highest)
        bounds[~feasible] = -np.inf
        settled, clearing, lowest = np.full((3, sizes.size), np.nan)
        placed = []
        for size in sorted(set(row_sizes[row_feasible].tolist())):
            rows = (row_feasible & (row_sizes == size)).nonzero()[0]
            # A boolean gather keeps each row's members in member order, as
            # one contiguous row: the layout of a lone set's gather.
            members = row_members.take(rows, axis=0)
            if size == m:
                # Priced at m above: gather only what is read.
                uppers, prios = (priced[j].take(rows, axis=0) for j in (2, 3))
            else:
                users = self._instances(rows // n_designs)
                w = designs.weights(rows % n_designs, size)
                rates, lowers, uppers, prios = users.price(w[:, :1], w[:, 1:])
            lowest[rows] = _masked_reduce(np.minimum, prios, members, np.inf)
            sums = uppers[members].reshape(-1, size).sum(axis=1)
            clearing[rows] = sums
            abundant = _fits(sums, self.budgets[size])
            done = rows[abundant]
            if not done.size:
                continue
            if size == m:
                users = self._instances(done // n_designs)
                rates, lowers, uppers = (column.take(done, axis=0) for column in priced[:3])
                served = members[abundant]
            else:
                served = members & abundant[:, None]
            settled[done] = _buffered_value(
                users.pay[served].reshape(-1, size), users.buffers[served].reshape(-1, size)
            )
            # Each settled row's members at their upper bounds, and their
            # SU utilities as :func:`_result` computes them, row after row.
            times = uppers[served]
            utilities = rates[served] * users.margin[served] * (times - lowers[served])
            placed.append((done, times, utilities))
        # The settled rows' data back to back in placing order, and each
        # settled row's offset into it.
        first = np.zeros(sizes.size, dtype=np.intp)
        times = utilities = np.empty(0)
        if placed:
            done, times, utilities = (np.concatenate(column) for column in zip(*placed))
            counts = row_sizes[done]
            first[done] = counts.cumsum() - counts
        shape = sizes.shape
        screen = Screen(
            designs, bounds, settled.reshape(shape), reduced, feasible, sizes,
            clearing.reshape(shape), buffered, lowest.reshape(shape), first.reshape(shape),
            times, utilities,
        )
        settled = screen.settled
        if placed:
            # Each instance's best settled utility (nan where it settled
            # none, which no bound reaches).
            best = np.fmax.reduce(settled, axis=1, keepdims=True)
            reach = feasible & np.isnan(settled) & (bounds * (1.0 + BOUND_SLACK) >= best)
            rows = reach.reshape(-1).nonzero()[0]
            if rows.size:
                row_bounds = bounds.reshape(-1)
                row_bounds[rows] = np.minimum(row_bounds[rows], self._shortfall(screen, rows))
        return screen

    def _shortfall(self, screen: "Screen", rows: np.ndarray) -> np.ndarray:
        """A cap on the utility of each feasible design at flat rows
        ``rows`` of ``screen`` (design r % designs of instance r //
        designs, as :meth:`screen` numbers them) whose reduced set R is
        not Case 1 at |R|: sum_{i in R} a_i B_i less a cut that is
        positive when every member pays for a non-empty buffer (a_i B_i >
        0).

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

        The clearing-time sum and min_R p_i(|R|) are the screen's
        ``clearing`` and ``lowest``, priced once, in its per-size pass.

        A member whose rate is 0 at |R| has an infinite lower bound, so
        R is then Case 3 and only the second term applies (e is inf
        there, and inf times the member's zero priority is not taken). The
        difference can cancel when the cut is close to the sum, so only
        the part of the cut beyond BOUND_SLACK sum_R a_i B_i is taken:
        the cap is (1 + BOUND_SLACK) sum_R a_i B_i minus the cut, and its
        rounding error, a few ulps of the sum, stays inside that margin.
        """
        sizes = screen.sizes.reshape(-1)[rows]
        by_row = screen.reduced.reshape(screen.sizes.size, self.r0.shape[-1])
        members = by_row.take(rows, axis=0)
        values = (self.pay * self.buffers)[:, 0].take(rows // len(screen.designs.k), axis=0)
        excess = screen.clearing.reshape(-1)[rows] - (self.budgets[sizes] + TIME_TOL)
        with np.errstate(invalid="ignore"):
            cut = np.fmin(
                excess * screen.lowest.reshape(-1)[rows],
                _masked_reduce(np.minimum, values, members, np.inf),
            )
        return (1.0 + BOUND_SLACK) * screen.buffered.reshape(-1)[rows] - cut


class Screen:
    """What :meth:`UserTable.screen` finds for every instance and row d
    of its design table ``designs``: the utility ``bounds`` and
    ``settled`` utilities, the reduced-set mask ``reduced`` (instance x
    design x user), ``feasible``, and per (instance, design) the reduced
    set's size ``sizes``, its members' clearing-time sum ``clearing``
    and lowest priority ``lowest`` at that size, and their buffered
    value ``buffered``. A settled row's members' times and SU utilities
    at |R| lie in member order at ``times[first:first + |R|]`` and
    ``su_utilities[first:first + |R|]``, flat arrays holding the settled
    rows alone. :meth:`instance` drops the instance axis for one
    instance's walk."""

    __slots__ = (
        "designs", "bounds", "settled", "reduced", "feasible", "sizes", "clearing",
        "buffered", "lowest", "first", "times", "su_utilities",
    )

    def __init__(
        self, designs, bounds, settled, reduced, feasible, sizes, clearing, buffered,
        lowest, first, times, su_utilities,
    ):
        self.designs, self.bounds, self.settled = designs, bounds, settled
        self.reduced, self.feasible = reduced, feasible
        self.sizes, self.clearing, self.buffered = sizes, clearing, buffered
        self.lowest, self.first = lowest, first
        self.times, self.su_utilities = times, su_utilities

    def instance(self, n: int) -> "Screen":
        """Instance ``n`` of a stacked table's screen, as the screen of
        :meth:`UserTable.instance` of ``n``: views of its rows."""
        return Screen(
            self.designs, self.bounds[n], self.settled[n], self.reduced[n],
            self.feasible[n], self.sizes[n], self.clearing[n], self.buffered[n],
            self.lowest[n], self.first[n], self.times, self.su_utilities,
        )

    def start(self, d: int) -> Optional[tuple]:
        """(reduced set R, minimum viable set size l_lb) of row ``d`` of
        one instance's screen (:meth:`instance`), or None when the design
        admits no feasible set (k > |R|, or no size up to |R| meets the
        detection floor). l_lb is the design's l_first
        (:meth:`DesignTable.at_users`)."""
        if not self.feasible[d]:
            return None
        l_first = self.designs.at_users(self.reduced.shape[-1])[0]
        return tuple(self.reduced[d].nonzero()[0].tolist()), int(l_first[d])


def _fits(total, t_prime: float):
    # Whether summed times (a float or an array of them) fit the budget
    # T' = ``t_prime``, with the TIME_TOL slack: applied to the upper
    # bounds it is the Case-1 test, to the lower bounds the Case-2 test.
    return total <= t_prime + TIME_TOL


def _masked_reduce(extreme, values, mask, fill):
    # ``extreme`` (np.minimum or np.maximum) of each row of the 2-D
    # ``values`` where ``mask`` holds, ``fill`` where it never does. The
    # reduction runs down the columns of a transposed copy: numpy reduces
    # short rows one at a time, several times slower. Exact: neither ufunc
    # rounds, so the order does not matter.
    return extreme.reduce(np.where(mask, values, fill).T.copy(), axis=0, initial=fill)


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
    table: UserTable, designs: DesignTable, d: int, kept: tuple, excluded: tuple
) -> Optional[tuple]:
    # The best scored same-cardinality set at row d of ``designs``, the
    # kept set included; None when no candidate is feasible. For each swap
    # depth n the four bound-ordered extreme sets decide whether the whole
    # depth can be short-circuited (all-Case-1: score the buffer-ordered
    # swap and go deeper; all-Case-2: score the payment-ordered swap and
    # stop; min-lower-bound set Case-3: stop); otherwise every n-for-n swap
    # is enumerated.
    best = _score(table, table.evaluate(designs, d, kept))
    if not excluded or not kept:
        return best

    def consider(candidate: tuple) -> None:
        nonlocal best
        best = _better(best, _score(table, table.evaluate(designs, d, candidate)))

    def case(candidate: tuple) -> CaseLabel:
        return table.evaluate(designs, d, candidate).case

    # Orderings are taken at the current candidate cardinality |kept|.
    _, lb_keys, ub_keys, pay_keys = table.level(designs, d, len(kept))

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
    table: UserTable, designs: DesignTable, d: int, reduced: tuple, l_lb: int
) -> Optional[tuple]:
    # The elimination walk at row d of ``designs`` with a global
    # best-so-far contested-time incumbent; the scored winner, or None
    # when every set it reaches at the minimum size overflows the budget.
    ev = table.evaluate(designs, d, reduced)
    if len(reduced) == l_lb:
        return _score(table, ev)

    current = reduced
    incumbent: Optional[tuple] = None
    while len(current) > l_lb:
        if ev.case is CaseLabel.CASE2:
            incumbent = _better(incumbent, _score(table, ev))
        # Drop the user paying the least per second at this set size.
        j = int(np.lexsort((table.ids[ev.members], ev.priorities))[0])
        current = current[:j] + current[j + 1 :]
        ev = table.evaluate(designs, d, current)

        if ev.case is CaseLabel.CASE1:
            excluded = tuple(i for i in reduced if i not in current)
            star = _exchange_core(table, designs, d, current, excluded)
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


def _allocate(table: UserTable, screen: Screen, d: int) -> AllocationResult:
    """Selection + allocation at row ``d`` of the design table that
    ``screen`` covers. A settled row serves its reduced set R at the
    upper bounds, placed from the times and SU utilities the screen
    priced at |R|; any other feasible row is walked from R and its
    minimum viable set size."""
    m = table.r0.shape[-1]
    utility = screen.settled.item(d)
    if utility == utility:  # settled (not nan)
        members = screen.reduced[d].nonzero()[0].tolist()
        first = screen.first.item(d)
        served = slice(first, first + len(members))
        return _placed(
            m, members, screen.times[served].tolist(),
            screen.su_utilities[served].tolist(), utility, CaseLabel.CASE1,
        )
    start = screen.start(d)
    if start is None:
        return _infeasible(m, None)
    best = _select(table, screen.designs, d, *start)
    if best is None:
        return _infeasible(m, CaseLabel.CASE3)
    return _result(table, best, m, best[1].idx)


def select_and_allocate(
    all_sus: Sequence[SecondaryUser],
    design: SensingDesign,
    params: SystemParams,
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

    The design is screened as the one row of its own shared
    :class:`DesignTable` and walked by :func:`_allocate`.
    """
    table = UserTable.stack([all_sus], params)
    screen = table.screen(design_table(params, (design.pfa_local,), (design.k_threshold,)))
    return _allocate(table.instance(0), screen.instance(0), 0)
