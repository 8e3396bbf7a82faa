"""The shared binomial rows and the design table, checked for exact
(``==``) equality against the one-tail-at-a-time code they replaced:
:func:`helpers.reference_binom_tail`, and a scan over L for l_first.
"""

import numpy as np
import pytest

from cogalloc import (
    DesignGrid,
    SensingDesign,
    default_system_params,
    effective_time,
    local_pd,
)
from cogalloc.allocator import TIME_TOL, DesignTable
from cogalloc.sensing import binomial_tails

from helpers import grid_table, reference_binom_tail

GRID_PFAS = DesignGrid.uniform(1).pfa_values


def _probabilities():
    # The default grid, its local detection probabilities at -5, -7 and
    # -10 dB, random values, and values within 1e-9 of 0 and of 1.
    ps = list(GRID_PFAS)
    for gamma_db in (-5.0, -7.0, -10.0):
        geom = default_system_params(gamma_db=gamma_db).geometry()
        ps += [local_pd(p, geom) for p in GRID_PFAS]
    ps += np.random.default_rng(11).random(12).tolist()
    ps += [1e-9, 3e-10, 1e-300, 1.0 - 1e-9, 1.0 - 3e-10, 1.0 - 2**-53]
    return tuple(ps)


PS = _probabilities()


def _every_k(ps, n):
    # Every tail of every p at n trials, one row per p, k = 1..n.
    count = len(ps)
    ks = np.tile(np.arange(1, n + 1), count)
    return binomial_tails(ps, np.repeat(np.arange(count), n), ks, n).reshape(count, n)


class TestBinomialRows:
    @pytest.mark.parametrize("n", range(1, 61))
    def test_every_tail_up_to_sixty(self, n):
        tails = _every_k(PS, n)
        for i, p in enumerate(PS):
            want = [reference_binom_tail(p, k, n) for k in range(1, n + 1)]
            assert tails[i].tolist() == want, p

    def test_a_sample_up_to_four_hundred(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(61, 401))
            k = int(rng.integers(1, n + 1))
            p = PS[int(rng.integers(len(PS)))]
            got = binomial_tails((p,), (0,), (k,), n)[0]
            assert got == reference_binom_tail(p, k, n), (p, k, n)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.5, 1.5])
    def test_degenerate_probabilities(self, p):
        want = [reference_binom_tail(p, k, 6) for k in range(1, 7)]
        assert _every_k((p,), 6)[0].tolist() == want

    @pytest.mark.parametrize("n", [5, 40, 120])
    def test_tails_fall_in_k_bit_for_bit(self, n):
        # An ascending sequential sum cannot drop when a non-negative term
        # joins it: the prefix property the bisection for K(L) relies on.
        tails = _every_k(PS, n)
        assert (np.diff(tails, axis=1) <= 0.0).all()

    def test_many_pairs_span_chunks(self):
        # More pairs than one working array holds give the same tails.
        n = 300
        rows = np.arange(len(PS)).repeat(20)
        ks = np.tile(np.linspace(1, n, 20).astype(int), len(PS))
        got = binomial_tails(PS, rows, ks, n)
        assert got.tolist() == [
            reference_binom_tail(PS[r], k, n) for r, k in zip(rows.tolist(), ks.tolist())
        ]


def _scan_first(design, geom, zeta, m):
    # The smallest L in [k, m] whose fused detection meets the floor, by
    # the reference tails; m + 1 when no L does.
    p = local_pd(design.pfa_local, geom)
    for l_active in range(design.k_threshold, m + 1):
        if reference_binom_tail(p, design.k_threshold, l_active) >= zeta:
            return l_active
    return m + 1


def _scan_weights(design, geom, params, l_active):
    # (P(H0)(1-P_FA), P(H1)(1-P_D)) from the reference tails.
    k = design.k_threshold
    p_fa = reference_binom_tail(design.pfa_local, k, l_active)
    p_d = reference_binom_tail(local_pd(design.pfa_local, geom), k, l_active)
    return params.p_h0 * (1.0 - p_fa), params.p_h1 * (1.0 - p_d)


# (gamma dB, zeta): the shipped case, a high floor that leaves designs
# with no feasible L, and -5 dB with a floor of 1 - 2^-53, where the
# computed P_D of (0.6, k) falls from L = 13 to 14.
CASES = [(-7.0, 0.7), (-10.0, 0.95), (-5.0, 1.0 - 2**-53)]


class TestDesignTable:
    @pytest.mark.parametrize("gamma_db,zeta", CASES)
    @pytest.mark.parametrize("m", [1, 5, 7, 9, 20, 40])
    def test_matches_the_scan(self, m, gamma_db, zeta):
        params = default_system_params(gamma_db=gamma_db, zeta=zeta)
        geom = params.geometry()
        # k above m as well: no L in [k, m] exists for those.
        table = DesignTable(params, GRID_PFAS, tuple(range(1, m + 3)))
        l_first, at_m, at_first, budget_first = table.at_users(m)
        for d, design in enumerate(map(table.design, range(len(table.k)))):
            first = _scan_first(design, geom, zeta, m)
            assert l_first[d] == first
            assert budget_first[d] == effective_time(params, min(first, m)) + TIME_TOL
            if first > m:
                assert np.isnan(at_m[d]).all() and np.isnan(at_first[d]).all()
                continue
            assert tuple(at_m[d]) == _scan_weights(design, geom, params, m)
            assert tuple(at_first[d]) == _scan_weights(design, geom, params, first)
            for l_active in range(design.k_threshold, m + 1):
                assert tuple(table.weights((d,), l_active)[0]) == _scan_weights(
                    design, geom, params, l_active
                )
        if zeta == 0.95:
            assert (l_first == m + 1).any()

    def test_request_order_does_not_matter(self):
        # Two tables of one grid, asked for M = 20 and M = 40 in opposite
        # orders, agree everywhere (nan where a design has no l_first).
        params = default_system_params()
        grid = (GRID_PFAS, tuple(range(1, 41)))
        up, down = DesignTable(params, *grid), DesignTable(params, *grid)
        first = [up.at_users(20), up.at_users(40)]
        second = [down.at_users(40), down.at_users(20)][::-1]
        for got, want in zip(first, second):
            for a, b in zip(got, want):
                np.testing.assert_array_equal(a, b)

    def test_threshold_above_set_size_is_an_error(self):
        params = default_system_params()
        table = DesignTable(params, (0.3,), (4,))
        with pytest.raises(ValueError, match="exceeds active users"):
            table.weights((0,), 3)


class TestOracleAdmissibility:
    @pytest.mark.parametrize("gamma_db,zeta", CASES)
    def test_direct_filter_at_each_size(self, gamma_db, zeta):
        # A design is admissible at size L when its P_D at L itself meets
        # the floor: not when some smaller L did (l_first <= L).
        params = default_system_params(gamma_db=gamma_db, zeta=zeta)
        geom = params.geometry()
        grid = DesignGrid(GRID_PFAS, tuple(range(1, 21)))
        table = grid_table(params, grid)
        l_first = table.at_users(20)[0]
        apart = 0
        for size in range(1, 21):
            rows, weights = table.admissible(size)
            want = [
                SensingDesign(p, k)
                for p in grid.pfa_values
                for k in grid.k_values
                if k <= size
                and reference_binom_tail(local_pd(p, geom), k, size) >= zeta
            ]
            assert [table.design(d) for d in rows] == want
            assert [tuple(w) for w in weights.tolist()] == [
                _scan_weights(d, geom, params, size) for d in want
            ]
            apart += int((l_first <= size).sum()) - len(want)
        if zeta == 1.0 - 2**-53:
            assert apart > 0

    def test_a_design_whose_detection_falls_is_not_admissible(self):
        # At -5 dB and this floor, (0.6, 1) meets it at L = 13 but not at
        # L = 14: l_first is at most 13, yet the design is not admissible
        # for a set of 14.
        params = default_system_params(gamma_db=-5.0, zeta=1.0 - 2**-53)
        geom = params.geometry()
        p = local_pd(0.6, geom)
        assert reference_binom_tail(p, 1, 13) >= params.zeta
        assert reference_binom_tail(p, 1, 14) < params.zeta
        table = grid_table(params, DesignGrid((0.6,), (1,)))
        assert table.at_users(14)[0][0] <= 13
        assert table.admissible(13)[0].tolist() == [0]
        assert table.admissible(14)[0].size == 0
