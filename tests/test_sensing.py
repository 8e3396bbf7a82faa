"""Sensing statistics against quadrature and enumeration oracles."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cogalloc import (
    SensingDesign,
    SensingGeometry,
    global_pd,
    global_pfa,
    local_pd,
    min_active_users,
    q_function,
    q_inverse,
    threshold_from_pfa,
)
from cogalloc.sensing import pfa_from_threshold

from helpers import fused_tail_enumeration, normal_tail_quad, q_inverse_bisect


class TestQFunction:
    def test_symmetry_point(self):
        assert q_function(0.0) == 0.5

    def test_ten_percent_point_vs_quadrature(self):
        # Oracle: adaptive integration of the Gaussian density.
        assert normal_tail_quad(1.2816) == pytest.approx(0.1000, abs=1e-4)
        assert q_function(1.2816) == pytest.approx(0.1000, abs=1e-4)
        assert q_function(1.2816) == pytest.approx(normal_tail_quad(1.2816), abs=1e-12)

    def test_negative_argument_complement(self):
        assert q_function(-1.2816) == pytest.approx(0.9000, abs=1e-4)

    @pytest.mark.parametrize("x", [-8.0, -3.2, -0.7, 0.3, 2.5, 6.0, 8.0])
    def test_matches_quadrature_oracle(self, x):
        assert q_function(x) == pytest.approx(normal_tail_quad(x), abs=1e-12)

    def test_strictly_decreasing(self):
        xs = [-6 + 0.12 * i for i in range(101)]
        vals = [q_function(x) for x in xs]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestQInverse:
    def test_median(self):
        assert q_inverse(0.5) == pytest.approx(0.0, abs=1e-12)

    def test_ten_percent_vs_bisection_oracle(self):
        oracle = q_inverse_bisect(0.1)
        assert oracle == pytest.approx(1.2816, abs=1e-4)
        assert q_inverse(0.1) == pytest.approx(oracle, abs=1e-6)

    def test_round_trip(self):
        assert q_inverse(q_function(0.7)) == pytest.approx(0.7, abs=1e-9)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.4, math.nan])
    def test_domain_error(self, p):
        with pytest.raises(ValueError):
            q_inverse(p)

    @given(st.floats(min_value=1e-8, max_value=1 - 1e-8))
    @settings(max_examples=200, deadline=None)
    def test_inverse_property(self, p):
        assert q_function(q_inverse(p)) == pytest.approx(p, rel=1e-10)


class TestThresholdRecovery:
    def test_median_threshold_is_noise_floor(self):
        geom = SensingGeometry(gamma=0.5, n_samples=17, noise_var=1.0)
        assert threshold_from_pfa(0.5, geom) == pytest.approx(1.0, abs=1e-12)

    def test_table_point(self):
        geom = SensingGeometry(gamma=0.2, n_samples=40, noise_var=1.0)
        # 1 + Q^-1(0.1)/sqrt(40) with the bisection oracle's inverse.
        assert threshold_from_pfa(0.1, geom) == pytest.approx(
            1.0 + q_inverse_bisect(0.1) / math.sqrt(40), abs=1e-6
        )
        assert threshold_from_pfa(0.1, geom) == pytest.approx(1.2027, abs=1e-3)

    @pytest.mark.parametrize("pfa", [0.01, 0.2, 0.5, 0.77, 0.99])
    def test_forward_inverse_round_trip(self, pfa):
        geom = SensingGeometry(gamma=1.0, n_samples=64, noise_var=2.5)
        eps = threshold_from_pfa(pfa, geom)
        assert pfa_from_threshold(eps, geom) == pytest.approx(pfa, abs=1e-9)


class TestLocalPd:
    def test_unit_snr_point(self):
        geom = SensingGeometry(gamma=1.0, n_samples=4)
        # Q(-2/sqrt(3)) evaluated through the quadrature oracle.
        oracle = normal_tail_quad(-2.0 / math.sqrt(3.0))
        assert oracle == pytest.approx(0.8760, abs=1e-3)
        assert local_pd(0.5, geom) == pytest.approx(oracle, abs=1e-10)

    def test_zero_snr_limit(self):
        geom = SensingGeometry(gamma=1e-12, n_samples=40)
        for p in (0.1, 0.37, 0.8):
            assert local_pd(p, geom) == pytest.approx(p, abs=1e-5)

    def test_table_operating_point(self, geom):
        # gamma = -7 dB, N = 40
        assert local_pd(0.1, geom) == pytest.approx(0.493, abs=2e-3)

    def test_monotone_in_pfa(self, geom):
        grid = [i / 101 for i in range(1, 101)]
        vals = [local_pd(p, geom) for p in grid]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_above_pfa_for_positive_snr(self, geom):
        for p in (0.05, 0.3, 0.6, 0.95):
            assert local_pd(p, geom) > p


class TestFusedTails:
    def test_and_rule_power(self):
        assert global_pfa(SensingDesign(0.5, 4), 4) == pytest.approx(0.0625, abs=1e-12)

    def test_or_rule_three_users(self):
        design = SensingDesign(0.2, 1)
        assert global_pfa(design, 3) == pytest.approx(
            fused_tail_enumeration(0.2, 1, 3), abs=1e-12
        )
        assert global_pfa(design, 3) == pytest.approx(0.488, abs=1e-12)

    def test_vanishing_pfa_limit(self):
        assert global_pfa(SensingDesign(1e-12, 2), 5) < 1e-20

    def test_k_above_l_rejected(self):
        with pytest.raises(ValueError):
            global_pfa(SensingDesign(0.3, 4), 3)
        with pytest.raises(ValueError):
            global_pd(SensingDesign(0.3, 4), SensingGeometry(1.0, 10), 3)

    @pytest.mark.parametrize("l_active", range(1, 11))
    def test_enumeration_equivalence(self, geom, l_active):
        for pfa in (0.1, 0.33, 0.5, 0.9):
            for k in range(1, l_active + 1):
                design = SensingDesign(pfa, k)
                assert global_pfa(design, l_active) == pytest.approx(
                    fused_tail_enumeration(pfa, k, l_active), abs=1e-12
                )
                assert global_pd(design, geom, l_active) == pytest.approx(
                    fused_tail_enumeration(local_pd(pfa, geom), k, l_active),
                    abs=1e-12,
                )

    def test_and_rule_detection(self, geom):
        design = SensingDesign(0.2, 5)
        assert global_pd(design, geom, 5) == pytest.approx(
            local_pd(0.2, geom) ** 5, rel=1e-12
        )

    def test_detection_dominates_false_alarm(self, geom):
        for pfa in (0.05, 0.2, 0.5, 0.8):
            for k, l_active in ((1, 3), (2, 5), (4, 7)):
                design = SensingDesign(pfa, k)
                assert global_pd(design, geom, l_active) >= global_pfa(
                    design, l_active
                )

    def test_zero_snr_collapses_tails(self):
        geom = SensingGeometry(gamma=1e-12, n_samples=40)
        design = SensingDesign(0.3, 2)
        assert global_pd(design, geom, 5) == pytest.approx(
            global_pfa(design, 5), abs=1e-5
        )

    def test_tail_sum_identity_via_complement(self):
        # Tail at k=1 plus the all-zeros term must rebuild the full mass.
        for p in (0.13, 0.5, 0.86):
            for l_active in (1, 4, 10):
                total = global_pfa(SensingDesign(p, 1), l_active) + (1 - p) ** l_active
                assert total == pytest.approx(1.0, abs=1e-12)

    def test_monotone_in_l_and_k(self):
        design = SensingDesign(0.3, 2)
        vals = [global_pfa(design, l_active) for l_active in range(2, 12)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))
        by_k = [global_pfa(SensingDesign(0.3, k), 10) for k in range(1, 11)]
        assert all(a >= b for a, b in zip(by_k, by_k[1:]))


class TestMinActiveUsers:
    def test_immediate_satisfaction_returns_k(self, geom):
        design = SensingDesign(0.4, 2)
        floor = global_pd(design, geom, design.k_threshold)
        assert min_active_users(design, geom, floor * 0.5, 7) == 2

    def test_infeasible_detection_floor(self, geom):
        assert min_active_users(SensingDesign(0.01, 3), geom, 0.999, 4) is None

    def test_linear_scan_oracle(self, geom):
        design = SensingDesign(0.1, 1)
        zeta = 0.7
        expected = None
        for l_active in range(1, 8):
            if global_pd(design, geom, l_active) >= zeta:
                expected = l_active
                break
        result = min_active_users(design, geom, zeta, 7)
        assert result == expected
        assert global_pd(design, geom, result) >= zeta
        if result > design.k_threshold:
            assert global_pd(design, geom, result - 1) < zeta


class TestValidation:
    def test_geometry_invariants(self):
        with pytest.raises(ValueError):
            SensingGeometry(gamma=0.0, n_samples=10)
        with pytest.raises(ValueError):
            SensingGeometry(gamma=1.0, n_samples=0)
        with pytest.raises(ValueError):
            SensingGeometry(gamma=1.0, n_samples=10, noise_var=0.0)

    def test_design_invariants(self):
        with pytest.raises(ValueError):
            SensingDesign(0.0, 1)
        with pytest.raises(ValueError):
            SensingDesign(1.0, 1)
        with pytest.raises(ValueError):
            SensingDesign(0.5, 0)
