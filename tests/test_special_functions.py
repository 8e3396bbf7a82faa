"""Accuracy of the special functions behind the fused tails, the
interfered rate and the probe, against mpmath at 50 digits.

Each reference is evaluated at the exact binary value of the float
argument, so an error here is the library's own.  The bounds are the
worst errors measured on these grids, rounded up; none is looser than
the worst error the earlier scipy-based versions gave on the same
points.
"""

import functools
import math
import sys

import pytest

mpmath = pytest.importorskip("mpmath")

from cogalloc.economics import _exp_scaled_e1
from cogalloc.optimizer import _digamma_int, _log_binom
from cogalloc.sensing import _binom_tail, q_function, q_inverse

pytestmark = pytest.mark.filterwarnings("error")

mp = mpmath.mp
_DPS = 50

# Below the smallest normal double a tail has no relative precision to
# keep; there it is checked absolutely.
_TAIL_FLOOR = sys.float_info.min

# Worst errors on the grids below.  Measured (library / scipy-based
# predecessor): tail 1.9e-13 / 5.1e-13, e^c E1(c) 3.3e-16 / 9.3e-16,
# Q 3.1e-16 / 7.7e-15, Q^-1 2.7e-16 / 4.3e-16, ln C(m, k) 2.6e-14 /
# 3.4e-13 (absolute), psi(n) 1.2e-16 / 2.6e-16.
BOUNDS = {
    "tail_rel": 2.5e-13,
    "tail_abs_below_floor": 0.0,
    "e1_rel": 5e-16,
    "q_rel": 5e-16,
    "q_inverse_rel": 4e-16,
    "log_binom_abs": 5e-14,
    "digamma_rel": 2e-16,
}

TAIL_N = (*range(1, 41), 50, 64, 100, 128, 200, 256, 300, 399, 400)
TAIL_P = (
    1e-6, 1e-4, 0.003, 0.05, 0.2, 0.37, 0.5,
    0.63, 0.8, 0.95, 0.997, 1.0 - 1e-4, 1.0 - 1e-6,
)


def _tail_ks(n):
    if n <= 40:
        return range(1, n + 1)
    return sorted({1, 2, n // 4, n // 2, (3 * n) // 4, n - 1, n})


@functools.lru_cache(maxsize=None)
def tail_cases():
    """(p, k, n, exact upper tail) over the grid, each reference a suffix
    sum of the exact binomial terms."""
    cases = []
    with mp.workdps(_DPS):
        for n in TAIL_N:
            for p in TAIL_P:
                mp_p = mp.mpf(p)
                mp_q = 1 - mp_p
                terms = [mp.binomial(n, l) * mp_p**l * mp_q ** (n - l) for l in range(n + 1)]
                suffix = [mp.mpf(0)] * (n + 2)
                for l in range(n, -1, -1):
                    suffix[l] = suffix[l + 1] + terms[l]
                cases.extend((p, k, n, suffix[k]) for k in _tail_ks(n))
    return tuple(cases)


@functools.lru_cache(maxsize=None)
def e1_cases():
    """(c, e^c E1(c)) for c log-spaced over [1e-19, 2e3], plus the points
    where an evaluation might switch method."""
    top = math.log10(2000.0)
    cs = [10.0 ** (-19.0 + (top + 19.0) * i / 240) for i in range(241)]
    cs += [0.5, 0.999, 1.0, 1.001, 1.5, 2.0, 3.0, 499.9, 500.0, 500.1, 2000.0]
    with mp.workdps(_DPS):
        return tuple((c, mp.exp(mp.mpf(c)) * mp.e1(mp.mpf(c))) for c in cs)


@functools.lru_cache(maxsize=None)
def q_cases():
    """(x, Q(x)) on [-8, 8] in steps of 1/32, plus off-grid points."""
    xs = [i / 32.0 for i in range(-256, 257)] + [-7.77, -1.2816, 0.1234, 1.2816, 5.4321]
    with mp.workdps(_DPS):
        return tuple((x, mp.erfc(mp.mpf(x) / mp.sqrt(2)) / 2) for x in xs)


@functools.lru_cache(maxsize=None)
def q_inverse_cases():
    """(p, Q^-1(p)) for p log-spaced over [1e-12, 0.5], the mirror points
    1 - p, and the median."""
    lows = [10.0 ** (-12.0 + (12.0 + math.log10(0.5)) * i / 150) for i in range(151)]
    ps = sorted({*lows, *(1.0 - p for p in lows), 0.5, 0.1, 0.9, 0.5 + 1e-9})
    ps = [p for p in ps if 0.0 < p < 1.0]
    with mp.workdps(_DPS):
        return tuple((p, mp.sqrt(2) * mp.erfinv(1 - 2 * mp.mpf(p))) for p in ps)


@functools.lru_cache(maxsize=None)
def log_binom_cases():
    """(m, k, ln C(m, k)) for real k over [0, m + 1), log-gamma reference."""
    cases = []
    with mp.workdps(_DPS):
        for m in (1, 2, 3, 4, 5, 7, 10, 16, 25, 40, 100, 400):
            ks = [m * i / 32 for i in range(33)] + [0.5, m + 0.5, m + 0.9, m + 0.999]
            for k in ks:
                ref = mp.loggamma(m + 1) - mp.loggamma(mp.mpf(k) + 1) - mp.loggamma(m - mp.mpf(k) + 1)
                cases.append((m, k, ref))
    return tuple(cases)


@functools.lru_cache(maxsize=None)
def digamma_cases():
    """(n, psi(n)) at the integers 1..500."""
    with mp.workdps(_DPS):
        return tuple((n, mp.digamma(n)) for n in range(1, 501))


def _rel(got, ref):
    if ref == 0:
        return 0.0 if got == 0.0 else math.inf
    return float(abs((mp.mpf(got) - ref) / ref))


def worst_tail_error(fn=_binom_tail):
    """(worst relative error above the floor, worst absolute error below it)."""
    rel = absolute = 0.0
    with mp.workdps(_DPS):
        for p, k, n, ref in tail_cases():
            got = fn(p, k, n)
            if ref >= _TAIL_FLOOR:
                rel = max(rel, _rel(got, ref))
            else:
                absolute = max(absolute, float(abs(mp.mpf(got) - ref)))
    return rel, absolute


def worst_e1_error(fn=_exp_scaled_e1):
    with mp.workdps(_DPS):
        return max(_rel(fn(c), ref) for c, ref in e1_cases())


def worst_q_error(fn=q_function):
    with mp.workdps(_DPS):
        return max(_rel(fn(x), ref) for x, ref in q_cases())


def worst_q_inverse_error(fn=q_inverse):
    with mp.workdps(_DPS):
        return max(_rel(fn(p), ref) for p, ref in q_inverse_cases())


def worst_log_binom_error(fn=_log_binom):
    """Worst absolute error (ln C(m, k) passes through 0 at k = 0, m)."""
    with mp.workdps(_DPS):
        return max(float(abs(mp.mpf(fn(m, k)) - ref)) for m, k, ref in log_binom_cases())


def worst_digamma_error(fn=_digamma_int):
    with mp.workdps(_DPS):
        return max(_rel(fn(n), ref) for n, ref in digamma_cases())


class TestGridsReachTheRegimes:
    def test_tail_grid_spans_near_zero_and_near_one(self):
        refs = [ref for *_, ref in tail_cases()]
        assert min(refs) < _TAIL_FLOOR
        assert any(_TAIL_FLOOR <= r < 1e-250 for r in refs)
        assert max(refs) > 1 - 1e-12

    def test_e1_grid_spans_both_ends(self):
        cs = [c for c, _ in e1_cases()]
        assert min(cs) <= 1e-19 and max(cs) >= 2e3


class TestAccuracy:
    def test_binomial_tail(self):
        rel, absolute = worst_tail_error()
        assert rel <= BOUNDS["tail_rel"], rel
        assert absolute <= BOUNDS["tail_abs_below_floor"], absolute

    def test_exp_scaled_e1(self):
        err = worst_e1_error()
        assert err <= BOUNDS["e1_rel"], err

    def test_q_function(self):
        err = worst_q_error()
        assert err <= BOUNDS["q_rel"], err

    def test_q_inverse(self):
        err = worst_q_inverse_error()
        assert err <= BOUNDS["q_inverse_rel"], err

    def test_log_binom_real_k(self):
        err = worst_log_binom_error()
        assert err <= BOUNDS["log_binom_abs"], err

    def test_integer_digamma(self):
        err = worst_digamma_error()
        assert err <= BOUNDS["digamma_rel"], err


class TestEdges:
    def test_tail_degenerate_probabilities(self):
        assert _binom_tail(0.0, 1, 5) == 0.0
        assert _binom_tail(1.0, 5, 5) == 1.0

    def test_q_function_extremes(self):
        assert q_function(-40.0) == 1.0
        assert q_function(math.inf) == 0.0

    def test_e1_is_positive_and_decreasing(self):
        vals = [_exp_scaled_e1(c) for c, _ in e1_cases()[:241]]
        assert all(v > 0.0 for v in vals)
        assert all(a > b for a, b in zip(vals, vals[1:]))
