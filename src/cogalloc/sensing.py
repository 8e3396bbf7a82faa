"""Closed-form local and fused detection statistics for cooperative energy detection.

Local statistics are the standard large-N Gaussian approximations for an
energy detector: a false-alarm probability fixes the detector threshold,
and the detection probability follows from the sensing SNR.  Fused
statistics are k-out-of-L binomial tails over independent, identical
per-user hard decisions.

All functions are pure; the value types are frozen dataclasses and safe
to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from statistics import NormalDist
from typing import Optional


@dataclass(frozen=True)
class SensingGeometry:
    """Sensing-side constants shared by all users.

    Parameters
    ----------
    gamma : float
        Sensing SNR in linear scale (convert from dB with
        :func:`cogalloc.units.db_to_linear`).
    n_samples : int
        Number of energy-detector samples per sensing phase.
    noise_var : float
        Sensing noise power sigma_w^2 in watts; only used when recovering
        the energy threshold from a false-alarm target.
    """

    gamma: float
    n_samples: int
    noise_var: float = 1.0

    def __post_init__(self) -> None:
        if not self.gamma > 0.0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        if self.n_samples < 1:
            raise ValueError(f"n_samples must be >= 1, got {self.n_samples}")
        if not self.noise_var > 0.0:
            raise ValueError(f"noise_var must be positive, got {self.noise_var}")


@dataclass(frozen=True)
class SensingDesign:
    """A (local false-alarm probability, fusion vote threshold) operating point."""

    pfa_local: float
    k_threshold: int

    def __post_init__(self) -> None:
        if not 0.0 < self.pfa_local < 1.0:
            raise ValueError(f"pfa_local must lie in (0,1), got {self.pfa_local}")
        if self.k_threshold < 1:
            raise ValueError(f"k_threshold must be >= 1, got {self.k_threshold}")


_STANDARD_NORMAL = NormalDist()
_SQRT2 = 1.4142135623730951  # sqrt(2) rounded to double
_SQRT2_LO = -9.667293313452913e-17  # sqrt(2) - _SQRT2
_TWO_OVER_SQRT_PI = 1.1283791670955126
_INV_SQRT_2PI = 0.3989422804014327


def _split(a: float) -> tuple:
    # Veltkamp split: a = hi + lo exactly, each with at most 26 significant
    # bits, so products of halves are exact.
    c = 134217729.0 * a
    hi = c - (c - a)
    return hi, a - hi


_SQRT2_HI, _SQRT2_MID = _split(_SQRT2)


def q_function(x: float) -> float:
    """Standard Gaussian upper-tail probability Q(x)."""
    # Q(x) = erfc(z)/2 at z = x/sqrt(2).  Rounding z alone costs up to
    # 2 z^2 ulps of Q (8e-15 relative near x = 8), so the residue
    # dz = x/sqrt(2) - z, taken from an exact (Dekker) product z * _SQRT2,
    # is put back to first order: erfc(z + dz) = erfc(z) - dz (2/sqrt(pi)) e^(-z^2).
    z = x / _SQRT2
    if not abs(x) < 40.0:  # erfc(z) is 0 or 2 to double precision (or x is nan)
        return 0.5 * math.erfc(z)
    prod = z * _SQRT2
    z_hi, z_lo = _split(z)
    prod_err = (
        (z_hi * _SQRT2_HI - prod) + z_hi * _SQRT2_MID + z_lo * _SQRT2_HI
    ) + z_lo * _SQRT2_MID
    dz = ((x - prod) - prod_err - z * _SQRT2_LO) / _SQRT2
    return 0.5 * (math.erfc(z) - dz * _TWO_OVER_SQRT_PI * math.exp(-z * z))


def q_inverse(p: float) -> float:
    """Inverse of :func:`q_function` on (0, 1).

    Raises
    ------
    ValueError
        If ``p`` is outside the open interval (0, 1).
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"q_inverse requires 0 < p < 1, got {p}")
    if p > 0.5:
        return -q_inverse(1.0 - p)
    x = -_STANDARD_NORMAL.inv_cdf(p)
    if x < 1.0:
        return x
    # One Newton step on Q(x) = p trims inv_cdf's few ulps in the tail,
    # where Q's own rounding maps to under one ulp of x.
    return x + (q_function(x) - p) / (_INV_SQRT_2PI * math.exp(-0.5 * x * x))


def threshold_from_pfa(pfa: float, geom: SensingGeometry) -> float:
    """Energy threshold (watts) whose false-alarm probability is ``pfa``.

    Inverts the large-N false-alarm expression:
    epsilon = sigma_w^2 * (1 + Q^-1(pfa)/sqrt(N)).
    """
    return geom.noise_var * (1.0 + q_inverse(pfa) / math.sqrt(geom.n_samples))


def pfa_from_threshold(threshold: float, geom: SensingGeometry) -> float:
    """Forward false-alarm evaluation; inverse of :func:`threshold_from_pfa`."""
    return q_function((threshold / geom.noise_var - 1.0) * math.sqrt(geom.n_samples))


@lru_cache(maxsize=1 << 16)
def local_pd(pfa: float, geom: SensingGeometry) -> float:
    """Per-user detection probability at a local false-alarm target.

    P_d = Q{(Q^-1(pfa) - sqrt(N) gamma) / sqrt(2 gamma + 1)}; strictly
    increasing in ``pfa``, ``gamma`` and ``n_samples``, and above ``pfa``
    whenever the SNR is positive.
    """
    if not 0.0 < pfa < 1.0:
        raise ValueError(f"local_pd requires 0 < pfa < 1, got {pfa}")
    g = geom.gamma
    arg = (q_inverse(pfa) - math.sqrt(geom.n_samples) * g) / math.sqrt(2.0 * g + 1.0)
    return q_function(arg)


@lru_cache(maxsize=1 << 10)
def _log_comb_row(n: int) -> tuple:
    # ln C(n, l) for l = 0..n from the exact integer coefficients.
    return tuple(math.log(math.comb(n, l)) for l in range(n + 1))


@lru_cache(maxsize=1 << 16)
def _binom_tail(p: float, k: int, n: int) -> float:
    # Upper tail sum_{l=k}^{n} C(n,l) p^l (1-p)^(n-l), accumulated in log
    # space from the smallest terms so n in the hundreds stays exact.
    if p <= 0.0:
        return 0.0
    if p >= 1.0:
        return 1.0
    log_p = math.log(p)
    log_q = math.log1p(-p)
    log_comb = _log_comb_row(n)
    terms = [
        log_comb[l] + l * log_p + (n - l) * log_q for l in range(k, n + 1)
    ]
    terms.sort()
    acc = 0.0
    for t in terms:
        acc += math.exp(t)
    return min(acc, 1.0)


def global_pfa(design: SensingDesign, l_active: int) -> float:
    """Fused false-alarm probability for ``l_active`` reporting users.

    Binomial upper tail of the per-user false alarms under the
    k-out-of-L rule.

    Raises
    ------
    ValueError
        If the vote threshold exceeds the number of reporting users.
    """
    if design.k_threshold > l_active:
        raise ValueError(
            f"vote threshold k={design.k_threshold} exceeds active users L={l_active}"
        )
    return _binom_tail(design.pfa_local, design.k_threshold, l_active)


def global_pd(design: SensingDesign, geom: SensingGeometry, l_active: int) -> float:
    """Fused detection probability; same tail with per-user P_d plugged in."""
    if design.k_threshold > l_active:
        raise ValueError(
            f"vote threshold k={design.k_threshold} exceeds active users L={l_active}"
        )
    return _binom_tail(local_pd(design.pfa_local, geom), design.k_threshold, l_active)


def min_active_users(
    design: SensingDesign,
    geom: SensingGeometry,
    zeta: float,
    m_total: int,
) -> Optional[int]:
    """Smallest L with k <= L <= m_total meeting the detection floor.

    Returns ``None`` when no L up to ``m_total`` reaches ``zeta`` (an
    infeasible design point, not an error).  Relies on the fused
    detection probability being monotone increasing in L for fixed
    (pfa, k).
    """
    if not 0.0 < zeta < 1.0:
        raise ValueError(f"zeta must lie in (0,1), got {zeta}")
    for l_active in range(design.k_threshold, m_total + 1):
        if global_pd(design, geom, l_active) >= zeta:
            return l_active
    return None
