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

import numpy as np


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


def _check_false_alarm(p, what: str) -> None:
    # ValueError unless ``p`` is a real number strictly inside (0, 1) (a
    # numpy float or integer too, never a bool).
    real = isinstance(p, (int, float, np.integer, np.floating)) and not isinstance(p, bool)
    if not real or not 0.0 < p < 1.0:
        raise ValueError(f"{what} must be a real number strictly inside (0,1), got {p!r}")


def _check_vote_threshold(k, what: str) -> None:
    # ValueError unless ``k`` is an integer >= 1 (a numpy integer too, never a bool).
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or k < 1:
        raise ValueError(f"{what} must be an integer >= 1, got {k!r}")


@dataclass(frozen=True)
class SensingDesign:
    """A (local false-alarm probability, fusion vote threshold) operating point."""

    pfa_local: float
    k_threshold: int

    def __post_init__(self) -> None:
        _check_false_alarm(self.pfa_local, "pfa_local")
        _check_vote_threshold(self.k_threshold, "k_threshold")


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


#: Elements (pairs x row length) in one working array of
#: :func:`binomial_tails`: at most 256 kB of floats.
_TAIL_CHUNK = 1 << 15


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@lru_cache(maxsize=1 << 10)
def _log_comb_row(n: int) -> np.ndarray:
    # ln C(n, l) for l = 0..n from the exact integer coefficients, each
    # from the last: C(n, l + 1) = C(n, l) (n - l) / (l + 1) exactly.
    comb, logs = 1, [0.0]
    for l in range(n):
        comb = comb * (n - l) // (l + 1)
        logs.append(math.log(comb))
    return _read_only(np.array(logs))


@lru_cache(maxsize=1 << 10)
def binomial_rows(ps: tuple, n: int) -> tuple:
    """The terms C(n, l) p^l (1-p)^(n-l), l = 0..n, of each p in ``ps``
    in ascending order: (terms, their l), read-only P x (n+1) arrays.
    Each term is ``math.exp`` of its log with the exact integer
    coefficient; they are ordered by their logs (equal logs, equal
    terms). A p <= 0 has every term 0, a p >= 1 the one term 1 at l = n.
    """
    logs_pq = np.array(
        [(math.log(p), math.log1p(-p)) if 0.0 < p < 1.0 else (0.0, 0.0) for p in ps]
    )
    l = np.arange(n + 1)
    logs = _log_comb_row(n) + l * logs_pq[:, :1] + (n - l) * logs_pq[:, 1:]
    exps = map(math.exp, logs.ravel().tolist())
    terms = np.fromiter(exps, float, logs.size).reshape(logs.shape)
    for i, p in enumerate(ps):
        if not 0.0 < p < 1.0:
            terms[i] = 0.0
            terms[i, n] = float(p >= 1.0)
    order = np.argsort(logs, axis=1, kind="stable")
    rows = np.arange(len(ps))[:, None]
    return _read_only(terms[rows, order]), _read_only(order)


def binomial_tails(ps: tuple, rows, ks, ns) -> np.ndarray:
    """Upper tails P(X >= k), X ~ Binomial(n, p), for p = ``ps[rows[j]]``,
    k = ``ks[j]``, n = ``ns[j]`` (or one shared n): the sequential sum of
    the row's terms at l >= k, smallest first (:func:`binomial_rows`),
    capped at 1, in one masked pass with 0.0 for each term at l < k or
    past the row's end (adding 0.0 leaves a sum unchanged). Adding a
    term >= 0 cannot lower such a sum, so the tail falls in k bit for bit.
    """
    rows = np.asarray(rows, dtype=np.intp)
    ks = np.asarray(ks, dtype=np.intp)[:, None]
    ns = np.asarray(ns, dtype=np.intp)
    # Pairs in order of n, so that a chunk holds few distinct n.
    order = np.arange(len(rows)) if ns.ndim == 0 else np.argsort(ns, kind="stable")
    ns = np.broadcast_to(ns, rows.shape)
    out = np.empty(len(rows))
    step = max(1, _TAIL_CHUNK // (int(ns.max(initial=0)) + 1))
    for s in range(0, len(rows), step):
        part = order[s : s + step]
        sizes = ns[part]
        if sizes[0] == sizes[-1]:
            kept = _masked_row(ps, rows[part], ks[part], int(sizes[0]))
        else:
            kept = np.zeros((len(part), int(sizes[-1]) + 1))
            for n in sorted(set(sizes.tolist())):
                at = np.flatnonzero(sizes == n)
                kept[at, : n + 1] = _masked_row(ps, rows[part[at]], ks[part[at]], n)
        out[part] = np.add.accumulate(kept, axis=1)[:, -1]
    return np.minimum(out, 1.0)


def _masked_row(ps: tuple, rows, ks, n: int) -> np.ndarray:
    # The ascending terms at n of each row, 0.0 where l < k.
    terms, ls = binomial_rows(ps, n)
    return np.where(ls[rows] >= ks, terms[rows], 0.0)


@lru_cache(maxsize=1 << 16)
def _binom_tail(p: float, k: int, n: int) -> float:
    # One upper tail of :func:`binomial_tails`.
    return float(binomial_tails((p,), (0,), (k,), n)[0])


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
    """Smallest L with k <= L <= m_total meeting the detection floor, by a
    scan over L; ``None`` when no L up to ``m_total`` reaches ``zeta`` (an
    infeasible design point, not an error).
    """
    if not 0.0 < zeta < 1.0:
        raise ValueError(f"zeta must lie in (0,1), got {zeta}")
    for l_active in range(design.k_threshold, m_total + 1):
        if global_pd(design, geom, l_active) >= zeta:
            return l_active
    return None
