"""Closed-form local and fused detection statistics for cooperative energy detection.

Local statistics are the standard large-N Gaussian approximations for an
energy detector: a false-alarm probability fixes the detector threshold,
and the detection probability follows from the sensing SNR.  Fused
statistics are k-out-of-L binomial tails over independent, identical
per-user hard decisions, read from one block of binomial rows per
probability tuple that holds every size built so far
(:class:`_RowBlock`, :func:`binomial_tails`).

All functions are pure (the row blocks are caches: a size, once built,
never changes); the value types are frozen dataclasses and safe to
share across threads.
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


#: Elements (pairs x row width) in one working array of
#: :func:`binomial_tails`: at most 256 kB of floats. A step that grows a
#: row block holds a quarter of that (sizes x probabilities x width), as
#: its exponentials pass through Python floats, four times a float's
#: bytes each.
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


class _RowBlock:
    """The binomial rows of one probability tuple ``ps`` at every size
    0..n built so far, as ``rows`` = (terms, ls), each n + 1 sizes x P
    probabilities x n + 1 terms: ``terms[n, i]`` holds the terms C(n, l)
    p^l (1-p)^(n-l), l = 0..n, of p = ps[i] in ascending order, then 0.0
    to the block's width, and ``ls[n, i]`` each term's l, then -1 (in the
    smallest integer type that holds n). Each term is ``math.exp`` of its
    log with the exact integer coefficient; they are ordered by their
    logs (equal logs, equal terms). A p <= 0 has every term 0, a p >= 1
    the one term 1 at l = n. :meth:`grow` appends sizes; a size once
    built is never rebuilt.
    """

    __slots__ = ("ps", "rows", "_logs_pq", "_live")

    def __init__(self, ps: tuple):
        self.ps = ps
        self._live = np.array([0.0 < p < 1.0 for p in ps], dtype=bool)
        self._logs_pq = np.array(
            [(math.log(p), math.log1p(-p)) if 0.0 < p < 1.0 else (0.0, 0.0) for p in ps]
        ).reshape(-1, 2)
        empty = np.zeros((0, len(ps), 0))
        self.rows = (empty, empty.astype(np.int8))

    def grow(self, n: int) -> tuple:
        """``rows`` once every size up to ``n`` is built: the sizes not
        built yet, a few a step (at most ``_TAIL_CHUNK`` // 4 elements a
        working array, or one size), set in one assignment. A block that
        grows adds at least half its sizes, so that a scan asking one
        size more at a time copies it O(log n) times, not n times."""
        old_terms, old_ls = self.rows
        have, count = len(old_terms), len(self.ps)
        if n < have:
            return self.rows
        n = max(n, have + have // 2)
        terms = np.zeros((n + 1, count, n + 1))
        ls = np.full(terms.shape, -1, dtype=np.min_scalar_type(-n - 1))
        terms[:have, :, :have], ls[:have, :, :have] = old_terms, old_ls
        step = max(1, _TAIL_CHUNK // (4 * max(count, 1) * (n + 1)))
        for first in range(have, n + 1, step):
            stop = min(first + step, n + 1)
            terms[first:stop, :, :stop], ls[first:stop, :, :stop] = self._sizes(first, stop)
        self.rows = _read_only(terms), _read_only(ls)
        return self.rows

    def _sizes(self, first: int, stop: int) -> tuple:
        # The rows of sizes first..stop-1, each padded to ``stop`` terms:
        # (terms, ls), sizes x P x stop. The logs are the same operations,
        # in the same order, at every size and width.
        sizes, l = np.arange(first, stop), np.arange(stop)
        inside = l <= sizes[:, None]
        comb = np.zeros(inside.shape)
        for row, n in zip(comb, sizes.tolist()):
            row[: n + 1] = _log_comb_row(n)
        log_p, log_q = self._logs_pq.T[:, :, None]
        logs = comb[:, None] + l * log_p + (sizes[:, None, None] - l) * log_q
        taken = inside[:, None] & self._live[:, None]
        terms = np.zeros(logs.shape)
        exps = map(math.exp, logs[taken].tolist())
        terms[taken] = np.fromiter(exps, float, np.count_nonzero(taken))
        for i in np.flatnonzero(~self._live).tolist():
            terms[np.arange(len(sizes)), i, sizes] = float(self.ps[i] >= 1.0)
        # Past its row's end a log is inf, so the sort puts it last.
        logs[~np.broadcast_to(inside[:, None], logs.shape)] = np.inf
        order = np.argsort(logs, axis=-1, kind="stable")
        ls = np.where(inside[:, None], order, -1)
        return np.take_along_axis(terms, order, axis=-1), ls


@lru_cache(maxsize=64)
def _row_block(ps: tuple) -> _RowBlock:
    # The one row block of ``ps``, shared by every tail of it.
    return _RowBlock(ps)


def binomial_tails(ps: tuple, rows, ks, ns) -> np.ndarray:
    """Upper tails P(X >= k), X ~ Binomial(n, p), for p = ``ps[rows[j]]``,
    k = ``ks[j]``, n = ``ns[j]`` (or one shared n), any mix of sizes:
    the sequential sum of the row's terms at l >= k, smallest first,
    capped at 1. The rows come from the one row block of ``ps``
    (:class:`_RowBlock`, grown to the largest n asked), a chunk of pairs
    at a time: one gather of the pairs' rows and one masked accumulate,
    with 0.0 for each term at l < k or past the row's end (adding 0.0
    leaves a sum unchanged), so every tail is the one its size alone
    would give. Adding a term >= 0 cannot lower such a sum, so the tail
    falls in k bit for bit.
    """
    rows = np.asarray(rows, dtype=np.intp)
    ks = np.asarray(ks, dtype=np.intp)[:, None]
    ns = np.asarray(ns, dtype=np.intp)
    order = None
    if ns.ndim:
        # Pairs in order of n, so that a chunk's rows are about as wide.
        order = np.argsort(ns, kind="stable")
        rows, ks, ns = rows[order], ks[order], ns[order]
    else:
        ns = ns.repeat(len(rows))
    top = int(ns.max(initial=0))
    terms, ls = _row_block(ps).grow(top)
    out = np.empty(len(rows))
    step = max(1, _TAIL_CHUNK // (top + 1))
    for s in range(0, len(rows), step):
        part = slice(s, s + step)
        at = ns[part], rows[part], slice(0, int(ns[part][-1]) + 1)
        kept = np.where(ls[at] >= ks[part], terms[at], 0.0)
        out[part] = np.add.accumulate(kept, axis=1)[:, -1]
    np.minimum(out, 1.0, out=out)
    if order is not None:  # back to the order asked
        out[order] = out.copy()
    return out


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
