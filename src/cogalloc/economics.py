"""Rates, prices, utilities, per-user time bounds, and frame-time accounting.

The fusion center sells Phase-6 transmission time to secondary users.
Everything here is a deterministic function of the radio constants
(:class:`SystemParams`), a user's channel/price state
(:class:`SecondaryUser`), and a sensing operating point.

Money is an abstract unit; the price fields are plain reals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from scipy.special import exp1

from .sensing import SensingDesign, SensingGeometry, global_pd, global_pfa
from .units import db_to_linear, dbm_to_watts

#: Marker returned by time_lower_bound when a user can never profit (b <= a).
NEVER_PROFITABLE = math.inf


@dataclass(frozen=True)
class SystemParams:
    """Global radio, economic, and frame constants.

    Time fields are seconds, powers are watts, costs are currency.
    ``gamma_db`` is the shared sensing SNR in dB.
    """

    n_samples: int
    sample_interval: float
    frame_duration: float
    tau2: float
    tau5: float
    tau_r: float
    tau_r_prime: float
    p_st: float
    p_pt: float
    bandwidth: float
    noise_power: float
    sense_cost: float
    report_cost: float
    p_h0: float
    zeta: float
    gamma_db: float

    def __post_init__(self) -> None:
        problems = []
        if not 0.0 < self.p_h0 < 1.0:
            problems.append(f"p_h0 must lie in (0,1), got {self.p_h0}")
        if not 0.0 < self.zeta < 1.0:
            problems.append(f"zeta must lie in (0,1), got {self.zeta}")
        for name in (
            "sample_interval",
            "frame_duration",
            "tau2",
            "tau5",
            "tau_r",
            "tau_r_prime",
            "p_st",
            "p_pt",
            "bandwidth",
            "noise_power",
            "sense_cost",
            "report_cost",
        ):
            if not getattr(self, name) > 0.0:
                problems.append(f"{name} must be positive, got {getattr(self, name)}")
        if self.n_samples < 1:
            problems.append(f"n_samples must be >= 1, got {self.n_samples}")
        sensing_overhead = self.tau2 + self.n_samples * self.sample_interval + self.tau5
        if not self.frame_duration > sensing_overhead:
            problems.append(
                "frame_duration leaves no usable time: "
                f"{self.frame_duration} <= {sensing_overhead}"
            )
        if problems:
            raise ValueError("; ".join(problems))

    @property
    def sensing_cost(self) -> float:
        """Per-frame sensing+reporting cost N*a_s + a_t paid by an active user."""
        return self.n_samples * self.sense_cost + self.report_cost

    @property
    def p_h1(self) -> float:
        return 1.0 - self.p_h0

    def geometry(self, noise_var: float = 1.0) -> SensingGeometry:
        """Sensing geometry at this system's SNR and sample count."""
        return SensingGeometry(
            gamma=db_to_linear(self.gamma_db),
            n_samples=self.n_samples,
            noise_var=noise_var,
        )


def default_system_params(**overrides) -> SystemParams:
    """The shipped defaults: 1 ms frames, 15 kHz band, -174 dBm/Hz noise floor,
    23/43 dBm transmit powers, 40-sample sensing at 6 MHz, unit costs
    a_s=1e-4, a_t=1e-3, P(H0)=0.8, zeta=0.7, gamma=-7 dB.
    """
    bandwidth = overrides.pop("bandwidth", 15e3)
    fields = dict(
        n_samples=40,
        sample_interval=1.0 / 6e6,
        frame_duration=1e-3,
        tau2=10e-6,
        tau5=10e-6,
        tau_r=5e-6,
        tau_r_prime=5e-6,
        p_st=dbm_to_watts(23.0),
        p_pt=dbm_to_watts(43.0),
        bandwidth=bandwidth,
        noise_power=dbm_to_watts(-174.0 + 10.0 * math.log10(bandwidth)),
        sense_cost=1e-4,
        report_cost=1e-3,
        p_h0=0.8,
        zeta=0.7,
        gamma_db=-7.0,
    )
    fields.update(overrides)
    return SystemParams(**fields)


@dataclass(frozen=True)
class SecondaryUser:
    """Per-user channel gain, backlog, and price pair.

    ``pay_rate`` (a_i) is what the user pays the fusion center per
    successfully delivered bit; ``earn_rate`` (b_i) is the user's own
    revenue per bit.
    """

    id: int
    gain_to_fc: float
    buffer_bits: int
    pay_rate: float
    earn_rate: float

    def __post_init__(self) -> None:
        if not self.gain_to_fc > 0.0:
            raise ValueError(f"gain_to_fc must be positive, got {self.gain_to_fc}")
        if self.buffer_bits < 0:
            raise ValueError(f"buffer_bits must be >= 0, got {self.buffer_bits}")
        if self.pay_rate < 0.0 or self.earn_rate < 0.0:
            raise ValueError("price fields must be non-negative")


@dataclass(frozen=True)
class TimeBounds:
    """Break-even lower and buffer-clearing upper time bounds, seconds.

    ``lower <= upper`` is deliberately not an invariant: its violation is
    what the feasibility filter keys on.
    """

    lower: float
    upper: float

    def __post_init__(self) -> None:
        if self.upper < 0.0 or (self.lower < 0.0 and not math.isinf(self.lower)):
            raise ValueError("time bounds must be non-negative")


def rate_idle(su: SecondaryUser, params: SystemParams) -> float:
    """Access rate (bits/s) when the primary is truly absent:
    B_w log2(1 + g P_ST / N0).
    """
    return params.bandwidth * math.log2(
        1.0 + su.gain_to_fc * params.p_st / params.noise_power
    )


def _exp_scaled_e1(c: float) -> float:
    # e^c * E1(c), overflow-safe: direct product while e^c and E1(c) are
    # both well inside double range, truncated asymptotic series beyond
    # (error < 1e-25 relative for c >= 500).
    if c < 500.0:
        return math.exp(c) * float(exp1(c))
    acc = 0.0
    term = 1.0 / c
    for k in range(1, 16):
        acc += term
        term *= -k / c
    return acc


@lru_cache(maxsize=1 << 16)
def _rate_interfered_cached(
    gain: float, p_st: float, p_pt: float, noise: float, bandwidth: float
) -> float:
    # E_x[log2(1 + gP_ST/(xP_PT+N0))] for x ~ Exp(1), in closed form:
    # the integrand splits into ln(x+c1) - ln(x+c2) with c1=(1+A)/B,
    # c2=1/B (A = gP_ST/N0, B = P_PT/N0), and
    # integral e^-x ln(x+c) dx = ln c + e^c E1(c).
    a = gain * p_st / noise
    b = p_pt / noise
    c1 = (1.0 + a) / b
    c2 = 1.0 / b
    nats = math.log(c1) + _exp_scaled_e1(c1) - math.log(c2) - _exp_scaled_e1(c2)
    return bandwidth * nats / math.log(2.0)


def rate_interfered(su: SecondaryUser, params: SystemParams) -> float:
    """Access rate (bits/s) under a missed detection, averaged over the
    unit-mean exponential primary-to-FC gain.

    Strictly below :func:`rate_idle` for any positive primary power.
    """
    if params.p_pt == 0.0:
        return rate_idle(su, params)
    return _rate_interfered_cached(
        su.gain_to_fc, params.p_st, params.p_pt, params.noise_power, params.bandwidth
    )


def effective_rate(
    su: SecondaryUser,
    design: SensingDesign,
    geom: SensingGeometry,
    params: SystemParams,
    l_active: int,
) -> float:
    """Opportunity-weighted expected clearance rate (bits/s):
    P(H0)(1-P_FA) r0 + P(H1)(1-P_D) r1.
    """
    p_fa = global_pfa(design, l_active)
    p_d = global_pd(design, geom, l_active)
    return params.p_h0 * (1.0 - p_fa) * rate_idle(su, params) + params.p_h1 * (
        1.0 - p_d
    ) * rate_interfered(su, params)


def time_lower_bound(
    su: SecondaryUser,
    design: SensingDesign,
    geom: SensingGeometry,
    params: SystemParams,
    l_active: int,
) -> float:
    """Break-even allocation (seconds): below it the user's net utility is
    negative. Returns :data:`NEVER_PROFITABLE` (inf) when b_i <= a_i.
    """
    margin = su.earn_rate - su.pay_rate
    if margin <= 0.0:
        return NEVER_PROFITABLE
    return params.sensing_cost / (
        effective_rate(su, design, geom, params, l_active) * margin
    )


def time_upper_bound(
    su: SecondaryUser,
    design: SensingDesign,
    geom: SensingGeometry,
    params: SystemParams,
    l_active: int,
) -> float:
    """Buffer-clearing allocation (seconds): exactly drains the backlog at
    the effective rate.
    """
    rate = effective_rate(su, design, geom, params, l_active)
    if rate <= 0.0:
        raise ArithmeticError("effective rate is zero; upper time bound undefined")
    return su.buffer_bits / rate


def time_bounds(
    su: SecondaryUser,
    design: SensingDesign,
    geom: SensingGeometry,
    params: SystemParams,
    l_active: int,
) -> TimeBounds:
    """Both bounds at once (shares one rate evaluation)."""
    rate = effective_rate(su, design, geom, params, l_active)
    if rate <= 0.0:
        raise ArithmeticError("effective rate is zero; time bounds undefined")
    margin = su.earn_rate - su.pay_rate
    lower = NEVER_PROFITABLE if margin <= 0.0 else params.sensing_cost / (rate * margin)
    return TimeBounds(lower=lower, upper=su.buffer_bits / rate)


def effective_time(params: SystemParams, l_active: int) -> float:
    """Usable Phase-6 time T'(L) = T - tau2 - N tau_s - tau5 - L tau_r'.

    May be negative for large L; callers treat that as infeasible.
    """
    if l_active < 0:
        raise ValueError(f"l_active must be >= 0, got {l_active}")
    return (
        params.frame_duration
        - params.tau2
        - params.n_samples * params.sample_interval
        - params.tau5
        - l_active * params.tau_r_prime
    )


def fc_utility(alloc, per_su_rates: Sequence[float], pay_rates: Sequence[float]) -> float:
    """Fusion-center revenue sum over active users of R_i a_i t_i.

    ``alloc`` is anything with aligned ``active`` and ``times`` vectors.
    """
    return sum(
        rate * pay * t
        for active, t, rate, pay in zip(alloc.active, alloc.times, per_su_rates, pay_rates)
        if active
    )


def su_utility(
    su: SecondaryUser,
    design: SensingDesign,
    geom: SensingGeometry,
    params: SystemParams,
    l_active: int,
    t_alloc: float,
    active: bool,
) -> float:
    """A user's net utility: revenue margin on cleared bits minus the
    sensing/reporting cost, zero when inactive.
    """
    if t_alloc < 0.0:
        raise ValueError(f"t_alloc must be >= 0, got {t_alloc}")
    if not active:
        return 0.0
    rate = effective_rate(su, design, geom, params, l_active)
    return rate * t_alloc * (su.earn_rate - su.pay_rate) - params.sensing_cost
