"""Radio and price constants, per-user access rates, and frame-time
accounting.

The fusion center sells Phase-6 transmission time to secondary users.
Everything here is a deterministic function of the radio constants
(:class:`SystemParams`) and a user's channel/price state
(:class:`SecondaryUser`); the access rates come one per gain in a list
(:func:`idle_rates`, :func:`interfered_rates`). The design-dependent
pricing (effective rate, time bounds, priorities, the greedy fill) lives
in :mod:`cogalloc.allocator`.

Money is an abstract unit; the price fields are plain reals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .sensing import SensingGeometry
from .units import db_to_linear, dbm_to_watts


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

    def geometry(self) -> SensingGeometry:
        """Sensing geometry at this system's SNR and sample count."""
        return SensingGeometry(gamma=db_to_linear(self.gamma_db), n_samples=self.n_samples)


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


def idle_rates(gains, params: SystemParams) -> list:
    """Access rate B_w log2(1 + g P_ST / N0) (bits/s), the primary truly
    absent, of one user per gain g to the FC in ``gains``."""
    return [
        params.bandwidth * math.log2(1.0 + gain * params.p_st / params.noise_power)
        for gain in gains
    ]


_EULER_GAMMA = 0.5772156649015329


def _exp_scaled_e1(c: float) -> float:
    # e^c * E1(c) for c > 0.  Up to c = 1/2 the power series
    # E1(c) = -gamma - ln c - sum_{k>=1} (-c)^k / (k k!), times e^c;
    # beyond, the continued fraction 1/(c+1 - 1/(c+3 - 4/(c+5 - ...))),
    # which never forms e^c.  Both stay within 5e-16 relative of the exact
    # value (tests/test_special_functions.py).
    if c <= 0.5:
        # E1(c) > 0.55 here and the series alternates with falling terms,
        # so stopping at a term below 1e-17 truncates under 2e-17 relative.
        term = 1.0
        acc = 0.0
        k = 1
        while True:
            term *= -c / k
            acc += term / k
            if -1e-17 < term < 1e-17:
                break
            k += 1
        return math.exp(c) * (-_EULER_GAMMA - math.log(c) - acc)
    # Forward (modified Lentz) evaluation of the fraction loses up to 1e-14
    # near c = 1; evaluating it bottom-up, at a depth doubled until two
    # depths agree, keeps it to a few ulps.
    depth = 8
    prev, value = math.nan, _e1_fraction(c, depth)
    while value != prev and depth < 1 << 12:
        depth *= 2
        prev, value = value, _e1_fraction(c, depth)
    return value


def _e1_fraction(c: float, depth: int) -> float:
    # The continued fraction for e^c E1(c) truncated after ``depth``
    # partial numerators i^2, evaluated from the bottom up.
    t = c + 2.0 * depth + 1.0
    for i in range(depth, 0, -1):
        t = c + 2.0 * i - 1.0 - i * i / t
    return 1.0 / t


def interfered_rates(gains, params: SystemParams) -> list:
    """Access rate (bits/s) under a missed detection, averaged over the
    unit-mean exponential primary-to-FC gain, of one user per gain to the
    FC in ``gains``: strictly below its :func:`idle_rates`, as
    :class:`SystemParams` requires a positive primary power. The half
    that depends on params alone is computed once."""
    # E_x[log2(1 + gP_ST/(xP_PT+N0))] for x ~ Exp(1), in closed form:
    # the integrand splits into ln(x+c1) - ln(x+c2) with c1=(1+A)/B,
    # c2=1/B (A = gP_ST/N0, B = P_PT/N0), and
    # integral e^-x ln(x+c) dx = ln c + e^c E1(c).  Each rate sums
    # ((ln c1 + e^c1 E1(c1)) - ln c2) - e^c2 E1(c2) in that order.
    b = params.p_pt / params.noise_power
    c2 = 1.0 / b
    log_c2, scaled_e1_c2 = math.log(c2), _exp_scaled_e1(c2)
    rates = []
    for gain in gains:
        c1 = (1.0 + gain * params.p_st / params.noise_power) / b
        nats = math.log(c1) + _exp_scaled_e1(c1) - log_c2 - scaled_e1_c2
        rates.append(params.bandwidth * nats / math.log(2.0))
    return rates


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
