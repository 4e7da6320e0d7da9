"""Closed-form energy and delay models for EEE frame coalescing.

Conventions used throughout the package:

* all times are microseconds, all rates are frames per microsecond;
  conversion from bits/s happens at the boundary (see :mod:`eeecoal.traffic`),
* the link sleeps through an uninterruptible transition of length ``ts``,
  wakes through one of length ``tw``, and burns idle power ``phi_off``
  (relative to active) while in low-power idle,
* the controller-parameter solvers return ``nan`` as the "infeasible"
  sentinel (delay target unreachable).

All functions here are pure and stateless.  The scalar ones take and return
plain floats: the simulator kernel calls the solvers once per coalescing
cycle, and arithmetic on numpy scalars would be several times slower.
"""

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class EeeParams:
    """Physical constants of one EEE interface.

    Defaults are the standard values for a 10GBASE-T port: the LPI mode
    draws 10% of active power, and mode transitions take 2.88 / 4.48 us.
    """

    phi_off: float = 0.1
    ts: float = 2.88
    tw: float = 4.48
    line_rate: float = 10e9  # bits per second

    def __post_init__(self):
        if not 0.0 <= self.phi_off < 1.0:
            raise ValueError(f"phi_off must be in [0, 1), got {self.phi_off}")
        if not all(map(math.isfinite, (self.ts, self.tw, self.line_rate))):
            raise ValueError("ts, tw and line_rate must be finite")
        if self.ts <= 0 or self.tw <= 0:
            raise ValueError("transition times ts and tw must be positive")
        if self.line_rate <= 0:
            raise ValueError("line_rate must be positive")

    @property
    def rate_bits_per_us(self) -> float:
        return self.line_rate * 1e-6


@dataclass(frozen=True)
class TrafficStats:
    """First and second moments of the arrival and service processes.

    ``lam`` and ``mu`` are frame rates (frames/us); the variances are of the
    interarrival and service *times* (us^2).
    """

    lam: float
    mu: float
    var_interarrival: float
    var_service: float

    def __post_init__(self):
        if self.lam <= 0 or self.mu <= 0:
            raise ValueError("lam and mu must be positive")
        if self.lam / self.mu >= 1.0:
            raise ValueError(
                f"unstable system: utilization {self.lam / self.mu:.4f} >= 1"
            )
        if self.var_interarrival < 0 or self.var_service < 0:
            raise ValueError("variances must be nonnegative")

    @property
    def rho(self) -> float:
        return self.lam / self.mu


@dataclass(frozen=True)
class CoalescingOutcome:
    """Predicted steady-state behaviour of one coalescing configuration."""

    t_off_mean: float     # mean LPI residency per cycle, us
    mean_delay: float     # mean queuing delay, us
    energy_ratio: float   # consumption relative to a power-unaware port


# --------------------------------------------------------------------------
# baseline delay
# --------------------------------------------------------------------------

def w0_exact(stats: TrafficStats) -> float:
    """Coalescing-independent baseline delay term of the GI/G/1 model.

    Equals the classic single-server mean wait plus one mean interarrival
    time, from the full traffic moments; for Poisson arrivals it is exact.
    """
    lam, rho = stats.lam, stats.rho
    return (lam * lam * (stats.var_interarrival + stats.var_service) + (1.0 - rho) ** 2) / (
        2.0 * lam * (1.0 - rho)
    )


def w0_poisson_deterministic(lam, rho):
    """Baseline delay assuming Poisson arrivals and fixed-size frames.

    The form the adaptive controllers use: only the arrival and service
    rates need to be measured.
    """
    if lam <= 0.0:
        raise ValueError("lam must be positive")
    if rho < 0.0 or rho >= 1.0:
        raise ValueError("rho must be in [0, 1)")
    return (1.0 + (1.0 - rho) ** 2) / (2.0 * lam * (1.0 - rho))


# --------------------------------------------------------------------------
# energy
# --------------------------------------------------------------------------

def energy_ratio(params: EeeParams, rho: float, t_off_mean: float) -> float:
    """Energy drawn relative to a port that never sleeps.

    Decreases from 1 (no sleeping) towards the floor
    ``1 - (1 - phi_off) * (1 - rho)`` as the mean sleep time grows.
    """
    if t_off_mean < 0.0:
        raise ValueError("t_off_mean must be >= 0")
    if rho < 0.0 or rho >= 1.0:
        raise ValueError("rho must be in [0, 1)")
    if math.isinf(t_off_mean):
        frac = 1.0
    else:
        frac = t_off_mean / (t_off_mean + params.ts + params.tw)
    return 1.0 - (1.0 - params.phi_off) * (1.0 - rho) * frac


# --------------------------------------------------------------------------
# time-based coalescing (timer of duration v started by the first arrival)
# --------------------------------------------------------------------------

def toff_time_based(lam, v, ts):
    """Mean LPI residency per cycle for a timer coalescer, Poisson arrivals."""
    if lam <= 0.0:
        raise ValueError("lam must be positive")
    if v <= ts:
        raise ValueError("timer must exceed the sleep transition (v > ts)")
    return 1.0 / lam + v - ts


def delay_time_based(lam, v, tw, w0):
    """Mean queuing delay for a timer coalescer, Poisson arrivals.

    Accepts v = 0 (wake on first arrival); with tw = 0 as well this reduces
    to the plain no-vacation queue, i.e. w0 - 1/lam.
    """
    if lam <= 0.0:
        raise ValueError("lam must be positive")
    if v < 0.0:
        raise ValueError("timer must be nonnegative")
    x = v + tw
    return w0 + (lam * lam * x * x - 2.0) / (2.0 * lam * (1.0 + lam * x))


# --------------------------------------------------------------------------
# size-based coalescing (wake when qw frames are queued)
# --------------------------------------------------------------------------

def toff_size_based(lam, qw, ts):
    """Mean LPI residency per cycle for a queue-threshold coalescer.

    Mean positive part of (Erlang-qw arrival epoch - ts); evaluated through
    regularized incomplete-gamma sums so large thresholds do not overflow.
    """
    if qw < 1:
        raise ValueError("qw must be >= 1")
    if lam <= 0.0:
        raise ValueError("lam must be positive")
    if ts < 0.0:
        raise ValueError("ts must be nonnegative")
    x = lam * ts
    # s0 = sum_{k<qw} x^k/k!, s1 = s0 + x^qw/qw!
    term = 1.0
    s0 = 1.0
    for k in range(1, qw):
        term *= x / k
        s0 += term
    term *= x / qw
    s1 = s0 + term
    e = math.exp(-x)
    return (qw * e * s1 - x * e * s0) / lam


def delay_size_based(lam, qw, tw, w0):
    """Mean queuing delay for a queue-threshold coalescer, Poisson arrivals.

    qw may be fractional (>= 1); the root solver evaluates it off the integer
    grid.  qw = 1 coincides exactly with delay_time_based at v = 0.
    """
    if lam <= 0.0:
        raise ValueError("lam must be positive")
    if qw < 1.0:
        raise ValueError("qw must be >= 1")
    a = lam * tw
    return (
        w0
        - (qw - 1.0) / (lam * qw)
        + ((qw + a - 1.0) ** 2 + qw - 3.0) / (2.0 * lam * (qw + a))
    )


# --------------------------------------------------------------------------
# controller parameter solvers
# --------------------------------------------------------------------------

def optimal_timer(tau, lam, tw, w0, ts=0.0):
    """Timer duration whose predicted mean delay equals tau.

    Exact algebraic inverse of :func:`delay_time_based`.  Returns nan when
    the solution does not exceed ``ts`` (the interface would get no LPI
    residency at all, so sleeping should be suspended).
    """
    if tau <= 0.0:
        raise ValueError("tau must be positive")
    if lam <= 0.0:
        raise ValueError("lam must be positive")
    d = tau - w0
    v = d - tw + math.sqrt(1.0 + (1.0 + lam * d) ** 2) / lam
    if v <= ts:
        return math.nan
    return v


def optimal_threshold_approx(tau, lam, tw, w0):
    """Queue threshold for delay tau via the large-threshold approximation.

    Returns nan when the result drops below 1 frame.
    """
    if tau <= 0.0:
        raise ValueError("tau must be positive")
    if lam <= 0.0:
        raise ValueError("lam must be positive")
    q = 2.0 * lam * (tau - w0 - tw / 2.0) + 3.0
    if q < 1.0:
        return math.nan
    return q


def optimal_threshold_cubic(tau, lam, tw, w0):
    """Queue threshold for delay tau as a root of the exact cubic condition.

    The cubic is ``delay_size_based(lam, q, tw, w0) = tau`` multiplied
    through by its denominators.  Returns its largest real root in
    [1, 2*lam*tau + 10], or nan when no root falls in that range.

    The cubic is 2*lam*tw > 0 at q = 0, so when it has one real root that
    root is negative.  Otherwise the three roots come from the trigonometric
    form, largest first; each takes two Newton steps, which recover the
    digits the closed form loses to cancellation, and the first in range is
    returned.

    Two roots fall in range only when lam*tw is large and tau lies in the
    dip of ``delay_size_based`` just above q = 1.  Both then predict tau
    exactly, and at equal predicted delay the larger threshold sleeps
    longer per cycle, so it wins.
    """
    if tau <= 0.0:
        raise ValueError("tau must be positive")
    if lam <= 0.0:
        raise ValueError("lam must be positive")
    if tw <= 0.0:
        raise ValueError("tw must be positive")
    d = tau - w0
    lt = lam * tw
    a = 2.0 * lt - 2.0 * lam * d - 3.0
    b = lt * lt - 2.0 * lam * lt * d - 4.0 * lt
    c = 2.0 * lt
    s = a / 3.0
    p = b - a * s                       # depressed cubic t^3 + p t + r,
    r = (2.0 * s * s - b) * s + c       # with q = t - s
    if 0.25 * r * r + p * p * p / 27.0 > 0.0:
        return math.nan
    m = 2.0 * math.sqrt(-p / 3.0)
    cos3 = 3.0 * r / (p * m) if p != 0.0 else 0.0
    theta = math.acos(min(1.0, max(-1.0, cos3))) / 3.0
    hi = 2.0 * lam * tau + 10.0
    for t in sorted((m * math.cos(theta - 2.0 * math.pi * k / 3.0) for k in range(3)),
                    reverse=True):
        q = t - s
        for _ in range(2):
            fp = (3.0 * q + 2.0 * a) * q + b
            if fp == 0.0:
                break
            q -= (((q + a) * q + b) * q + c) / fp
        if 1.0 <= q <= hi:
            return q
    return math.nan


# --------------------------------------------------------------------------
# efficiency bounds for a target mean delay
# --------------------------------------------------------------------------

def toff_upper_bound(tau: float, params: EeeParams, stats: TrafficStats) -> float:
    """The paper's closed-form sleep bound: mean sleep time at mean delay tau.

    It dominates time-based coalescing at every load.  Threshold coalescing
    crosses it above about 0.6 utilization (from half utilization for very
    large thresholds, by under 0.3%): the exact sleep of a static threshold
    (:func:`toff_size_based`) exceeds the expression evaluated at that
    policy's measured mean delay, by 2.4% for ``qw = 12`` at 0.8
    utilization.  So at high load it is not a limit for every policy.

    Returns nan when the expression has no positive root.  That is not the
    same as an unreachable target: at 0.8 utilization with 1500 B Poisson
    frames and the default :class:`EeeParams` it returns nan for tau in
    2.4-5.47 us, targets that a link which never sleeps meets.
    """
    if tau <= 0.0:
        raise ValueError("tau must be positive")
    lam, rho = stats.lam, stats.rho
    var_i, var_s = stats.var_interarrival, stats.var_service
    w0 = w0_exact(stats)
    g = lam * var_i + (1.0 - rho) / lam
    s = tau - w0 + g
    val = (
        tau - params.ts - params.tw - w0 + g
        + math.sqrt(s * s + 2.0 * (var_i + var_s) + ((1.0 - rho) / lam) ** 2)
    )
    if val <= 0.0:
        return math.nan
    return val


def energy_lower_bound(tau: float, params: EeeParams, stats: TrafficStats) -> float:
    """The energy ratio of :func:`toff_upper_bound` at mean delay tau.

    The paper's closed-form energy floor.  Like the sleep bound it holds
    for time-based coalescing and is crossed by threshold coalescing at
    high utilization.  Where the sleep expression has no positive root
    (nan) this returns 1.0, the ratio of a link that never sleeps.
    """
    t_up = toff_upper_bound(tau, params, stats)
    if math.isnan(t_up):
        return 1.0
    return energy_ratio(params, stats.rho, t_up)


# --------------------------------------------------------------------------
# bundled predictions
# --------------------------------------------------------------------------

def time_based_outcome(params: EeeParams, stats: TrafficStats, v: float) -> CoalescingOutcome:
    """Predicted sleep time, delay and energy for a fixed timer."""
    w0 = w0_exact(stats)
    t_off = toff_time_based(stats.lam, v, params.ts)
    return CoalescingOutcome(
        t_off_mean=t_off,
        mean_delay=delay_time_based(stats.lam, v, params.tw, w0),
        energy_ratio=energy_ratio(params, stats.rho, t_off),
    )


def size_based_outcome(params: EeeParams, stats: TrafficStats, qw: int) -> CoalescingOutcome:
    """Predicted sleep time, delay and energy for a fixed queue threshold."""
    w0 = w0_exact(stats)
    t_off = toff_size_based(stats.lam, int(qw), params.ts)
    return CoalescingOutcome(
        t_off_mean=t_off,
        mean_delay=delay_size_based(stats.lam, float(qw), params.tw, w0),
        energy_ratio=energy_ratio(params, stats.rho, t_off),
    )
