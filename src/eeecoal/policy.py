"""Coalescing controllers: fixed parameters and open-loop adaptive tuning.

A policy is consulted once per coalescing cycle, at the instant the transmit
buffer empties.  Static variants always hand back their configured timer
and/or threshold.  The adaptive variants re-derive the parameter from the
current traffic estimate so the mean queuing delay stays near the target
``tau``; when the target is unreachable under the estimated load, sleeping
is suspended for the cycle and re-evaluated at the next buffer-empty event.

Traffic is estimated open-loop from per-cycle observations only (no feedback
of the delay error): each finished cycle's frame count, duration and total
service time are EWMA-smoothed, and the arrival/service rates are the ratios
of the smoothed totals.  Cycles with fewer than two frames leave the
estimate untouched.

The scalar planning helpers take and return plain floats; the simulator
kernel calls them directly, once per cycle.
"""

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .analytic import (
    EeeParams,
    optimal_threshold_approx,
    optimal_threshold_cubic,
    optimal_timer,
    w0_poisson_deterministic,
)

if TYPE_CHECKING:  # pragma: no cover
    from .simcore import CycleRecord

# policy kind codes shared with the simulator kernel
KIND_NONE = 0
KIND_STATIC_TIMER = 1
KIND_STATIC_SIZE = 2
KIND_STATIC_DUAL = 3
KIND_DYNAMIC_TIMER = 4
KIND_DYNAMIC_SIZE = 5

# wake plan mode codes
MODE_SUSPEND = 0
MODE_TIMER = 1
MODE_THRESHOLD = 2
MODE_DUAL = 3

MODE_NAMES = {
    MODE_SUSPEND: "suspend",
    MODE_TIMER: "timer",
    MODE_THRESHOLD: "threshold",
    MODE_DUAL: "dual",
}

# utilization cap applied to estimates before the baseline-delay formula,
# which is singular at rho = 1
RHO_CLAMP = 0.99

# Per-cycle smoothing weight.  Plans react within ~1/weight cycles; pushing
# the weight higher makes the planned threshold jitter cycle-to-cycle, which
# inflates the realized mean delay (long-plan cycles hold more frames and
# each waits longer), so the default favors a steadier estimate.
DEFAULT_EWMA_WEIGHT = 0.15


@dataclass(frozen=True)
class PolicyConfig:
    """One coalescing policy.  Use the classmethod constructors."""

    kind: int
    v: float = 0.0            # static timer, us
    qw: int = 0               # static threshold, frames
    tau: float = 0.0          # delay target for adaptive variants, us
    solver: str = "approx"    # adaptive threshold solver: approx | cubic
    ewma_weight: float = DEFAULT_EWMA_WEIGHT

    def __post_init__(self):
        if self.kind in (KIND_STATIC_TIMER, KIND_STATIC_DUAL) and self.v <= 0:
            raise ValueError("timer must be positive")
        if self.kind in (KIND_STATIC_SIZE, KIND_STATIC_DUAL) and self.qw < 1:
            raise ValueError("queue threshold must be >= 1")
        if self.kind in (KIND_DYNAMIC_TIMER, KIND_DYNAMIC_SIZE) and self.tau <= 0:
            raise ValueError("delay target tau must be positive")
        if self.solver not in ("approx", "cubic"):
            raise ValueError(f"unknown threshold solver {self.solver!r}")
        if not 0.0 < self.ewma_weight <= 1.0:
            raise ValueError("ewma_weight must be in (0, 1]")

    @classmethod
    def none(cls) -> "PolicyConfig":
        """Wake on the first arrival (no coalescing)."""
        return cls(kind=KIND_NONE)

    @classmethod
    def static_timer(cls, v: float) -> "PolicyConfig":
        return cls(kind=KIND_STATIC_TIMER, v=float(v))

    @classmethod
    def static_size(cls, qw: int) -> "PolicyConfig":
        return cls(kind=KIND_STATIC_SIZE, qw=int(qw))

    @classmethod
    def static_dual(cls, v: float, qw: int) -> "PolicyConfig":
        return cls(kind=KIND_STATIC_DUAL, v=float(v), qw=int(qw))

    @classmethod
    def dynamic_timer(cls, tau: float, ewma_weight: float = DEFAULT_EWMA_WEIGHT) -> "PolicyConfig":
        return cls(kind=KIND_DYNAMIC_TIMER, tau=float(tau), ewma_weight=ewma_weight)

    @classmethod
    def dynamic_size(cls, tau: float, solver: str = "approx",
                     ewma_weight: float = DEFAULT_EWMA_WEIGHT) -> "PolicyConfig":
        return cls(kind=KIND_DYNAMIC_SIZE, tau=float(tau), solver=solver,
                   ewma_weight=ewma_weight)

    @property
    def is_dynamic(self) -> bool:
        return self.kind in (KIND_DYNAMIC_TIMER, KIND_DYNAMIC_SIZE)

    def label(self) -> str:
        """Compact name used in output file names."""
        if self.kind == KIND_NONE:
            return "none"
        if self.kind == KIND_STATIC_TIMER:
            return f"static_timer_{self.v:g}"
        if self.kind == KIND_STATIC_SIZE:
            return f"static_size_{self.qw}"
        if self.kind == KIND_STATIC_DUAL:
            return f"static_dual_{self.v:g}_{self.qw}"
        if self.kind == KIND_DYNAMIC_TIMER:
            return "dynamic_timer"
        return f"dynamic_size_{self.solver}"

    def validate_against(self, params: EeeParams) -> None:
        """Interface-dependent checks: a static timer must exceed ts."""
        if self.kind in (KIND_STATIC_TIMER, KIND_STATIC_DUAL) and self.v <= params.ts:
            raise ValueError(
                f"static timer {self.v} us must exceed the sleep transition {params.ts} us"
            )


@dataclass(frozen=True)
class TrafficEstimate:
    """Smoothed traffic rates; invalid until enough data arrives.

    Rates are ratios of EWMA-smoothed cycle totals (frames, elapsed time,
    service time), not EWMAs of per-cycle ratios: with only a handful of
    frames per cycle the raw ratio is badly biased upward, the ratio of the
    smoothed totals is not.  The totals ride along so updates can continue.
    """

    lambda_hat: float = 0.0
    mu_hat: float = 0.0
    valid: bool = False
    frames_s: float = 0.0     # smoothed frames per cycle
    duration_s: float = 0.0   # smoothed cycle duration, us
    service_s: float = 0.0    # smoothed per-cycle service time, us

    @classmethod
    def from_rates(cls, lambda_hat: float, mu_hat: float) -> "TrafficEstimate":
        """Estimate pinned to given rates (unit smoothed-frame bookkeeping)."""
        if lambda_hat <= 0 or mu_hat <= 0:
            raise ValueError("rates must be positive")
        return cls(lambda_hat=lambda_hat, mu_hat=mu_hat, valid=True,
                   frames_s=1.0, duration_s=1.0 / lambda_hat, service_s=1.0 / mu_hat)


@dataclass(frozen=True)
class WakePlan:
    """The wake-up rule for one coalescing cycle.

    mode 'timer': wake tv us after the first arrival of the cycle;
    'threshold': wake when qw frames are queued; 'dual': whichever first;
    'suspend': skip sleeping entirely this cycle.
    """

    mode: str
    timer_us: float = 0.0
    threshold: int = 0


# --------------------------------------------------------------------------
# scalar cores (shared with the simulator kernel)
# --------------------------------------------------------------------------

def _plan_dynamic_timer(tau, lam_hat, mu_hat, ts, tw):
    """Timer for target tau from estimated rates; nan when infeasible."""
    if lam_hat <= 0.0 or mu_hat <= 0.0:
        return math.nan
    rho = lam_hat / mu_hat
    if rho > RHO_CLAMP:
        rho = RHO_CLAMP
    w0 = w0_poisson_deterministic(lam_hat, rho)
    return optimal_timer(tau, lam_hat, tw, w0, ts)


def _plan_dynamic_size(tau, lam_hat, mu_hat, tw, use_cubic):
    """Integer threshold for target tau; nan when infeasible."""
    if lam_hat <= 0.0 or mu_hat <= 0.0:
        return math.nan
    rho = lam_hat / mu_hat
    if rho > RHO_CLAMP:
        rho = RHO_CLAMP
    w0 = w0_poisson_deterministic(lam_hat, rho)
    if use_cubic:
        q = optimal_threshold_cubic(tau, lam_hat, tw, w0)
    else:
        q = optimal_threshold_approx(tau, lam_hat, tw, w0)
    if math.isnan(q) or q < 1.0:
        return math.nan
    qi = math.floor(q + 0.5)
    if qi < 1.0:
        qi = 1.0
    return qi


def _plan_scalar(kind, v_static, qw_static, tau, use_cubic, lam_hat, mu_hat,
                 est_valid, ts, tw):
    """Plan one cycle; returns (mode, timer_us, threshold)."""
    if kind == 0:                       # none: wake on first arrival
        return 2, 0.0, 1.0
    if kind == 1:
        return 1, v_static, 0.0
    if kind == 2:
        return 2, 0.0, qw_static
    if kind == 3:
        return 3, v_static, qw_static
    if not est_valid:
        return 0, 0.0, 0.0
    if kind == 4:
        v = _plan_dynamic_timer(tau, lam_hat, mu_hat, ts, tw)
        if math.isnan(v):
            return 0, 0.0, 0.0
        return 1, v, 0.0
    q = _plan_dynamic_size(tau, lam_hat, mu_hat, tw, use_cubic)
    if math.isnan(q):
        return 0, 0.0, 0.0
    return 2, 0.0, q


def _estimate_update(frames_s, duration_s, service_s, valid_prev, n_frames,
                     duration, svc_total, weight):
    """Fold one finished cycle into the smoothed totals.

    Returns (frames_s, duration_s, service_s, valid); rates are the ratios
    frames_s/duration_s and frames_s/service_s.
    """
    if n_frames < 2.0 or duration <= 0.0 or svc_total <= 0.0:
        return frames_s, duration_s, service_s, valid_prev
    if not valid_prev:
        return n_frames, duration, svc_total, True
    return (
        weight * n_frames + (1.0 - weight) * frames_s,
        weight * duration + (1.0 - weight) * duration_s,
        weight * svc_total + (1.0 - weight) * service_s,
        True,
    )


# --------------------------------------------------------------------------
# object-level API
# --------------------------------------------------------------------------

def plan_cycle(config: PolicyConfig, estimate: TrafficEstimate,
               params: EeeParams) -> WakePlan:
    """Decide the wake-up rule for the coalescing cycle that starts now."""
    config.validate_against(params)
    mode, v, qw = _plan_scalar(
        config.kind,
        float(config.v),
        float(config.qw),
        float(config.tau),
        config.solver == "cubic",
        estimate.lambda_hat,
        estimate.mu_hat,
        estimate.valid,
        params.ts,
        params.tw,
    )
    return WakePlan(mode=MODE_NAMES[mode], timer_us=float(v), threshold=int(qw))


def update_estimate(previous: TrafficEstimate, cycle: "CycleRecord",
                    params: EeeParams,
                    weight: float = DEFAULT_EWMA_WEIGHT) -> TrafficEstimate:
    """Blend the just-finished cycle's observations into the estimate.

    Cycles with fewer than two frames carry no usable rate information and
    leave the estimate untouched.
    """
    if cycle.frames_total < 2:
        return previous
    svc_total = cycle.bytes_total * 8.0 / params.rate_bits_per_us
    frames_s, duration_s, service_s, valid = _estimate_update(
        previous.frames_s,
        previous.duration_s,
        previous.service_s,
        previous.valid,
        float(cycle.frames_total),
        float(cycle.cycle_duration),
        svc_total,
        weight,
    )
    if not valid:
        return previous
    return TrafficEstimate(
        lambda_hat=frames_s / duration_s,
        mu_hat=frames_s / service_s,
        valid=True,
        frames_s=float(frames_s),
        duration_s=float(duration_s),
        service_s=float(service_s),
    )
