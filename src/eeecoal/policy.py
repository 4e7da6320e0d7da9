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

This module is the one place that knows the policy kinds: their config
grammar (:meth:`PolicyConfig.parse`), the per-cycle planner and estimator the
simulator kernel calls with plain floats, and the closed-form prediction of
each policy (:func:`predict`).
"""

import math
from dataclasses import dataclass

from .analytic import (
    CoalescingOutcome,
    EeeParams,
    TrafficStats,
    optimal_threshold_approx,
    optimal_threshold_cubic,
    optimal_timer,
    size_based_outcome,
    time_based_outcome,
    w0_exact,
    w0_poisson_deterministic,
)
from .config import ConfigError, parse_call

# policy kind codes shared with the simulator kernel
KIND_NONE = 0
KIND_STATIC_TIMER = 1
KIND_STATIC_SIZE = 2
KIND_STATIC_DUAL = 3
KIND_DYNAMIC_TIMER = 4
KIND_DYNAMIC_SIZE = 5

# Wake plan mode codes.  timer: wake V us after the first arrival of the
# cycle; threshold: wake when Q_w frames are queued; dual: whichever comes
# first; suspend: skip sleeping entirely this cycle.
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
# each waits longer), so the weight favors a steadier estimate.
DEFAULT_EWMA_WEIGHT = 0.15


# config grammar: argument converters of each policy; dynamic_size instead
# takes an optional solver name
_ARGS = {
    "none": (),
    "static_timer": (float,),
    "static_size": (int,),
    "static_dual": (float, int),
    "dynamic_timer": (),
}


@dataclass(frozen=True)
class PolicyConfig:
    """One coalescing policy.  Use the classmethod constructors or :meth:`parse`."""

    kind: int
    v: float = 0.0            # static timer, us
    qw: int = 0               # static threshold, frames
    tau: float = 0.0          # delay target for adaptive variants, us
    solver: str = "approx"    # adaptive threshold solver: approx | cubic

    def __post_init__(self):
        if not (math.isfinite(self.v) and math.isfinite(self.tau)):
            raise ValueError("timer and delay target must be finite")
        if self.kind in (KIND_STATIC_TIMER, KIND_STATIC_DUAL) and self.v <= 0:
            raise ValueError("timer must be positive")
        if self.kind in (KIND_STATIC_SIZE, KIND_STATIC_DUAL) and self.qw < 1:
            raise ValueError("queue threshold must be >= 1")
        if self.kind in (KIND_DYNAMIC_TIMER, KIND_DYNAMIC_SIZE) and self.tau <= 0:
            raise ValueError("delay target tau must be positive")
        if self.solver not in ("approx", "cubic"):
            raise ValueError(f"unknown threshold solver {self.solver!r}")

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
    def dynamic_timer(cls, tau: float) -> "PolicyConfig":
        return cls(kind=KIND_DYNAMIC_TIMER, tau=float(tau))

    @classmethod
    def dynamic_size(cls, tau: float, solver: str = "approx") -> "PolicyConfig":
        return cls(kind=KIND_DYNAMIC_SIZE, tau=float(tau), solver=solver)

    @classmethod
    def parse(cls, text: str, tau: float | None = None) -> "PolicyConfig":
        """Build a policy from its config text, e.g. ``static_dual(24, 12)``.

        Adaptive kinds take their delay target from ``tau``; the others
        ignore it.  Any fault in the text raises :class:`ConfigError`.
        """
        name, args = parse_call(text, "policy")
        if name == "dynamic_size":
            if len(args) > 1:
                raise ConfigError(f"policy {text!r}: at most one solver argument")
            if args and args[0] not in ("approx", "cubic"):
                raise ConfigError(f"policy {text!r}: solver must be approx or cubic")
        elif name not in _ARGS:
            raise ConfigError(f"policy: unknown variant {name!r}")
        elif len(args) != len(_ARGS[name]):
            raise ConfigError(
                f"policy {text!r}: expected {len(_ARGS[name])} argument(s), got {len(args)}")
        else:
            try:
                args = [convert(a) for convert, a in zip(_ARGS[name], args)]
            except ValueError:
                raise ConfigError(f"policy: bad arguments in {text!r}") from None
        if name in ("dynamic_timer", "dynamic_size"):
            if tau is None:
                raise ConfigError("tau_us: adaptive policies need at least one target delay")
            args = [tau, *args]
        try:
            return getattr(cls, name)(*args)
        except ValueError as exc:
            raise ConfigError(f"policy {text!r}: {exc}") from None

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


# --------------------------------------------------------------------------
# per-cycle planning and estimation (called by the simulator kernel)
# --------------------------------------------------------------------------

def _solve_threshold(tau, lam, tw, w0, use_cubic):
    """Fractional threshold whose predicted delay is tau; nan when infeasible.

    Both solvers return nan or a threshold of at least one frame.
    """
    if use_cubic:
        return optimal_threshold_cubic(tau, lam, tw, w0)
    return optimal_threshold_approx(tau, lam, tw, w0)


def _round_threshold(q):
    """The integer threshold planned for a solved q >= 1 (halves round up)."""
    return math.floor(q + 0.5)


def _plan_scalar(kind, v_static, qw_static, tau, use_cubic, lam_hat, mu_hat, ts, tw):
    """Plan one cycle; returns (mode, timer_us, threshold).

    Adaptive kinds solve for tau at the estimated rates, and suspend without
    an estimate (nan rates) or when the target is out of reach.
    """
    if kind == 0:                       # none: wake on first arrival
        return 2, 0.0, 1.0
    if kind == 1:
        return 1, v_static, 0.0
    if kind == 2:
        return 2, 0.0, qw_static
    if kind == 3:
        return 3, v_static, qw_static
    if not (lam_hat > 0.0 and mu_hat > 0.0):
        return 0, 0.0, 0.0
    w0 = w0_poisson_deterministic(lam_hat, min(lam_hat / mu_hat, RHO_CLAMP))
    if kind == 4:
        v = optimal_timer(tau, lam_hat, tw, w0, ts)
        if math.isnan(v):
            return 0, 0.0, 0.0
        return 1, v, 0.0
    q = _solve_threshold(tau, lam_hat, tw, w0, use_cubic)
    if math.isnan(q):
        return 0, 0.0, 0.0
    return 2, 0.0, _round_threshold(q)


def _estimate_update(frames_s, duration_s, service_s, n_frames, duration, svc_total, weight):
    """Fold one finished cycle into the smoothed totals, which are nan while unset.

    Returns (frames_s, duration_s, service_s); rates are the ratios
    frames_s/duration_s and frames_s/service_s.  They are ratios of smoothed
    totals, not EWMAs of per-cycle ratios: with only a handful of frames per
    cycle the raw ratio is badly biased upward, the ratio of the smoothed
    totals is not.
    """
    if n_frames < 2.0 or duration <= 0.0 or svc_total <= 0.0:
        return frames_s, duration_s, service_s
    if math.isnan(frames_s):
        return n_frames, duration, svc_total
    return (
        weight * n_frames + (1.0 - weight) * frames_s,
        weight * duration + (1.0 - weight) * duration_s,
        weight * svc_total + (1.0 - weight) * service_s,
    )


# --------------------------------------------------------------------------
# closed-form prediction
# --------------------------------------------------------------------------

def predict(config: PolicyConfig, stats: TrafficStats,
            params: EeeParams) -> tuple[CoalescingOutcome, float, float]:
    """Closed-form outcome of a policy, with the timer V and threshold Q_w it uses.

    Adaptive policies are solved at the true rates: V is the solved timer,
    Q_w the unrounded threshold, and the outcome is that of the threshold
    the controller rounds it to.  An infeasible target predicts a link that
    never sleeps.  nan marks a value with no closed form, including every
    value of a dual policy.
    """
    nan = math.nan
    if config.kind == KIND_NONE:
        return size_based_outcome(params, stats, 1), nan, nan
    if config.kind == KIND_STATIC_TIMER:
        return time_based_outcome(params, stats, config.v), config.v, nan
    if config.kind == KIND_STATIC_SIZE:
        return size_based_outcome(params, stats, config.qw), nan, float(config.qw)
    if config.kind == KIND_STATIC_DUAL:
        # no closed form for the combined wake rule
        return CoalescingOutcome(nan, nan, nan), nan, nan
    w0 = w0_exact(stats)
    if config.kind == KIND_DYNAMIC_TIMER:
        v = optimal_timer(config.tau, stats.lam, params.tw, w0, params.ts)
        if not math.isnan(v):
            return time_based_outcome(params, stats, v), v, nan
    else:
        q = _solve_threshold(config.tau, stats.lam, params.tw, w0, config.solver == "cubic")
        if not math.isnan(q):
            return size_based_outcome(params, stats, _round_threshold(q)), nan, q
    return CoalescingOutcome(t_off_mean=0.0, mean_delay=nan, energy_ratio=1.0), nan, nan
