"""Discrete-event simulation of one EEE transmit interface.

The interface cycles through Active -> GoingToSleep -> LPI -> Waking ->
Active.  Whenever the transmit buffer empties the configured policy is
consulted: unless it suspends sleeping, the interface enters an
uninterruptible sleep transition of length ``ts`` and then idles in LPI
until the policy's wake condition fires (timer counted from the first
arrival of the cycle, queue threshold, or whichever of the two comes
first).  Waking takes ``tw``; after that the queue drains FIFO, one frame
at a time, at the line rate.  Transitions are billed at active power, LPI
at ``phi_off``.

Because wake conditions depend only on arrival times, the whole run reduces
to a single pass over the (pre-drawn) arrival array; the pass is the hot
kernel, plain Python over memoryviews of the arrays.  A cycle's first frame
starts at the later of its arrival and the end of the wake transition; each
later frame of the busy period arrived before the previous departure, so it
starts at that departure, and the loop reads its arrival and service time
once.  The kernel has two loops.  ``none`` and the static policies plan
the same wake rule every cycle and read no traffic estimate, so the static
loop plans once per run and keeps no estimate; the adaptive loop plans
every cycle from the EWMA estimate it updates.  The kernel records two
things exactly: each frame's queuing delay (service start minus arrival)
and one row per cycle, the cycle table (``CycleTable``: start, first frame,
planned mode, V and Q_w, wake instant, and the estimate the plan used, which
is nan in the rows of a static run).  Every aggregate of a ``SimReport`` is
a reduction over the table's rows after a warm-up prefix, and
``cycle_view`` derives the per-cycle sleep, delay and frame counts from them.
"""

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .analytic import EeeParams
from .policy import (
    DEFAULT_EWMA_WEIGHT,
    MODE_SUSPEND,
    PolicyConfig,
    _estimate_update,
    _plan_scalar,
)
from .traffic import TrafficSpec, sample_frames, sample_frames_until

DEFAULT_WARMUP_CYCLES = 100


class EmptyHorizonError(ValueError):
    """The horizon of a run holds no frame, so there is nothing to simulate."""


class CycleTable(NamedTuple):
    """One row per cycle, in the order the kernel ran them (warm-up included).

    Rows of a static run (``none`` and the static kinds) come from the
    static loop, which keeps no estimate: their ``lam_hat``/``mu_hat`` are nan.
    """

    start: np.ndarray     # buffer-empty instant that opened the cycle, us
    first: np.ndarray     # index of the cycle's first frame
    mode: np.ndarray      # planned mode, a key of policy.MODE_NAMES
    v: np.ndarray         # planned timer, us (0 unless timer or dual)
    qw: np.ndarray        # planned threshold, frames (0 unless threshold or dual)
    wake: np.ndarray      # instant the wake transition began (start if suspended), us
    lam_hat: np.ndarray   # estimate the plan was computed from (nan if none,
    mu_hat: np.ndarray    # as in every row of a static run)


def _sim_kernel(arr, svc, kind, v_static, qw_static, tau, use_cubic, ts, tw):
    """Serve the frames; returns (per-frame delays, cycle table, end instant)."""
    n = arr.shape[0]
    delays = np.empty(n, dtype=np.float64)
    # a cycle serves at least one frame, so n rows are enough
    index = np.int32 if n < 2**31 else np.int64
    table = CycleTable(*(np.empty(n, dtype=dt) for dt in (
        np.float64, index, np.int8, np.float64, np.float64, np.float64, np.float64, np.float64)))
    # Index through memoryviews: each read is a Python float, so the per-frame
    # and per-cycle arithmetic (down to the planner's solvers) never runs on
    # numpy scalars, which is several times slower.  No copy is made.
    views = memoryview(arr), memoryview(svc), memoryview(delays)
    # _plan_scalar and _estimate_update are looked up on the module, where
    # tracing and the tests' spies wrap them
    if kind <= 3:
        # none and the static kinds plan the same (mode, V, Q_w) every cycle
        plan = _plan_scalar(kind, v_static, qw_static, tau, use_cubic,
                            0.0, 0.0, False, ts, tw)
        c, end = _static_loop(*views, table, *plan, ts, tw)
    else:
        c, end = _adaptive_loop(*views, table, kind, tau, use_cubic, ts, tw)
    return delays, CycleTable(*(col[:c] for col in table)), end


def _static_loop(arr, svc, dly, table, mode, pv, pq, ts, tw):
    """Run one fixed plan; returns (cycles, end instant).

    A static plan never suspends and reads no estimate, so none is kept:
    each cycle stores its start, first frame and wake instant, and after the
    loop every row gets the plan and nan for the estimate.
    """
    c_start, c_first, c_wake = map(memoryview, (table.start, table.first, table.wake))
    ahead = int(pq) - 1                 # frames after the first that fill the threshold
    n = len(arr)
    i = 0
    t_empty = 0.0
    c = 0
    while i < n:
        t_first = arr[i]
        if mode == 1:
            wake = t_first + pv
        else:
            qi = i + ahead
            if qi < n:
                wake = arr[qi]
            elif mode == 2:
                # stream ends before the threshold fills: wake at the final
                # arrival so the run drains (truncation artifact)
                wake = arr[n - 1]
            else:
                wake = math.inf         # dual: the timer alone wakes the link
            sleep_end = t_empty + ts
            if wake < sleep_end:
                wake = sleep_end
            if mode == 3:
                t_timer = t_first + pv
                if t_timer < wake:
                    wake = t_timer
        depart = wake + tw

        # drain FIFO until the buffer empties, as the adaptive loop does
        if depart < t_first:
            depart = t_first
        dly[i] = depart - t_first
        depart += svc[i]
        j = i + 1
        while j < n:
            a = arr[j]
            if a >= depart:
                break
            dly[j] = depart - a
            depart += svc[j]
            j += 1

        c_start[c] = t_empty
        c_first[c] = i
        c_wake[c] = wake
        t_empty = depart
        i = j
        c += 1

    table.mode[:c] = mode
    table.v[:c] = pv
    table.qw[:c] = pq
    table.lam_hat[:c] = math.nan
    table.mu_hat[:c] = math.nan
    return c, t_empty


def _adaptive_loop(arr, svc, dly, table, kind, tau, use_cubic, ts, tw):
    """Plan every cycle from the traffic estimate; returns (cycles, end instant).

    An adaptive plan suspends, sets a timer or sets a threshold, never both.
    """
    c_start, c_first, c_mode, c_v, c_qw, c_wake, c_lam, c_mu = map(memoryview, table)
    est_frames = 0.0
    est_duration = 0.0
    est_service = 0.0
    est_valid = False

    n = len(arr)
    i = 0
    t_empty = 0.0
    c = 0
    while i < n:
        # cold start: until a cycle with >= 2 frames completes, seed the
        # estimate from the first positive interarrival gap and frame size
        if not est_valid and i >= 2:
            for k in range(1, i):
                gap = arr[k] - arr[k - 1]
                if gap > 0.0 and svc[0] > 0.0:
                    est_frames = 1.0
                    est_duration = gap
                    est_service = svc[0]
                    est_valid = True
                    break
        if est_valid:
            plan_lam = est_frames / est_duration
            plan_mu = est_frames / est_service
        else:
            plan_lam = 0.0
            plan_mu = 0.0
        mode, pv, pq = _plan_scalar(kind, 0.0, 0.0, tau, use_cubic,
                                    plan_lam, plan_mu, est_valid, ts, tw)

        t_first = arr[i]
        wake = t_empty
        if mode == 0:
            # suspended: stay active-idle until the next arrival
            depart = t_empty
        else:
            if mode == 1:
                wake = t_first + pv
            else:
                qi = i + int(pq) - 1
                # a stream that ends before the threshold fills wakes at the
                # final arrival, so the run drains (truncation artifact)
                wake = arr[qi] if qi < n else arr[n - 1]
                sleep_end = t_empty + ts
                if wake < sleep_end:
                    wake = sleep_end
            depart = wake + tw

        # drain FIFO until the buffer empties: the first frame starts when
        # both it and the link are ready; every later one arrived before the
        # previous departure, so it starts at that departure
        if depart < t_first:
            depart = t_first
        dly[i] = depart - t_first
        svc_sum = svc[i]
        depart += svc_sum
        j = i + 1
        while j < n:
            a = arr[j]
            if a >= depart:
                break
            dly[j] = depart - a
            s = svc[j]
            depart += s
            svc_sum += s
            j += 1

        c_start[c] = t_empty
        c_first[c] = i
        c_mode[c] = mode
        c_v[c] = pv
        c_qw[c] = pq
        c_wake[c] = wake
        c_lam[c] = plan_lam if est_valid else math.nan
        c_mu[c] = plan_mu if est_valid else math.nan

        est_frames, est_duration, est_service, est_valid = _estimate_update(
            est_frames, est_duration, est_service, est_valid,
            float(j - i), depart - t_empty, svc_sum, DEFAULT_EWMA_WEIGHT)

        t_empty = depart
        i = j
        c += 1

    return c, t_empty


def _t_off(cycles: CycleTable, ts: float) -> np.ndarray:
    """LPI residency of each cycle, us: wake instant minus end of the sleep transition."""
    t_off = cycles.start + ts
    np.subtract(cycles.wake, t_off, out=t_off)
    t_off[cycles.mode == MODE_SUSPEND] = 0.0
    return t_off


def _fold(values: np.ndarray, out=None) -> float:
    """Sum in cycle order, one addition at a time, as a running total would.

    numpy's pairwise ``sum`` rounds differently, and so may Python's ``sum``.
    """
    return float(np.cumsum(values, out=out)[-1])


class CycleView(NamedTuple):
    """Derived columns of a run's cycles, one row per cycle (warm-up included).

    The planned columns (start, mode, V, Q_w and the estimate) are in
    ``report.cycles``; these follow from them and the arrivals.
    """

    t_e: np.ndarray                     # empty period: cycle start -> first arrival, us
    w_f: np.ndarray                     # queuing delay of the cycle's first frame, us
    t_off: np.ndarray                   # LPI residency, us (0 for suspended cycles)
    frames_while_asleep: np.ndarray
    frames_total: np.ndarray
    cycle_duration: np.ndarray          # us


@dataclass(frozen=True)
class StateResidency:
    """Total time spent in each interface state over the whole run."""

    going_to_sleep: float
    lpi: float
    waking: float
    active_serving: float
    active_idle: float

    @property
    def active(self) -> float:
        return self.active_serving + self.active_idle

    @property
    def total(self) -> float:
        return self.going_to_sleep + self.lpi + self.waking + self.active


@dataclass
class SimReport:
    """Aggregated measurements of one simulation run.

    Aggregates exclude the warm-up cycles whenever the run got past them
    (``warmed_up``); ``delays`` holds the post-warm-up queuing delay samples.
    ``cycles`` is the cycle table of the whole run, ``arrivals`` the frame
    arrival times and ``params`` the interface simulated; ``cycle_view``
    reads them.
    """

    measured_phi: float
    mean_delay_us: float
    mean_toff_us: float
    mean_planned_v_us: float      # nan when no timer plans were made
    mean_planned_qw: float        # nan when no threshold plans were made
    suspend_fraction: float
    n_cycles: int
    n_frames: int
    seed: object
    warmed_up: bool
    overload: bool
    duration_us: float
    residency: StateResidency
    delays: np.ndarray = field(repr=False)
    cycles: CycleTable | None = field(default=None, repr=False)
    arrivals: np.ndarray | None = field(default=None, repr=False)
    params: EeeParams | None = field(default=None, repr=False)


def run(traffic: TrafficSpec, policy: PolicyConfig, params: EeeParams = EeeParams(),
        *, n_frames: int | None = None, time_us: float | None = None,
        seed=0, warmup_cycles: int = DEFAULT_WARMUP_CYCLES) -> SimReport:
    """Simulate one interface under the given traffic and policy.

    Exactly one of ``n_frames`` / ``time_us`` selects the horizon, except for
    traces where omitting both replays the whole file.  Identical arguments
    (including seed) give bit-identical reports.
    """
    policy.validate_against(params)
    if n_frames is not None and time_us is not None:
        raise ValueError("give a frame horizon or a time horizon, not both")
    if n_frames is None and time_us is None:
        if not traffic.is_trace:
            raise ValueError("generated traffic needs n_frames or time_us")
        times, sizes = sample_frames(traffic, 1 << 62, seed)
    elif n_frames is not None:
        if n_frames <= 0:
            raise ValueError("n_frames must be positive")
        times, sizes = sample_frames(traffic, int(n_frames), seed)
    else:
        if time_us <= 0:
            raise ValueError("time_us must be positive")
        times, sizes = sample_frames_until(traffic, float(time_us), seed)
    if len(times) == 0:
        raise EmptyHorizonError("horizon contains no frames")

    times = np.ascontiguousarray(times, dtype=np.float64)
    # service times, computed in the drawn sizes array (a fresh copy for
    # traces too), which is needed no more
    svc = np.ascontiguousarray(sizes, dtype=np.float64)
    svc *= 8.0
    svc /= params.rate_bits_per_us
    delays, cycles, end = _sim_kernel(
        times,
        svc,
        policy.kind,
        float(policy.v),
        float(policy.qw),
        float(policy.tau),
        policy.solver == "cubic",
        params.ts,
        params.tw,
    )

    # aggregates are reductions over the cycles after the warm-up prefix, or
    # over all of them when the run never got past it
    n_cycles = len(cycles.start)
    warmed = 0 <= warmup_cycles < n_cycles
    w = warmup_cycles if warmed else 0
    n_post = n_cycles - w
    # cycles per mode code: suspend, timer, threshold, dual
    n_suspend, n_timer, n_threshold, n_dual = np.bincount(cycles.mode[w:], minlength=4).tolist()
    # v and qw are 0 in the rows whose plan does not use them
    n_v, n_qw = n_timer + n_dual, n_threshold + n_dual
    mean_v = _fold(cycles.v[w:]) / n_v if n_v else math.nan
    mean_qw = _fold(cycles.qw[w:]) / n_qw if n_qw else math.nan
    t_off = _t_off(cycles, params.ts)
    lpi_all = float(t_off.sum())
    lpi = _fold(t_off[w:], out=t_off[w:])
    window = end - float(cycles.start[w])
    window_delays = delays[cycles.first[w]:]

    suspended = np.flatnonzero(cycles.mode == MODE_SUSPEND)
    n_sleeps = n_cycles - len(suspended)
    serving = float(svc.sum())
    span = float(times[-1] - times[0])
    offered = serving / span if span > 0 else math.inf

    return SimReport(
        measured_phi=1.0 - (1.0 - params.phi_off) * (lpi / window if window > 0 else 0.0),
        mean_delay_us=float(window_delays.mean()),
        mean_toff_us=lpi / n_post,
        mean_planned_v_us=mean_v,
        mean_planned_qw=mean_qw,
        suspend_fraction=n_suspend / n_post,
        n_cycles=n_cycles,
        n_frames=len(times),
        seed=seed,
        warmed_up=warmed,
        overload=offered >= 1.0,
        duration_us=end,
        residency=StateResidency(
            going_to_sleep=params.ts * n_sleeps,
            lpi=lpi_all,
            waking=params.tw * n_sleeps,
            active_serving=serving,
            active_idle=float((times[cycles.first[suspended]] - cycles.start[suspended]).sum()),
        ),
        delays=window_delays,
        cycles=cycles,
        arrivals=times,
        params=params,
    )


def cycle_view(report: SimReport) -> CycleView:
    """The derived columns of every cycle of a run, warm-up included."""
    cyc, times = report.cycles, report.arrivals
    t_first = times[cyc.first]
    slept = cyc.mode != MODE_SUSPEND
    # service of the first frame can start once the link is awake: tw after
    # the wake instant, or at once in a suspended cycle
    ready = cyc.wake + np.where(slept, report.params.tw, 0.0)
    return CycleView(
        t_e=t_first - cyc.start,
        w_f=np.maximum(ready, t_first) - t_first,
        t_off=_t_off(cyc, report.params.ts),
        frames_while_asleep=np.where(slept, np.searchsorted(times, cyc.wake) - cyc.first, 0),
        frames_total=np.diff(cyc.first, append=report.n_frames),
        cycle_duration=np.diff(cyc.start, append=report.duration_us),
    )


def delay_cdf(report: SimReport, bin_width_us: float) -> tuple[np.ndarray, np.ndarray]:
    """Empirical delay CDF evaluated at bin edges 0, w, 2w, ...

    Right-continuous (fraction of delays <= edge); the last value is 1.
    """
    if bin_width_us <= 0:
        raise ValueError("bin width must be positive")
    d = report.delays
    if len(d) == 0:
        raise ValueError("report contains no delay samples")
    top = float(d.max())
    n_bins = max(0, int(math.ceil(top / bin_width_us)))
    edges = np.arange(n_bins + 1, dtype=np.float64) * bin_width_us
    counts = np.searchsorted(np.sort(d), edges, side="right")
    return edges, counts / len(d)
