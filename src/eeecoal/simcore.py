"""Discrete-event simulation of one EEE transmit interface.

The interface cycles through Active -> GoingToSleep -> LPI -> Waking ->
Active.  Whenever the transmit buffer empties the configured policy is
consulted: unless it suspends sleeping, the interface enters an
uninterruptible sleep transition of length ``ts`` and then idles in LPI
until the wake instant.  Waking takes ``tw``; after that the queue drains
FIFO, one frame at a time, at the line rate.  Transitions are billed at
active power, LPI at ``phi_off``.

Every sleeping cycle wakes by one rule.  With ``t_empty`` the instant the
buffer emptied, ``a`` the cycle's first arrival and ``A_q`` the arrival of
its ``q``-th frame, the wake instant is

    min(a + V, max(A_q, t_empty + ts)),

where the mechanism a plan lacks is infinite: V for a threshold (and
``none``, which is q = 1), q for a timer.  A threshold that the stream ends
before filling takes A_q as its final arrival, so the run drains (an
artifact of a finite stream that touches only the last cycle); a dual plan
takes A_q = inf and waits for its timer.  A suspended cycle wakes at once.

Because wake conditions depend only on arrival times, the whole run reduces
to a single pass over the (pre-drawn) arrival array; the pass is the hot
kernel, plain Python over one ``zip`` of memoryviews of the arrival and
service times.  A cycle's first frame starts at the later of its arrival and
the end of the wake transition; each later frame of the busy period arrived
before the previous departure, so it starts at that departure.  An inner
``for`` over the shared iterator drains the busy period and stops at the
arrival that opens the next cycle, so each frame is read once.  Each
frame's service start is stored over the service time just read from the
same buffer, and one subtraction after the pass makes the starts delays: a
run holds two frame-sized arrays, not three.
The kernel has two loops.  ``none`` and the static policies plan the same
(mode, V, Q_w) every cycle and read no traffic estimate, so the static loop
plans once per run, fixes the rule's terms and keeps no estimate; the
adaptive loop plans every cycle from the EWMA estimate it updates.  The
kernel records two things exactly: each frame's queuing delay (service
start minus arrival) and one row per cycle, the cycle table (``CycleTable``:
start, first frame, planned mode, V and Q_w, wake instant, and the estimate
the plan used, which is nan in the rows of a static run).  Every aggregate
of a ``SimReport`` is a reduction over the table's rows after a warm-up
prefix, and ``cycle_view`` derives the per-cycle sleep, delay and frame
counts from them.
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

    A static run (``none`` and the static kinds) keeps no estimate, and only
    its ``start``, ``first`` and ``wake`` vary: ``mode``, ``v``, ``qw`` and the
    nan ``lam_hat``/``mu_hat`` are read-only zero-stride views of its plan.
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
    """Serve the frames, at least one; returns (per-frame delays, cycle table, end instant).

    The delays are written over ``svc``: the shared ``zip(arr, svc)`` of the
    loops yields frame j's service time before they store its service start.
    """
    n = arr.shape[0]
    delays = svc
    # a cycle serves at least one frame, so n rows are enough
    index = np.int32 if n < 2**31 else np.int64
    dtypes = (np.float64, index, np.int8, np.float64, np.float64, np.float64, np.float64, np.float64)
    # The loops iterate and index memoryviews: each value is a Python float, so
    # the per-frame and per-cycle arithmetic (down to the planner's solvers) never
    # runs on numpy scalars, which is several times slower.  No copy is made.  They
    # store service starts, which the subtraction after them makes delays.
    views = memoryview(arr), memoryview(svc), memoryview(delays)
    # _plan_scalar and _estimate_update are looked up on the module, where
    # tracing and the tests' spies wrap them
    if kind <= 3:
        # none and the static kinds plan the same (mode, V, Q_w) every cycle: only
        # start, first and wake vary, the rest are read-only views of the plan and nan
        plan = _plan_scalar(kind, v_static, qw_static, tau, use_cubic,
                            0.0, 0.0, False, ts, tw)
        fixed = (None, None, *plan, None, math.nan, math.nan)
        table = CycleTable(*(np.empty(n, dt) if x is None else np.broadcast_to(dt(x), n)
                             for x, dt in zip(fixed, dtypes)))
        c, end = _static_loop(*views, table, *plan, ts, tw)
    else:
        table = CycleTable(*(np.empty(n, dtype=dt) for dt in dtypes))
        c, end = _adaptive_loop(*views, table, kind, tau, use_cubic, ts, tw)
    np.subtract(delays, arr, out=delays)
    return delays, CycleTable(*(col[:c] for col in table)), end


def _static_loop(arr, svc, dly, table, mode, pv, pq, ts, tw):
    """Run one fixed plan; returns (cycles, end instant).

    A static plan never suspends and reads no estimate, so none is kept:
    each cycle stores its start, first frame and wake instant, and the
    table's other columns are the plan and nan already.
    """
    c_start, c_first, c_wake = map(memoryview, (table.start, table.first, table.wake))
    n = len(arr)
    # the wake rule's terms, fixed for the run: what the plan lacks is
    # infinite, V for a threshold and Q_w for a timer (its A_q is never in
    # the stream); past the stream's end A_q is the final arrival for a
    # threshold and inf for a dual
    timer = math.inf if mode == 2 else pv
    ahead = n if mode == 1 else int(pq) - 1    # frames after the first that fill the threshold
    tail = arr[n - 1] if mode == 2 else math.inf
    frames = zip(arr, svc)
    a, s = next(frames)                 # the first frame opens cycle 0 at t_empty = 0
    j = 0
    t_empty = 0.0
    c = 0
    while j < n:
        # (a, s) is frame j, the first of cycle c: wake at
        # min(a + V, max(A_q, t_empty + ts))
        qi = j + ahead
        wake = arr[qi] if qi < n else tail
        sleep_end = t_empty + ts
        if wake < sleep_end:
            wake = sleep_end
        t_timer = a + timer
        if t_timer < wake:
            wake = t_timer
        c_start[c] = t_empty
        c_first[c] = j
        c_wake[c] = wake
        c += 1

        # drain FIFO until the buffer empties, as the adaptive loop does
        depart = wake + tw
        if depart < a:
            depart = a
        dly[j] = depart
        depart += s
        j += 1
        for a, s in frames:
            if a >= depart:
                break
            dly[j] = depart
            depart += s
            j += 1
        t_empty = depart

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
    # cold start: until a cycle with >= 2 frames completes, the estimate is
    # seeded from the first positive interarrival gap and the first frame's
    # service, in the first cycle that opens past that gap (never, if the
    # stream has no such gap)
    # svc[0] is read before the pass, which writes a service start over it
    svc_0 = svc[0]
    gap_at = n
    if svc_0 > 0.0:
        gap_at = next((k for k in range(1, n) if arr[k] - arr[k - 1] > 0.0), n)
    frames = zip(arr, svc)
    a, s = next(frames)                 # the first frame opens cycle 0 at t_empty = 0
    j = 0
    t_empty = 0.0
    c = 0
    while j < n:
        # (a, s) is frame j, the first of cycle c
        if not est_valid and j > gap_at:
            est_frames, est_duration, est_service = 1.0, arr[gap_at] - arr[gap_at - 1], svc_0
            est_valid = True
        if est_valid:
            plan_lam = est_frames / est_duration
            plan_mu = est_frames / est_service
        else:
            plan_lam = plan_mu = math.nan
        mode, pv, pq = _plan_scalar(kind, 0.0, 0.0, tau, use_cubic,
                                    plan_lam, plan_mu, est_valid, ts, tw)

        wake = t_empty
        if mode == 0:
            # suspended: stay active-idle until the next arrival
            depart = t_empty
        else:
            if mode == 1:
                wake = a + pv
            else:
                qi = j + int(pq) - 1
                # a stream that ends before the threshold fills wakes at the
                # final arrival, so the run drains (truncation artifact)
                wake = arr[qi] if qi < n else arr[n - 1]
                sleep_end = t_empty + ts
                if wake < sleep_end:
                    wake = sleep_end
            depart = wake + tw
        first = j
        c_start[c] = t_empty
        c_first[c] = first
        c_mode[c] = mode
        c_v[c] = pv
        c_qw[c] = pq
        c_wake[c] = wake
        c_lam[c] = plan_lam
        c_mu[c] = plan_mu
        c += 1

        # drain FIFO until the buffer empties: the first frame starts when
        # both it and the link are ready; every later one arrived before the
        # previous departure, so it starts at that departure
        if depart < a:
            depart = a
        dly[j] = depart
        svc_sum = s
        depart += s
        j += 1
        for a, s in frames:
            if a >= depart:
                break
            dly[j] = depart
            depart += s
            svc_sum += s
            j += 1

        est_frames, est_duration, est_service, est_valid = _estimate_update(
            est_frames, est_duration, est_service, est_valid,
            float(j - first), depart - t_empty, svc_sum, DEFAULT_EWMA_WEIGHT)
        t_empty = depart

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
    ``cycles`` is the cycle table of the whole run (five of its columns are
    read-only in a static run), ``arrivals`` the frame arrival times (for a
    trace, a read-only view of its ``times``) and ``params`` the interface
    simulated; ``cycle_view`` reads them.
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
    # traces too), which is needed no more; the kernel writes the delays over it
    svc = np.ascontiguousarray(sizes, dtype=np.float64)
    svc *= 8.0
    svc /= params.rate_bits_per_us
    serving = float(svc.sum())
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
    # a suspended cycle's wake instant is its start, which frames of a trace
    # can precede in cycle 0; only the mode says that none arrived asleep
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
