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
kernel, plain Python over memoryviews of the arrays.
Per-frame queuing delays (service start minus arrival) are recorded exactly;
aggregates skip a warm-up prefix of cycles.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .analytic import EeeParams
from .policy import (
    MODE_NAMES,
    PolicyConfig,
    _estimate_update,
    _plan_scalar,
)
from .traffic import TrafficSpec, sample_frames, sample_frames_until

DEFAULT_WARMUP_CYCLES = 100


# summary vector slots filled by the kernel
_S_END = 0           # final buffer-empty instant (simulated horizon)
_S_NCYC = 1
_S_WSTART = 2        # start of the measurement window
_S_FIRSTWF = 3       # first frame index inside the window
_S_WARMED = 4
_S_LPI_W = 5         # LPI time inside the window
_S_TOFF_SUM_W = 6
_S_NCYC_W = 7
_S_NSUS_W = 8
_S_VSUM_W = 9
_S_NV_W = 10
_S_QSUM_W = 11
_S_NQ_W = 12
_S_NSUS_A = 13
_S_VSUM_A = 14
_S_NV_A = 15
_S_QSUM_A = 16
_S_NQ_A = 17
_S_TS_ALL = 18
_S_LPI_ALL = 19
_S_TW_ALL = 20
_S_IDLE_ALL = 21
_S_SERVE_ALL = 22
_SUMMARY_LEN = 23

# per-cycle record columns (record_cycles mode)
_C_START = 0
_C_TE = 1
_C_WF = 2
_C_TOFF = 3
_C_NFRAMES = 4
_C_FIRSTIDX = 5
_C_DUR = 6
_C_MODE = 7
_C_V = 8
_C_QW = 9
_C_LAMHAT = 10
_C_MUHAT = 11
_C_NSLEEP = 12
_C_NCOLS = 13


def _sim_kernel(arr, svc, kind, v_static, qw_static, tau, use_cubic, ewma_w,
                ts, tw, warmup, record):
    n = arr.shape[0]
    delays = np.empty(n, dtype=np.float64)
    if record:
        cyc = np.empty((n + 2, _C_NCOLS), dtype=np.float64)
    else:
        cyc = np.empty((0, _C_NCOLS), dtype=np.float64)
    summary = np.zeros(_SUMMARY_LEN, dtype=np.float64)
    # Index through memoryviews: each read is a Python float, so the per-frame
    # and per-cycle arithmetic (down to the planner's solvers) never runs on
    # numpy scalars, which is several times slower.  No copy is made.
    arr, svc, dly = memoryview(arr), memoryview(svc), memoryview(delays)

    est_frames = 0.0
    est_duration = 0.0
    est_service = 0.0
    est_valid = False

    lpi_w = 0.0
    toff_sum_w = 0.0
    ncyc_w = 0.0
    nsus_w = 0.0
    vsum_w = 0.0
    nv_w = 0.0
    qsum_w = 0.0
    nq_w = 0.0
    nsus_a = 0.0
    vsum_a = 0.0
    nv_a = 0.0
    qsum_a = 0.0
    nq_a = 0.0
    ts_all = 0.0
    lpi_all = 0.0
    tw_all = 0.0
    idle_all = 0.0
    serve_all = 0.0

    window_start = 0.0
    first_w_frame = 0
    warmed = False

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
        mode, pv, pq = _plan_scalar(kind, v_static, qw_static, tau, use_cubic,
                                    plan_lam, plan_mu, est_valid, ts, tw)
        if c == warmup:
            window_start = t_empty
            first_w_frame = i
            warmed = True
        post = c >= warmup
        if post:
            ncyc_w += 1.0
        if mode == 0:
            nsus_a += 1.0
            if post:
                nsus_w += 1.0
        if mode == 1 or mode == 3:
            vsum_a += pv
            nv_a += 1.0
            if post:
                vsum_w += pv
                nv_w += 1.0
        if mode == 2 or mode == 3:
            qsum_a += pq
            nq_a += 1.0
            if post:
                qsum_w += pq
                nq_w += 1.0

        t_first = arr[i]
        t_off = 0.0
        wake_start = t_empty
        if mode == 0:
            # suspended: stay active-idle until the next arrival
            idle_all += t_first - t_empty
            depart = t_empty
        else:
            sleep_end = t_empty + ts
            if mode == 1:
                trigger = t_first + pv
            else:
                qi = i + int(pq) - 1
                if qi < n:
                    th_trigger = arr[qi]
                    if th_trigger < sleep_end:
                        th_trigger = sleep_end
                else:
                    # stream ends before the threshold fills: wake at the
                    # final arrival so the run drains (truncation artifact)
                    th_trigger = arr[n - 1]
                    if th_trigger < sleep_end:
                        th_trigger = sleep_end
                    if mode == 3:
                        th_trigger = math.inf
                if mode == 2:
                    trigger = th_trigger
                else:
                    t_timer = t_first + pv
                    trigger = t_timer if t_timer < th_trigger else th_trigger
            wake_start = trigger
            t_off = wake_start - sleep_end
            ts_all += ts
            tw_all += tw
            lpi_all += t_off
            if post:
                lpi_w += t_off
                toff_sum_w += t_off
            depart = wake_start + tw

        # drain FIFO until the buffer empties
        first_i = i
        svc_sum = 0.0
        j = i
        while True:
            start = depart if depart > arr[j] else arr[j]
            dly[j] = start - arr[j]
            depart = start + svc[j]
            svc_sum += svc[j]
            j += 1
            if j >= n or arr[j] >= depart:
                break
        serve_all += svc_sum
        nfr = j - i
        dur = depart - t_empty

        if record:
            nsleep = 0.0
            if mode != 0:
                k = i
                while k < n and arr[k] < wake_start:
                    k += 1
                nsleep = k - i
            cyc[c, _C_START] = t_empty
            cyc[c, _C_TE] = t_first - t_empty
            cyc[c, _C_WF] = dly[first_i]
            cyc[c, _C_TOFF] = t_off
            cyc[c, _C_NFRAMES] = nfr
            cyc[c, _C_FIRSTIDX] = first_i
            cyc[c, _C_DUR] = dur
            cyc[c, _C_MODE] = mode
            cyc[c, _C_V] = pv
            cyc[c, _C_QW] = pq
            cyc[c, _C_LAMHAT] = plan_lam if est_valid else math.nan
            cyc[c, _C_MUHAT] = plan_mu if est_valid else math.nan
            cyc[c, _C_NSLEEP] = nsleep

        est_frames, est_duration, est_service, est_valid = _estimate_update(
            est_frames, est_duration, est_service, est_valid,
            float(nfr), dur, svc_sum, ewma_w)

        t_empty = depart
        i = j
        c += 1

    summary[_S_END] = t_empty
    summary[_S_NCYC] = c
    summary[_S_WSTART] = window_start
    summary[_S_FIRSTWF] = first_w_frame
    summary[_S_WARMED] = 1.0 if warmed else 0.0
    summary[_S_LPI_W] = lpi_w
    summary[_S_TOFF_SUM_W] = toff_sum_w
    summary[_S_NCYC_W] = ncyc_w
    summary[_S_NSUS_W] = nsus_w
    summary[_S_VSUM_W] = vsum_w
    summary[_S_NV_W] = nv_w
    summary[_S_QSUM_W] = qsum_w
    summary[_S_NQ_W] = nq_w
    summary[_S_NSUS_A] = nsus_a
    summary[_S_VSUM_A] = vsum_a
    summary[_S_NV_A] = nv_a
    summary[_S_QSUM_A] = qsum_a
    summary[_S_NQ_A] = nq_a
    summary[_S_TS_ALL] = ts_all
    summary[_S_LPI_ALL] = lpi_all
    summary[_S_TW_ALL] = tw_all
    summary[_S_IDLE_ALL] = idle_all
    summary[_S_SERVE_ALL] = serve_all
    return delays, summary, cyc[:c]


@dataclass(frozen=True)
class CycleRecord:
    """Observations of one coalescing cycle (record_cycles mode)."""

    sleep_start: float        # buffer-empty instant that opened the cycle, us
    t_e: float                # empty period: sleep start -> first arrival, us
    w_f: float                # queuing delay of the cycle's first frame, us
    t_off: float              # LPI residency, us (0 for suspended cycles)
    frames_while_asleep: int
    frames_total: int
    bytes_total: float
    cycle_duration: float
    planned_mode: str
    planned_v: float
    planned_qw: int
    lambda_hat: float         # estimate the plan was computed from (nan if none)
    mu_hat: float


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
    cycles: np.ndarray | None = field(default=None, repr=False)
    sizes: np.ndarray | None = field(default=None, repr=False)


def run(traffic: TrafficSpec, policy: PolicyConfig, params: EeeParams = EeeParams(),
        *, n_frames: int | None = None, time_us: float | None = None,
        seed=0, warmup_cycles: int = DEFAULT_WARMUP_CYCLES,
        record_cycles: bool = False) -> SimReport:
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
        raise ValueError("horizon contains no frames")

    svc = sizes * 8.0 / params.rate_bits_per_us
    delays, summary, cyc = _sim_kernel(
        np.ascontiguousarray(times, dtype=np.float64),
        np.ascontiguousarray(svc, dtype=np.float64),
        policy.kind,
        float(policy.v),
        float(policy.qw),
        float(policy.tau),
        policy.solver == "cubic",
        float(policy.ewma_weight),
        params.ts,
        params.tw,
        int(warmup_cycles),
        bool(record_cycles),
    )

    warmed = summary[_S_WARMED] > 0.0
    end = summary[_S_END]
    if warmed:
        window = end - summary[_S_WSTART]
        lpi = summary[_S_LPI_W]
        toff_sum, ncyc = summary[_S_TOFF_SUM_W], summary[_S_NCYC_W]
        nsus = summary[_S_NSUS_W]
        vsum, nv = summary[_S_VSUM_W], summary[_S_NV_W]
        qsum, nq = summary[_S_QSUM_W], summary[_S_NQ_W]
        first = int(summary[_S_FIRSTWF])
    else:
        window = end
        lpi = summary[_S_LPI_ALL]
        toff_sum, ncyc = summary[_S_LPI_ALL], summary[_S_NCYC]
        nsus = summary[_S_NSUS_A]
        vsum, nv = summary[_S_VSUM_A], summary[_S_NV_A]
        qsum, nq = summary[_S_QSUM_A], summary[_S_NQ_A]
        first = 0
    window_delays = delays[first:]

    span = float(times[-1] - times[0])
    offered = float(svc.sum()) / span if span > 0 else math.inf

    return SimReport(
        measured_phi=1.0 - (1.0 - params.phi_off) * (lpi / window if window > 0 else 0.0),
        mean_delay_us=float(window_delays.mean()) if len(window_delays) else math.nan,
        mean_toff_us=toff_sum / ncyc if ncyc > 0 else math.nan,
        mean_planned_v_us=vsum / nv if nv > 0 else math.nan,
        mean_planned_qw=qsum / nq if nq > 0 else math.nan,
        suspend_fraction=nsus / ncyc if ncyc > 0 else 0.0,
        n_cycles=int(summary[_S_NCYC]),
        n_frames=len(times),
        seed=seed,
        warmed_up=warmed,
        overload=offered >= 1.0,
        duration_us=float(end),
        residency=StateResidency(
            going_to_sleep=float(summary[_S_TS_ALL]),
            lpi=float(summary[_S_LPI_ALL]),
            waking=float(summary[_S_TW_ALL]),
            active_serving=float(summary[_S_SERVE_ALL]),
            active_idle=float(summary[_S_IDLE_ALL]),
        ),
        delays=window_delays,
        cycles=cyc if record_cycles else None,
        sizes=sizes if record_cycles else None,
    )


def cycle_records(report: SimReport) -> list[CycleRecord]:
    """Materialize per-cycle records from a record_cycles run."""
    if report.cycles is None:
        raise ValueError("run with record_cycles=True to collect cycle records")
    cyc = report.cycles
    sizes = report.sizes
    out = []
    for row in cyc:
        first = int(row[_C_FIRSTIDX])
        nfr = int(row[_C_NFRAMES])
        out.append(CycleRecord(
            sleep_start=float(row[_C_START]),
            t_e=float(row[_C_TE]),
            w_f=float(row[_C_WF]),
            t_off=float(row[_C_TOFF]),
            frames_while_asleep=int(row[_C_NSLEEP]),
            frames_total=nfr,
            bytes_total=float(sizes[first:first + nfr].sum()),
            cycle_duration=float(row[_C_DUR]),
            planned_mode=MODE_NAMES[int(row[_C_MODE])],
            planned_v=float(row[_C_V]),
            planned_qw=int(row[_C_QW]),
            lambda_hat=float(row[_C_LAMHAT]),
            mu_hat=float(row[_C_MUHAT]),
        ))
    return out


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
