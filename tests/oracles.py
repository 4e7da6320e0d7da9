"""Reference implementations that faster code is checked against.

Each function is the code its replacement took over from, unchanged apart
from names and docstrings, so a test can compare the two on any input.
``run_summary`` also returns a dict where ``simcore.run`` returned its
report, whose fields have changed since.
"""

import io
import math
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from eeecoal.analytic import EeeParams, delay_size_based, optimal_timer, w0_poisson_deterministic
from eeecoal.policy import (
    DEFAULT_EWMA_WEIGHT,
    RHO_CLAMP,
    PolicyConfig,
    _plan_scalar,
    _round_threshold,
    _solve_threshold,
)
from eeecoal.simcore import CycleTable, StateResidency
from eeecoal.traffic import (
    Trace,
    TraceFormatError,
    TrafficSpec,
    sample_frames,
    sample_frames_until,
)


def threshold_cubic_value(q, lam, tw, d):
    """The cubic whose roots are the thresholds that meet delay target w0 + d."""
    a = 2.0 * lam * tw - 2.0 * lam * d - 3.0
    b = lam * lam * tw * tw - 2.0 * lam * lam * tw * d - 4.0 * lam * tw
    c = 2.0 * lam * tw
    return ((q + a) * q + b) * q + c


def threshold_cubic_bisection(tau, lam, tw, w0):
    """The scan-and-bisect cubic threshold solver.

    Scans [1, 2*lam*tau + 10] in 256 segments and bisects every sign change
    to 1e-9; if several roots fall in range, the one whose predicted delay
    is nearest tau wins.  Returns nan when no root >= 1 exists.
    """
    if tau <= 0.0:
        raise ValueError("tau must be positive")
    if lam <= 0.0:
        raise ValueError("lam must be positive")
    d = tau - w0
    lo = 1.0
    hi = 2.0 * lam * tau + 10.0
    nseg = 256
    best = math.nan
    best_dist = math.inf
    x_prev = lo
    f_prev = threshold_cubic_value(lo, lam, tw, d)
    for k in range(1, nseg + 1):
        x = lo + (hi - lo) * k / nseg
        f = threshold_cubic_value(x, lam, tw, d)
        root = math.nan
        if f_prev == 0.0:
            root = x_prev
        elif f_prev * f < 0.0:
            a, b = x_prev, x
            fa = f_prev
            while b - a > 1e-9:
                m = 0.5 * (a + b)
                fm = threshold_cubic_value(m, lam, tw, d)
                if fm == 0.0:
                    a = m
                    b = m
                elif fa * fm < 0.0:
                    b = m
                else:
                    a = m
                    fa = fm
            root = 0.5 * (a + b)
        if not math.isnan(root):
            dist = abs(delay_size_based(lam, root, tw, w0) - tau)
            if dist < best_dist:
                best_dist = dist
                best = root
        x_prev = x
        f_prev = f
    if f_prev == 0.0 and abs(delay_size_based(lam, x_prev, tw, w0) - tau) < best_dist:
        best = x_prev
    return best


def cubic_real_roots(a, b, c):
    """Real roots of x^3 + a x^2 + b x + c in ascending order.

    Cardano's formula when there is one real root, the trigonometric form
    when there are three; each root then takes two Newton steps, which
    recover the digits the closed form loses to cancellation.
    """
    s = a / 3.0
    p = b - a * s                       # depressed cubic t^3 + p t + r,
    r = (2.0 * s * s - b) * s + c       # with x = t - s
    disc = 0.25 * r * r + p * p * p / 27.0
    if disc > 0.0:
        # u^3 = -r/2 -+ sqrt(disc), sign chosen so the two terms do not cancel
        y = -0.5 * r - math.copysign(math.sqrt(disc), r)
        u = math.copysign(abs(y) ** (1.0 / 3.0), y)
        ts = (u - p / (3.0 * u),)
    else:
        m = 2.0 * math.sqrt(-p / 3.0)
        cos3 = 3.0 * r / (p * m) if p != 0.0 else 0.0
        theta = math.acos(min(1.0, max(-1.0, cos3))) / 3.0
        ts = sorted(m * math.cos(theta - 2.0 * math.pi * k / 3.0) for k in range(3))
    roots = []
    for t in ts:
        x = t - s
        for _ in range(2):
            fp = (3.0 * x + 2.0 * a) * x + b
            if fp == 0.0:
                break
            x -= (((x + a) * x + b) * x + c) / fp
        roots.append(x)
    return roots


def threshold_cubic_all_roots(tau, lam, tw, w0):
    """The cubic threshold solver that finds every real root of the cubic.

    Returns the largest real root of ``delay_size_based(lam, q, tw, w0) =
    tau``, multiplied through by its denominators, in [1, 2*lam*tau + 10],
    or nan when no root falls in that range.
    """
    if tau <= 0.0:
        raise ValueError("tau must be positive")
    if lam <= 0.0:
        raise ValueError("lam must be positive")
    d = tau - w0
    lt = lam * tw
    a = 2.0 * lt - 2.0 * lam * d - 3.0
    b = lt * lt - 2.0 * lam * lt * d - 4.0 * lt
    hi = 2.0 * lam * tau + 10.0
    best = math.nan
    for q in cubic_real_roots(a, b, 2.0 * lt):      # ascending
        if 1.0 <= q <= hi:
            best = q
    return best


def trace_data_lines(path):
    """Yield (lineno, line, time, size) for each data line of a trace CSV.

    Blank lines and '#' comments are skipped, and so is a non-numeric line
    before the first data line (the optional header).
    """
    seen_data = False
    with open(path, "r", encoding="utf-8", newline=None) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split(",")
            if len(fields) != 2:
                raise TraceFormatError(
                    f"{path}: line {lineno}: expected 'arrival_time_us,frame_size_bytes', got {line!r}"
                )
            try:
                # float() ignores the whitespace around a field
                t = float(fields[0])
                s = float(fields[1])
            except ValueError:
                if not seen_data:
                    continue
                raise TraceFormatError(
                    f"{path}: line {lineno}: non-numeric fields in {line!r}"
                ) from None
            seen_data = True
            yield lineno, line, t, s


def load_trace_lines(path: str | Path) -> Trace:
    """The line-loop trace parser: one float() pair per line, raising at the
    first faulty line.  Malformed lines, nan/inf fields and decreasing times
    are errors."""
    times: list[float] = []
    sizes: list[float] = []
    for lineno, _, t, s in trace_data_lines(path):
        if s <= 0:
            raise TraceFormatError(f"{path}: line {lineno}: frame size must be positive")
        if times and t < times[-1]:
            # an earlier nan or inf is the real fault; name it first
            trace_check_finite(path, times, sizes)
            raise TraceFormatError(
                f"{path}: line {lineno}: decreasing timestamp {t} after {times[-1]}"
            )
        times.append(t)
        sizes.append(s)
    t_arr = np.asarray(times, dtype=np.float64)
    s_arr = np.asarray(sizes, dtype=np.float64)
    trace_check_finite(path, t_arr, s_arr)
    return Trace(times=t_arr, sizes=s_arr)


def trace_check_finite(path, times, sizes) -> None:
    """Reject a nan or inf field, naming the line of the first one.

    One vectorised pass; the file is read again only to find the line.  A
    nan timestamp would otherwise slip past the non-decreasing check, which
    no comparison with nan can fail.
    """
    finite = np.isfinite(times) & np.isfinite(sizes)
    if finite.all():
        return
    bad = int(np.argmin(finite))
    for k, (lineno, line, _, _) in enumerate(trace_data_lines(path)):
        if k == bad:
            raise TraceFormatError(f"{path}: line {lineno}: non-finite field in {line!r}")


# a blank or '#' comment line, with the line break before it
_SKIPPED_LINE = re.compile(r"\n[^\S\n]*(?:#.*)?(?=\n|\Z)")
_LINE = re.compile(r".+")
# numpy strips these ASCII separators around a field; float() does not
_NUMPY_ONLY_SPACE = "\x1c\x1d\x1e\x1f"


def parse_numpy_cleaned(path) -> Trace | None:
    """The numpy trace parser that parses a cleaned copy of the text.

    Strips blank and comment lines with a regex, then hands numpy the rest
    as bytes.  Returns the trace if numpy reads every data line and the
    checks pass, else None.
    """
    try:
        with open(path, "r", encoding="utf-8", newline=None) as fh:
            body = _SKIPPED_LINE.sub("", "\n" + fh.read())    # each kept line after a "\n"
    except UnicodeDecodeError:
        return None                     # the loop names the position it reached
    header = 0
    for line in _LINE.finditer(body):   # the optional header, skipped as _data_lines does
        fields = line[0].strip().split(",")
        if len(fields) != 2:
            return None
        try:
            float(fields[0]), float(fields[1])
            break
        except ValueError:
            header += 1
    else:
        return Trace(times=np.empty(0), sizes=np.empty(0))
    if any(c in body for c in _NUMPY_ONLY_SPACE):
        return None
    try:
        # bytes, not text, keep numpy's read buffer at one byte per character;
        # two columns, since the first row has two fields and every row must
        # have as many as the first
        table = np.loadtxt(io.BytesIO(body.encode()), encoding="utf-8", skiprows=1 + header,
                           delimiter=",", comments=None, dtype=np.float64, ndmin=2)
    except ValueError:
        return None
    times, sizes = np.ascontiguousarray(table.T)
    if np.isfinite(table).all() and (sizes > 0).all() and (np.diff(times) >= 0).all():
        return Trace(times=times, sizes=sizes)
    return None


# --------------------------------------------------------------------------
# simulator kernel with in-kernel aggregates (simcore, before the cycle table)
# --------------------------------------------------------------------------

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


def plan_scalar_flagged(kind, v_static, qw_static, tau, use_cubic, lam_hat, mu_hat,
                        est_valid, ts, tw):
    """Plan one cycle; returns (mode, timer_us, threshold).

    Adaptive kinds solve for tau at the estimated rates, and suspend without
    a valid estimate or when the target is out of reach.
    """
    if kind == 0:                       # none: wake on first arrival
        return 2, 0.0, 1.0
    if kind == 1:
        return 1, v_static, 0.0
    if kind == 2:
        return 2, 0.0, qw_static
    if kind == 3:
        return 3, v_static, qw_static
    if not est_valid or lam_hat <= 0.0 or mu_hat <= 0.0:
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


def estimate_update_flagged(frames_s, duration_s, service_s, valid_prev, n_frames,
                            duration, svc_total, weight):
    """Fold one finished cycle into the smoothed totals.

    Returns (frames_s, duration_s, service_s, valid); rates are the ratios
    frames_s/duration_s and frames_s/service_s.  They are ratios of smoothed
    totals, not EWMAs of per-cycle ratios: with only a handful of frames per
    cycle the raw ratio is badly biased upward, the ratio of the smoothed
    totals is not.
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


def sim_kernel_summary(arr, svc, kind, v_static, qw_static, tau, use_cubic, ewma_w,
                       ts, tw, warmup, record):
    """The per-frame kernel that filled a summary vector and a record matrix.

    Returns (delays, summary, cycles): per-frame queuing delays, the _S_*
    slots and, with ``record``, one _C_* row per cycle.
    """
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
        mode, pv, pq = plan_scalar_flagged(kind, v_static, qw_static, tau, use_cubic,
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

        est_frames, est_duration, est_service, est_valid = estimate_update_flagged(
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


def run_summary(traffic: TrafficSpec, policy: PolicyConfig, params: EeeParams = EeeParams(),
                *, n_frames: int | None = None, time_us: float | None = None,
                seed=0, warmup_cycles: int = 100,
                record_cycles: bool = False) -> dict:
    """``simcore.run`` on the summary kernel: the report's fields as a dict,
    with ``cycles`` (the record matrix) and ``sizes`` when ``record_cycles``."""
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
    delays, summary, cyc = sim_kernel_summary(
        np.ascontiguousarray(times, dtype=np.float64),
        np.ascontiguousarray(svc, dtype=np.float64),
        policy.kind,
        float(policy.v),
        float(policy.qw),
        float(policy.tau),
        policy.solver == "cubic",
        DEFAULT_EWMA_WEIGHT,
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

    return dict(
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


def sim_kernel_table(arr, svc, kind, v_static, qw_static, tau, use_cubic, ts, tw):
    """The cycle-table kernel that takes the ``max`` for every frame and plans every cycle.

    Returns (per-frame delays, cycle table, end instant), as ``simcore._sim_kernel``.
    """
    n = arr.shape[0]
    delays = np.empty(n, dtype=np.float64)
    # a cycle serves at least one frame, so n rows are enough
    index = np.int32 if n < 2**31 else np.int64
    table = CycleTable(*(np.empty(n, dtype=dt) for dt in (
        np.float64, index, np.int8, np.float64, np.float64, np.float64, np.float64, np.float64)))
    # Index through memoryviews: each read is a Python float, so the per-frame
    # and per-cycle arithmetic (down to the planner's solvers) never runs on
    # numpy scalars, which is several times slower.  No copy is made.
    arr, svc, dly = memoryview(arr), memoryview(svc), memoryview(delays)
    c_start, c_first, c_mode, c_v, c_qw, c_wake, c_lam, c_mu = map(memoryview, table)

    est_frames = 0.0
    est_duration = 0.0
    est_service = 0.0
    est_valid = False

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
        mode, pv, pq = plan_scalar_flagged(kind, v_static, qw_static, tau, use_cubic,
                                           plan_lam, plan_mu, est_valid, ts, tw)

        t_first = arr[i]
        wake_start = t_empty
        if mode == 0:
            # suspended: stay active-idle until the next arrival
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
            depart = wake_start + tw

        # drain FIFO until the buffer empties
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

        c_start[c] = t_empty
        c_first[c] = i
        c_mode[c] = mode
        c_v[c] = pv
        c_qw[c] = pq
        c_wake[c] = wake_start
        c_lam[c] = plan_lam if est_valid else math.nan
        c_mu[c] = plan_mu if est_valid else math.nan

        est_frames, est_duration, est_service, est_valid = estimate_update_flagged(
            est_frames, est_duration, est_service, est_valid,
            float(j - i), depart - t_empty, svc_sum, DEFAULT_EWMA_WEIGHT)

        t_empty = depart
        i = j
        c += 1

    return delays, CycleTable(*(col[:c] for col in table)), t_empty


def sim_kernel_two_loops(arr, svc, kind, v_static, qw_static, tau, use_cubic, ts, tw):
    """The two-loop kernel that drains each busy period with an index loop, ``while j < n``.

    Returns (per-frame delays, cycle table, end instant), as ``simcore._sim_kernel``.
    """
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
    if kind <= 3:
        # none and the static kinds plan the same (mode, V, Q_w) every cycle
        plan = plan_scalar_flagged(kind, v_static, qw_static, tau, use_cubic,
                                   0.0, 0.0, False, ts, tw)
        c, end = _two_loops_static(*views, table, *plan, ts, tw)
    else:
        c, end = _two_loops_adaptive(*views, table, kind, tau, use_cubic, ts, tw)
    return delays, CycleTable(*(col[:c] for col in table)), end


def _two_loops_static(arr, svc, dly, table, mode, pv, pq, ts, tw):
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


def _two_loops_adaptive(arr, svc, dly, table, kind, tau, use_cubic, ts, tw):
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
        mode, pv, pq = plan_scalar_flagged(kind, 0.0, 0.0, tau, use_cubic,
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

        est_frames, est_duration, est_service, est_valid = estimate_update_flagged(
            est_frames, est_duration, est_service, est_valid,
            float(j - i), depart - t_empty, svc_sum, DEFAULT_EWMA_WEIGHT)

        t_empty = depart
        i = j
        c += 1

    return c, t_empty


def sim_kernel_stored_starts(arr, svc, kind, v_static, qw_static, tau, use_cubic, ts, tw):
    """The kernel that stored each frame's service start as its loops drained it.

    Returns (per-frame delays, cycle table, end instant), as ``simcore._sim_kernel``,
    whose signature it had; this takes the policy's fields as the other oracles do.
    """
    policy = SimpleNamespace(kind=kind, v=v_static, qw=qw_static, tau=tau,
                             solver="cubic" if use_cubic else "approx")
    return _stored_starts_kernel(arr, svc, policy, ts, tw)


def _stored_starts_kernel(arr, svc, policy, ts, tw):
    """Serve the frames, at least one; returns (per-frame delays, cycle table, end instant).

    The delays are written over ``svc``: the shared ``zip(arr, svc)`` of the
    loops yields frame j's service time before they store its service start.
    """
    n = arr.shape[0]
    delays = svc
    kind, tau, use_cubic = policy.kind, float(policy.tau), policy.solver == "cubic"
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
        plan = _plan_scalar(kind, float(policy.v), float(policy.qw), tau, use_cubic,
                            math.nan, math.nan, ts, tw)
        fixed = (None, None, *plan, None, math.nan, math.nan)
        table = CycleTable(*(np.empty(n, dt) if x is None else np.broadcast_to(dt(x), n)
                             for x, dt in zip(fixed, dtypes)))
        c, end = _stored_starts_static(*views, table, *plan, ts, tw)
    else:
        table = CycleTable(*(np.empty(n, dtype=dt) for dt in dtypes))
        c, end = _stored_starts_adaptive(*views, table, kind, tau, use_cubic, ts, tw)
    np.subtract(delays, arr, out=delays)
    # keep only the c rows that ran: each written column shrinks in place, and
    # the plan's views are sliced.  resize raises while any other reference or
    # view of the column is alive (a loop variable bound to it would be one),
    # so no view can be left dangling
    for k in range(len(table)):
        if table[k].flags.writeable:
            table[k].resize(c)
    return delays, CycleTable(*(col if col.flags.writeable else col[:c] for col in table)), end


def _stored_starts_static(arr, svc, dly, table, mode, pv, pq, ts, tw):
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


def _stored_starts_adaptive(arr, svc, dly, table, kind, tau, use_cubic, ts, tw):
    """Plan every cycle from the traffic estimate; returns (cycles, end instant).

    An adaptive plan suspends, sets a timer or sets a threshold, never both.
    """
    c_start, c_first, c_mode, c_v, c_qw, c_wake, c_lam, c_mu = map(memoryview, table)
    # an unset estimate has nan totals, so its rates are nan
    est_frames = est_duration = est_service = math.nan
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
        plan_lam = est_frames / est_duration
        plan_mu = est_frames / est_service
        mode, pv, pq = _plan_scalar(kind, 0.0, 0.0, tau, use_cubic, plan_lam, plan_mu, ts, tw)

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

        est_frames, est_duration, est_service, est_valid = estimate_update_flagged(
            est_frames, est_duration, est_service, est_valid,
            float(j - first), depart - t_empty, svc_sum, DEFAULT_EWMA_WEIGHT)
        t_empty = depart

    return c, t_empty
