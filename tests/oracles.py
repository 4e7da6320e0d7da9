"""Reference implementations that faster code is checked against.

Each function is the code its replacement took over from, unchanged apart
from names and docstrings, so a test can compare the two on any input.
"""

import math
from pathlib import Path

import numpy as np

from eeecoal.analytic import delay_size_based
from eeecoal.traffic import Trace, TraceFormatError


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
