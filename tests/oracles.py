"""Reference implementations that faster code is checked against.

Each function is the code its replacement took over from, unchanged apart
from names and docstrings, so a test can compare the two on any input.
"""

import math

from eeecoal.analytic import delay_size_based


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
