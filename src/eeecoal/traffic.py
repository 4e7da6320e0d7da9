"""Synthetic traffic generators and timestamped trace replay.

Arrival processes are renewal processes with exponential (Poisson) or
Pareto interarrivals; frame sizes are fixed or bimodal and drawn
independently of arrivals.  Traces are plain CSV files of
``arrival_time_us,frame_size_bytes`` lines (header optional, ``#`` comments
ignored) so any capture format can be converted with a one-liner.  numpy
reads a trace file by path when every ``#`` in it starts a line; a line loop
reads every other file and names the first faulty line of a file that numpy
cannot read.

Generation is deterministic per seed.  Arrival and size draws come from two
independent child generators of the run seed.
"""

import codecs
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .analytic import TrafficStats

ETH_MIN_FRAME = 64
ETH_MAX_FRAME = 1518


@dataclass(frozen=True)
class Poisson:
    """Exponential interarrivals with mean 1/lam (lam in frames/us)."""

    lam: float

    def __post_init__(self):
        if not 0 < self.lam < math.inf:
            raise ValueError("arrival rate must be positive and finite")


@dataclass(frozen=True)
class Pareto:
    """Pareto-I interarrivals with shape alpha and mean 1/lam.

    The scale is pinned to x_m = (alpha-1)/(alpha*lam) so sweeps stay
    parameterized by offered load.  alpha must exceed 2 for the variance to
    be finite; the third moment is infinite for alpha <= 3, so sample skew
    does not converge (variance does).
    """

    alpha: float
    lam: float

    def __post_init__(self):
        if not 2 < self.alpha < math.inf:
            raise ValueError("Pareto shape alpha must be finite and > 2 for finite variance")
        if not 0 < self.lam < math.inf:
            raise ValueError("arrival rate must be positive and finite")

    @property
    def x_m(self) -> float:
        return (self.alpha - 1.0) / (self.alpha * self.lam)


@dataclass(frozen=True)
class FixedSize:
    size: int

    def __post_init__(self):
        if not ETH_MIN_FRAME <= self.size <= ETH_MAX_FRAME:
            raise ValueError(f"frame size must be in [{ETH_MIN_FRAME}, {ETH_MAX_FRAME}]")


@dataclass(frozen=True)
class BimodalSize:
    """Two-point size mix: small with probability p_small, else large."""

    p_small: float
    small: int
    large: int

    def __post_init__(self):
        if not 0.0 <= self.p_small <= 1.0:
            raise ValueError("p_small must be in [0, 1]")
        for s in (self.small, self.large):
            if not ETH_MIN_FRAME <= s <= ETH_MAX_FRAME:
                raise ValueError(f"frame size must be in [{ETH_MIN_FRAME}, {ETH_MAX_FRAME}]")


@dataclass(frozen=True)
class TrafficSpec:
    """Either a generated (arrival + sizes) source or a trace loaded by ``load_trace``."""

    arrival: Poisson | Pareto | None = None
    sizes: FixedSize | BimodalSize | None = None
    trace: "Trace | None" = None

    def __post_init__(self):
        if self.trace is not None:
            if not isinstance(self.trace, Trace):
                raise ValueError(f"trace must be a Trace, not {type(self.trace).__name__}: "
                                 "read the file with load_trace(path)")
            if self.arrival is not None or self.sizes is not None:
                raise ValueError("a trace spec cannot also carry generators")
        elif self.arrival is None or self.sizes is None:
            raise ValueError("generated specs need both an arrival and a size model")

    @property
    def is_trace(self) -> bool:
        return self.trace is not None


def mean_frame_bits(sizes: FixedSize | BimodalSize) -> float:
    if isinstance(sizes, FixedSize):
        return 8.0 * sizes.size
    return 8.0 * (sizes.p_small * sizes.small + (1.0 - sizes.p_small) * sizes.large)


def rate_to_lambda(rate_bps: float, sizes: FixedSize | BimodalSize) -> float:
    """Offered load in bits/s -> mean arrival rate in frames/us."""
    return rate_bps * 1e-6 / mean_frame_bits(sizes)


class TraceFormatError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class Trace:
    """A loaded trace: arrival times (us, non-decreasing) and sizes (bytes).

    Compared and hashed by identity, so a TrafficSpec holding one is too.
    Its fields are read-only views of the arrays given: runs replay ``times`` uncopied.
    """

    times: np.ndarray
    sizes: np.ndarray

    def __post_init__(self):
        for name in ("times", "sizes"):
            object.__setattr__(self, name, np.asarray(getattr(self, name)).view())
            getattr(self, name).flags.writeable = False

    @property
    def n_frames(self) -> int:
        return len(self.times)

    @property
    def mean_rate_bps(self) -> float:
        """Mean offered load: frame rate over the spanned interval times mean size."""
        if self.n_frames < 2:
            return 0.0
        span = float(self.times[-1] - self.times[0])
        if span <= 0:
            return 0.0
        lam = (self.n_frames - 1) / span            # frames/us
        return lam * 8.0 * float(self.sizes.mean()) * 1e6


# numpy strips these ASCII separators around a field; float() does not
_NUMPY_ONLY_SPACE = b"\x1c\x1d\x1e\x1f"
# numpy opens a path with one of these suffixes through a decompressor
_NUMPY_DECOMPRESSED = (".gz", ".bz2", ".xz", ".lzma")


def load_trace(path: str | Path) -> Trace:
    """Parse a trace CSV; malformed lines, nan/inf fields, times below 0 and
    decreasing times are errors.

    numpy reads the file by path when every ``#`` in it starts a line.  Any
    other file, and any file numpy cannot read, goes through the line loop,
    which reads what only float() reads (such as ``1_0``) or raises at the
    first faulty line.  A leading UTF-8 byte-order mark is ignored.
    """
    trace = _parse_numpy(path)
    return trace if trace is not None else _parse_lines(path)


def _parse_numpy(path) -> Trace | None:
    """The trace if numpy reads the file by path and the checks pass, else None.

    Python reads the bytes once to choose the route, and the first data line
    once more to count the lines before it.  numpy then reads the file by
    path, in C, and drops the comment lines itself (a file rewritten between
    the reads is not guarded against).  numpy rejects a blank line of spaces,
    and such a file goes to the line loop.
    """
    with open(path, "rb") as fh:
        data = fh.read().removeprefix(codecs.BOM_UTF8)
    if (data.count(b"#") != data.count(b"\n#") + data.startswith(b"#")
            or any(c in data for c in _NUMPY_ONLY_SPACE)
            or str(path).endswith(_NUMPY_DECOMPRESSED)):
        return None
    del data                            # not held while numpy reads the file
    try:
        lineno = next(_data_lines(path))[0]
        # an absolute path, which numpy's opener never takes for a URL; two
        # columns, since the first row has two fields and every row must have
        # as many as the first
        table = np.loadtxt(os.path.abspath(path), encoding="utf-8-sig", skiprows=lineno - 1,
                           delimiter=",", comments="#", dtype=np.float64, ndmin=2)
    except (StopIteration, ValueError):     # no data line, or a fault the loop names
        return None
    # the checks allocate a byte a cell (or a frame) at most, and the table is
    # freed once its columns are copied
    if not np.isfinite(table).all():
        return None
    times, sizes = np.ascontiguousarray(table.T)
    del table
    if (sizes > 0).all() and (times[:1] >= 0).all() and (times[1:] >= times[:-1]).all():
        return Trace(times=times, sizes=sizes)
    return None


def _data_lines(path):
    """Yield (lineno, line, time, size) for each data line of a trace CSV.

    Blank lines and '#' comments are skipped, and so is a non-numeric line
    before the first data line (the optional header).
    """
    seen_data = False
    with open(path, "r", encoding="utf-8-sig", newline=None) as fh:
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


def _parse_lines(path) -> Trace:
    """The line loop: one float() pair per line, raising at the first faulty line."""
    times: list[float] = []
    sizes: list[float] = []
    for lineno, _, t, s in _data_lines(path):
        if s <= 0:
            raise TraceFormatError(f"{path}: line {lineno}: frame size must be positive")
        if not times and -math.inf < t < 0:     # -inf is named as non-finite below
            raise TraceFormatError(f"{path}: line {lineno}: negative timestamp {t}")
        if times and t < times[-1]:
            # an earlier nan or inf is the real fault; name it first
            _check_finite(path, times, sizes)
            raise TraceFormatError(
                f"{path}: line {lineno}: decreasing timestamp {t} after {times[-1]}"
            )
        times.append(t)
        sizes.append(s)
    t_arr = np.asarray(times, dtype=np.float64)
    s_arr = np.asarray(sizes, dtype=np.float64)
    _check_finite(path, t_arr, s_arr)
    return Trace(times=t_arr, sizes=s_arr)


def _check_finite(path, times, sizes) -> None:
    """Reject a nan or inf field, naming the line of the first one.

    One vectorised pass; the file is read again only to find the line.  A
    nan timestamp would otherwise slip past the non-decreasing check, which
    no comparison with nan can fail.
    """
    finite = np.isfinite(times) & np.isfinite(sizes)
    if finite.all():
        return
    bad = int(np.argmin(finite))
    for k, (lineno, line, _, _) in enumerate(_data_lines(path)):
        if k == bad:
            raise TraceFormatError(f"{path}: line {lineno}: non-finite field in {line!r}")


# --------------------------------------------------------------------------
# generation
# --------------------------------------------------------------------------

def _child_rngs(seed) -> tuple[np.random.Generator, np.random.Generator]:
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    arr_ss, size_ss = ss.spawn(2)
    return np.random.default_rng(arr_ss), np.random.default_rng(size_ss)


def _draw_interarrivals(arrival, rng, n: int) -> np.ndarray:
    if isinstance(arrival, Poisson):
        return rng.exponential(1.0 / arrival.lam, n)
    # Pareto-I by inversion; 1-U keeps the base uniform away from 0
    u = rng.random(n)
    return arrival.x_m * (1.0 - u) ** (-1.0 / arrival.alpha)


def _draw_sizes(sizes, rng, n: int) -> np.ndarray:
    if isinstance(sizes, FixedSize):
        return np.full(n, float(sizes.size))
    small = rng.random(n) < sizes.p_small
    return np.where(small, float(sizes.small), float(sizes.large))


def sample_frames(spec: TrafficSpec, n: int, seed) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized draw of n frames: (arrival_times, sizes_bytes).  A trace's
    times are a read-only view of its ``times``; its sizes are a copy."""
    if spec.is_trace:
        return spec.trace.times[:n], spec.trace.sizes[:n].copy()
    if n <= 0:
        raise ValueError("n must be positive")
    rng_a, rng_s = _child_rngs(seed)
    times = _draw_interarrivals(spec.arrival, rng_a, n)
    np.cumsum(times, out=times)
    return times, _draw_sizes(spec.sizes, rng_s, n)


def sample_frames_until(spec: TrafficSpec, horizon_us: float, seed) -> tuple[np.ndarray, np.ndarray]:
    """Draw frames with arrival times <= horizon_us (a trace's times as a read-only view)."""
    if spec.is_trace:
        trace = spec.trace
        k = int(np.searchsorted(trace.times, horizon_us, side="right"))
        return trace.times[:k], trace.sizes[:k].copy()
    if horizon_us <= 0:
        raise ValueError("horizon must be positive")
    rng_a, rng_s = _child_rngs(seed)
    lam = spec.arrival.lam
    chunk = max(1024, int(lam * horizon_us * 1.1) + 1)
    parts = []
    total = 0.0
    while total <= horizon_us:
        ia = _draw_interarrivals(spec.arrival, rng_a, chunk)
        parts.append(ia)
        total += float(ia.sum())
    times = np.concatenate(parts)
    np.cumsum(times, out=times)
    k = int(np.searchsorted(times, horizon_us, side="right"))
    # a copy of the k kept frames, so the surplus drawn past the horizon is freed
    return times[:k].copy(), _draw_sizes(spec.sizes, rng_s, k)


# --------------------------------------------------------------------------
# moments
# --------------------------------------------------------------------------

def theoretical_stats(spec: TrafficSpec, line_rate: float) -> TrafficStats:
    """Exact moments of a generated spec (traces need measured_stats)."""
    if spec.is_trace:
        raise ValueError("theoretical_stats is undefined for traces; use measured_stats")
    arrival, sizes = spec.arrival, spec.sizes
    lam = arrival.lam
    if isinstance(arrival, Poisson):
        var_i = 1.0 / lam**2
    else:
        xm = arrival.x_m
        a = arrival.alpha
        var_i = xm * xm * a / ((a - 1.0) ** 2 * (a - 2.0))
    rate = line_rate * 1e-6  # bits/us
    if isinstance(sizes, FixedSize):
        mean_svc = 8.0 * sizes.size / rate
        var_s = 0.0
    else:
        t_small = 8.0 * sizes.small / rate
        t_large = 8.0 * sizes.large / rate
        p = sizes.p_small
        mean_svc = p * t_small + (1.0 - p) * t_large
        var_s = p * (1.0 - p) * (t_large - t_small) ** 2
    return TrafficStats(
        lam=lam, mu=1.0 / mean_svc, var_interarrival=var_i, var_service=var_s
    )


def measured_stats(times: np.ndarray, sizes: np.ndarray, line_rate: float) -> TrafficStats:
    """Sample moments of an observed frame sequence (e.g. a trace)."""
    if len(times) < 2:
        raise ValueError("need at least two frames to measure moments")
    ia = np.diff(times)
    mean_ia, var_ia = float(ia.mean()), float(ia.var())
    del ia                              # not held while the service times are built
    if mean_ia <= 0:
        raise ValueError("degenerate trace: zero time span")
    svc = np.multiply(sizes, 8.0, dtype=np.float64)
    svc /= line_rate * 1e-6
    return TrafficStats(
        lam=1.0 / mean_ia,
        mu=1.0 / float(svc.mean()),
        var_interarrival=var_ia,
        var_service=float(svc.var()),
    )
