import codecs
import importlib.util
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eeecoal import TrafficSpec, theoretical_stats, traffic
from eeecoal.traffic import (
    BimodalSize,
    FixedSize,
    Pareto,
    Poisson,
    Trace,
    TraceFormatError,
    load_trace,
    measured_stats,
    rate_to_lambda,
    sample_frames,
    sample_frames_until,
)
from oracles import load_trace_lines, parse_numpy_cleaned, trace_data_lines

LAM = 0.4166667


def poisson_spec(lam=LAM, size=1500):
    return TrafficSpec(arrival=Poisson(lam), sizes=FixedSize(size))


class TestGeneration:
    def test_poisson_mean_interarrival(self):
        times, _ = sample_frames(poisson_spec(), 10**6, seed=0)
        ia = np.diff(times)
        assert ia.mean() == pytest.approx(2.4, rel=0.005)

    def test_pareto_moments(self):
        spec = TrafficSpec(arrival=Pareto(2.5, LAM), sizes=FixedSize(1500))
        assert spec.arrival.x_m == pytest.approx(1.44, rel=1e-6)
        times, _ = sample_frames(spec, 10**6, seed=1)
        ia = np.diff(times)
        xm, a = spec.arrival.x_m, 2.5
        assert ia.mean() == pytest.approx(2.4, rel=0.01)
        assert ia.min() >= xm
        # quantiles have well-behaved estimators even under the heavy tail:
        # F^-1(p) = xm (1-p)^(-1/alpha)
        for p in (0.5, 0.9, 0.99):
            want = xm * (1.0 - p) ** (-1.0 / a)
            assert np.quantile(ia, p) == pytest.approx(want, rel=0.01)
        # the sample variance converges but its own scatter is huge (the
        # fourth moment is infinite), so only a coarse band is meaningful
        true_var = xm * xm * a / ((a - 1) ** 2 * (a - 2))
        assert 0.6 * true_var < ia.var() < 1.6 * true_var

    def test_bimodal_mean_size(self):
        spec = TrafficSpec(arrival=Poisson(LAM), sizes=BimodalSize(0.54, 100, 1500))
        _, sizes = sample_frames(spec, 10**6, seed=2)
        assert sizes.mean() == pytest.approx(744.0, rel=0.005)
        assert set(np.unique(sizes)) == {100.0, 1500.0}

    def test_same_seed_same_sequence(self):
        a = sample_frames(poisson_spec(), 1000, seed=42)
        b = sample_frames(poisson_spec(), 1000, seed=42)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        c = sample_frames(poisson_spec(), 1000, seed=43)
        assert not np.array_equal(a[0], c[0])

    def test_time_horizon_sampling(self):
        times, sizes = sample_frames_until(poisson_spec(), 5000.0, seed=3)
        assert len(times) == len(sizes) > 0
        assert times[-1] <= 5000.0
        again, _ = sample_frames_until(poisson_spec(), 5000.0, seed=3)
        assert np.array_equal(times, again)

    def test_arrival_times_nondecreasing(self):
        times, _ = sample_frames(poisson_spec(), 10000, seed=4)
        assert np.all(np.diff(times) >= 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            Pareto(2.0, LAM)  # infinite variance
        with pytest.raises(ValueError):
            Poisson(0.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError):
                Poisson(bad)
            with pytest.raises(ValueError):
                Pareto(bad, LAM)
        with pytest.raises(ValueError):
            FixedSize(50)
        with pytest.raises(ValueError):
            FixedSize(2000)
        with pytest.raises(ValueError):
            BimodalSize(1.5, 100, 1500)
        with pytest.raises(ValueError):
            TrafficSpec(arrival=Poisson(LAM))  # sizes missing
        one_frame = Trace(times=np.zeros(1), sizes=np.full(1, 1500.0))
        with pytest.raises(ValueError, match="generators"):
            TrafficSpec(arrival=Poisson(LAM), sizes=FixedSize(1500), trace=one_frame)

    def test_trace_spec_takes_only_a_loaded_trace(self):
        with pytest.raises(ValueError, match="load_trace"):
            TrafficSpec(trace="x.csv")


class TestTheoreticalStats:
    def test_poisson_fixed(self):
        stats = theoretical_stats(poisson_spec(), 10e9)
        assert stats.lam == pytest.approx(0.4166667, rel=1e-9)
        assert stats.mu == pytest.approx(0.8333333, rel=1e-6)
        assert stats.var_interarrival == pytest.approx(5.76, rel=1e-5)
        assert stats.var_service == 0.0

    def test_pareto_variance(self):
        spec = TrafficSpec(arrival=Pareto(2.5, LAM), sizes=FixedSize(1500))
        stats = theoretical_stats(spec, 10e9)
        assert stats.var_interarrival == pytest.approx(4.608, rel=1e-4)

    def test_pareto_variance_against_quadrature(self):
        scipy_integrate = pytest.importorskip("scipy.integrate")
        a, xm = 2.5, 1.44
        pdf = lambda x: a * xm**a / x ** (a + 1)
        m1, _ = scipy_integrate.quad(lambda x: x * pdf(x), xm, np.inf)
        m2, _ = scipy_integrate.quad(lambda x: x * x * pdf(x), xm, np.inf)
        spec = TrafficSpec(arrival=Pareto(a, LAM), sizes=FixedSize(1500))
        stats = theoretical_stats(spec, 10e9)
        assert m1 == pytest.approx(2.4, rel=1e-6)
        assert stats.var_interarrival == pytest.approx(m2 - m1 * m1, rel=1e-6)

    def test_bimodal_service_variance(self):
        spec = TrafficSpec(arrival=Poisson(LAM), sizes=BimodalSize(0.54, 100, 1500))
        stats = theoretical_stats(spec, 10e9)
        # two-point service times 0.08 / 1.2 us
        assert stats.var_service == pytest.approx(0.54 * 0.46 * 1.12**2, rel=1e-9)
        assert stats.mu == pytest.approx(1.0 / (0.54 * 0.08 + 0.46 * 1.2), rel=1e-9)

    def test_rejects_trace_specs(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("0.0,1500\n")
        with pytest.raises(ValueError):
            theoretical_stats(TrafficSpec(trace=load_trace(path)), 10e9)

    def test_rate_conversion(self):
        assert rate_to_lambda(5e9, FixedSize(1500)) == pytest.approx(0.4166667, rel=1e-5)
        assert rate_to_lambda(5e9, BimodalSize(0.54, 100, 1500)) == pytest.approx(
            5000.0 / 5952.0, rel=1e-9
        )

    def test_measured_matches_theoretical(self):
        spec = poisson_spec()
        times, sizes = sample_frames(spec, 200000, seed=9)
        got = measured_stats(times, sizes, 10e9)
        want = theoretical_stats(spec, 10e9)
        assert got.lam == pytest.approx(want.lam, rel=0.01)
        assert got.mu == pytest.approx(want.mu, rel=1e-9)
        assert got.var_interarrival == pytest.approx(want.var_interarrival, rel=0.05)

    def test_measured_service_times_of_integer_sizes(self):
        # sizes given as integers are converted once and the service times
        # rounded as float64 (sizes * 8.0) / (line_rate * 1e-6), exactly
        rng = np.random.default_rng(3)
        times, sizes = np.cumsum(rng.exponential(2.4, 5000)), rng.integers(64, 1519, 5000)
        svc = np.asarray(sizes, dtype=np.float64) * 8.0 / (7e9 * 1e-6)
        got = measured_stats(times, sizes, 7e9)
        assert (got.mu, got.var_service) == (1.0 / float(svc.mean()), float(svc.var()))
        assert measured_stats(times, sizes.astype(np.float64), 7e9) == got


class TestTraceLoading:
    def test_three_line_trace(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("0.0,1500\n2.4,1500\n4.8,1500\n")
        trace = load_trace(path)
        assert trace.n_frames == 3
        assert trace.sizes.sum() == 4500
        assert trace.mean_rate_bps == pytest.approx(5e9, rel=1e-9)

    def test_empty_trace(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("")
        trace = load_trace(path)
        assert trace.n_frames == 0
        assert trace.mean_rate_bps == 0.0

    def test_header_and_comments_skipped(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(
            "# a comment\narrival_time_us,frame_size_bytes\n0.0,100\n\n1.5,200\n"
        )
        trace = load_trace(path)
        assert trace.n_frames == 2
        assert list(trace.sizes) == [100.0, 200.0]

    def test_crlf_accepted(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b"0.0,1500\r\n2.4,1500\r\n")
        assert load_trace(path).n_frames == 2

    def test_malformed_line_names_line_number(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("abc,1500\n")
        # a bare first alphabetic line is a header; a later one is an error
        assert load_trace(path).n_frames == 0
        path.write_text("0.0,1500\nabc,1500\n")
        with pytest.raises(TraceFormatError, match="line 2"):
            load_trace(path)
        path.write_text("0.0\n")
        with pytest.raises(TraceFormatError, match="line 1"):
            load_trace(path)

    def test_decreasing_timestamps_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("0.0,1500\n5.0,1500\n4.0,1500\n")
        with pytest.raises(TraceFormatError, match="line 3"):
            load_trace(path)

    @pytest.mark.parametrize("text, line", [
        ("1.0,1500\nnan,1500\n3.0,inf\n", 2),      # nan passes the order check
        ("1.0,1500\n2.0,1500\n3.0,inf\n", 3),
        ("# c\nt,s\n1.0,1500\n\n2.0,NaN\n", 5),
        ("1.0,1500\ninf,1500\n3.0,1500\n", 2),     # not the decreasing line 3
        ("-inf,1500\n", 1),
        ("  # a, b\n 1.0 , 1500 \n\n2.0, inf\n", 4),
    ], ids=["nan-time", "inf-size", "nan-size-after-header", "inf-time", "minus-inf-time",
            "padded-fields"])
    def test_non_finite_fields_rejected(self, tmp_path, text, line):
        path = tmp_path / "t.csv"
        path.write_text(text)
        with pytest.raises(TraceFormatError, match=f"line {line}: non-finite"):
            load_trace(path)

    def test_trace_before_zero_rejected(self, tmp_path):
        # numpy leaves it to the line loop, which names its line
        path = tmp_path / "t.csv"
        path.write_text("t,s\n# c\n-30.0,1500\n-27.6,1500\n0.0,1500\n")
        with pytest.raises(TraceFormatError, match="line 3: negative timestamp -30.0"):
            load_trace(path)
        path.write_text("-0.0,1500\n2.4,1500\n")
        assert load_trace(path).times.tobytes() == np.array([-0.0, 2.4]).tobytes()

    def test_duplicate_timestamps_allowed(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("1.0,100\n1.0,200\n")
        assert load_trace(path).n_frames == 2

    def test_nonpositive_size_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("0.0,0\n")
        with pytest.raises(TraceFormatError, match="line 1"):
            load_trace(path)

    def test_trace_holds_read_only_views(self):
        times, sizes = np.array([0.0, 2.4]), np.array([1500, 100])
        trace = Trace(times, sizes)
        for given, held in [(times, trace.times), (sizes, trace.sizes)]:
            assert np.shares_memory(given, held) and held.dtype == given.dtype
            assert given.flags.writeable and not held.flags.writeable


# --------------------------------------------------------------------------
# the numpy parser against the line loop it replaced
# --------------------------------------------------------------------------

WELL_FORMED = ["data"] * 6 + ["comment", "double-# comment", "blank"]
ODD = ["inline #", "1_0", "quoted", "one field", "three fields", "non-finite", "size <= 0",
       "decreasing", "negative", "junk"]


@st.composite
def trace_texts(draw):
    """Trace text: well-formed lines, those mixed with odd and faulty ones, or one odd kind,
    after a UTF-8 byte-order mark in some examples."""
    pad = st.sampled_from(["", "", "", " ", "\t", " \u2028", "\x1f"])

    def field(x):
        return draw(pad) + x + draw(pad)

    lines = draw(st.lists(st.sampled_from(
        ["arrival_time_us,frame_size_bytes", "t, s", "time (us),size"]), max_size=2))
    kinds = draw(st.sampled_from([WELL_FORMED, WELL_FORMED + ODD, [draw(st.sampled_from(ODD))]]))
    t = 0.0
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=14)):
        t += draw(st.sampled_from([0.0, 0.125, 1.0, 2.4, 1e3]))
        time = draw(st.sampled_from([f"{t:.4f}", repr(t), f"{t:g}", f"{t:.3e}"]))
        size = str(draw(st.integers(1, 1518)))
        lines.append({
            "data": lambda: field(time) + "," + field(size),
            "comment": lambda: draw(st.sampled_from(["#", "# frames 0+", " \t# a, b", "#1,2"])),
            "double-# comment": lambda: draw(st.sampled_from(["# a # b", "##", " # 1,2 #"])),
            "blank": lambda: draw(st.sampled_from(["", " ", "\t", "\x0c"])),
            "inline #": lambda: f"{time},{size} # note",
            "1_0": lambda: f"{time},1_{size}",
            "quoted": lambda: f'"{time}",{size}',
            "one field": lambda: time,
            "three fields": lambda: f"{time},{size},1",
            "non-finite": lambda: draw(st.sampled_from(
                [f"{{}},{size}", f"{time},{{}}"])).format(
                    draw(st.sampled_from(["nan", "inf", "-inf", "NaN", "Infinity"]))),
            "size <= 0": lambda: f"{time},{draw(st.sampled_from(['0', '-1', '-0.0', '0e3']))}",
            "decreasing": lambda: f"{t - draw(st.sampled_from([0.001, 1.0, 50.0])):.4f},{size}",
            "negative": lambda: field(draw(st.sampled_from(["-0.0", "-1e-3", "-30", "-2.4e1"])))
                                + "," + size,
            "junk": lambda: draw(st.text(st.characters(blacklist_categories=("Cs",)),
                                         max_size=12)),
        }[kind]())
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n"]), min_size=len(lines),
                         max_size=len(lines)))
    text = draw(st.sampled_from(["", "", "", "\ufeff"])) + "".join(
        line + end for line, end in zip(lines, ends))
    return text if draw(st.booleans()) else text.rstrip("\r\n")


def _outcome(load, path):
    try:
        trace = load(path)
    except Exception as exc:            # compared with the oracle's, never hidden
        return type(exc), str(exc)
    if trace is None:
        return None
    return trace.times.dtype, trace.times.tobytes(), trace.sizes.dtype, trace.sizes.tobytes()


def _line_loop_outcome(path):
    """The line-loop oracle's outcome, but with a first frame before 0 us,
    which the oracle accepts, rejected at its line as load_trace does."""
    try:
        lineno, _, t, s = next(trace_data_lines(path))
    except (StopIteration, TraceFormatError, UnicodeDecodeError):
        pass
    else:
        if not s <= 0 and -math.inf < t < 0:
            return TraceFormatError, f"{path}: line {lineno}: negative timestamp {t}"
    return _outcome(load_trace_lines, path)


class TestTraceParseFuzz:
    @given(text=trace_texts())
    @settings(max_examples=600, deadline=None)
    def test_matches_the_line_loop(self, tmp_path_factory, text):
        # and numpy by path reads what the cleaned-text parser it replaced
        # read, or leaves the file to the line loop
        path = tmp_path_factory.getbasetemp() / "fuzzed-trace.csv"
        # load_trace ignores a leading byte-order mark, which the oracles read
        # as part of line 1: they read the same text without it
        path.write_bytes(text.removeprefix("\ufeff").encode("utf-8"))
        line_loop, cleaned = _line_loop_outcome(path), _outcome(parse_numpy_cleaned, path)
        path.write_bytes(text.encode("utf-8"))
        assert _outcome(load_trace, path) == line_loop
        by_path = _outcome(traffic._parse_numpy, path)
        assert by_path is None or by_path == cleaned

    @pytest.mark.parametrize("data", [
        b"0.0,1500\n\xff,1500\n",
        b"0.0,1500\nabc\n" + b"1.0,1500\n" * 3000 + b"\xff\n",
    ], ids=["bad-byte", "bad-line-before-bad-byte"])
    def test_undecodable_file_matches_the_line_loop(self, tmp_path, data):
        path = tmp_path / "t.csv"
        path.write_bytes(data)
        assert _outcome(load_trace, path) == _outcome(load_trace_lines, path)

    @pytest.mark.parametrize("text", [
        "0.0,1500\n2.4,1500\n",
        "# benchmark trace\narrival_time_us,frame_size_bytes\n# frames 0+\n"
        "0.8670,1500\n3.2250,100\n# frames 2+\n3.2250,100\n",
        "t,s\r\ntime,size\r\n 1.0 ,\t1500 \r\n\r\n2.0, 1e3\r\n",
        "1.5e1,64",
    ], ids=["plain", "header-and-comments", "crlf-two-headers-padded", "no-final-newline"])
    def test_well_formed_trace_skips_the_line_loop(self, tmp_path, monkeypatch, text):
        path = tmp_path / "t.csv"
        path.write_bytes(text.encode("utf-8"))
        expected = load_trace_lines(path)

        def no_loop(*args):
            raise AssertionError("the line loop ran")

        monkeypatch.setattr(traffic, "_parse_lines", no_loop)
        trace = load_trace(path)
        assert trace.times.tobytes() == expected.times.tobytes()
        assert trace.sizes.tobytes() == expected.sizes.tobytes()

    def test_loaded_trace_replays_as_its_file(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("".join(f"{2.4 * i:.4f},{64 + i}\n" for i in range(50)))
        loaded = TrafficSpec(trace=load_trace(path))
        assert loaded == TrafficSpec(trace=loaded.trace) != TrafficSpec(trace=load_trace(path))
        assert hash(loaded) == hash(TrafficSpec(trace=loaded.trace))
        times, sizes = sample_frames(loaded, 20, seed=0)
        assert list(sizes) == [64.0 + i for i in range(20)]
        times_until, sizes_until = sample_frames_until(loaded, 24.0, seed=0)
        assert len(times_until) == 11
        # the times are read-only views of the trace's; the sizes are copies,
        # which a run turns into service times in place
        for t, s in [(times, sizes), (times_until, sizes_until)]:
            assert np.shares_memory(t, loaded.trace.times) and not t.flags.writeable
            assert not np.shares_memory(s, loaded.trace.sizes) and s.flags.writeable


def _write_benchmark_trace(path, n_lines):
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    workloads.write_trace(path, n_lines, seed=1)


class TestTraceParseRoutes:
    """numpy reads the file by path when every '#' starts a line; the line loop reads the rest."""

    @pytest.fixture
    def routes(self, monkeypatch):
        seen = []
        loadtxt, parse_lines = np.loadtxt, traffic._parse_lines

        def numpy_spy(source, *args, **kwargs):
            seen.append("path" if isinstance(source, str) else "copy")
            return loadtxt(source, *args, **kwargs)

        def loop_spy(path):
            seen.append("loop")
            return parse_lines(path)

        monkeypatch.setattr(traffic.np, "loadtxt", numpy_spy)
        monkeypatch.setattr(traffic, "_parse_lines", loop_spy)
        return seen

    def test_benchmark_shaped_trace_is_read_by_path(self, tmp_path, routes):
        path = tmp_path / "t.csv"
        _write_benchmark_trace(path, 25_000)
        trace = load_trace(path)
        assert routes == ["path"]
        expected = load_trace_lines(path)
        assert trace.n_frames == 25_000
        assert trace.times.tobytes() == expected.times.tobytes()
        assert trace.sizes.tobytes() == expected.sizes.tobytes()

    def test_benchmark_shaped_trace_peak(self, tmp_path):
        # numpy's table and the copy of its columns are the largest arrays
        # alive at once, 16 bytes a frame each; the checks add at most a byte
        # a cell
        path = tmp_path / "t.csv"
        _write_benchmark_trace(path, 25_000)
        load_trace(path)            # the first load in a process fills one-time caches
        tracemalloc.start()
        try:
            trace = load_trace(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.2 * (trace.times.nbytes + trace.sizes.nbytes)

    @pytest.mark.parametrize("text, route", [
        ("# c\n0.0,1500\n2.4,100\n", ["path"]),
        ("t,s\r\n# c\r\n0.0,1500\r\n2.4,100\r\n", ["path"]),
        ("t,s\r0.0,1500\r2.4,100\r", ["path"]),
        ("0.0,1500\n  \t\n2.4,100\n", ["path", "loop"]),
        ("0.0,1500\n  # c\n2.4,100\n", ["loop"]),
        ("t,s\r\ntime,size\r\n 0.0 ,\t1500 \r\n\r\n  # c\r\n2.4, 1e2\r\n", ["loop"]),
        ("# a # b\nt,s\n0.0,1500\n2.4,100\n", ["loop"]),
        ("t,s\r# c\r0.0,1500\r2.4,100\r", ["loop"]),     # a '#' after a lone CR
    ], ids=["column-0-comment", "crlf", "cr-only", "blank-line-of-spaces", "indented-comment",
            "crlf-indented-comment", "double-#-comment", "cr-only-comment"])
    def test_route(self, tmp_path, routes, text, route):
        path = tmp_path / "t.csv"
        path.write_bytes(text.encode("utf-8"))
        expected = load_trace_lines(path)
        trace = load_trace(path)
        assert routes == route
        assert list(trace.times) == [0.0, 2.4] and list(trace.sizes) == [1500.0, 100.0]
        assert trace.times.tobytes() == expected.times.tobytes()
        assert trace.sizes.tobytes() == expected.sizes.tobytes()

    @pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
    def test_plain_text_with_a_compressed_suffix(self, tmp_path, routes, suffix):
        # numpy would open it through a decompressor
        path = tmp_path / f"t.csv{suffix}"
        path.write_text("0.0,1500\n2.4,100\n")
        assert list(load_trace(path).times) == [0.0, 2.4]
        assert routes == ["loop"]

    @pytest.mark.parametrize("text, route, x_line", [
        ("0.0,1500\n2.4,1500\n4.8,1500\n", ["path"], 2),
        ("# c\n0.0,1500\n2.4,1500\n4.8,1500\n", ["path"], 3),
        ("0.0,1500\n  # c\n2.4,1500\n4.8,1500\n", ["loop"], 3),
    ], ids=["plain", "comment-first", "indented-comment"])
    def test_byte_order_mark_is_ignored(self, tmp_path, routes, text, route, x_line):
        # a UTF-8 BOM is not part of line 1, so line 1 keeps its frame
        path = tmp_path / "t.csv"
        path.write_bytes(codecs.BOM_UTF8 + text.encode("utf-8"))
        trace = load_trace(path)
        assert routes == route
        assert list(trace.times) == [0.0, 2.4, 4.8] and list(trace.sizes) == [1500.0] * 3
        path.write_bytes(codecs.BOM_UTF8 + text.replace("2.4", "x").encode("utf-8"))
        with pytest.raises(TraceFormatError, match=f"line {x_line}: non-numeric"):
            load_trace(path)
