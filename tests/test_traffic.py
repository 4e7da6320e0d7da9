import math

import numpy as np
import pytest

from eeecoal import TrafficSpec, theoretical_stats
from eeecoal.traffic import (
    BimodalSize,
    FixedSize,
    Pareto,
    Poisson,
    TraceFormatError,
    load_trace,
    measured_stats,
    rate_to_lambda,
    sample_frames,
    sample_frames_until,
)

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
        with pytest.raises(ValueError):
            TrafficSpec(arrival=Poisson(LAM), sizes=FixedSize(1500), trace="x.csv")


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
            theoretical_stats(TrafficSpec(trace=str(path)), 10e9)

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

    def test_duplicate_timestamps_allowed(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("1.0,100\n1.0,200\n")
        assert load_trace(path).n_frames == 2

    def test_nonpositive_size_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("0.0,0\n")
        with pytest.raises(TraceFormatError, match="line 1"):
            load_trace(path)
