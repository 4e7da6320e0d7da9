import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eeecoal import EeeParams, TrafficStats, analytic
from eeecoal.analytic import (
    delay_size_based,
    delay_time_based,
    energy_lower_bound,
    energy_ratio,
    optimal_threshold_approx,
    optimal_threshold_cubic,
    optimal_timer,
    size_based_outcome,
    time_based_outcome,
    toff_size_based,
    toff_time_based,
    toff_upper_bound,
    w0_exact,
    w0_poisson_deterministic,
)

from conftest import LAM_5G, MU_10G_1500B, W0_5G
from oracles import threshold_cubic_bisection, threshold_cubic_value

TS, TW = 2.88, 4.48


def stats_poisson_fixed(lam, mu):
    return TrafficStats(lam=lam, mu=mu, var_interarrival=1.0 / lam**2, var_service=0.0)


# --------------------------------------------------------------------------
# baseline delay
# --------------------------------------------------------------------------

class TestEeeParams:
    @pytest.mark.parametrize("field", ["phi_off", "ts", "tw", "line_rate"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
    def test_rejects_bad_values(self, field, value):
        with pytest.raises(ValueError):
            EeeParams(**{field: value})


class TestW0:
    def test_reference_point(self):
        stats = stats_poisson_fixed(LAM_5G, MU_10G_1500B)
        assert w0_exact(stats) == pytest.approx(3.0, rel=1e-12)
        # same operating point as rounded decimals
        rounded = TrafficStats(0.4166667, 0.8333333, 5.76, 0.0)
        assert w0_exact(rounded) == pytest.approx(3.0, rel=1e-5)

    def test_zero_variance_low_load_limit(self):
        # sigma_I = sigma_S = 0, rho -> 0, lam = 1: (1-rho)^2/(2 lam (1-rho)) -> 0.5
        assert w0_exact(TrafficStats(1.0, 1e12, 0.0, 0.0)) == pytest.approx(0.5, rel=1e-9)

    def test_poisson_deterministic_limit(self):
        assert w0_poisson_deterministic(1.0, 0.0) == pytest.approx(1.0, rel=1e-12)

    def test_matches_exact_for_poisson_deterministic_inputs(self):
        for lam in np.linspace(0.05, 0.9, 5):
            for rho in np.linspace(0.05, 0.95, 4):
                full = w0_exact(stats_poisson_fixed(lam, lam / rho))
                approx = w0_poisson_deterministic(lam, rho)
                assert full == pytest.approx(approx, rel=1e-12)

    def test_rejects_unstable(self):
        with pytest.raises(ValueError):
            w0_exact(TrafficStats(lam=1.0, mu=1.0, var_interarrival=1.0, var_service=0.0))
        with pytest.raises(ValueError):
            w0_poisson_deterministic(1.0, 1.0)
        with pytest.raises(ValueError):
            w0_poisson_deterministic(-1.0, 0.5)
        with pytest.raises(ValueError):
            TrafficStats(lam=1.0, mu=0.5, var_interarrival=1.0, var_service=0.0)


# --------------------------------------------------------------------------
# energy ratio
# --------------------------------------------------------------------------

class TestEnergyRatio:
    def test_no_sleep_means_full_power(self, params):
        assert energy_ratio(params, 0.5, 0.0) == 1.0

    def test_long_sleep_approaches_idle_floor(self, params):
        assert energy_ratio(params, 0.0, 1e15) == pytest.approx(0.1, abs=1e-6)
        assert energy_ratio(params, 0.0, math.inf) == pytest.approx(0.1, abs=1e-12)

    def test_reference_point(self, params):
        assert energy_ratio(params, 0.5, 23.626) == pytest.approx(0.6569, abs=5e-4)

    @given(
        rho=st.floats(0.0, 0.99),
        t1=st.floats(0.0, 1e6),
        t2=st.floats(0.0, 1e6),
    )
    @settings(max_examples=200)
    def test_decreasing_in_sleep_time_with_floor(self, rho, t1, t2):
        params = EeeParams()
        lo, hi = sorted((t1, t2))
        phi_lo, phi_hi = energy_ratio(params, rho, hi), energy_ratio(params, rho, lo)
        assert phi_lo <= phi_hi <= 1.0
        floor = 1.0 - (1.0 - params.phi_off) * (1.0 - rho)
        assert phi_lo >= floor - 1e-12
        assert floor >= params.phi_off - 1e-12

    def test_rejects_bad_inputs(self, params):
        with pytest.raises(ValueError):
            energy_ratio(params, 0.5, -1.0)
        with pytest.raises(ValueError):
            energy_ratio(params, 1.0, 1.0)


# --------------------------------------------------------------------------
# time-based closed forms
# --------------------------------------------------------------------------

class TestTimeBased:
    def test_sleep_length_reference(self):
        assert toff_time_based(0.4166667, 24.106, 2.88) == pytest.approx(23.626, abs=1e-3)

    def test_sleep_length_high_rate_limit(self):
        # empty period vanishes; only the timer surplus over ts remains
        eps = 0.25
        assert toff_time_based(1e9, TS + eps, TS) == pytest.approx(eps, abs=1e-6)

    def test_rejects_timer_not_exceeding_ts(self):
        with pytest.raises(ValueError):
            toff_time_based(0.4, 2.88, 2.88)

    def test_delay_reference(self):
        v = optimal_timer(16.0, LAM_5G, TW, W0_5G)
        assert delay_time_based(LAM_5G, v, TW, W0_5G) == pytest.approx(16.0, rel=1e-12)

    def test_delay_zero_vacation_reduces_to_plain_queue(self):
        # v + tw -> 0 leaves w0 - 1/lam, the no-vacation mean wait
        for lam, rho in [(0.4166667, 0.5), (0.1, 0.2), (0.7, 0.85)]:
            w0 = w0_poisson_deterministic(lam, rho)
            assert delay_time_based(lam, 0.0, 0.0, w0) == pytest.approx(
                w0 - 1.0 / lam, rel=1e-12
            )

    def test_delay_rejects_negative_timer(self):
        with pytest.raises(ValueError):
            delay_time_based(0.4, -0.1, TW, 3.0)


# --------------------------------------------------------------------------
# size-based closed forms
# --------------------------------------------------------------------------

class TestSizeBased:
    def test_sleep_length_zero_ts_is_exact(self):
        for qw in (1, 2, 7, 12, 52, 200):
            for lam in (0.05, 0.4166667, 0.9):
                assert toff_size_based(lam, qw, 0.0) == qw / lam

    def test_sleep_length_reference(self):
        assert toff_size_based(0.4166667, 12, 2.88) == pytest.approx(25.92, abs=1e-3)

    @given(lam=st.floats(0.01, 2.0), ts=st.floats(0.0, 20.0))
    @settings(max_examples=100)
    def test_threshold_one_closed_form(self, lam, ts):
        # mean positive part of (Exp(lam) - ts) = exp(-lam ts)/lam
        assert toff_size_based(lam, 1, ts) == pytest.approx(
            math.exp(-lam * ts) / lam, rel=1e-12
        )

    def test_matches_explicit_gamma_composition(self):
        # (Gamma(qw+1, x) - x Gamma(qw, x)) / (lam (qw-1)!), with the upper
        # incomplete gamma Gamma(q, x) = (q-1)! Q(q, x) and Q regularized
        gammaincc = pytest.importorskip("scipy.special").gammaincc
        for qw in (1, 2, 4, 12, 52):
            for x in (0.1, 1.2, 5.0):
                lam = 0.4166667
                ts = x / lam
                composed = (qw * gammaincc(qw + 1, x) - x * gammaincc(qw, x)) / lam
                assert toff_size_based(lam, qw, ts) == pytest.approx(composed, rel=1e-12)

    def test_against_quadrature(self):
        # E[(T - ts)^+] with T ~ Erlang(qw, lam), the epoch of the qw-th arrival
        scipy_integrate = pytest.importorskip("scipy.integrate")
        for qw, lam, ts in [(13, 0.4166667, 2.88), (4, 0.5, 5.0), (7, 0.9, 10.0)]:
            def integrand(t):
                return (t - ts) * lam**qw * t ** (qw - 1) * math.exp(-lam * t) / math.factorial(qw - 1)
            oracle, _ = scipy_integrate.quad(integrand, ts, np.inf)
            assert toff_size_based(lam, qw, ts) == pytest.approx(oracle, rel=1e-9)

    @given(qw=st.integers(1, 60), x=st.floats(0.0, 30.0))
    @settings(max_examples=150)
    def test_threshold_recurrence(self, qw, x):
        # one more frame to wait for adds P(T_{qw+1} > ts)/lam = Q(qw+1, x)/lam
        gammaincc = pytest.importorskip("scipy.special").gammaincc
        lam = 0.4166667
        ts = x / lam
        step = toff_size_based(lam, qw + 1, ts) - toff_size_based(lam, qw, ts)
        assert step == pytest.approx(gammaincc(qw + 1, x) / lam, rel=1e-9, abs=1e-12)

    def test_threshold_past_factorial_range(self):
        # (qw-1)! overflows float64 past qw = 170; the regularized sums do not.
        # P(T_qw < ts) is negligible here, so the residency is E[T_qw] - ts.
        lam = 0.4166667
        for qw in (171, 500, 2000):
            assert toff_size_based(lam, qw, TS) == pytest.approx(qw / lam - TS, rel=1e-12)

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            toff_size_based(0.4, 0, 2.88)
        with pytest.raises(ValueError):
            delay_size_based(0.4, 0.5, TW, 3.0)

    def test_rejects_bad_rate_and_sleep_length(self):
        with pytest.raises(ValueError):
            toff_size_based(0.0, 3, 2.88)
        with pytest.raises(ValueError):
            toff_size_based(0.4, 3, -0.5)
        with pytest.raises(ValueError):
            delay_size_based(0.0, 3.0, TW, 3.0)

    def test_delay_reference(self):
        assert delay_size_based(LAM_5G, 12.0, TW, W0_5G) == pytest.approx(15.905, abs=1e-3)

    def test_threshold_one_equals_zero_timer(self):
        for lam, rho in [(0.1, 0.12), (0.4166667, 0.5), (0.75, 0.9)]:
            w0 = w0_poisson_deterministic(lam, rho)
            assert delay_size_based(lam, 1.0, TW, w0) == pytest.approx(
                delay_time_based(lam, 0.0, TW, w0), rel=1e-12
            )



# --------------------------------------------------------------------------
# controller solvers
# --------------------------------------------------------------------------

class TestOptimalTimer:
    def test_reference_points(self):
        assert optimal_timer(16.0, LAM_5G, TW, W0_5G) == pytest.approx(24.106, abs=1e-3)
        assert optimal_timer(64.0, LAM_5G, TW, W0_5G) == pytest.approx(119.965, abs=1e-3)

    def test_round_trip_grid(self):
        for lam in np.linspace(0.05, 0.8, 10):
            w0 = w0_poisson_deterministic(lam, lam * 1.2)
            for tau in np.linspace(max(8.0, w0 * 1.5), 200.0, 5):
                v = optimal_timer(tau, lam, TW, w0, TS)
                if math.isnan(v):
                    continue
                assert delay_time_based(lam, v, TW, w0) == pytest.approx(tau, rel=1e-9)

    def test_infeasible_when_timer_would_not_exceed_ts(self):
        # heavy load: baseline delay already exceeds the target
        lam, rho = 0.8083, 0.97
        w0 = w0_poisson_deterministic(lam, rho)
        assert w0 > 16.0
        assert math.isnan(optimal_timer(16.0, lam, TW, w0, TS))

    def test_rejects_nonpositive_target(self):
        with pytest.raises(ValueError):
            optimal_timer(0.0, 0.4, TW, 3.0)


def _oracle_threshold(tau, lam, tw, w0):
    """Independent root of the delay balance, via brentq on the delay itself."""
    scipy_opt = pytest.importorskip("scipy.optimize")
    f = lambda q: delay_size_based(lam, q, tw, w0) - tau
    lo, hi = 1.0, 2.0 * lam * tau + 10.0
    if f(lo) * f(hi) > 0:
        return math.nan
    return scipy_opt.brentq(f, lo, hi, xtol=1e-12)


class TestOptimalThreshold:
    def test_cubic_reference_points(self):
        q16 = optimal_threshold_cubic(16.0, LAM_5G, TW, W0_5G)
        q64 = optimal_threshold_cubic(64.0, LAM_5G, TW, W0_5G)
        assert abs(q16 - optimal_threshold_approx(16.0, LAM_5G, TW, W0_5G)) < 0.5
        assert round(q16) == 12
        assert round(q64) == 52

    def test_cubic_root_reproduces_target_delay(self):
        for lam in (0.1, 0.4166667, 0.7):
            w0 = w0_poisson_deterministic(lam, lam * 1.2)
            for tau in (16.0, 32.0, 64.0, 128.0):
                q = optimal_threshold_cubic(tau, lam, TW, w0)
                if math.isnan(q):
                    continue
                assert delay_size_based(lam, q, TW, w0) == pytest.approx(tau, rel=1e-6)

    def test_cubic_matches_independent_root_finder(self):
        for lam in (0.1, 0.4166667, 0.7):
            w0 = w0_poisson_deterministic(lam, lam * 1.2)
            for tau in (16.0, 48.0, 96.0):
                ours = optimal_threshold_cubic(tau, lam, TW, w0)
                oracle = _oracle_threshold(tau, lam, TW, w0)
                if math.isnan(oracle):
                    assert math.isnan(ours)
                else:
                    assert ours == pytest.approx(oracle, abs=1e-6)

    @given(
        tau=st.floats(0.5, 1000.0),
        lam=st.floats(0.001, 0.95),
        rho=st.floats(0.0, 0.99),
        tw=st.floats(0.1, 20.0),
    )
    @example(tau=6.75, lam=0.34375, rho=0.703125, tw=6.75)
    @example(tau=212.91609529256988, lam=0.1906152501184961, rho=0.9877518319267179,
             tw=5.334106778566717)
    @example(tau=11.54319587849294, lam=0.28341861289520687, rho=0.2319876514362294,
             tw=19.91333222665821)
    @settings(max_examples=300, deadline=None)
    def test_closed_form_matches_bisection_oracle(self, tau, lam, rho, tw):
        w0 = w0_poisson_deterministic(lam, rho)
        ours = optimal_threshold_cubic(tau, lam, tw, w0)
        oracle = threshold_cubic_bisection(tau, lam, tw, w0)
        if threshold_cubic_value(1.0, lam, tw, tau - w0) >= 0.0 and not math.isnan(ours):
            # The cubic is positive at 0 and 1, so its roots >= 1 come in a pair:
            # with lam*tw large, delay_size_based dips below its value at q = 1
            # and a target inside the dip is met twice.  Both roots predict tau
            # exactly, so the larger, which sleeps longer, is picked; the
            # oracle's "nearest" pick is decided by rounding, and its scan
            # misses the pair when it falls in one segment.
            d, lt = tau - w0, lam * tw
            roots = analytic._cubic_real_roots(2.0 * lt - 2.0 * lam * d - 3.0,
                                               lt * lt - 2.0 * lam * lt * d - 4.0 * lt, 2.0 * lt)
            assert ours == max(q for q in roots if 1.0 <= q <= 2.0 * lam * tau + 10.0)
            assert delay_size_based(lam, ours, tw, w0) == pytest.approx(tau, rel=1e-6)
            if not math.isnan(oracle):
                assert delay_size_based(lam, oracle, tw, w0) == pytest.approx(tau, rel=1e-6)
            return
        # one root or none; the bisection stops at a 1e-9 bracket, so its root
        # is off by up to 5e-10
        assert math.isnan(ours) == math.isnan(oracle)
        if not math.isnan(oracle):
            assert abs(ours - oracle) <= 1e-9
            assert math.floor(ours + 0.5) == math.floor(oracle + 0.5)

    def test_one_real_root_without_math_cbrt(self, monkeypatch):
        # math.cbrt is new in Python 3.11 and the package supports 3.10
        monkeypatch.delattr(math, "cbrt", raising=False)
        assert analytic._cubic_real_roots(0.0, 0.0, -8.0) == pytest.approx([2.0], abs=1e-15)
        assert analytic._cubic_real_roots(0.0, 0.0, 27.0) == pytest.approx([-3.0], abs=1e-15)
        # (x - 1)(x^2 + 1)
        assert analytic._cubic_real_roots(-1.0, 1.0, -1.0) == pytest.approx([1.0], abs=1e-15)

    def test_approx_reference_points(self):
        q16 = optimal_threshold_approx(16.0, LAM_5G, TW, W0_5G)
        q64 = optimal_threshold_approx(64.0, LAM_5G, TW, W0_5G)
        assert q16 == pytest.approx(11.967, abs=1e-3)
        assert q64 == pytest.approx(51.967, abs=1e-3)
        assert round(q16) == 12
        assert round(q64) == 52

    def test_approx_close_to_cubic_for_large_thresholds(self):
        for lam in np.linspace(0.1, 0.75, 6):
            w0 = w0_poisson_deterministic(lam, lam * 1.2)
            for tau in (24.0, 48.0, 96.0):
                qa = optimal_threshold_approx(tau, lam, TW, w0)
                if math.isnan(qa) or qa < 10:
                    continue
                qc = optimal_threshold_cubic(tau, lam, TW, w0)
                assert abs(qa - qc) < 1.0

    def test_infeasible_below_one_frame(self):
        # target far below the baseline delay: no threshold >= 1 can reach it
        assert math.isnan(optimal_threshold_approx(2.0, 0.5, TW, 20.0))

    def test_monotone_in_target(self):
        w0 = W0_5G
        qs = [optimal_threshold_approx(tau, LAM_5G, TW, w0) for tau in (16, 32, 64, 128)]
        vs = [optimal_timer(tau, LAM_5G, TW, w0) for tau in (16, 32, 64, 128)]
        assert all(a < b for a, b in zip(qs, qs[1:]))
        assert all(a < b for a, b in zip(vs, vs[1:]))


# --------------------------------------------------------------------------
# bounds
# --------------------------------------------------------------------------

class TestBounds:
    def test_sleep_bound_reference(self, params):
        stats = stats_poisson_fixed(LAM_5G, MU_10G_1500B)
        assert toff_upper_bound(16.0, params, stats) == pytest.approx(26.226, abs=1e-3)

    def test_energy_bound_reference(self, params):
        stats = stats_poisson_fixed(LAM_5G, MU_10G_1500B)
        assert energy_lower_bound(16.0, params, stats) == pytest.approx(0.6486, abs=5e-4)

    def test_monotone_in_target(self, params):
        stats = stats_poisson_fixed(LAM_5G, MU_10G_1500B)
        taus = np.linspace(8.0, 200.0, 25)
        bounds = [toff_upper_bound(t, params, stats) for t in taus]
        assert all(b1 <= b2 + 1e-12 for b1, b2 in zip(bounds, bounds[1:]))

    def test_energy_bound_low_load_long_delay_limit(self, params):
        stats = stats_poisson_fixed(0.001, 1e6)
        assert energy_lower_bound(1e9, params, stats) == pytest.approx(0.1, abs=1e-3)

    def test_infeasible_target_gives_no_savings(self, params):
        stats = TrafficStats(lam=5.0, mu=10.0, var_interarrival=0.0, var_service=0.0)
        assert math.isnan(toff_upper_bound(0.01, params, stats))
        assert energy_lower_bound(0.01, params, stats) == 1.0

    def test_dominates_optimal_timer_sleep_everywhere(self, params):
        # the bound sits above the timer controller's sleep time on the
        # whole operating grid
        for rate in range(1, 10):
            lam = rate * 1000.0 / 12000.0
            stats = stats_poisson_fixed(lam, MU_10G_1500B)
            w0 = w0_exact(stats)
            for tau in (16.0, 32.0, 64.0):
                v = optimal_timer(tau, lam, TW, w0, TS)
                if math.isnan(v):
                    continue
                assert toff_time_based(lam, v, TS) < toff_upper_bound(tau, params, stats)

    def test_dominates_optimal_threshold_sleep_at_low_load(self, params):
        # ... and strictly above the threshold controller's at low utilization
        for rate in (1, 2, 3):
            lam = rate * 1000.0 / 12000.0
            stats = stats_poisson_fixed(lam, MU_10G_1500B)
            w0 = w0_exact(stats)
            for tau in (16.0, 32.0, 64.0):
                q = optimal_threshold_approx(tau, lam, TW, w0)
                if math.isnan(q):
                    continue
                t_off = toff_size_based(lam, max(1, round(q)), TS)
                assert t_off < toff_upper_bound(tau, params, stats)

    def test_nearly_dominates_optimal_threshold_sleep_everywhere(self, params):
        # the bound is evaluated at the target tau, not at the delay the
        # approximate threshold actually gives, and threshold coalescing's
        # exact sleep crosses the closed form at high utilization even at
        # integer thresholds (qw = 12 at 8 Gb/s, see acceptance criterion
        # 6); across the grid the controller's sleep stays within 5% of it
        for rate in range(1, 9):
            lam = rate * 1000.0 / 12000.0
            stats = stats_poisson_fixed(lam, MU_10G_1500B)
            w0 = w0_exact(stats)
            for tau in (16.0, 32.0, 64.0):
                q = optimal_threshold_approx(tau, lam, TW, w0)
                if math.isnan(q):
                    continue
                t_off = toff_size_based(lam, max(1, round(q)), TS)
                assert t_off < toff_upper_bound(tau, params, stats) * 1.05

    def test_threshold_sleep_crosses_bound_at_high_load(self, params):
        # pin the crossover so the near-dominance statement above stays honest
        lam = 8.0 * 1000.0 / 12000.0
        stats = stats_poisson_fixed(lam, MU_10G_1500B)
        w0 = w0_exact(stats)
        q = round(optimal_threshold_approx(64.0, lam, TW, w0))
        t_off = toff_size_based(lam, q, TS)
        bound = toff_upper_bound(64.0, params, stats)
        assert t_off > bound
        assert t_off < bound * 1.02


# --------------------------------------------------------------------------
# bundles and purity
# --------------------------------------------------------------------------

class TestOutcomes:
    def test_time_based_bundle(self, params):
        stats = stats_poisson_fixed(LAM_5G, MU_10G_1500B)
        out = time_based_outcome(params, stats, 24.106)
        assert out.t_off_mean == pytest.approx(23.626, abs=1e-3)
        assert out.mean_delay == pytest.approx(16.0, abs=1e-3)
        assert out.energy_ratio == pytest.approx(0.6569, abs=5e-4)

    def test_size_based_bundle(self, params):
        stats = stats_poisson_fixed(LAM_5G, MU_10G_1500B)
        out = size_based_outcome(params, stats, 12)
        assert out.t_off_mean == pytest.approx(25.92, abs=1e-3)
        assert out.mean_delay == pytest.approx(15.905, abs=1e-3)

    def test_pure_functions_are_reproducible(self):
        args = (16.0, LAM_5G, TW, W0_5G)
        assert optimal_timer(*args) == optimal_timer(*args)
        assert optimal_threshold_cubic(*args) == optimal_threshold_cubic(*args)
        assert toff_size_based(0.3, 9, 2.88) == toff_size_based(0.3, 9, 2.88)
