import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eeecoal import (
    BimodalSize,
    EeeParams,
    FixedSize,
    Pareto,
    Poisson,
    PolicyConfig,
    Trace,
    TrafficSpec,
    cycle_view,
    delay_cdf,
    load_trace,
    run,
)
from eeecoal import analytic, simcore
from eeecoal.policy import MODE_DUAL, MODE_SUSPEND, MODE_THRESHOLD, MODE_TIMER, _plan_scalar
from eeecoal.simcore import SimReport, StateResidency
from eeecoal.traffic import sample_frames

from conftest import LAM_5G, MU_10G_1500B, W0_5G
import oracles


def poisson_1500(rate_gbps):
    return TrafficSpec(arrival=Poisson(rate_gbps * 1000.0 / 12000.0), sizes=FixedSize(1500))


POLICIES = [
    PolicyConfig.none(),
    PolicyConfig.static_timer(24.0),
    PolicyConfig.static_size(12),
    PolicyConfig.static_dual(24.0, 12),
    PolicyConfig.dynamic_timer(16.0),
    PolicyConfig.dynamic_size(16.0),
    PolicyConfig.dynamic_size(16.0, solver="cubic"),
]


class TestConservation:
    @pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.label())
    def test_state_residencies_sum_to_duration(self, params, policy):
        rep = run(poisson_1500(5), policy, params, n_frames=20000, seed=1)
        assert rep.residency.total == pytest.approx(rep.duration_us, rel=1e-9)
        assert rep.residency.active_serving == pytest.approx(20000 * 1.2, rel=1e-9)

    def test_all_frames_served_in_order(self, params):
        rep = run(poisson_1500(5), PolicyConfig.static_timer(24.0), params,
                  n_frames=20000, seed=2, warmup_cycles=0)
        assert len(rep.delays) == rep.n_frames == 20000
        assert np.all(rep.delays >= 0.0)

    def test_service_starts_nondecreasing(self, params):
        spec = poisson_1500(5)
        times, _ = sample_frames(spec, 20000, seed=3)
        rep = run(spec, PolicyConfig.static_size(12), params,
                  n_frames=20000, seed=3, warmup_cycles=0)
        starts = times + rep.delays
        assert np.all(np.diff(starts) >= -1e-9)

    def test_cycle_frames_partition_the_run(self, params):
        rep = run(poisson_1500(5), PolicyConfig.static_dual(24.0, 12), params,
                  n_frames=20000, seed=4)
        view = cycle_view(rep)
        assert view.frames_total.sum() == rep.n_frames
        assert np.all(view.t_off >= 0) and np.all(view.t_e >= 0)


class TestDeterminism:
    def test_same_seed_bit_identical(self, params):
        a = run(poisson_1500(5), PolicyConfig.dynamic_timer(16.0), params,
                n_frames=30000, seed=11)
        b = run(poisson_1500(5), PolicyConfig.dynamic_timer(16.0), params,
                n_frames=30000, seed=11)
        assert a.measured_phi == b.measured_phi
        assert a.mean_delay_us == b.mean_delay_us
        assert np.array_equal(a.delays, b.delays)

    def test_different_seed_differs(self, params):
        a = run(poisson_1500(5), PolicyConfig.static_timer(24.0), params,
                n_frames=30000, seed=11)
        b = run(poisson_1500(5), PolicyConfig.static_timer(24.0), params,
                n_frames=30000, seed=12)
        assert a.mean_delay_us != b.mean_delay_us


class TestAgainstClosedForms:
    def test_plain_queue_when_transitions_vanish(self):
        # wake-on-first-arrival with negligible transitions behaves like the
        # classic single-server queue with deterministic service
        lam, rho = LAM_5G, 0.5
        params = EeeParams(phi_off=0.1, ts=1e-9, tw=1e-9, line_rate=10e9)
        rep = run(poisson_1500(5), PolicyConfig.none(), params, n_frames=400000, seed=21)
        md1 = rho * rho / (2.0 * lam * (1.0 - rho))
        assert rep.mean_delay_us == pytest.approx(md1, rel=0.03)

    def test_deterministic_arrivals_queue_empty(self, params, tmp_path):
        # evenly spaced arrivals at half load never queue: delay collapses to
        # the (negligible) wake transition
        n = 5000
        trace = tmp_path / "ddet.csv"
        lines = "".join(f"{2.4 * i:.6f},1500\n" for i in range(n))
        trace.write_text(lines)
        tiny = EeeParams(phi_off=0.1, ts=1e-9, tw=1e-9, line_rate=10e9)
        rep = run(TrafficSpec(trace=load_trace(trace)), PolicyConfig.none(), tiny, seed=0)
        assert rep.mean_delay_us == pytest.approx(0.0, abs=1e-6)

    def test_wake_on_first_arrival_energy_at_low_load(self, params):
        # nearly idle line: sleep ~ (1/lam - ts) per cycle
        lam = 0.01
        spec = TrafficSpec(arrival=Poisson(lam), sizes=FixedSize(1500))
        rep = run(spec, PolicyConfig.none(), params, n_frames=200000, seed=22)
        rho = lam / MU_10G_1500B
        predicted = analytic.energy_ratio(params, rho, 1.0 / lam - params.ts)
        assert rep.measured_phi == pytest.approx(predicted, rel=0.02)

    def test_static_timer_matches_models(self, params):
        rep = run(poisson_1500(5), PolicyConfig.static_timer(24.0), params,
                  n_frames=200000, seed=23)
        assert rep.mean_delay_us == pytest.approx(
            analytic.delay_time_based(LAM_5G, 24.0, params.tw, W0_5G), rel=0.03)
        assert rep.mean_toff_us == pytest.approx(
            analytic.toff_time_based(LAM_5G, 24.0, params.ts), rel=0.02)
        phi = analytic.energy_ratio(params, 0.5, analytic.toff_time_based(LAM_5G, 24.0, params.ts))
        assert rep.measured_phi == pytest.approx(phi, rel=0.02)

    def test_static_size_matches_models(self, params):
        rep = run(poisson_1500(5), PolicyConfig.static_size(12), params,
                  n_frames=200000, seed=24)
        assert rep.mean_delay_us == pytest.approx(
            analytic.delay_size_based(LAM_5G, 12.0, params.tw, W0_5G), rel=0.03)
        assert rep.mean_toff_us == pytest.approx(
            analytic.toff_size_based(LAM_5G, 12, params.ts), rel=0.02)


class TestCycleSemantics:
    def test_timer_cycles_sleep_empty_period_plus_surplus(self, params):
        # LPI residency is exactly t_e + V - ts: the countdown runs from the
        # first arrival even when that lands inside the sleep transition
        rep = run(poisson_1500(5), PolicyConfig.static_timer(24.0), params,
                  n_frames=50000, seed=31)
        view = cycle_view(rep)
        np.testing.assert_allclose(view.t_off, view.t_e + 24.0 - params.ts, rtol=0, atol=1e-9)
        np.testing.assert_allclose(view.w_f, 24.0 + params.tw, rtol=0, atol=1e-9)

    def test_threshold_cycle_first_frame_waits_for_peers(self, params):
        rep = run(poisson_1500(5), PolicyConfig.static_size(12), params,
                  n_frames=50000, seed=32)
        view = cycle_view(rep)
        # first frame of each cycle waits for the remaining 11 plus the wake
        assert view.w_f.mean() == pytest.approx(11.0 / LAM_5G + params.tw, rel=0.03)
        # the sleep transition defers any early threshold hit
        assert np.all(view.t_off >= 0.0)

    @pytest.mark.parametrize("times", [[10.0, 20.0, 30.0], [0.0, 0.5, 1.0]],
                             ids=["last-arrival-after-sleep", "last-arrival-during-sleep"])
    def test_unfilled_threshold_wakes_at_the_final_arrival(self, params, times):
        # a threshold the stream never fills wakes at the final arrival, or at
        # the end of the sleep transition if that is later; a dual's timer
        # wakes it instead.  The one cycle starts at 0 us.
        times = np.array(times)
        spec = TrafficSpec(trace=Trace(times, np.full(3, 1500.0)))
        svc = 1500 * 8 / params.rate_bits_per_us
        for policy, wake in [(PolicyConfig.static_size(12), max(times[-1], params.ts)),
                             (PolicyConfig.static_dual(500.0, 12), times[0] + 500.0)]:
            rep = run(spec, policy, params, warmup_cycles=0)
            assert rep.cycles.wake.tolist() == [wake]
            # the kernel adds the service times one by one: allow rounding
            np.testing.assert_allclose(rep.delays, wake + params.tw + svc * np.arange(3) - times,
                                       rtol=1e-12)

    def test_planned_values_recorded(self, params):
        rep = run(poisson_1500(5), PolicyConfig.static_dual(24.0, 12), params,
                  n_frames=20000, seed=33)
        cyc = rep.cycles
        assert np.all(cyc.mode == MODE_DUAL)
        assert np.all(cyc.v == 24.0) and np.all(cyc.qw == 12)

    @pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.label())
    def test_static_run_stores_only_the_columns_it_varies(self, params, policy):
        # mode, v, qw and the estimate of a static run are read-only
        # zero-stride views of its plan and of nan; every column of an
        # adaptive run is written row by row.  The dtypes are the same.
        cyc = run(poisson_1500(1), policy, params, n_frames=2000, seed=1).cycles
        assert [col.dtype for col in cyc] == [np.float64, np.int32, np.int8] + [np.float64] * 5
        constant = () if policy.is_dynamic else ("mode", "v", "qw", "lam_hat", "mu_hat")
        for name, col in cyc._asdict().items():
            assert col.flags.writeable == (name not in constant), name
            assert (col.strides == (0,)) == (name in constant), name
        if not policy.is_dynamic:
            plan = _plan_scalar(policy.kind, float(policy.v), float(policy.qw), policy.tau,
                                False, 0.0, 0.0, False, params.ts, params.tw)
            assert [cyc.mode[0], cyc.v[0], cyc.qw[0]] == list(plan)
            assert np.isnan(cyc.lam_hat).all() and np.isnan(cyc.mu_hat).all()
            with pytest.raises(ValueError, match="read-only"):
                cyc.mode[0] = MODE_SUSPEND

    def test_kernel_plans_match_policy_api(self, params):
        # re-derive every recorded adaptive plan from the recorded estimate
        cfg = PolicyConfig.dynamic_timer(16.0)
        rep = run(poisson_1500(5), cfg, params, n_frames=50000, seed=34)
        cyc = rep.cycles
        rows = np.flatnonzero(~np.isnan(cyc.lam_hat))
        assert len(rows) > 100
        modes, vs, _ = map(np.array, zip(*(
            _plan_scalar(cfg.kind, 0.0, 0.0, cfg.tau, False, lam, mu, True, params.ts, params.tw)
            for lam, mu in zip(cyc.lam_hat[rows].tolist(), cyc.mu_hat[rows].tolist()))))
        assert np.array_equal(modes, cyc.mode[rows])
        timer = modes == MODE_TIMER
        np.testing.assert_allclose(vs[timer], cyc.v[rows][timer], rtol=1e-9)

    def test_planner_receives_python_floats(self, params, monkeypatch):
        # numpy scalars leaking from the arrival arrays into the estimate
        # would make every per-cycle solve several times slower
        seen = set()
        plan = simcore._plan_scalar

        def spy(kind, v, qw, tau, use_cubic, lam_hat, mu_hat, valid, ts, tw):
            if valid:
                seen.update((type(lam_hat), type(mu_hat)))
            return plan(kind, v, qw, tau, use_cubic, lam_hat, mu_hat, valid, ts, tw)

        monkeypatch.setattr(simcore, "_plan_scalar", spy)
        run(poisson_1500(5), PolicyConfig.dynamic_size(16.0, solver="cubic"), params,
            n_frames=2000, seed=1)
        assert seen == {float}

    def test_adaptive_timer_settles(self, params):
        rep = run(poisson_1500(5), PolicyConfig.dynamic_timer(16.0), params,
                  n_frames=200000, seed=35)
        cyc = rep.cycles
        vs = cyc.v[100:][cyc.mode[100:] == MODE_TIMER]
        assert vs.std() < 0.10 * vs.mean()

    def test_dual_policy_tracks_the_faster_mechanism(self, params):
        # low rate: the timer fires first; high rate: the threshold does
        lo_d = run(poisson_1500(1), PolicyConfig.static_dual(24.0, 12), params,
                   n_frames=150000, seed=36)
        lo_t = run(poisson_1500(1), PolicyConfig.static_timer(24.0), params,
                   n_frames=150000, seed=36)
        assert lo_d.mean_delay_us == pytest.approx(lo_t.mean_delay_us, rel=0.05)
        hi_d = run(poisson_1500(9), PolicyConfig.static_dual(24.0, 12), params,
                   n_frames=150000, seed=37)
        hi_s = run(poisson_1500(9), PolicyConfig.static_size(12), params,
                   n_frames=150000, seed=37)
        assert hi_d.mean_delay_us == pytest.approx(hi_s.mean_delay_us, rel=0.05)
        assert hi_d.mean_toff_us <= hi_s.mean_toff_us + 1e-9

    def test_infeasible_target_suspends_sleeping(self, params):
        # the baseline delay alone exceeds this target at half load
        rep = run(poisson_1500(5), PolicyConfig.dynamic_timer(0.5), params,
                  n_frames=30000, seed=38)
        assert rep.suspend_fraction == 1.0
        assert rep.measured_phi == 1.0
        assert rep.mean_toff_us == 0.0

    @pytest.mark.parametrize("before_zero", [False, True], ids=["poisson", "trace-before-zero"])
    def test_suspended_cycles_see_no_frame_asleep(self, params, tmp_path, before_zero):
        # a suspended cycle never sleeps, and its first frame starts at the
        # later of its arrival and the cycle start.  The wake instant of a
        # suspended cycle is its start, which frames of a trace can precede
        # in cycle 0, so only the mode tells that none arrived asleep.
        if before_zero:
            rep = run(_trace_before_zero(tmp_path), PolicyConfig.dynamic_timer(0.5), params)
        else:
            rep = run(poisson_1500(5), PolicyConfig.dynamic_timer(0.5), params,
                      n_frames=5000, seed=40)
        cyc, view = rep.cycles, cycle_view(rep)
        assert np.all(cyc.mode == MODE_SUSPEND)
        assert np.all(view.frames_while_asleep == 0)
        t_first = rep.arrivals[cyc.first]
        assert _bits(view.w_f) == _bits(np.maximum(cyc.start, t_first) - t_first)
        assert (view.w_f[0] > 0.0) == before_zero

    def test_suspension_lasts_one_cycle(self, params):
        # a suspended plan is revisited at the next buffer-empty instant;
        # with a feasible target the very next plans go back to sleeping
        rep = run(poisson_1500(5), PolicyConfig.dynamic_timer(16.0), params,
                  n_frames=30000, seed=39)
        modes = rep.cycles.mode
        assert np.all(np.flatnonzero(modes == MODE_SUSPEND) < 10)  # cold start only
        assert modes[-1] == MODE_TIMER


class TestReportShape:
    def test_phi_within_physical_range(self, params):
        for policy in POLICIES:
            rep = run(poisson_1500(4), policy, params, n_frames=20000, seed=41)
            assert params.phi_off <= rep.measured_phi <= 1.0

    def test_warmup_fallback_for_short_runs(self, params):
        rep = run(poisson_1500(5), PolicyConfig.static_timer(24.0), params,
                  n_frames=50, seed=42)
        assert not rep.warmed_up
        assert math.isfinite(rep.measured_phi)
        assert len(rep.delays) == 50

    def test_overload_flag(self, params):
        spec = TrafficSpec(arrival=Poisson(1.0), sizes=FixedSize(1500))  # 12 Gb/s offered
        rep = run(spec, PolicyConfig.static_timer(24.0), params, n_frames=30000, seed=43)
        assert rep.overload
        assert math.isfinite(rep.mean_delay_us)
        assert not run(poisson_1500(5), PolicyConfig.none(), params,
                       n_frames=1000, seed=43).overload

    def test_horizon_validation(self, params):
        with pytest.raises(ValueError):
            run(poisson_1500(5), PolicyConfig.none(), params, seed=1)
        with pytest.raises(ValueError):
            run(poisson_1500(5), PolicyConfig.none(), params, n_frames=0, seed=1)
        with pytest.raises(ValueError):
            run(poisson_1500(5), PolicyConfig.none(), params,
                n_frames=10, time_us=10.0, seed=1)

    def test_time_horizon(self, params):
        rep = run(poisson_1500(5), PolicyConfig.static_timer(24.0), params,
                  time_us=50000.0, seed=44)
        assert rep.n_frames > 0
        assert rep.duration_us >= 0

    def test_time_horizon_keeps_only_the_frames_it_serves(self, params):
        # generated arrivals are drawn past the horizon in chunks; the report
        # holds an array of the kept frames alone, not a view of every draw
        rep = run(poisson_1500(5), PolicyConfig.none(), params, time_us=240_000.0, seed=1)
        assert rep.arrivals.base is None
        assert rep.arrivals.size == rep.n_frames > 99_000
        assert rep.arrivals[-1] <= 240_000.0

    def test_trace_replay_default_horizon(self, params, tmp_path):
        trace = tmp_path / "t.csv"
        trace.write_text("".join(f"{2.4 * i:.4f},1500\n" for i in range(500)))
        rep = run(TrafficSpec(trace=load_trace(trace)), PolicyConfig.none(), params, seed=0)
        assert rep.n_frames == 500

    @pytest.mark.parametrize("horizon", [{}, {"n_frames": 400}, {"time_us": 900.0}],
                             ids=["whole", "frames", "time"])
    def test_trace_run_replays_the_trace_times_uncopied(self, params, tmp_path, horizon):
        spec = _duplicate_time_trace(tmp_path / "dup.csv")
        for policy in (PolicyConfig.static_size(12), PolicyConfig.dynamic_timer(16.0)):
            rep = run(spec, policy, params, seed=0, **horizon)
            assert np.shares_memory(rep.arrivals, spec.trace.times)
            with pytest.raises(ValueError, match="read-only"):
                rep.arrivals[0] = -1.0

    def test_static_run_working_set(self, params):
        # none at 1 Gb/s opens a cycle for about two frames in three, and its
        # report keeps the arrivals, the delays and a table with n rows: 16
        # bytes a frame and 20 a row for start, first and wake.  At its peak
        # the run holds no more than these (the kernel writes the delays over
        # the service times) and the aggregates' per-cycle temporaries
        n = 200_000
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            rep = run(poisson_1500(1), PolicyConfig.none(), params, n_frames=n, seed=1)
            retained, peak = (m - before for m in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        assert rep.n_cycles > n // 2
        assert retained / n <= 40.0
        assert peak / n <= 44.0


class TestDelayCdf:
    def _report_with_delays(self, delays):
        return SimReport(
            measured_phi=0.5, mean_delay_us=float(np.mean(delays)) if len(delays) else math.nan,
            mean_toff_us=0.0, mean_planned_v_us=math.nan, mean_planned_qw=math.nan,
            suspend_fraction=0.0, n_cycles=1, n_frames=len(delays), seed=0,
            warmed_up=True, overload=False, duration_us=1.0,
            residency=StateResidency(0, 0, 0, 1, 0),
            delays=np.asarray(delays, dtype=float),
        )

    def test_constant_delays_step_function(self):
        edges, cdf = delay_cdf(self._report_with_delays([7.3] * 10), 1.0)
        assert edges[-1] >= 7.3
        assert cdf[-1] == 1.0
        assert all(c == 0.0 for e, c in zip(edges, cdf) if e < 7.3)
        assert all(c == 1.0 for e, c in zip(edges, cdf) if e >= 7.3)

    def test_monotone_and_complete(self, params):
        rep = run(poisson_1500(5), PolicyConfig.static_timer(24.0), params,
                  n_frames=30000, seed=51)
        edges, cdf = delay_cdf(rep, 2.0)
        assert np.all(np.diff(cdf) >= 0)
        assert cdf[-1] == 1.0
        assert np.all(np.diff(edges) == pytest.approx(2.0))

    def test_empty_and_bad_inputs(self):
        with pytest.raises(ValueError):
            delay_cdf(self._report_with_delays([]), 1.0)
        with pytest.raises(ValueError):
            delay_cdf(self._report_with_delays([1.0]), 0.0)

    def test_all_zero_delays(self):
        edges, cdf = delay_cdf(self._report_with_delays([0.0, 0.0]), 1.0)
        assert list(edges) == [0.0]
        assert list(cdf) == [1.0]


# The residencies are summed in another order than the summary kernel's
# running totals (ts and tw as count times duration).  A sum of k float64
# terms moves by at most about k * 2**-53 relative: under 1e-9 up to 10**7
# cycles, and these runs have fewer than 10**4.
RESIDENCY_RTOL = 1e-9

# the report fields that reach a CSV row, held bit for bit
CSV_FIELDS = ("measured_phi", "mean_delay_us", "mean_toff_us", "mean_planned_v_us",
              "mean_planned_qw", "suspend_fraction")

# column of the cycle table or of cycle_view -> record matrix column of the summary kernel
RECORD_COLUMNS = {
    "start": oracles._C_START, "first": oracles._C_FIRSTIDX, "mode": oracles._C_MODE,
    "v": oracles._C_V, "qw": oracles._C_QW,
    "lam_hat": oracles._C_LAMHAT, "mu_hat": oracles._C_MUHAT,
    "t_e": oracles._C_TE, "w_f": oracles._C_WF, "t_off": oracles._C_TOFF,
    "frames_while_asleep": oracles._C_NSLEEP, "frames_total": oracles._C_NFRAMES,
    "cycle_duration": oracles._C_DUR,
}


def _bits(values):
    return np.asarray(values, dtype=np.float64).tobytes()


def _duplicate_time_trace(path):
    """Bursty trace in which many frames share a timestamp (groups of 1 to 3)."""
    rng = np.random.default_rng(17)
    times = np.repeat(np.cumsum(rng.exponential(5.0, 1200)), rng.integers(1, 4, 1200))
    sizes = np.where(rng.random(len(times)) < 0.5, 100, 1500)
    path.write_text("".join(f"{t:.4f},{s}\n" for t, s in zip(times, sizes)))
    return TrafficSpec(trace=load_trace(path))


TRAFFIC = {
    "poisson-fixed": lambda tmp: poisson_1500(5),
    "pareto-bimodal": lambda tmp: TrafficSpec(arrival=Pareto(alpha=2.5, lam=0.75),
                                              sizes=BimodalSize(0.54, 100, 1500)),
    "trace-duplicates": lambda tmp: _duplicate_time_trace(tmp / "dup.csv"),
}


def assert_matches_summary_kernel(rep, old, policy):
    """``rep``, a ``run`` of ``policy``, agrees with ``oracles.run_summary(record_cycles=True)``.

    The one exception: a static plan reads no estimate, so its rows hold nan
    where the oracle kept the estimate it did not use.
    """
    assert rep.n_cycles == old["n_cycles"]
    for name in ("n_frames", "warmed_up", "overload", "duration_us"):
        assert getattr(rep, name) == old[name], name
    for name in CSV_FIELDS:
        assert _bits(getattr(rep, name)) == _bits(old[name]), name
    assert _bits(rep.delays) == _bits(old["delays"])
    for name in ("going_to_sleep", "lpi", "waking", "active_serving", "active_idle"):
        assert getattr(rep.residency, name) == pytest.approx(
            getattr(old["residency"], name), rel=RESIDENCY_RTOL), name
    columns = rep.cycles._asdict() | cycle_view(rep)._asdict()
    cyc = old["cycles"]
    for name, col in RECORD_COLUMNS.items():
        values = columns[name]
        assert len(values) == len(cyc), name
        if name in ("lam_hat", "mu_hat") and not policy.is_dynamic:
            assert np.isnan(values).all(), name
        else:
            assert _bits(values) == _bits(cyc[:, col]), name


class TestAgainstSummaryKernel:
    """The cycle table reproduces the kernel that kept in-kernel aggregates."""

    @pytest.mark.parametrize("warmup", [0, 100, 10**6])
    @pytest.mark.parametrize("traffic", list(TRAFFIC))
    @pytest.mark.parametrize("policy", POLICIES + [PolicyConfig.dynamic_timer(0.5)],
                             ids=lambda p: f"{p.label()}-{p.tau:g}")
    def test_same_report_and_records(self, params, tmp_path, policy, traffic, warmup):
        spec = TRAFFIC[traffic](tmp_path)
        horizon = {} if spec.is_trace else {"n_frames": 6000}
        rep = run(spec, policy, params, seed=5, warmup_cycles=warmup, **horizon)
        old = oracles.run_summary(spec, policy, params, seed=5, warmup_cycles=warmup,
                          record_cycles=True, **horizon)
        assert_matches_summary_kernel(rep, old, policy)
        assert rep.warmed_up == (warmup < rep.n_cycles)
        if warmup == 100:
            assert rep.warmed_up

    @pytest.mark.parametrize("offset", [-1, 0])
    def test_warmup_at_the_cycle_count(self, params, offset):
        # warm-up ends only if a cycle follows it: one cycle left, or none
        policy = PolicyConfig.dynamic_size(16.0)
        n_cycles = run(poisson_1500(5), policy, params, n_frames=2000, seed=6).n_cycles
        rep = run(poisson_1500(5), policy, params, n_frames=2000, seed=6,
                  warmup_cycles=n_cycles + offset)
        old = oracles.run_summary(poisson_1500(5), policy, params, n_frames=2000, seed=6,
                          warmup_cycles=n_cycles + offset, record_cycles=True)
        assert_matches_summary_kernel(rep, old, policy)
        assert rep.warmed_up == (offset < 0)

    @pytest.mark.parametrize("policy", [PolicyConfig.static_size(40),
                                        PolicyConfig.static_dual(500.0, 40)],
                             ids=lambda p: p.label())
    def test_threshold_unfilled_at_end_of_stream(self, params, policy):
        rep = run(poisson_1500(5), policy, params, n_frames=1000, seed=8)
        old = oracles.run_summary(poisson_1500(5), policy, params, n_frames=1000, seed=8,
                          record_cycles=True)
        assert_matches_summary_kernel(rep, old, policy)
        # the last cycle began with fewer frames left than the threshold
        assert cycle_view(rep).frames_total[-1] < 40


# the kernels the current one replaced: one loop that takes the ``max`` for
# every frame, then two loops that drain each busy period by index
ORACLE_KERNELS = (oracles.sim_kernel_table, oracles.sim_kernel_two_loops)


def _own_svc(args):
    """The kernel arguments with a copy of ``svc``, which ``_sim_kernel`` writes the delays over."""
    arr, svc, *rest = args
    return (arr, svc.copy(), *rest)


def _kernel_and_oracles(monkeypatch, spec, policy, params, **horizon):
    """The output of ``_sim_kernel`` on the inputs ``run`` made, and each oracle kernel's."""
    calls = []
    kernel = simcore._sim_kernel

    def spy(*args):
        calls.append(_own_svc(args))
        return kernel(*args)

    monkeypatch.setattr(simcore, "_sim_kernel", spy)
    run(spec, policy, params, seed=5, **horizon)
    (args,) = calls
    return kernel(*_own_svc(args)), [oracle(*_own_svc(args)) for oracle in ORACLE_KERNELS]


def assert_same_kernel_output(new, olds, policy):
    """Zero tolerance against each oracle: the same cycle count, and every
    delay, column and the end bit for bit.

    The one exception: the static loop keeps no estimate, so the estimate
    columns of a static plan are nan in every row.
    """
    delays, table, end = new
    for old_delays, old_table, old_end in olds:
        assert len(table.start) == len(old_table.start)
        assert _bits(delays) == _bits(old_delays)
        for name in simcore.CycleTable._fields:
            col, old_col = getattr(table, name), getattr(old_table, name)
            assert col.dtype == old_col.dtype, name
            if name in ("lam_hat", "mu_hat") and not policy.is_dynamic:
                assert np.isnan(col).all(), name
            else:
                assert col.tobytes() == old_col.tobytes(), name
        assert _bits(end) == _bits(old_end)


def _poisson_trace(rng, start, n):
    """``n`` arrivals at 5 Gb/s of 1500-byte frames from ``start`` us on."""
    return start + np.cumsum(rng.exponential(2.4, n))


def _trace_before_zero(tmp):
    # the first frames arrive before the instant 0 that opens cycle 0
    times = _poisson_trace(np.random.default_rng(21), -30.0, 3000)
    assert np.sum(times < 0.0) > 3
    return TrafficSpec(trace=Trace(times, np.full(len(times), 1500.0)))


def _burst_then_poisson(tmp):
    # 40 frames at one instant, then Poisson arrivals from there on
    times = np.concatenate([np.full(40, 50.0), _poisson_trace(np.random.default_rng(22), 50.0, 3000)])
    return TrafficSpec(trace=Trace(times, np.full(len(times), 1500.0)))


class TestAgainstCycleTableKernel:
    """The flat pass reproduces both kernels it replaced: the one loop that took
    the ``max`` for every frame and planned and estimated every cycle of every
    kind, and the two loops that drained each busy period by index."""

    KERNEL_TRAFFIC = TRAFFIC | {
        "poisson-9g": lambda tmp: poisson_1500(9),
        "trace-before-zero": _trace_before_zero,
        "trace-one-frame": lambda tmp: TrafficSpec(trace=Trace(np.array([7.0]), np.array([1500.0]))),
        "burst-then-poisson": _burst_then_poisson,
    }

    @pytest.mark.parametrize("traffic", list(KERNEL_TRAFFIC))
    @pytest.mark.parametrize("policy", POLICIES + [PolicyConfig.dynamic_timer(0.5)],
                             ids=lambda p: f"{p.label()}-{p.tau:g}")
    def test_same_delays_and_cycle_table(self, params, tmp_path, monkeypatch, policy, traffic):
        spec = self.KERNEL_TRAFFIC[traffic](tmp_path)
        horizon = {} if spec.is_trace else {"n_frames": 6000}
        new, olds = _kernel_and_oracles(monkeypatch, spec, policy, params, **horizon)
        assert_same_kernel_output(new, olds, policy)
        if policy.tau == 0.5:
            assert np.all(new[1].mode == 0)      # every cycle suspended

    @pytest.mark.parametrize("policy", [PolicyConfig.static_size(40),
                                        PolicyConfig.static_dual(500.0, 40)],
                             ids=lambda p: p.label())
    def test_threshold_unfilled_at_end_of_stream(self, params, monkeypatch, policy):
        new, olds = _kernel_and_oracles(monkeypatch, poisson_1500(5), policy, params, n_frames=1000)
        assert_same_kernel_output(new, olds, policy)
        # the last cycle began with fewer frames left than the threshold
        assert 1000 - new[1].first[-1] < 40

    @pytest.mark.parametrize("traffic", ["poisson-fixed", "trace-duplicates"])
    @pytest.mark.parametrize("policy", [PolicyConfig.static_timer(24.0),
                                        PolicyConfig.dynamic_size(16.0, solver="cubic")],
                             ids=lambda p: p.label())
    def test_time_horizon(self, params, tmp_path, monkeypatch, policy, traffic):
        spec = TRAFFIC[traffic](tmp_path)
        new, olds = _kernel_and_oracles(monkeypatch, spec, policy, params, time_us=3000.0)
        assert_same_kernel_output(new, olds, policy)
        # the horizon cut the stream: about 1,250 generated frames, half the trace's
        assert 0 < len(new[0]) < 2000

    @pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.label())
    def test_arrival_at_the_departure_instant(self, tmp_path, monkeypatch, policy):
        # 1250-byte frames take 1 us at 10 Gb/s; with whole-us arrivals and
        # transitions, frames arrive exactly when the buffer empties
        trace = tmp_path / "ties.csv"
        trace.write_text("".join(f"{2 * k + (k // 7) % 3},1250\n" for k in range(3000)))
        spec = TrafficSpec(trace=load_trace(trace))
        new, olds = _kernel_and_oracles(monkeypatch, spec, policy, EeeParams(ts=2.0, tw=4.0))
        assert_same_kernel_output(new, olds, policy)
        if policy.label() != "dynamic_timer":    # a solved timer is no whole number of us
            cycles = new[1]
            times = np.loadtxt(trace, delimiter=",")[:, 0]
            assert np.any(cycles.start[1:] == times[cycles.first[1:]])

    @pytest.mark.parametrize("policy", [PolicyConfig.static_size(12), PolicyConfig.dynamic_size(16.0)],
                             ids=lambda p: p.label())
    def test_delays_are_written_over_the_service_times(self, params, policy):
        times, sizes = sample_frames(poisson_1500(5), 2000, 3)
        svc = sizes * 8.0 / params.rate_bits_per_us
        arr = times.copy()
        delays, _, _ = simcore._sim_kernel(
            arr, svc, policy.kind, float(policy.v), float(policy.qw), float(policy.tau),
            policy.solver == "cubic", params.ts, params.tw)
        assert np.shares_memory(delays, svc)
        assert arr.tobytes() == times.tobytes()

    def test_static_kinds_plan_once_per_run(self, params, monkeypatch):
        # a static run plans once and keeps no estimate; an adaptive one
        # plans and updates its estimate once per cycle
        plans, updates = [], []
        plan, update = simcore._plan_scalar, simcore._estimate_update

        def counting_plan(*args):
            plans.append(args[0])
            return plan(*args)

        def counting_update(*args):
            updates.append(args)
            return update(*args)

        monkeypatch.setattr(simcore, "_plan_scalar", counting_plan)
        monkeypatch.setattr(simcore, "_estimate_update", counting_update)
        for policy in POLICIES:
            plans.clear()
            updates.clear()
            rep = run(poisson_1500(5), policy, params, n_frames=2000, seed=1)
            assert rep.n_cycles > 1
            if policy.is_dynamic:
                assert plans == [policy.kind] * rep.n_cycles
                assert len(updates) == rep.n_cycles
            else:
                assert plans == [policy.kind]
                assert updates == []


def wake_by_rule(rep):
    """Every cycle's wake instant, recomputed from the table's plans, the arrivals and ts.

    A sleeping cycle wakes at min(a + V, max(A_q, start + ts)), with a its
    first arrival and A_q the arrival that fills its threshold; the mechanism
    a plan lacks is infinite.  Past the stream's end A_q is the final arrival
    for a threshold and inf for a dual.  A suspended cycle wakes at its start.
    """
    cyc, arr = rep.cycles, rep.arrivals
    mode = cyc.mode
    has_timer = (mode == MODE_TIMER) | (mode == MODE_DUAL)
    has_threshold = (mode == MODE_THRESHOLD) | (mode == MODE_DUAL)
    first = cyc.first.astype(np.int64)
    qi = first + cyc.qw.astype(np.int64) - 1
    filled = has_threshold & (qi < len(arr))
    tail = np.where(mode == MODE_THRESHOLD, arr[-1], np.inf)
    a_q = np.where(filled, arr[np.clip(qi, 0, len(arr) - 1)], tail)
    timer = np.where(has_timer, arr[first] + cyc.v, np.inf)
    threshold = np.where(has_threshold, np.maximum(a_q, cyc.start + rep.params.ts), np.inf)
    return np.where(mode == MODE_SUSPEND, cyc.start, np.minimum(timer, threshold))


class TestWakeRule:
    """One expression gives every cycle's wake instant, written apart from the kernel's loops."""

    @pytest.mark.parametrize("traffic", list(TestAgainstCycleTableKernel.KERNEL_TRAFFIC))
    @pytest.mark.parametrize("policy", POLICIES + [PolicyConfig.dynamic_timer(0.5),
                                                   PolicyConfig.static_size(40),
                                                   PolicyConfig.static_dual(500.0, 40)],
                             ids=lambda p: f"{p.label()}-{p.tau:g}")
    def test_every_wake_follows_the_rule(self, params, tmp_path, policy, traffic):
        spec = TestAgainstCycleTableKernel.KERNEL_TRAFFIC[traffic](tmp_path)
        horizon = {} if spec.is_trace else {"n_frames": 6000}
        rep = run(spec, policy, params, seed=5, **horizon)
        assert _bits(rep.cycles.wake) == _bits(wake_by_rule(rep))


# (gap to the previous arrival, size) per frame: arrivals in whole us, with
# ties; 100, 1250 and 2500 bytes take 0.08, 1 and 2 us at 10 Gb/s, so frames
# also arrive exactly as the buffer empties
SHORT_TRACES = st.lists(st.tuples(st.integers(0, 6), st.sampled_from([100, 1250, 2500])),
                        min_size=1, max_size=80)


class TestKernelFuzz:
    """The kernel agrees with both oracle kernels on short hand-built traces."""

    @given(frames=SHORT_TRACES)
    @example(frames=[(3, 1250)] + [(0, 1250)] * 29)     # one instant: the estimate never seeds
    @settings(max_examples=150, deadline=None)
    def test_short_traces(self, frames):
        params = EeeParams(ts=2.0, tw=4.0)
        gaps, sizes = zip(*frames)
        arr = np.cumsum(np.array(gaps, dtype=np.float64))
        svc = np.array(sizes, dtype=np.float64) * 8.0 / params.rate_bits_per_us
        for policy in POLICIES + [PolicyConfig.dynamic_timer(0.5)]:
            args = (arr, svc, policy.kind, float(policy.v), float(policy.qw), float(policy.tau),
                    policy.solver == "cubic", params.ts, params.tw)
            new = simcore._sim_kernel(*_own_svc(args))
            assert_same_kernel_output(new, [oracle(*_own_svc(args)) for oracle in ORACLE_KERNELS],
                                      policy)
