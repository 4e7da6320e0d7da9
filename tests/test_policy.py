import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eeecoal import PolicyConfig
from eeecoal.policy import DEFAULT_EWMA_WEIGHT, MODE_NAMES, _estimate_update, _plan_scalar

import oracles

# planner inputs (lambda_hat, mu_hat) as the simulator kernel passes them; an
# unset estimate has nan rates
EST_5G = (0.4166667, 0.8333333)
INVALID = (math.nan, math.nan)

# estimator state (frames_s, duration_s, service_s); an unset one has nan totals
STATE_5G = (1.0, 1.0 / 0.4166667, 1.0 / 0.8333333)
NO_STATE = (math.nan, math.nan, math.nan)


def plan(config, est, params):
    """Plan one cycle as the simulator kernel does; returns (mode name, V, Q_w)."""
    mode, v, qw = _plan_scalar(config.kind, float(config.v), float(config.qw),
                               float(config.tau), config.solver == "cubic", *est,
                               params.ts, params.tw)
    return MODE_NAMES[mode], v, qw


def update(state, frames, duration, bytes_total, params, weight=DEFAULT_EWMA_WEIGHT):
    """Fold one finished cycle into the estimator state, as the kernel does."""
    return _estimate_update(*state, float(frames), duration,
                            bytes_total * 8.0 / params.rate_bits_per_us, weight)


def rates(state):
    frames_s, duration_s, service_s = state
    return frames_s / duration_s, frames_s / service_s


class TestPlanCycle:
    def test_static_variants_ignore_estimate(self, params):
        for est in (EST_5G, INVALID):
            mode, v, _ = plan(PolicyConfig.static_timer(24.0), est, params)
            assert (mode, v) == ("timer", 24.0)
            mode, _, qw = plan(PolicyConfig.static_size(12), est, params)
            assert (mode, qw) == ("threshold", 12)
            assert plan(PolicyConfig.static_dual(24.0, 12), est, params) == ("dual", 24.0, 12)

    def test_none_wakes_on_first_arrival(self, params):
        mode, _, qw = plan(PolicyConfig.none(), INVALID, params)
        assert (mode, qw) == ("threshold", 1)

    def test_dynamic_timer_reference_point(self, params):
        mode, v, _ = plan(PolicyConfig.dynamic_timer(16.0), EST_5G, params)
        assert mode == "timer"
        assert v == pytest.approx(24.1, abs=0.05)
        assert v > params.ts

    def test_dynamic_size_reference_point(self, params):
        mode, _, qw = plan(PolicyConfig.dynamic_size(64.0), EST_5G, params)
        assert (mode, qw) == ("threshold", 52)
        mode, _, qw = plan(PolicyConfig.dynamic_size(64.0, solver="cubic"), EST_5G, params)
        assert (mode, qw) == ("threshold", 52)

    def test_dynamic_suspends_under_overload(self, params):
        # estimated utilization 0.97: the baseline delay alone exceeds 16 us
        est = (0.8083, 0.8083 / 0.97)
        assert plan(PolicyConfig.dynamic_timer(16.0), est, params)[0] == "suspend"
        assert plan(PolicyConfig.dynamic_size(16.0), est, params)[0] == "suspend"

    def test_dynamic_suspends_without_estimate(self, params):
        assert plan(PolicyConfig.dynamic_timer(16.0), INVALID, params)[0] == "suspend"
        assert plan(PolicyConfig.dynamic_size(16.0), INVALID, params)[0] == "suspend"

    def test_threshold_is_integer_at_least_one(self, params):
        # a tight but feasible target rounds down to the minimum threshold
        mode, _, qw = plan(PolicyConfig.dynamic_size(22.0), (0.05, 0.8333333), params)
        assert mode == "threshold"
        assert qw == int(qw)
        assert qw >= 1

    def test_monotone_in_target(self, params):
        vs, qs = [], []
        for tau in (16.0, 32.0, 64.0, 128.0):
            vs.append(plan(PolicyConfig.dynamic_timer(tau), EST_5G, params)[1])
            qs.append(plan(PolicyConfig.dynamic_size(tau), EST_5G, params)[2])
        assert vs == sorted(vs) and len(set(vs)) == len(vs)
        assert qs == sorted(qs) and len(set(qs)) == len(qs)

    def test_plan_is_pure(self, params):
        cfg = PolicyConfig.dynamic_timer(32.0)
        assert plan(cfg, EST_5G, params) == plan(cfg, EST_5G, params)

    def test_static_timer_must_exceed_sleep_transition(self, params):
        with pytest.raises(ValueError):
            PolicyConfig.static_timer(2.0).validate_against(params)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PolicyConfig.static_timer(0.0)
        with pytest.raises(ValueError):
            PolicyConfig.static_size(0)
        with pytest.raises(ValueError):
            PolicyConfig.dynamic_timer(-1.0)
        with pytest.raises(ValueError):
            PolicyConfig.dynamic_size(16.0, solver="newton")
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError):
                PolicyConfig.static_timer(bad)
            with pytest.raises(ValueError):
                PolicyConfig.static_dual(bad, 12)
            with pytest.raises(ValueError):
                PolicyConfig.dynamic_size(bad)



def _plan_bits(plan):
    """A plan's (mode, V, Q_w), each value's type with its exact bits."""
    return [(type(x).__name__, float(x).hex()) for x in plan]


class TestPlanEqualsFlaggedPlanner:
    """The planner equals the oracle that took a validity flag: nan rates plan
    as that oracle's invalid estimate, and every valid estimate alike."""

    @given(kind=st.integers(0, 5), use_cubic=st.booleans(), v=st.floats(3.0, 500.0),
           qw=st.integers(1, 100), tau=st.floats(0.5, 500.0),
           lam=st.floats(0.0, 2.0), mu=st.floats(0.01, 2.0), valid=st.booleans(),
           ts=st.floats(0.5, 10.0), tw=st.floats(0.5, 20.0))
    @example(kind=4, use_cubic=False, v=24.0, qw=12, tau=16.0, lam=0.4166667, mu=0.8333333,
             valid=False, ts=2.88, tw=4.48)
    @example(kind=5, use_cubic=True, v=24.0, qw=12, tau=16.0, lam=0.0, mu=0.8333333,
             valid=True, ts=2.88, tw=4.48)
    @settings(max_examples=1000, deadline=None)
    def test_same_plan_bit_for_bit(self, kind, use_cubic, v, qw, tau, lam, mu, valid, ts, tw):
        # all six kinds, both solvers; without an estimate the flagged planner
        # is handed rates it must ignore
        rates = (lam, mu) if valid else (math.nan, math.nan)
        new = _plan_scalar(kind, v, float(qw), tau, use_cubic, *rates, ts, tw)
        old = oracles.plan_scalar_flagged(kind, v, float(qw), tau, use_cubic, lam, mu, valid,
                                          ts, tw)
        assert _plan_bits(new) == _plan_bits(old)


class TestUpdateEqualsFlaggedUpdate:
    """The estimator equals the oracle that took a validity flag: nan totals
    update as that oracle's invalid state, and every valid state alike."""

    @given(totals=st.tuples(*[st.floats(0.0, 1e6)] * 3), valid=st.booleans(),
           n_frames=st.integers(1, 60), duration=st.floats(-1.0, 1e6),
           svc_total=st.floats(-1.0, 1e6), weight=st.floats(0.0, 1.0))
    @example(totals=(0.0, 0.0, 0.0), valid=False, n_frames=1, duration=24.0, svc_total=1.2,
             weight=DEFAULT_EWMA_WEIGHT)
    @example(totals=(0.0, 0.0, 0.0), valid=False, n_frames=10, duration=24.0, svc_total=12.0,
             weight=DEFAULT_EWMA_WEIGHT)
    @settings(max_examples=1000, deadline=None)
    def test_same_totals_bit_for_bit(self, totals, valid, n_frames, duration, svc_total, weight):
        new = _estimate_update(*(totals if valid else NO_STATE), float(n_frames),
                               duration, svc_total, weight)
        *old, still_valid = oracles.estimate_update_flagged(*totals, valid, float(n_frames),
                                                            duration, svc_total, weight)
        expected = old if still_valid else NO_STATE
        assert [x.hex() for x in new] == [float(x).hex() for x in expected]


class TestUpdateEstimate:
    def test_first_cycle_sets_rates(self, params):
        # 10 frames of 1500 B over 24 us on a 10 Gb/s line
        state = update(NO_STATE, 10, 24.0, 15000.0, params)
        assert state == (10.0, 24.0, 12.0)
        lam, mu = rates(state)
        assert lam == pytest.approx(0.4167, abs=1e-4)
        assert mu == pytest.approx(0.8333, abs=1e-4)

    def test_single_frame_cycle_is_ignored(self, params):
        assert update(STATE_5G, 1, 24.0, 1500.0, params) == STATE_5G
        assert all(map(math.isnan, update(NO_STATE, 1, 24.0, 1500.0, params)))

    def test_equal_duration_cycles_blend_like_rate_ewma(self, params):
        # two cycles of identical duration: the smoothed-totals ratio reduces
        # to the plain EWMA of the rates, 0.4 and 0.6 -> 0.5 at weight 1/2
        first = update(NO_STATE, 8, 20.0, 8 * 1500.0, params)
        assert rates(first)[0] == pytest.approx(0.4, rel=1e-12)
        second = update(first, 12, 20.0, 12 * 1500.0, params, weight=0.5)
        assert rates(second)[0] == pytest.approx(0.5, rel=1e-12)

    def test_smoothing_weight_bounds_change(self, params):
        first = update(NO_STATE, 8, 20.0, 8 * 1500.0, params)
        nudged = update(first, 12, 20.0, 12 * 1500.0, params, weight=0.1)
        assert rates(first)[0] < rates(nudged)[0] < 0.5

    def test_service_rate_from_mean_frame_size(self, params):
        # 100-byte frames serve 15x faster than 1500-byte ones
        state = update(NO_STATE, 10, 24.0, 1000.0, params)
        assert rates(state)[1] == pytest.approx(10e9 * 1e-6 / (8 * 100.0), rel=1e-9)
