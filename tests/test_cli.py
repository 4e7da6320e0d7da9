import contextlib
import csv
import io
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eeecoal import (EeeParams, FixedSize, Poisson, PolicyConfig, TrafficSpec,
                     theoretical_stats, traffic)
from eeecoal.analytic import size_based_outcome
from eeecoal.cli import ALLOWED_KEYS, main, COLUMNS
from eeecoal.config import Config, ConfigError, parse_config
from eeecoal.policy import KIND_DYNAMIC_SIZE, _plan_scalar


def write_cfg(path, text):
    path.write_text(text)
    return str(path)


BASE_CFG = """\
# reference operating point
arrival = poisson
sizes = fixed(1500)
rate_gbps = 4
rate_gbps = 5
tau_us = 16
tau_us = 64
policy = dynamic_timer
policy = dynamic_size(approx)
policy = static_timer(24)
horizon_frames = 20000
seed = 9
"""


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestConfigParsing:
    def test_repeated_keys_build_lists(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("a = 1\nb = x\na = 2\n# note\n\n")
        pairs = parse_config(p)
        assert pairs == {"a": ["1", "2"], "b": ["x"]}

    def test_malformed_line_rejected(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("a = 1\nnonsense\n")
        with pytest.raises(ConfigError, match="line 2"):
            parse_config(p)

    def test_unknown_keys_rejected(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("a = 1\n")
        cfg = Config.load(p)
        with pytest.raises(ConfigError, match="unknown keys: a"):
            cfg.check_known({"b"})

    def test_single_key_given_twice_rejected(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("seed = 1\nseed = 2\n")
        cfg = Config.load(p)
        with pytest.raises(ConfigError, match="seed"):
            cfg.get_int("seed")

    def test_typed_accessors(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("x = 1.5\nn = 7\ns = hello\nxs = 1\nxs = 2.5\n")
        cfg = Config.load(p)
        assert cfg.get_float("x") == 1.5
        assert cfg.get_int("n") == 7
        assert cfg.get_str("s") == "hello"
        assert cfg.get_float_list("xs") == [1.0, 2.5]
        assert cfg.get_float("missing", 3.0) == 3.0
        with pytest.raises(ConfigError, match="'s'"):
            cfg.get_int("s")


class TestPolicyGrammar:
    @pytest.mark.parametrize("text,label", [
        ("none", "none"),
        ("static_timer(24)", "static_timer_24"),
        ("static_size(12)", "static_size_12"),
        ("static_dual(24, 12)", "static_dual_24_12"),
        ("dynamic_timer", "dynamic_timer"),
        ("dynamic_size", "dynamic_size_approx"),
        ("dynamic_size(cubic)", "dynamic_size_cubic"),
    ])
    def test_roundtrip(self, text, label):
        assert PolicyConfig.parse(text, 16.0).label() == label

    @pytest.mark.parametrize("bad", [
        "static_timer", "static_timer(a)", "static_dual(24)", "mystery",
        "dynamic_size(newton)", "none(1)", "static_timer(nan)", "static_dual(inf, 12)",
        "static_timer(-24)",
    ])
    def test_rejects_bad_policies(self, bad):
        with pytest.raises(ConfigError):
            PolicyConfig.parse(bad, 16.0)

    def test_adaptive_policy_takes_tau(self):
        assert PolicyConfig.parse("dynamic_size(cubic)", 32.0) == PolicyConfig.dynamic_size(
            32.0, solver="cubic")
        assert PolicyConfig.parse("static_size(12)") == PolicyConfig.static_size(12)
        with pytest.raises(ConfigError, match="tau_us"):
            PolicyConfig.parse("dynamic_timer")
        with pytest.raises(ConfigError):
            PolicyConfig.parse("dynamic_timer", math.nan)


class TestAnalyticMode:
    def test_reference_curves(self, tmp_path):
        cfg = write_cfg(tmp_path / "e.cfg", BASE_CFG)
        out = tmp_path / "out"
        assert main(["analytic", "--config", cfg, "--out", str(out)]) == 0
        rows = read_rows(out / "analytic_dynamic_timer.csv")
        by_key = {(r["rate_gbps"], r["tau_us"]): r for r in rows}
        assert float(by_key[("5", "16")]["mean_V_us"]) == pytest.approx(24.106, abs=1e-3)
        assert float(by_key[("5", "16")]["delay_analytic_us"]) == pytest.approx(16.0, rel=1e-9)
        rows = read_rows(out / "analytic_dynamic_size_approx.csv")
        by_key = {(r["rate_gbps"], r["tau_us"]): r for r in rows}
        assert round(float(by_key[("5", "64")]["mean_Qw"])) == 52
        # measured columns stay blank in analytic mode
        assert by_key[("5", "64")]["phi_measured"] == ""
        # static policies get one row per rate, no tau
        rows = read_rows(out / "analytic_static_timer_24.csv")
        assert [r["tau_us"] for r in rows] == ["", ""]

    def test_threshold_rounds_as_the_controller_plans(self, tmp_path):
        # the approximate solver gives q = 2.5 here: the predicted delay is
        # that of the threshold the controller plans, and mean_Qw stays q
        tau = 20.27157894736842
        cfg = write_cfg(tmp_path / "e.cfg", f"""\
arrival = poisson
sizes = fixed(1500)
rate_gbps = 0.5
tau_us = {tau!r}
policy = dynamic_size
""")
        out = tmp_path / "out"
        assert main(["analytic", "--config", cfg, "--out", str(out)]) == 0
        row = read_rows(out / "analytic_dynamic_size_approx.csv")[0]
        assert float(row["mean_Qw"]) == 2.5
        params = EeeParams()
        stats = theoretical_stats(
            TrafficSpec(arrival=Poisson(0.5e3 / 12000.0), sizes=FixedSize(1500)), params.line_rate)
        _, _, qw = _plan_scalar(KIND_DYNAMIC_SIZE, 0.0, 0.0, tau, False, stats.lam, stats.mu,
                                params.ts, params.tw)
        assert qw == 3
        assert float(row["delay_analytic_us"]) == pytest.approx(
            size_based_outcome(params, stats, qw).mean_delay, rel=1e-9)

    def test_bound_mode(self, tmp_path):
        cfg = write_cfg(tmp_path / "e.cfg", BASE_CFG)
        out = tmp_path / "out"
        assert main(["bound", "--config", cfg, "--out", str(out)]) == 0
        rows = read_rows(out / "bound.csv")
        by_key = {(r["rate_gbps"], r["tau_us"]): r for r in rows}
        assert float(by_key[("5", "16")]["bound_phi"]) == pytest.approx(0.6486, abs=5e-4)
        assert float(by_key[("5", "16")]["toff_analytic_us"]) == pytest.approx(26.226, abs=1e-3)


class TestSweepMode:
    def test_columns_and_grid(self, tmp_path):
        cfg = write_cfg(tmp_path / "e.cfg", BASE_CFG)
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        rows = read_rows(out / "sweep_dynamic_timer.csv")
        assert list(rows[0].keys()) == COLUMNS
        assert len(rows) == 4  # 2 rates x 2 taus
        for r in rows:
            assert r["seed"] == "9"
            assert float(r["phi_measured"]) > 0
            assert float(r["delay_measured_us"]) == pytest.approx(
                float(r["tau_us"]), rel=0.25)
        static = read_rows(out / "sweep_static_timer_24.csv")
        assert len(static) == 2  # rates only
        assert static[0]["tau_us"] == ""
        assert float(static[0]["mean_V_us"]) == 24.0

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_cfg(tmp_path / "e.cfg", BASE_CFG)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["sweep", "--config", cfg, "--out", str(a)]) == 0
        assert main(["sweep", "--config", cfg, "--out", str(b)]) == 0
        for f in sorted(a.iterdir()):
            assert f.read_bytes() == (b / f.name).read_bytes()

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = write_cfg(tmp_path / "e.cfg", BASE_CFG)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["sweep", "--config", cfg, "--out", str(a), "--seed", "123"]) == 0
        assert main(["sweep", "--config", cfg, "--out", str(b)]) == 0
        fa = (a / "sweep_dynamic_timer.csv").read_text()
        fb = (b / "sweep_dynamic_timer.csv").read_text()
        assert fa != fb
        assert read_rows(a / "sweep_dynamic_timer.csv")[0]["seed"] == "123"

    def test_parallel_jobs_identical(self, tmp_path):
        cfg = write_cfg(tmp_path / "e.cfg", BASE_CFG)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["sweep", "--config", cfg, "--out", str(a)]) == 0
        assert main(["sweep", "--config", cfg, "--out", str(b), "--jobs", "2"]) == 0
        for f in sorted(a.iterdir()):
            assert f.read_bytes() == (b / f.name).read_bytes()


    def test_unwarmed_point_warns(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "e.cfg", """\
arrival = poisson
sizes = fixed(1500)
rate_gbps = 5
tau_us = 16
policy = static_size(12)
policy = dynamic_timer
horizon_frames = 600
""")
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2
        assert err[0].startswith("warning: static_size_12 at 5 Gb/s: ")
        assert err[1].startswith("warning: dynamic_timer at 5 Gb/s, tau 16 us: ")
        assert all(" cycles for warmup_cycles = 100;" in line for line in err)
        write_cfg(tmp_path / "e.cfg", Path(cfg).read_text() + "warmup_cycles = 10\n")
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        assert capsys.readouterr().err == ""


class TestSimMode:
    def test_single_point(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "e.cfg", """\
arrival = poisson
sizes = fixed(1500)
rate_gbps = 5
tau_us = 16
policy = dynamic_timer
horizon_frames = 20000
seed = 4
""")
        out = tmp_path / "out"
        assert main(["sim", "--config", cfg, "--out", str(out)]) == 0
        rows = read_rows(out / "sim_dynamic_timer.csv")
        assert len(rows) == 1
        assert float(rows[0]["mean_V_us"]) == pytest.approx(24.1, abs=0.5)

    def test_grid_notes_sweep(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "e.cfg", BASE_CFG)
        assert main(["sim", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        assert "use sweep" in capsys.readouterr().err


class TestCdfMode:
    def test_emits_one_file_per_configuration(self, tmp_path):
        cfg = write_cfg(tmp_path / "e.cfg", """\
arrival = poisson
sizes = fixed(1500)
rate_gbps = 3
tau_us = 32
policy = dynamic_timer
horizon_frames = 20000
cdf_bin_us = 2
seed = 5
""")
        out = tmp_path / "out"
        assert main(["cdf", "--config", cfg, "--out", str(out)]) == 0
        rows = read_rows(out / "cdf_dynamic_timer_3gbps_32us.csv")
        assert list(rows[0].keys()) == ["delay_us", "cdf"]
        cdfs = [float(r["cdf"]) for r in rows]
        assert cdfs == sorted(cdfs)
        assert cdfs[-1] == 1.0

    def test_parallel_jobs_identical(self, tmp_path):
        cfg = write_cfg(tmp_path / "e.cfg", """\
arrival = poisson
sizes = fixed(1500)
rate_gbps = 3
rate_gbps = 6
tau_us = 32
policy = dynamic_timer
policy = static_size(12)
horizon_frames = 5000
seed = 5
""")
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["cdf", "--config", cfg, "--out", str(a)]) == 0
        assert main(["cdf", "--config", cfg, "--out", str(b), "--jobs", "2"]) == 0
        names = sorted(f.name for f in a.iterdir())
        assert names == sorted(f.name for f in b.iterdir())
        assert names == ["cdf_dynamic_timer_3gbps_32us.csv", "cdf_dynamic_timer_6gbps_32us.csv",
                         "cdf_static_size_12_3gbps.csv", "cdf_static_size_12_6gbps.csv"]
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes()


class TestTraceMode:
    def test_trace_sweep(self, tmp_path):
        trace = tmp_path / "t.csv"
        rng = np.random.default_rng(0)
        t = np.cumsum(rng.exponential(2.4, 20000))
        trace.write_text("".join(f"{x:.6f},1500\n" for x in t))
        cfg = write_cfg(tmp_path / "e.cfg", f"""\
trace = {trace}
tau_us = 16
policy = dynamic_timer
seed = 5
""")
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        rows = read_rows(out / "sweep_dynamic_timer.csv")
        assert len(rows) == 1
        assert float(rows[0]["rate_gbps"]) == pytest.approx(5.0, rel=0.05)
        assert float(rows[0]["delay_measured_us"]) == pytest.approx(16.0, rel=0.15)

    @staticmethod
    def _three_point_cfg(tmp_path):
        trace = tmp_path / "t.csv"
        rng = np.random.default_rng(1)
        t = np.cumsum(rng.exponential(2.4, 3000))
        trace.write_text("t,s\n" + "".join(f"{x:.4f},1500\n" for x in t))
        return write_cfg(tmp_path / "e.cfg", f"""\
trace = {trace}
tau_us = 16
tau_us = 64
policy = static_size(12)
policy = dynamic_timer
seed = 5
""")

    def test_trace_is_parsed_once_per_experiment(self, tmp_path, monkeypatch):
        calls = []
        load = traffic.load_trace

        def counting(path):
            calls.append(path)
            return load(path)

        monkeypatch.setattr(traffic, "load_trace", counting)
        cfg = self._three_point_cfg(tmp_path)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        rows = [r for f in ("static_size_12", "dynamic_timer")
                for r in read_rows(tmp_path / "out" / f"sweep_{f}.csv")]
        assert len(rows) == 3
        assert len(calls) == 1

    def test_trace_parallel_jobs_identical(self, tmp_path):
        cfg = self._three_point_cfg(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["sweep", "--config", cfg, "--out", str(a)]) == 0
        assert main(["sweep", "--config", cfg, "--out", str(b), "--jobs", "2"]) == 0
        assert sorted(f.name for f in a.iterdir()) == sorted(f.name for f in b.iterdir())
        for f in sorted(a.iterdir()):
            assert f.read_bytes() == (b / f.name).read_bytes()


# the fault cases' replacement of generated traffic by a trace ({trace} is its path)
TRACE_FAULT = {"arrival": None, "sizes": None, "trace": "{trace}"}


class TestErrorHandling:
    def test_missing_config(self, tmp_path, capsys):
        assert main(["sweep", "--config", str(tmp_path / "nope.cfg")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_key_diagnostic(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "e.cfg", BASE_CFG + "frobnicate = 1\n")
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "frobnicate" in capsys.readouterr().err

    def test_missing_traffic(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "e.cfg", "rate_gbps = 5\npolicy = none\n")
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "arrival" in capsys.readouterr().err

    def test_dynamic_policy_needs_tau(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "e.cfg",
                        "arrival = poisson\nsizes = fixed(1500)\nrate_gbps = 5\npolicy = dynamic_timer\n")
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "tau_us" in capsys.readouterr().err

    def test_bad_trace_fails_before_any_output(self, tmp_path, capsys):
        trace = tmp_path / "t.csv"
        trace.write_text("0.0,1500\n5.0,1500\n4.0,1500\n")
        cfg = write_cfg(tmp_path / "e.cfg", f"trace = {trace}\ntau_us = 16\n"
                        "policy = none\npolicy = dynamic_timer\n")
        out = tmp_path / "o"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 2
        assert "line 3" in capsys.readouterr().err
        assert not out.exists()

    def test_trace_before_zero_fails_before_any_output(self, tmp_path, capsys):
        trace = tmp_path / "t.csv"
        trace.write_text("".join(f"{-30.0 + 2.4 * i:.4f},1500\n" for i in range(3000)))
        cfg = write_cfg(tmp_path / "e.cfg", f"trace = {trace}\ntau_us = 16\n"
                        "policy = static_timer(24)\npolicy = dynamic_timer\n")
        out = tmp_path / "o"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 2
        assert "line 1: negative timestamp -30.0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("lines", ["0.0,1500\n", "0.0,1500\n0.0,100\n0.0,1500\n"],
                             ids=["one-frame", "three-at-zero"])
    def test_trace_too_short_to_measure_fails_before_any_output(self, tmp_path, capsys, lines):
        trace = tmp_path / "t.csv"
        trace.write_text(lines)
        cfg = write_cfg(tmp_path / "e.cfg", f"trace = {trace}\ntau_us = 16\n"
                        "policy = static_size(4)\npolicy = dynamic_timer\n")
        out = tmp_path / "o"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 2
        assert "need at least two frames over a positive time span" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["sweep", "analytic"])
    def test_static_timer_within_ts_fails_before_any_output(self, tmp_path, capsys, mode):
        cfg = write_cfg(tmp_path / "e.cfg", """\
arrival = poisson
sizes = fixed(1500)
rate_gbps = 5
policy = static_size(12)
policy = static_timer(2)
horizon_frames = 2000
""")
        out = tmp_path / "o"
        assert main([mode, "--config", cfg, "--out", str(out)]) == 2
        assert "must exceed the sleep transition" in capsys.readouterr().err
        assert not list(out.glob("*.csv"))

    def test_non_finite_trace_field(self, tmp_path, capsys):
        trace = tmp_path / "t.csv"
        trace.write_text("1.0,1500\nnan,1500\n3.0,1500\n")
        cfg = write_cfg(tmp_path / "e.cfg", f"trace = {trace}\npolicy = none\n")
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "line 2: non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize("line, named", [
        ("policy = static_timer(nan)", "static_timer(nan)"),
        ("policy = static_timer(inf)", "static_timer(inf)"),
        ("ts_us = nan", "ts_us"),
        ("tau_us = nan", "tau_us"),
        ("rate_gbps = inf", "rate_gbps"),
    ], ids=["timer-nan", "timer-inf", "ts-nan", "tau-nan", "rate-inf"])
    def test_non_finite_numbers_rejected(self, tmp_path, capsys, line, named):
        cfg = write_cfg(tmp_path / "e.cfg", f"""\
arrival = poisson
sizes = fixed(1500)
rate_gbps = 5
tau_us = 16
policy = dynamic_timer
horizon_frames = 2000
{line}
""")
        out = tmp_path / "o"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 2
        assert named in capsys.readouterr().err
        assert not list(out.glob("*.csv"))

    @pytest.mark.parametrize("mode, fault, named", [
        ("sweep", {"horizon_frames": "0"}, "horizon_frames"),
        ("sweep", {"horizon_frames": "-5"}, "horizon_frames"),
        ("sweep", {"horizon_frames": None, "horizon_time_us": "-1"}, "horizon_time_us"),
        ("sweep", {"warmup_cycles": "-1"}, "warmup_cycles"),
        ("cdf", {"cdf_bin_us": "0"}, "cdf_bin_us"),
        ("sweep", {"cdf_bin_us": "-0.5"}, "cdf_bin_us"),
        ("bound", {"tau_us": "-3"}, "tau_us"),
        ("sweep", {"tau_us": "0"}, "tau_us"),
        ("sweep", {"rate_gbps": "0"}, "rate_gbps"),
        ("analytic", {"rate_gbps": "-2"}, "rate_gbps"),
        ("sweep", {"--jobs": "0"}, "--jobs"),
        ("sweep", {"arrival": "foo"}, "arrival"),
        ("sweep", {"arrival": "pareto(1.5)"}, "arrival 'pareto(1.5)'"),
        ("sweep", {"arrival": "pareto(x)"}, "arrival 'pareto(x)'"),
        ("sweep", {"policy": ["static_size(12)", "static_size(12)"]}, "policy"),
        ("analytic", {"policy": ["dynamic_size", "dynamic_size(approx)"]}, "policy"),
        ("sweep", TRACE_FAULT, "rate_gbps"),
        ("sweep", TRACE_FAULT | {"rate_gbps": None, "horizon_frames": None,
                                 "horizon_time_us": "5"}, "horizon_time_us"),
        # a generated time horizon that draws no frame is found by the run
        ("sweep", {"rate_gbps": "1", "policy": "static_size(4)", "horizon_frames": None,
                   "horizon_time_us": "0.001"},
         "horizon_time_us: 0.001 us holds no frame at 1 Gb/s"),
        ("sweep", {"rate_gbps": ["5", "0.001"], "horizon_frames": None, "horizon_time_us": "30",
                   "--jobs": "2"}, "horizon_time_us: 30 us holds no frame at 0.001 Gb/s"),
    ], ids=["frames-0", "frames-neg", "time-neg", "warmup-neg", "cdf-bin-0", "cdf-bin-neg",
            "bound-tau-neg", "tau-0", "rate-0", "rate-neg", "jobs-0", "arrival-foo",
            "pareto-shape", "pareto-text", "policy-twice", "policy-same-label",
            "trace-with-rate", "trace-horizon-before-first-frame", "time-horizon-empty",
            "time-horizon-empty-at-a-later-point"])
    def test_config_fault_fails_before_any_output(self, tmp_path, capsys, mode, fault, named):
        pairs = {"arrival": "poisson", "sizes": "fixed(1500)", "rate_gbps": "5", "tau_us": "16",
                 "policy": "static_size(12)", "horizon_frames": "2000"} | fault
        jobs = pairs.pop("--jobs", "1")
        # a trace whose first frame arrives at 10 us
        trace = tmp_path / "t.csv"
        trace.write_text("".join(f"{10.0 + 2.4 * i:.4f},1500\n" for i in range(400)))
        lines = [(k, v) for k, vs in pairs.items() if vs is not None
                 for v in (vs if isinstance(vs, list) else [vs])]
        cfg = write_cfg(tmp_path / "e.cfg",
                        "".join(f"{k} = {v.format(trace=trace)}\n" for k, v in lines))
        out = tmp_path / "o"
        assert main([mode, "--config", cfg, "--out", str(out), "--jobs", jobs]) == 2
        error = capsys.readouterr().err.splitlines()[-1]
        assert error.startswith("error: ") and named in error
        assert not out.exists()

    def test_unwritable_output(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "e.cfg", BASE_CFG)
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        rc = main(["analytic", "--config", cfg, "--out", str(blocker / "sub")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_overload_warning(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "e.cfg", """\
arrival = poisson
sizes = fixed(1500)
rate_gbps = 11
policy = none
horizon_frames = 5000
""")
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        # the configured rate is named once, not again by its point
        assert capsys.readouterr().err.count("expect overload") == 1

    def test_overload_warning_for_a_fast_trace(self, tmp_path, capsys):
        # 1500-byte frames every 1.1 us offer about 10.9 Gb/s to a 10 Gb/s link
        trace = tmp_path / "t.csv"
        trace.write_text("".join(f"{1.1 * i:.4f},1500\n" for i in range(3000)))
        cfg = write_cfg(tmp_path / "e.cfg", f"""\
trace = {trace}
policy = static_size(4)
warmup_cycles = 0
""")
        out = tmp_path / "o"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        err = capsys.readouterr().err.splitlines()
        assert err == ["warning: static_size_4 at the trace: the frames offer at least the "
                       "line rate 10 Gb/s, expect overload"]
        assert len(read_rows(out / "sweep_static_size_4.csv")) == 1


# --------------------------------------------------------------------------
# fuzzing the config and policy grammar
# --------------------------------------------------------------------------

KIND_NAMES = ["none", "static_timer", "static_size", "static_dual", "dynamic_timer",
              "dynamic_size"]
# text that may or may not be a number
NUMBERISH = st.one_of(
    st.floats().map(repr), st.integers(-10, 10**6).map(str),
    st.sampled_from(["nan", "inf", "-inf", "1e999", "0x10", "approx", "cubic", ""]),
    st.text(max_size=5),
)
POLICY_TEXT = st.one_of(
    st.text(max_size=30),
    st.sampled_from(KIND_NAMES + ["mystery"]),
    st.builds(lambda name, args: f"{name}({', '.join(args)})",
              st.sampled_from(KIND_NAMES + ["mystery"]), st.lists(NUMBERISH, max_size=3)),
)
# one line that makes FUZZ_BASE_CFG invalid
BAD_LINE = st.one_of(
    st.text(st.characters(blacklist_characters="=\n\r#", blacklist_categories=("Cs",)),
            min_size=1).filter(lambda t: t.strip() and t.strip() == t.strip().splitlines()[0]),
    st.sampled_from(["rate_gbps =", "= 5", "seed = 2", "frobnicate = 1"]),
    st.builds("{} = {}".format, st.sampled_from(["rate_gbps", "tau_us", "ts_us", "phi_off"]),
              st.sampled_from(["nan", "inf", "-inf", "NaN", "1e999", "abc", "5 Gb/s", "0x10"])),
    POLICY_TEXT.filter(lambda t: t.strip() and "\n" not in t and "\r" not in t)
    .map(lambda t: f"policy = {t}"),
    # these replace the base config's line of the same key
    st.builds("arrival = {}".format, st.sampled_from([
        "foo", "pareto", "pareto(1.5)", "pareto(x)", "pareto(nan)", "pareto(inf)",
        "pareto(2.5, 1)", "poisson(1)"])),
    st.builds("sizes = {}".format, st.sampled_from([
        "fixed", "fixed(63)", "fixed(x)", "fixed(1e3)", "bimodal(0.5, 100)",
        "bimodal(2, 100, 1500)", "uniform(64)"])),
    st.builds("{} = {}".format, st.sampled_from(["horizon_frames", "warmup_cycles", "cdf_bin_us"]),
              st.sampled_from(["-1", "x", "nan", "1e999", ""])),
    st.sampled_from(["horizon_frames = 0", "horizon_frames = 1.5", "warmup_cycles = 1.5",
                     "cdf_bin_us = 0", "cdf_bin_us = -0.5"]),
)
FUZZ_BASE_CFG = """\
arrival = poisson
sizes = fixed(1500)
rate_gbps = 5
tau_us = 16
policy = static_size(12)
horizon_frames = 500
warmup_cycles = 10
cdf_bin_us = 1
seed = 1
"""
REPLACED_KEYS = ("arrival", "sizes", "horizon_frames", "warmup_cycles", "cdf_bin_us")


def _rejects(text: str) -> bool:
    try:
        PolicyConfig.parse(text, 16.0)
    except ConfigError:
        return True
    return False


class TestGrammarFuzz:
    @given(text=POLICY_TEXT, tau=st.one_of(st.none(), st.floats()))
    @settings(max_examples=400, deadline=None)
    def test_policy_parses_to_its_kind_or_config_error(self, text, tau):
        try:
            cfg = PolicyConfig.parse(text, tau)
        except ConfigError:
            return
        name = KIND_NAMES[cfg.kind]
        assert text.strip().partition("(")[0].strip() == name
        assert cfg.label().startswith(name)
        assert math.isfinite(cfg.v) and math.isfinite(cfg.tau)

    @given(lines=st.lists(st.one_of(
        st.text(st.characters(blacklist_categories=("Cs",)), max_size=40),
        st.builds("{} = {}".format, st.sampled_from(sorted(ALLOWED_KEYS)), NUMBERISH),
    ), max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_config_file_loads_or_config_error(self, lines):
        text = "\n".join(lines)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "e.cfg"
            path.write_bytes(text.encode("utf-8"))
            try:
                cfg = Config.load(path)
                for key in cfg.pairs:
                    for get in (cfg.get_float_list, cfg.get_float, cfg.get_int):
                        with contextlib.suppress(ConfigError):
                            values = get(key)
                            assert all(map(math.isfinite, np.atleast_1d(values)))
            except ConfigError:
                pass

    @given(bad=BAD_LINE)
    @settings(max_examples=120, deadline=None)
    def test_sweep_on_bad_file_exits_2_without_csv(self, bad):
        if bad.startswith("policy = "):
            policy = bad.removeprefix("policy = ")
            if not _rejects(policy):
                return
        key = bad.partition("=")[0].strip()
        kept = [line for line in FUZZ_BASE_CFG.splitlines()
                if key not in REPLACED_KEYS or not line.startswith(f"{key} =")]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "e.cfg"
            path.write_text("\n".join(kept + [bad]) + "\n", encoding="utf-8")
            out = Path(tmp) / "out"
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = main(["sweep", "--config", str(path), "--out", str(out)])
            assert code == 2, bad
            assert err.getvalue().startswith("error:")
            assert "Traceback" not in err.getvalue()
            assert not out.exists()
