import csv

import numpy as np
import pytest

from eeecoal.cli import main, parse_policy, COLUMNS
from eeecoal.config import Config, ConfigError, parse_config


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
        assert parse_policy(text).label() == label

    @pytest.mark.parametrize("bad", [
        "static_timer", "static_timer(a)", "static_dual(24)", "mystery",
        "dynamic_size(newton)", "none(1)",
    ])
    def test_rejects_bad_policies(self, bad):
        with pytest.raises(ConfigError):
            parse_policy(bad)


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

    def test_non_finite_trace_field(self, tmp_path, capsys):
        trace = tmp_path / "t.csv"
        trace.write_text("1.0,1500\nnan,1500\n3.0,1500\n")
        cfg = write_cfg(tmp_path / "e.cfg", f"trace = {trace}\npolicy = none\n")
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "line 2: non-finite" in capsys.readouterr().err

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
        assert "expect overload" in capsys.readouterr().err
