"""The benchmark's probes still find what they measure.

``perfbench/tracer.py`` times each layer by swapping the module attribute
that its caller looks up at call time, and ``perfbench/child.py`` builds
policies and runs the CLI through the package's public names.  A rename, or
a call that no longer goes through the swapped attribute, would turn a layer
"absent" or zero, or break the benchmark's correctness gate, while every
other test still passes.
"""

import ast
import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import pytest

from eeecoal import simcore
from eeecoal.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _tracer_targets():
    """TARGETS of perfbench/tracer.py, read from its source: no Tracer is built."""
    tree = ast.parse((PERFBENCH / "tracer.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no TARGETS")


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = _tracer_targets()


@pytest.mark.parametrize("key, module, attr, per_cycle", TARGETS,
                         ids=[f"{m.removeprefix('eeecoal.')}.{a}" for _, m, a, _ in TARGETS])
def test_wrapped_attribute_resolves(key, module, attr, per_cycle):
    assert callable(getattr(importlib.import_module(module), attr, None))


def test_names_the_child_uses_resolve():
    tree = ast.parse((PERFBENCH / "child.py").read_text(encoding="utf-8"))
    used = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "eeecoal":
            used += [("eeecoal", alias.name) for alias in node.names]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            used.append((node.value.id, node.attr))
    eeecoal = importlib.import_module("eeecoal")
    owners = {"eeecoal": eeecoal, "cli": eeecoal.cli, "simcore": eeecoal.simcore,
              "PolicyConfig": eeecoal.PolicyConfig}
    checked = [(o, a) for o, a in used if o in owners]
    assert ("simcore", "run") in checked and ("PolicyConfig", "dynamic_size") in checked
    assert [f"{o}.{a}" for o, a in checked if not hasattr(owners[o], a)] == []


def test_child_warm_up_runs_every_kind():
    kinds = {k for w in _load("workloads").WORKLOADS.values() for k in w.warmup}
    _load("child")._warm_up(sorted(kinds))


def test_every_layer_is_called_through_its_attribute(tmp_path, monkeypatch):
    calls = set()
    for _, module, attr, _ in TARGETS:
        mod = importlib.import_module(module)

        def counting(*args, _fn=getattr(mod, attr), _where=f"{module}.{attr}", **kwargs):
            calls.add(_where)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(mod, attr, counting)
    trace = tmp_path / "t.csv"
    trace.write_text("".join(f"{2.4 * i:.4f},1500\n" for i in range(400)))
    generated = tmp_path / "g.cfg"
    generated.write_text(
        "arrival = poisson\nsizes = fixed(1500)\nrate_gbps = 5\ntau_us = 16\n"
        "policy = dynamic_timer\npolicy = dynamic_size\npolicy = dynamic_size(cubic)\n"
        "horizon_frames = 3000\nwarmup_cycles = 10\n")
    replayed = tmp_path / "r.cfg"
    replayed.write_text(f"trace = {trace}\npolicy = static_size(4)\nhorizon_time_us = 500\n")
    for cfg in (generated, replayed):
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert sorted({f"{m}.{a}" for _, m, a, _ in TARGETS} - calls) == []


def test_static_sweep_plans_every_point(tmp_path, monkeypatch):
    # perfbench's self-test requires policy.plan.calls > 0 on sweep-static,
    # whose points are all static: each static run must plan once
    kinds = []
    plan = simcore._plan_scalar

    def counting(*args):
        kinds.append(args[0])
        return plan(*args)

    monkeypatch.setattr(simcore, "_plan_scalar", counting)
    cfg = tmp_path / "s.cfg"
    cfg.write_text(
        "arrival = poisson\nsizes = fixed(1500)\nrate_gbps = 1\nrate_gbps = 5\n"
        "policy = none\npolicy = static_timer(24)\npolicy = static_size(12)\n"
        "policy = static_dual(24, 12)\nhorizon_frames = 2000\n")
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    per_kind = Counter(kinds)
    assert sorted(per_kind) == [0, 1, 2, 3]
    assert min(per_kind.values()) >= 2       # once per rate at least
