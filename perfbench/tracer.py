"""Outside-in layer tracing for one eeecoal CLI invocation.

The tracer swaps the module attribute each caller looks up (for example
``simcore._sim_kernel``, which ``simcore.run`` calls through the module
globals) for a timing wrapper.  Wrappers share one stack, so every layer's
self time is its total minus the time of the wrapped calls made inside it.
Per-cycle boundaries (plan, estimate update, solvers) are summed, not kept
as one span per call.  A target that is missing, or that numba compiled
into the kernel so that swapping it changes nothing, is reported absent
with the reason instead of failing the run.
"""

import importlib
import time
from dataclasses import dataclass, field

# (layer key, module, attribute, called once per simulated cycle)
TARGETS = (
    ("config.parse", "eeecoal.config", "parse_config", False),
    ("traffic.sample", "eeecoal.simcore", "sample_frames", False),
    ("traffic.sample", "eeecoal.simcore", "sample_frames_until", False),
    ("traffic.trace_parse", "eeecoal.traffic", "load_trace", False),
    ("simcore.run", "eeecoal.simcore", "run", False),
    ("simcore.kernel", "eeecoal.simcore", "_sim_kernel", False),
    ("policy.plan", "eeecoal.simcore", "_plan_scalar", True),
    ("policy.estimate", "eeecoal.simcore", "_estimate_update", True),
    ("analytic.solve", "eeecoal.policy", "optimal_timer", True),
    ("analytic.solve", "eeecoal.policy", "optimal_threshold_approx", True),
    ("analytic.cubic", "eeecoal.policy", "optimal_threshold_cubic", True),
    ("cli.predict", "eeecoal.cli", "_analytic_values", False),
    ("cli.csv", "eeecoal.cli", "_write_csv", False),
)

# Layer times that partition the root span: their sum is the traced wall time.
# policy.plan includes its solver children; simcore.kernel and
# simcore.aggregate are self times of _sim_kernel and run().
PARTITION = (
    "cli.self.s", "config.parse.s", "traffic.sample.s", "traffic.trace_parse.s",
    "policy.plan.s", "policy.estimate.s", "simcore.kernel.s",
    "simcore.aggregate.s", "cli.predict.s", "cli.csv.s",
)


@dataclass
class Stat:
    calls: int = 0
    total: float = 0.0
    self_s: float = 0.0
    count: int = 0              # layer-specific work count (frames, rows, suspends)
    paths: list = field(default_factory=list)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _frames_out(st, args, kwargs, out):
    st.count += len(out[0])


def _trace_path(st, args, kwargs, out):
    st.paths.append(str(_arg(args, kwargs, 0, "path")))


def _suspended(st, args, kwargs, out):
    st.count += out[0] == 0


def _rows_in(st, args, kwargs, out):
    st.count += len(_arg(args, kwargs, 2, "rows"))


_HOOKS = {
    "traffic.sample": _frames_out,
    "traffic.trace_parse": _trace_path,
    "policy.plan": _suspended,
    "cli.csv": _rows_in,
}


class Tracer:
    """Installs timing wrappers on ``targets`` and turns them into metrics."""

    def __init__(self, targets=TARGETS, numba=False):
        self.stats: dict[str, Stat] = {}
        self.absent: dict[str, str] = {}
        self._stack = [0.0]     # per open span: time of its wrapped children
        self.root_s = self.root_children = 0.0
        for key, mod_name, attr, per_cycle in targets:
            module = importlib.import_module(mod_name)
            fn = getattr(module, attr, None)
            where = f"{mod_name.removeprefix('eeecoal.')}.{attr}"
            if fn is None:
                self.absent[key] = f"{where} not found"
            elif per_cycle and numba:
                self.absent[key] = f"numba backend: {where} is compiled into the kernel"
            else:
                st = self.stats.setdefault(key, Stat())
                setattr(module, attr, self._wrap(fn, st, _HOOKS.get(key)))

    def _wrap(self, fn, st, hook):
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                inner = stack.pop()
                st.calls += 1
                st.total += dt
                st.self_s += dt - inner
                stack[-1] += dt
            if hook is not None:
                hook(st, args, kwargs, out)
            return out

        return traced

    def root(self, fn, *args):
        """Call ``fn`` as the root (cli) span and return its result."""
        self._stack[0] = 0.0
        t0 = time.perf_counter()
        out = fn(*args)
        self.root_s, self.root_children = time.perf_counter() - t0, self._stack[0]
        return out

    def metrics(self, reports, line_counts) -> dict:
        """Per-layer metrics: name -> (value, unit), or name -> reason when absent."""
        st, absent = self.stats, self.absent
        m = {}

        def put(key, name, unit, value):
            m[name] = absent[key] if key in absent else (value(st[key]), unit)

        def per_call(total, calls, scale):
            return total / calls * scale if calls else 0.0

        m["cli.self.s"] = (self.root_s - self.root_children, "s")
        put("cli.predict", "cli.predict.s", "s", lambda s: s.total)
        put("cli.csv", "cli.csv.s", "s", lambda s: s.total)
        put("cli.csv", "cli.csv.rows", "count", lambda s: s.count)
        put("config.parse", "config.parse.s", "s", lambda s: s.total)
        put("traffic.sample", "traffic.sample.calls", "count", lambda s: s.calls)
        put("traffic.sample", "traffic.sample.s", "s", lambda s: s.self_s)
        put("traffic.sample", "traffic.sample.frames", "count", lambda s: s.count)
        put("traffic.trace_parse", "traffic.trace_parse.calls", "count", lambda s: s.calls)
        put("traffic.trace_parse", "traffic.trace_parse.s", "s", lambda s: s.total)
        put("traffic.trace_parse", "traffic.trace_parse.lines", "count",
            lambda s: sum(line_counts[p] for p in s.paths))
        put("traffic.trace_parse", "traffic.trace_parse.useful_frac", "fraction",
            lambda s: per_call(len(set(s.paths)), s.calls, 1.0))
        put("policy.plan", "policy.plan.calls", "count", lambda s: s.calls)
        put("policy.plan", "policy.plan.s", "s", lambda s: s.total)
        put("policy.plan", "policy.plan.us_per_call", "us/call",
            lambda s: per_call(s.total, s.calls, 1e6))
        put("policy.plan", "policy.suspend_frac", "fraction",
            lambda s: per_call(s.count, s.calls, 1.0))
        put("policy.estimate", "policy.estimate.calls", "count", lambda s: s.calls)
        put("policy.estimate", "policy.estimate.s", "s", lambda s: s.total)
        solve = [st[k] for k in ("analytic.solve", "analytic.cubic") if k in st]
        if "analytic.solve" in absent:
            m["analytic.solve.calls"] = m["analytic.solve.s"] = absent["analytic.solve"]
        else:
            m["analytic.solve.calls"] = (sum(s.calls for s in solve), "count")
            m["analytic.solve.s"] = (sum(s.total for s in solve), "s")
        put("analytic.cubic", "analytic.cubic.us_per_call", "us/call",
            lambda s: per_call(s.total, s.calls, 1e6))
        put("simcore.run", "simcore.run.calls", "count", lambda s: s.calls)
        put("simcore.run", "simcore.run.s", "s", lambda s: s.total)
        put("simcore.run", "simcore.aggregate.s", "s", lambda s: s.self_s)
        put("simcore.kernel", "simcore.kernel.s", "s", lambda s: s.self_s)

        frames = sum(r["n_frames"] for r in reports)
        cycles = sum(r["n_cycles"] for r in reports)
        put("simcore.kernel", "simcore.kernel.ns_per_frame", "ns/frame",
            lambda s: per_call(s.self_s, frames, 1e9))
        m["cli.points"] = (len(reports), "count")
        m["simcore.frames"] = (frames, "count")
        m["simcore.cycles"] = (cycles, "count")
        m["simcore.frames_per_cycle"] = (per_call(frames, cycles, 1.0), "frames/cycle")
        m["simcore.unwarmed_points"] = (sum(not r["warmed_up"] for r in reports), "count")
        m["simcore.overload_points"] = (sum(r["overload"] for r in reports), "count")
        return m
