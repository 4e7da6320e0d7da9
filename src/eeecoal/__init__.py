"""Energy Efficient Ethernet frame coalescing laboratory.

Analytic energy/delay models for time-based and size-based coalescing,
open-loop adaptive controllers holding a mean-delay target, efficiency
bounds, and a discrete-event simulator that validates all of the above.
"""

from .analytic import (
    CoalescingOutcome,
    EeeParams,
    TrafficStats,
    energy_lower_bound,
    energy_ratio,
    toff_upper_bound,
    w0_exact,
)
from .policy import PolicyConfig, predict
from .simcore import SimReport, cycle_view, delay_cdf, run
from .traffic import (
    BimodalSize,
    FixedSize,
    Pareto,
    Poisson,
    Trace,
    TrafficSpec,
    load_trace,
    measured_stats,
    theoretical_stats,
)

__version__ = "0.1.0"

__all__ = [
    "BimodalSize",
    "CoalescingOutcome",
    "EeeParams",
    "FixedSize",
    "Pareto",
    "Poisson",
    "PolicyConfig",
    "SimReport",
    "Trace",
    "TrafficSpec",
    "TrafficStats",
    "cycle_view",
    "delay_cdf",
    "energy_lower_bound",
    "energy_ratio",
    "load_trace",
    "measured_stats",
    "predict",
    "run",
    "theoretical_stats",
    "toff_upper_bound",
    "w0_exact",
]
