"""End-of-life spare-parts inventory control.

Exact discounted cost kernels under non-homogeneous Poisson demand, backward
induction over a taxonomy of ordering/stopping flexibilities, switching-time
analytics, and a Monte Carlo validation harness.
"""

from ._backends import active_backend
from .analytics import (
    AssumptionReport,
    StoppingTimeDistribution,
    SwitchBounds,
    SwitchCostCurve,
    brute_force_switch_argmin,
    delta2_x_switch_cost,
    delta_x_switch_cost,
    order_up_to_of_tau,
    stopping_time_distribution,
    switch_cost,
    switch_cost_curve,
    switch_time_bounds,
    validate_assumptions,
)
from .config import ExperimentConfig, kernels_with_K
from .costs import CostParameters, LostSalesConvention
from .demand import IntensityModel, build_named_intensity, load_rates_table
from .errors import (
    AssumptionViolated,
    BudgetMisuse,
    CapSaturated,
    ConfigError,
    EolstopError,
    NonFinite,
    NonNormalizable,
    NotFound,
    OutOfHorizon,
    PolicyIncompatible,
    UnreachableState,
)
from .kernels import (
    KernelTable,
    build_kernel_table,
    build_kernel_tables,
    constant_A,
)
from .sim import (
    MartingaleReport,
    SimEstimate,
    evaluate_policy,
    martingale_check,
    sample_stopping_times,
)
from .solver import (
    FirstOrder,
    ModelSpec,
    PolicyTable,
    SolveResult,
    StopMode,
    ValueGrid,
    extract_regions,
    solve,
    solve_values,
    static_switch_values,
)

__version__ = "0.1.0"
