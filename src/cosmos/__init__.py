"""Cost modeling and placement trade-off analysis for serverless workflows.

The package prices workflows across heterogeneous platforms (edge, cloud,
space), decomposes every charge into five drivers, models cost as an affine
function of request volume with closed-form break-even points, and solves the
budget/latency-constrained placement problem with auto-derived weights.
"""

__version__ = "0.1.0"

from .catalog import (
    DriverCategory,
    Layer,
    PlatformCatalog,
    PriceComponent,
    RateUnit,
    load_catalog,
    load_platform,
    serialize_catalog,
)
from .engine import (
    COINCIDENT_CURVES,
    ComponentCharge,
    CostBreakdown,
    CostCurve,
    CrossoverPoint,
    component_charges,
    crossover,
    driver_shares,
    function_cost,
    function_cost_curve,
    placement_costs,
    workflow_cost,
    workflow_cost_curve,
)
from .optimizer import (
    CatalogModel,
    OptimizationConfig,
    OptimizationResult,
    PairEntry,
    ParetoPoint,
    PlacementModel,
    auto_weights,
    load_point_table,
    optimal_line,
    optimize,
    pareto_front,
)
from .telemetry import (
    LatencyStats,
    UsageFold,
    UsageLog,
    UsageSummary,
    calibrate,
    summarize_usage,
)
from .workflow import (
    BaasUsage,
    FunctionProfile,
    LatencyTable,
    Placement,
    WorkflowSpec,
    load_workflow_document,
    serialize_workflow,
)
