"""ISAAC-style accelerator architecture model: mapping, power, latency."""

from repro.arch.energy_report import (
    WorkloadComparison,
    breakdown_table,
    compare_configurations,
)
from repro.arch.isaac import DEFAULT_ARCHITECTURE, IsaacArchitecture
from repro.arch.latency import (
    DEFAULT_LATENCY_PARAMS,
    LatencyBreakdown,
    LatencyModel,
    LatencyParams,
)
from repro.arch.mapping import (
    AcceleratorMapping,
    LayerGeometry,
    LayerWorkload,
    trace_layer_geometry,
)
from repro.arch.power import (
    COMPONENTS,
    DEFAULT_ENERGY_CONSTANTS,
    EnergyBreakdown,
    EnergyConstants,
    PowerModel,
)

__all__ = [
    "AcceleratorMapping",
    "COMPONENTS",
    "DEFAULT_ARCHITECTURE",
    "DEFAULT_ENERGY_CONSTANTS",
    "DEFAULT_LATENCY_PARAMS",
    "EnergyBreakdown",
    "EnergyConstants",
    "IsaacArchitecture",
    "LatencyBreakdown",
    "LatencyModel",
    "LatencyParams",
    "LayerGeometry",
    "LayerWorkload",
    "PowerModel",
    "WorkloadComparison",
    "breakdown_table",
    "compare_configurations",
    "trace_layer_geometry",
]
