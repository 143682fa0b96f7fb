"""Analytic GPU performance model (the paper's emulation substitute)."""

from repro.timing.specs import GpuSpec, RTX2080TI, RTX3080
from repro.timing.costmodel import (
    CUDA_OP_COSTS,
    CudaOpCost,
    KernelTimes,
    TILE_PIPELINE_KAPPA,
    cuda_mmo_time,
    elementwise_pass_time,
    mmo_kernel_times,
    simd2_mmo_time,
    simd2_utilization,
)
from repro.timing.kernel_models import (
    APPS,
    APP_SIZES,
    AppTimes,
    ClosurePolicy,
    app_times,
    closure_iterations,
    dag_longest_path,
    er_diameter,
)
from repro.timing.sparse_model import SparseCrossoverModel, SparseVsDensePoint
from repro.timing.roofline import Bound, RooflinePoint, crossover_intensity, mmo_roofline
from repro.timing.tradeoff import DESIGNS, DesignPoint, design_point, design_space
from repro.timing.cycles import (
    CycleBreakdown,
    CycleCosts,
    kernel_cycle_estimate,
    stats_to_cycles,
)
from repro.timing.backend_cost import (
    CostModelError,
    LaunchSpec,
    estimate,
)

__all__ = [
    "GpuSpec",
    "RTX2080TI",
    "RTX3080",
    "CUDA_OP_COSTS",
    "CudaOpCost",
    "KernelTimes",
    "TILE_PIPELINE_KAPPA",
    "cuda_mmo_time",
    "elementwise_pass_time",
    "mmo_kernel_times",
    "simd2_mmo_time",
    "simd2_utilization",
    "APPS",
    "APP_SIZES",
    "AppTimes",
    "ClosurePolicy",
    "app_times",
    "closure_iterations",
    "dag_longest_path",
    "er_diameter",
    "SparseCrossoverModel",
    "SparseVsDensePoint",
    "CycleBreakdown",
    "CycleCosts",
    "kernel_cycle_estimate",
    "stats_to_cycles",
    "Bound",
    "RooflinePoint",
    "crossover_intensity",
    "mmo_roofline",
    "DESIGNS",
    "DesignPoint",
    "design_point",
    "design_space",
    "CostModelError",
    "LaunchSpec",
    "estimate",
]
