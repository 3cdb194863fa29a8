"""Two-phase flow in double-porosity media: block-scale matrix-fracture
exchange (resolved, linearized) and its effective convolution limits,
plus a finite-volume solver for the effective fracture system."""

from .constitutive import (ConstitutiveSet, FluidPair, MediumProps,
                           VanGenuchtenParams, capillary_diffusivity,
                           capillary_pressure, capillary_saturation,
                           range_diffusivity, transfer_saturation)
from .blockmesh import BlockMesh, graded_interval, tensor_mesh
from .imbibition import (BlockProblem, BlockSolution, ExchangeSeries,
                         exchange_from_flux, exchange_from_volume,
                         run_trajectory)
from .linearized import (run_constant_linearized, run_variable_linearized,
                         variable_coefficients)
from .effective import (exchange_fixed_kernel, exchange_warped_kernel,
                        running_range_alpha)
from .fvsolver import (BoundarySpec, FlowParams, FractureFlowSolver,
                       SourceSpec, build_grid, effective_permeability)
from .harness import (DAY, EXCHANGE_METHODS, FloodConfig, PRESETS,
                      ScenarioConfig, compare_series, get_preset,
                      list_presets, load_config, load_flood_config,
                      make_trajectory, midpoints, run_comparison, run_flood,
                      run_method, uniform_times)

__version__ = "0.1.0"

__all__ = [
    "BlockMesh", "BlockProblem", "BlockSolution", "BoundarySpec",
    "ConstitutiveSet", "DAY", "EXCHANGE_METHODS", "ExchangeSeries",
    "FloodConfig", "FlowParams", "FluidPair", "FractureFlowSolver",
    "MediumProps", "PRESETS", "ScenarioConfig", "SourceSpec",
    "VanGenuchtenParams", "build_grid", "capillary_diffusivity",
    "capillary_pressure", "capillary_saturation", "compare_series",
    "effective_permeability", "exchange_fixed_kernel",
    "exchange_from_flux", "exchange_from_volume",
    "exchange_warped_kernel", "get_preset", "graded_interval",
    "list_presets", "load_config", "load_flood_config",
    "make_trajectory", "midpoints", "range_diffusivity", "run_comparison",
    "run_constant_linearized", "run_flood", "run_method",
    "run_trajectory", "run_variable_linearized", "running_range_alpha",
    "tensor_mesh", "transfer_saturation", "uniform_times",
    "variable_coefficients",
]
