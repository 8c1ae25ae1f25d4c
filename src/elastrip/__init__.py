"""Spectral solver and verification harness for time-harmonic elastic wave
scattering above unbounded rough rigid surfaces."""

from .errors import (ConfigError, ConstraintError, DiagnosticError,
                     ElastripError, NonConvergenceError, SingularTransformError)
from .params import (BoundReport, ElasticParams, StabilityConstants,
                     StripGeometry, bound_constants, stability_constants,
                     total_bound_stochastic)
from .dtn import (BoundaryTrace, SpectralGrid, decompose_trace, energy_flux,
                  extend_field, verify_symbol_properties, verify_symbol_suite)
from .geometry import (CutoffFn, HarmonicTerm, SurfaceProfile, invert_vertical,
                       make_profile, sample_ensemble)
from .sources import BumpSource
from .mesh import StripMesh
from .solver import (DiscreteField, SolverContext, StripOperator,
                     TransformCoefficients, assemble_flat_blocks, assemble_rhs,
                     energy_balance, flat_load, poincare_slack, solve_field)
from .config import RunConfig, from_dict, load_config
from .harness import (McReport, RunReport, deterministic_run, monte_carlo,
                      parameter_sweep, pushforward_check, solve_surface)

__version__ = "0.1.0"
