"""Projectively flat Finsler metrics of constant flag curvature.

Construct metrics from origin data (a Minkowski norm and a degree-1
drift function), evaluate the classical closed forms, and verify the
defining identities numerically.
"""

from .catalog import (CatalogEntry, as_evaluator, catalog_entry, list_catalog,
                      parse_catalog)
from .construct import (MetricEvaluator, broken_metric, build_k0, build_kneg1,
                        build_kpos1)
from .errors import (BranchCutError, DimensionMismatchError, DomainError,
                     ProjFlatError, SolverError, SpecParseError)
from .norms import (CombinedNorm, DoubleSqrtNorm, EuclideanNorm, HomogeneousFunction,
                    RandersNorm, ScaledNorm, ZeroNorm, combine, parse_norms)
from .solver import (SolveResult, SolverConfig, pair_radius_estimate,
                     radius_estimate, solve_complex, solve_real)
from .verify import (GeodesicResult, berwald_system_residual, check_minkowski,
                     collinearity_score, flag_curvature, hamel_residual,
                     integrate_geodesic, jet, master_pde_residual,
                     projective_factor_numeric)

__version__ = "0.1.0"
