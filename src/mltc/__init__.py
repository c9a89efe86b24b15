"""Multilevel low-rank tensor collocation for elliptic PDEs with random
diffusion coefficients: a Q1 finite-element hierarchy on the unit square,
Chebyshev collocation in the parameters, and hierarchical-tensor cross
approximation of the inter-level solution differences."""

from .colloc import CollocationGrid, chebyshev_nodes
from .config import ExperimentConfig, load_config
from .cross import (ApproxResult, ColumnSource, EntryOracle, EvalBudget,
                    add_crosses, approximate_tensor, greedy_column_basis,
                    hier_cross, lift_spatial, reduce_oracle)
from .driver import (ErrorMetrics, LevelPlan, MLSurrogate, accuracy_schedule,
                     degree_schedule, error_metrics, run_ml)
from .errors import (BudgetError, ConfigError, EllipticityError, PivotError,
                     SizeCapError)
from .fem import (GridLevel, H1Frame, assemble, build_grid, delta_nodal,
                  delta_vector, functional_psi, h1_frame, prolongate,
                  prolongation_matrix, seminorm_quadrature, solve_at,
                  solve_ladder)
from .fields import (CoefficientModel, eigenvalue, ellipticity_bounds, evaluate,
                     make_model)
from .htensor import (DimensionTree, HTensor, build_tree, ht_coefficients,
                      ht_entries, ht_full, storage_and_ranks)

__version__ = "0.1.0"
