"""Polarity, hyperpolarity and variational-completeness checks for isometric actions.

The names imported here are the public surface, ``__all__``; the rest of
each module is internal.
"""

from .liealg import (CheckResult, LieAlgebra, Subspace, build_classical,
                     centralizer_in, direct_sum, is_abelian_subspace,
                     is_lie_triple_system)
from .linalg import IndeterminateVerdict
from .polarity import (OrthogonalRep, PolarityVerdict, cohomogeneity,
                       find_regular_point, is_hyperpolar_homogeneous,
                       is_polar_homogeneous, is_polar_rep, orbifold_point_test,
                       slice_rep)
from .symspace import (ModelManifold, SymmetricPair, cartan_decompose,
                       cartan_hermann_probe, curvature_operator,
                       involution_from_matrix_map, maximal_abelian,
                       sectional_curvature)
from .weyl import (QuotientOptimizerConfig, ReductionSampler, ReflectionGroup,
                   RestrictedRootSystem, quotient_distance,
                   reduction_isometry_check, restricted_roots,
                   weyl_group_closure)
from .transversal import (OrbitGeodesic, TransversalSystem, conjugate_scan,
                          discala_olmos_probe, focal_points, jacobi_integrate,
                          n_jacobi_space, oneill_check, rescale_probe,
                          shape_operator, symplectic_form,
                          transversal_system, variational_completeness_probe)
from .catalog import CatalogEntry, catalog_entry, catalog_list

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
