"""Second-step MAT-MI toolbox: simulate the induced eddy-current field and its
acoustic-source data for a planar conductivity, and reconstruct the
conductivity from that data by a fixed-point iteration of field and
transport solves."""

from .mesh import Mesh, build_mesh
from .fem import (
    ScalarField, VectorField, SolverError,
    constant_field, interpolate, l2_norm, l2_norm_vec,
    assemble_weighted_stiffness, assemble_weak_divergence_rhs,
    solve_neumann, solve_dirichlet,
)
from .forward import (
    ForwardResult, compute_field, forward_map,
    divergence_identity_error, gauge_field, rotate,
)
from .frechet import DerivativeResult, frechet_derivative, fd_validate
from .transport import AdvectionOperator, assemble_advection, transport_solve
from .recon import (
    ReconConfig, ReconReport, AdmissibilityError,
    reconstruct, fit_convergence_factor, stability_check,
)
from .phantoms import (
    Bump, PhantomSpec, make_phantom,
    single_bump_spec, three_bump_spec, random_bump_spec,
)

__version__ = "0.1.0"
