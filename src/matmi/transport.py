"""Advection-reaction operator for the conductivity update.

The update equation ``div(sigma w) = g`` with ``w = E x B0`` expands to

    w . grad(sigma) + sigma = g,

because the rotated field has unit divergence in the continuum.  The
reaction coefficient is kept at the analytic value 1 (not the discrete
divergence of w), which removes an O(h) consistency error from the
reconstruction's fixed point.

Discretisation: the advection term is tested against streamline-perturbed
functions ``phi_i + tau_e w.grad(phi_i)`` with ``tau_e = h_e/(2|w|_e + eps)``;
the reaction term is the lumped mass.  Keeping the streamline perturbation
off the reaction term makes the operator reproduce constants exactly:
applied to a constant c it returns exactly c times the lumped mass vector.

Dirichlet data is imposed strongly on every boundary node; the reaction
term keeps the rows nondegenerate even where the velocity vanishes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import fem
from .fem import ScalarField, VectorField
from .mesh import Mesh

__all__ = [
    "AdvectionOperator", "assemble_advection", "advection_matrix_derivative",
    "apply_data_operator", "transport_solve",
]

#: velocity regularisation in the streamline time scale
TAU_EPS = 1e-12


@dataclass(frozen=True)
class AdvectionOperator:
    """Sparse form of ``sigma -> w . grad(sigma) + sigma`` with stabilization."""

    mesh: Mesh
    velocity: VectorField
    matrix: sp.csr_matrix       # advection + lumped-mass reaction, all rows
    tau: np.ndarray             # per-element streamline time scale


def _streamline_data(mesh: Mesh, w: np.ndarray):
    """Shared geometry for the advection assembly and its linearisation."""
    g = mesh.element_gradients                       # (M, 3, 2)
    a = np.einsum("md,mkd->mk", w, g)                # w . grad(phi_k)
    speed = np.hypot(w[:, 0], w[:, 1])
    tau = mesh.element_diameter / (2.0 * speed + TAU_EPS)
    return g, a, speed, tau


def assemble_advection(mesh: Mesh, w: VectorField) -> AdvectionOperator:
    """Assemble the stabilized advection-reaction operator for velocity ``w``."""
    if w.mesh is not mesh:
        raise ValueError("velocity lives on a different mesh")
    _, a, _, tau = _streamline_data(mesh, w.values)
    area = mesh.element_areas
    # row i, column j: area * (w.grad phi_j) * (1/3 + tau * w.grad phi_i)
    test = 1.0 / 3.0 + tau[:, None] * a                  # (M, 3) streamline tests
    ke = area[:, None, None] * test[:, :, None] * a[:, None, :]
    matrix = mesh.assemble(ke)
    matrix = (matrix + sp.diags(fem.lumped_mass(mesh))).tocsr()
    return AdvectionOperator(mesh=mesh, velocity=w, matrix=matrix, tau=tau)


def advection_matrix_derivative(
    mesh: Mesh, w: VectorField, delta_w: VectorField
) -> sp.csr_matrix:
    """Exact directional derivative of ``assemble_advection`` in ``delta_w``.

    Differentiates both the advection entries and the streamline time scale;
    needed so the data map's linearisation has a quadratic remainder.
    """
    if w.mesh is not mesh or delta_w.mesh is not mesh:
        raise ValueError("velocity lives on a different mesh")
    g, a, speed, tau = _streamline_data(mesh, w.values)
    da = np.einsum("md,mkd->mk", delta_w.values, g)
    # d|w| = w.dw/|w|; the derivative of tau*a_i*a_j stays bounded as |w| -> 0
    with np.errstate(invalid="ignore", divide="ignore"):
        dspeed = np.einsum("md,md->m", w.values, delta_w.values) / speed
    dspeed[speed == 0.0] = 0.0
    dtau = -2.0 * mesh.element_diameter * dspeed / (2.0 * speed + TAU_EPS) ** 2
    area = mesh.element_areas
    test = 1.0 / 3.0 + tau[:, None] * a
    dtest = dtau[:, None] * a + tau[:, None] * da
    ke = area[:, None, None] * (
        test[:, :, None] * da[:, None, :] + dtest[:, :, None] * a[:, None, :]
    )
    return mesh.assemble(ke)


def apply_data_operator(op: AdvectionOperator, sigma: ScalarField) -> ScalarField:
    """Lumped-mass L2 representation of ``w . grad(sigma) + sigma``."""
    if sigma.mesh is not op.mesh:
        raise ValueError("field lives on a different mesh")
    vals = (op.matrix @ sigma.values) / fem.lumped_mass(op.mesh)
    return ScalarField(op.mesh, vals)


def transport_solve(
    op: AdvectionOperator, g: ScalarField, boundary_value: ScalarField
) -> ScalarField:
    """Solve the update equation with strong Dirichlet data on the whole boundary.

    Interior rows come from the assembled operator with right-hand side
    ``M_lumped * g`` (matching the data map's projection convention);
    boundary rows are unit rows carrying ``boundary_value``.
    """
    mesh = op.mesh
    if g.mesh is not mesh or boundary_value.mesh is not mesh:
        raise ValueError("fields live on a different mesh")
    rhs = fem.lumped_mass(mesh) * g.values
    matrix, rhs = fem.dirichlet_system(
        op.matrix, rhs, mesh.boundary_nodes, boundary_value.values[mesh.boundary_nodes],
    )
    return fem.solve_dirichlet(mesh, matrix, rhs, mesh.boundary_nodes)
