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
    matrix: sp.dia_matrix       # advection + lumped-mass reaction, all rows
    a: np.ndarray               # (M, 3) w . grad(phi_k) per element
    tau: np.ndarray             # per-element streamline time scale


def assemble_advection(w: VectorField) -> AdvectionOperator:
    """Assemble the stabilized advection-reaction operator for velocity ``w`` on its mesh."""
    mesh = w.mesh
    a = mesh.dot_gradients(w.values)
    speed = np.hypot(w.values[:, 0], w.values[:, 1])
    tau = mesh.element_diameter / (2.0 * speed + TAU_EPS)
    # row i, column j: area * (w.grad phi_j) * (1/3 + tau * w.grad phi_i)
    row = mesh.area * (1.0 / 3.0 + tau[:, None] * a)
    matrix = mesh.assemble(lambda t, i, j: row[t::2, i] * a[t::2, j])
    matrix.setdiag(matrix.diagonal() + fem.lumped_mass(mesh))
    return AdvectionOperator(mesh=mesh, velocity=w, matrix=matrix, a=a, tau=tau)


def advection_matrix_derivative(op: AdvectionOperator, s: np.ndarray) -> sp.dia_matrix:
    """The map ``phi -> dA[rot grad(phi)] @ s``, ``dA`` the derivative of ``assemble_advection``.

    ``rot`` crosses with B0, ``(v1, v2) -> (v2, -v1)``.  Exact at ``op``'s
    velocity: differentiates both the advection entries and the streamline
    time scale, so the data map's linearisation has a quadratic remainder.
    The velocity increment ``dw`` enters the element matrices
    ``area * (test_i da_j + dtest_i a_j)`` of ``dA`` linearly, so their
    product with the element values of ``s`` is ``dw . V_i`` per element,
    with

        V_i = area test_i grad(s) + area (w . grad(s)) (a_i q + tau grad(phi_i)),

    where ``dtau = q . dw``.  With ``dw = sum_k phi_k rot(grad(phi_k))`` the
    element matrix of the map is ``rot(grad(phi_k)) . V_i``.  The result is
    stored by the mesh's seven diagonals, and its values are read-only.
    """
    mesh = op.mesh
    a, tau, w = op.a, op.tau, op.velocity.values
    area, g = mesh.area, mesh.gradients
    # cheap to redo, so the operator does not hold them through the transport solve
    speed = np.hypot(w[:, 0], w[:, 1])
    test = 1.0 / 3.0 + tau[:, None] * a
    local = mesh.gather(s)                                    # (M, 3)
    grad_s = mesh.gradient(s)
    # summed in vertex order: einsum may fuse and reorder the products
    a_s = area * (a * local).sum(axis=1)
    # dtau = -2 diam d|w| / (2|w| + eps)^2 with d|w| = w.dw/|w|; the derivative
    # of tau*a_i*a_j stays bounded as |w| -> 0
    with np.errstate(invalid="ignore", divide="ignore"):
        q = (-2.0 * mesh.element_diameter / (speed * (2.0 * speed + TAU_EPS) ** 2))[:, None] * w
    q[speed == 0.0] = 0.0
    del speed, local

    def by_type(x):
        """View of an (M, ...) per-element array as (2, ..., cells): the cells of each type last."""
        return np.moveaxis(x.reshape(-1, 2, *x.shape[1:]), 0, -1)

    # V[t, i, :, c] of the type-t element of cell c, so that every block reads
    # contiguous rows; each entry takes the same products and sums as per element
    a, q, tau, a_s = by_type(a), by_type(q)[:, None], by_type(tau)[:, None, None], by_type(a_s)
    v = np.empty((2, 3, 2, mesh.nx * mesh.ny))
    np.multiply(by_type(area * test)[:, :, None], by_type(grad_s)[:, None], out=v)
    del test, grad_s
    # a_s (a_i q + tau grad(phi_i)), with each type's gradients over its cells
    terms = np.multiply(a[:, :, None], q)
    terms += tau * g[..., None]
    terms *= a_s[:, None, None]
    v += terms
    del terms
    # rot(grad(phi_k)) . V_i = g_k2 V_i1 - g_k1 V_i2
    matrix = mesh.assemble(lambda t, i, k: v[t, i, 0] * g[t, k, 1] - v[t, i, 1] * g[t, k, 0])
    matrix.data.setflags(write=False)
    return matrix


def apply_data_operator(op: AdvectionOperator, sigma: ScalarField) -> ScalarField:
    """Lumped-mass L2 representation of ``w . grad(sigma) + sigma``."""
    fem.check_mesh("sigma", sigma, op.mesh)
    vals = (op.matrix @ sigma.values) / fem.lumped_mass(op.mesh)
    return ScalarField(op.mesh, vals)


def transport_solve(
    op: AdvectionOperator,
    g: ScalarField,
    boundary_value: ScalarField,
    factor: fem.FreeBlockLU | None = None,
) -> ScalarField:
    """Solve the update equation with strong Dirichlet data on the whole boundary.

    Interior rows come from the assembled operator with right-hand side
    ``M_lumped * g`` (matching the data map's projection convention); the
    boundary entries of the rhs carry ``boundary_value``, which
    ``fem.solve_dirichlet`` prescribes without reading the boundary rows.
    ``factor`` holds the LU that the solve refines from and leaves behind
    (see ``fem.solve_dirichlet``).
    """
    mesh = op.mesh
    fem.check_mesh("g", g, mesh)
    fem.check_mesh("boundary_value", boundary_value, mesh)
    nodes = mesh.boundary_nodes
    rhs = fem.lumped_mass(mesh) * g.values
    rhs[nodes] = boundary_value.values[nodes]
    return fem.solve_dirichlet(mesh, op.matrix, rhs, factor)
