"""Linearisation of the forward data map and its finite-difference validation.

The derivative at sigma in direction h follows the expanded identity

    DF(h) = h + grad(sigma) . (grad(phi) x B0) + grad(h) . (E x B0),

where phi solves the auxiliary Neumann problem with right-hand side
``-div(h E)``.  Discretely this is the exact directional derivative of the
composite map behind ``forward_map`` (field solve, rotation, stabilized
advection operator, lumped-mass projection), including the dependence of
the streamline time scale on the velocity.  Exactness is what makes the
finite-difference remainder genuinely quadratic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fem, forward, transport
from .fem import ScalarField, VectorField
from .forward import ForwardResult

__all__ = ["DerivativeResult", "frechet_derivative", "fd_validate"]


@dataclass(frozen=True)
class DerivativeResult:
    """Auxiliary potential and derivative value for one direction h."""

    potential: ScalarField      # zero-mean solution of the auxiliary problem
    value: ScalarField          # DF_sigma(h)


def frechet_derivative(
    sigma: ScalarField,
    h: ScalarField,
    base: ForwardResult | None = None,
) -> DerivativeResult:
    """Directional derivative of the forward map at ``sigma`` along ``h``.

    ``base`` may carry a precomputed ``compute_field(sigma)`` result when many
    directions are evaluated at the same conductivity; its stiffness and data
    operator are reused.
    """
    mesh = sigma.mesh
    if h.mesh is not mesh:
        raise ValueError("increment lives on a different mesh")
    if base is None:
        base = forward.compute_field(sigma)

    # auxiliary Neumann problem: div(sigma grad(phi)) = -div(h E)
    h_elem = fem.element_means(h)
    weighted = VectorField(mesh, h_elem[:, None] * base.field.values)
    rhs = fem.assemble_weak_divergence_rhs(mesh, weighted)
    phi = fem.solve_neumann(mesh, base.stiffness, rhs)

    op = base.operator
    delta_w = VectorField(mesh, forward.rotate(fem.gradient_field(phi).values))
    d_op = transport.advection_matrix_derivative(mesh, op.velocity, delta_w)
    diag = fem.lumped_mass(mesh)
    values = (op.matrix @ h.values + d_op @ sigma.values) / diag
    return DerivativeResult(potential=phi, value=ScalarField(mesh, values))


def fd_validate(
    sigma: ScalarField, h: ScalarField, t_values: tuple[float, ...] = (1e-2, 5e-3, 2.5e-3)
) -> np.ndarray:
    """Remainder norms ``r(t) = ||F(sigma + t h) - F(sigma) - t DF(h)||``.

    ``sigma + t h`` must stay admissible for every t.  For an exact
    linearisation ``r(t)/t^2`` is approximately constant.
    """
    mesh = sigma.mesh
    base = forward.compute_field(sigma)
    f0 = forward.forward_map(sigma, base)
    df = frechet_derivative(sigma, h, base).value
    remainders = []
    for t in t_values:
        perturbed = ScalarField(mesh, sigma.values + t * h.values)
        if np.any(perturbed.values <= 0.0):
            raise ValueError(f"sigma + t*h loses admissibility at t={t}")
        ft = forward.forward_map(perturbed)
        r = ScalarField(mesh, ft.values - f0.values - t * df.values)
        remainders.append(fem.l2_norm(r))
    return np.asarray(remainders)
