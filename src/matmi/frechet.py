"""Linearisation of the forward data map and its finite-difference validation.

The derivative at sigma in direction h follows the expanded identity

    DF(h) = h + grad(sigma) . (grad(phi) x B0) + grad(h) . (E x B0),

where phi solves the auxiliary Neumann problem with right-hand side
``-div(h E)``.  Discretely this is the exact directional derivative of the
composite map behind ``forward_map`` (field solve, rotation, stabilized
advection operator, lumped-mass projection), including the dependence of
the streamline time scale on the velocity.  Exactness is what makes the
finite-difference remainder genuinely quadratic.

At a fixed sigma the derivative is ``DF(h) = M_L^-1 (A h + B phi)`` with
``phi = K^+ C h``: ``A`` is the data operator, ``K`` the stiffness, and
``C`` (h to the auxiliary right-hand side) and ``B`` (phi to the
derivative of the operator along ``rot grad(phi)``, applied to sigma) are
fixed sparse matrices.  ``forward.ForwardResult.derivative_maps`` builds
``C``, ``B`` and ``fem.pinned_lu`` of ``K`` once per field solve.  Each
direction then costs three sparse products and a Neumann solve by CG
preconditioned by that LU's exact solve, row 0 included, which meets the
residual contract in one step on the unit square up to n = 128, where a
multigrid V-cycle takes a dozen steps or, on stretched cells, a hundred.
The factor repays its cost from a few directions on.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import fem, forward
from .fem import ScalarField
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
    directions are evaluated at the same conductivity; its data operator,
    derivative maps and stiffness factor are reused.  The auxiliary Neumann
    solve is CG preconditioned by that factor, to the same residual contract
    as every Neumann solve.  Raises ``ValueError``, before any solve, when
    ``h`` lives on another mesh than ``sigma`` or is not finite at a node,
    and when ``base`` was solved at another conductivity.
    """
    mesh = sigma.mesh
    fem.check_mesh("increment", h, mesh)
    fem.check_nodes("increment", h, ~np.isfinite(h.values))
    if base is None:
        base = forward.compute_field(sigma)
    base.check_solved_at(sigma)

    maps = base.derivative_maps
    # auxiliary Neumann problem: div(sigma grad(phi)) = -div(h E)
    precondition = partial(fem.pinned_solve, maps.factor)
    phi, _ = fem.solve_neumann(mesh, base.stiffness, maps.rhs @ h.values, precondition)
    values = base.operator.matrix @ h.values + maps.advection @ phi.values
    values /= fem.lumped_mass(mesh)
    return DerivativeResult(potential=phi, value=ScalarField(mesh, values))


def fd_validate(
    sigma: ScalarField, h: ScalarField, t_values: tuple[float, ...] = (1e-2, 5e-3, 2.5e-3)
) -> np.ndarray:
    """Remainder norms ``r(t) = ||F(sigma + t h) - F(sigma) - t DF(h)||``.

    ``sigma + t h`` must stay admissible for every t.  For an exact
    linearisation ``r(t)/t^2`` is approximately constant.  Raises
    ``ValueError``, before any solve, when ``h`` is on another mesh or not finite at a node.
    """
    mesh = sigma.mesh
    fem.check_mesh("increment", h, mesh)
    fem.check_nodes("increment", h, ~np.isfinite(h.values))
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
