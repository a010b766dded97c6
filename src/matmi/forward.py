"""Induced electric field and forward data map.

The out-of-plane model is fixed: both the static background field and the
pulsed stimulation direction are the unit vector along the third axis, so
crossing an in-plane vector v with the background is the 90-degree rotation
``v x B0 = (v2, -v1)``.  The curl system reduces to a scalar Neumann problem
through a gauge field with unit curl; the centered gauge

    E_gauge = 0.5 * (-(y - yc), x - xc)

minimises the gauge norm over the rectangle, which gives the sharpest field
bound and the best-conditioned right-hand side.  The computed field is gauge
independent up to solver tolerance.

The data map evaluates ``g = sigma + grad(sigma) . (E x B0)`` through the
same discrete advection-reaction operator used by the reconstruction's
transport solve, projected back to nodes by the lumped mass matrix.  Sharing
the operator makes the reconstruction's fixed point exact in the
data-on-the-same-mesh mode.

The result of a field solve keeps the stiffness, not its multigrid
hierarchy, which is dropped once the potential is found.  On first use it
builds the two sparse maps of the data map's derivative and the pinned LU
of the stiffness (``fem.PinnedLU``), which the auxiliary Neumann solves of
all directions share.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from . import fem, transport
from .fem import ScalarField, VectorField
from .mesh import Mesh, nested_interpolation

__all__ = [
    "ForwardResult", "DerivativeMaps",
    "rotate", "gauge_field", "compute_field", "forward_map",
    "divergence_identity_error",
]


def rotate(values: np.ndarray) -> np.ndarray:
    """Cross an in-plane vector with B0: ``(v1, v2) -> (v2, -v1)``."""
    out = np.empty_like(values)
    out[..., 0] = values[..., 1]
    out[..., 1] = -values[..., 0]
    return out


def gauge_field(mesh: Mesh) -> VectorField:
    """Centered gauge with unit curl, sampled at element centroids.

    Both components are centered on the domain, which attains the minimal
    gauge norm.
    """
    a = 0.5 * (mesh.y_min + mesh.y_max)
    b = -0.5 * (mesh.x_min + mesh.x_max)
    c = mesh.element_centroids
    vals = 0.5 * np.column_stack([-c[:, 1] + a, c[:, 0] + b])
    return VectorField(mesh, vals)


class DerivativeMaps(NamedTuple):
    """The sparse maps of the data map's derivative at one conductivity, and a stiffness factor.

    Along a direction ``h`` the derivative is
    ``(A h + advection @ phi) / M_L``, where ``phi`` solves the Neumann
    problem with right-hand side ``rhs @ h`` and ``A`` is the data operator.
    Both maps are stored by the mesh's seven diagonals, and their values are
    read-only.  ``factor`` is the pinned LU of the stiffness with its row-0
    correction; its solve (``fem.pinned_solve``) is exact in every row, and
    preconditions each direction's Neumann solve, which it normally ends in
    one CG step.
    """

    rhs: sp.dia_matrix        # h -> load vector of -div(h E), h averaged per element
    advection: sp.dia_matrix  # phi -> dA[rot grad(phi)] @ sigma
    factor: fem.PinnedLU      # fem.pinned_lu of the sigma-weighted stiffness


@dataclass(frozen=True)
class ForwardResult:
    """Field solve output, with the operators built from it."""

    sigma: ScalarField              # the conductivity the field was solved at
    potential: ScalarField          # zero-mean Neumann potential u
    field: VectorField              # E = gauge + grad(u), elementwise
    field_norm: float               # area-weighted L2 norm of E
    cg_iterations: int              # CG iterations of the potential's solve
    stiffness: sp.dia_matrix        # the sigma-weighted stiffness
    operator: transport.AdvectionOperator  # data operator for velocity E x B0

    def check_solved_at(self, sigma: ScalarField) -> None:
        """Raise ``ValueError`` unless ``sigma`` is this field's conductivity, or equal to it."""
        if self.sigma is not sigma and not (
            self.sigma.mesh is sigma.mesh and np.array_equal(self.sigma.values, sigma.values)
        ):
            raise ValueError("field was solved at a different conductivity")

    @cached_property
    def derivative_maps(self) -> DerivativeMaps:
        """The maps of the derivative at ``sigma``, built on first use and read-only.

        Row i of ``rhs`` holds ``-area/3 * E . grad(phi_i)`` of each element
        in every column of the element, the weak divergence of ``h E`` with
        ``h`` at its element mean.  The stiffness is factored first, so that
        the maps' temporaries reuse the memory its workspace frees.
        """
        mesh = self.sigma.mesh
        factor = fem.pinned_lu(self.stiffness)
        load = -(mesh.area / 3.0) * mesh.dot_gradients(self.field.values)
        rhs = mesh.assemble(lambda t, i, k: load[t::2, i])
        rhs.data.setflags(write=False)
        del load
        advection = transport.advection_matrix_derivative(self.operator, self.sigma.values)
        return DerivativeMaps(rhs, advection, factor)


def compute_field(sigma: ScalarField, guess: ScalarField | None = None) -> ForwardResult:
    """Solve the weak Neumann problem for the potential and form the field.

    The conductivity must be strictly positive at every node.  The returned
    field satisfies ``integral(sigma E . grad(phi)) = 0`` for every P1 test
    function, to solver tolerance.  CG starts from ``guess`` when given, such
    as the potential of a nearby sigma, and is preconditioned by a multigrid
    V-cycle whose hierarchy is dropped after this solve.  The result carries
    the stiffness and the data operator built from this sigma, for callers
    that reuse them; the maps of the data map's derivative, and the factor of
    the stiffness that its directions' solves share, are built on first use.
    """
    mesh = sigma.mesh
    gauge = gauge_field(mesh)
    hierarchy = fem.multigrid(sigma)
    stiffness = hierarchy.matrices[0]
    weighted_gauge = VectorField(mesh, fem.element_means(sigma)[:, None] * gauge.values)
    rhs = fem.assemble_weak_divergence_rhs(weighted_gauge)
    u, residuals = fem.solve_neumann(mesh, stiffness, rhs, hierarchy.vcycle, guess)
    field = VectorField(mesh, gauge.values + fem.gradient_field(u).values)
    # the advection assembly is the peak of a field solve: free its inputs
    # first, which lowered the peak RSS of a reconstruction that holds an LU
    del gauge, weighted_gauge, rhs, hierarchy
    operator = transport.assemble_advection(VectorField(mesh, rotate(field.values)))
    return ForwardResult(
        sigma=sigma, potential=u, field=field, field_norm=fem.l2_norm_vec(field),
        cg_iterations=len(residuals) - 1, stiffness=stiffness, operator=operator,
    )


def forward_map(sigma: ScalarField, result: ForwardResult | None = None) -> ScalarField:
    """Acoustic-source data ``g = sigma + grad(sigma) . (E x B0)`` as a P1 field.

    Applies the shared advection-reaction operator and the lumped-mass
    projection, so constants map to themselves exactly and the transport
    solve of the reconstruction inverts this map exactly on the same mesh.
    Raises ``ValueError`` when ``result`` was solved at another conductivity.
    """
    if result is None:
        result = compute_field(sigma)
    result.check_solved_at(sigma)
    return transport.apply_data_operator(result.operator, sigma)


# ---------------------------------------------------------------------------
# divergence identity diagnostic

def divergence_identity_error(field: VectorField) -> float:
    """Deviation of the distributional ``div(E x B0)`` from 1 on a coarse grid.

    Against same-mesh test functions the discrete field preserves the
    identity exactly (the rotated gradient part is divergence free in
    distribution, and the gauge part is integrated exactly).  So the weak
    divergence with its boundary flux is tested against the hat functions of
    a coarse evaluation grid instead, interpolated onto the mesh; its cell
    count per side is the largest divisor of the mesh's count up to 8.  The
    value does not depend on sigma beyond solver tolerance: only the
    centroid sampling of the gauge on the boundary cells shows, a first-order
    error in the mesh size.  Values compare only between meshes that share
    an evaluation grid; a prime count gives a single coarse cell.
    """
    mesh = field.mesh
    w = rotate(field.values)
    b = fem.assemble_weak_divergence_rhs(VectorField(mesh, w))
    # the edge opposite local vertex k has (w.n)|e| = -2|T| w.grad(phi_k); a
    # constant flux against a test function linear along the edge: half to each end
    b += mesh.boundary_facet_sum(-mesh.area * mesh.dot_gradients(w))

    cx, cy = (max(d for d in range(1, min(n, 8) + 1) if n % d == 0) for n in (mesh.nx, mesh.ny))
    p = nested_interpolation(mesh.nx, mesh.ny, cx, cy)
    # each interpolated hat function is a P1 function on the mesh: both are exact
    b = p.T @ b
    diag = p.T @ fem.lumped_mass(mesh)
    dev = b / diag - 1.0
    return float(np.sqrt(np.sum(diag * dev**2)))
