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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fem, transport
from .fem import ScalarField, VectorField
from .mesh import Mesh, nested_interpolation

__all__ = [
    "ForwardResult",
    "rotate", "gauge_field", "compute_field", "forward_map",
    "divergence_identity_error",
]


def rotate(values: np.ndarray) -> np.ndarray:
    """Cross an in-plane vector with B0: ``(v1, v2) -> (v2, -v1)``."""
    out = np.empty_like(values)
    out[..., 0] = values[..., 1]
    out[..., 1] = -values[..., 0]
    return out


def gauge_field(mesh: Mesh, shift: tuple[float, float] | None = None) -> VectorField:
    """Centered gauge with unit curl, sampled at element centroids.

    ``shift = (a, b)`` overrides the centering: the field is then
    ``0.5 * (-y + a, x + b)``.  The default centers both components on the
    domain, which attains the minimal gauge norm.
    """
    if shift is None:
        a = 0.5 * (mesh.y_min + mesh.y_max)
        b = -0.5 * (mesh.x_min + mesh.x_max)
    else:
        a, b = (float(s) for s in shift)
    c = mesh.element_centroids
    vals = 0.5 * np.column_stack([-c[:, 1] + a, c[:, 0] + b])
    return VectorField(mesh, vals)


@dataclass(frozen=True)
class ForwardResult:
    """Field solve output, with the operators built from it."""

    potential: ScalarField          # zero-mean Neumann potential u
    field: VectorField              # E = gauge + grad(u), elementwise
    field_norm: float               # area-weighted L2 norm of E
    hierarchy: fem.Multigrid        # V-cycle hierarchy of the sigma-weighted stiffness
    operator: transport.AdvectionOperator  # data operator for velocity E x B0


def compute_field(sigma: ScalarField, gauge: VectorField | None = None) -> ForwardResult:
    """Solve the weak Neumann problem for the potential and form the field.

    The conductivity must be strictly positive at every node.  The returned
    field satisfies ``integral(sigma E . grad(phi)) = 0`` for every P1 test
    function, to solver tolerance.  The result also carries the multigrid
    hierarchy of the stiffness (its ``matrices[0]``) and the data operator
    built from this sigma, for callers that reuse them.
    """
    mesh = sigma.mesh
    if gauge is None:
        gauge = gauge_field(mesh)
    sigma_e = fem.element_means(sigma)
    hierarchy = fem.multigrid(mesh, fem.assemble_weighted_stiffness(mesh, sigma))
    weighted_gauge = VectorField(mesh, sigma_e[:, None] * gauge.values)
    rhs = fem.assemble_weak_divergence_rhs(mesh, weighted_gauge)
    u = fem.solve_neumann(mesh, hierarchy, rhs)
    field = VectorField(mesh, gauge.values + fem.gradient_field(u).values)
    operator = transport.assemble_advection(mesh, VectorField(mesh, rotate(field.values)))
    return ForwardResult(
        potential=u, field=field, field_norm=fem.l2_norm_vec(field),
        hierarchy=hierarchy, operator=operator,
    )


def forward_map(sigma: ScalarField, result: ForwardResult | None = None) -> ScalarField:
    """Acoustic-source data ``g = sigma + grad(sigma) . (E x B0)`` as a P1 field.

    Applies the shared advection-reaction operator and the lumped-mass
    projection, so constants map to themselves exactly and the transport
    solve of the reconstruction inverts this map exactly on the same mesh.
    """
    if result is None:
        result = compute_field(sigma)
    return transport.apply_data_operator(result.operator, sigma)


# ---------------------------------------------------------------------------
# divergence identity diagnostic

def _largest_divisor_below(n: int, cap: int) -> int:
    for d in range(min(n, cap), 0, -1):
        if n % d == 0:
            return d
    return 1


def _boundary_edges(mesh: Mesh) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Boundary edges as (element, node1, node2, outward normal) arrays."""
    nx, ny = mesh.nx, mesh.ny
    ii = np.arange(nx)
    jj = np.arange(ny)
    elems = np.concatenate([
        2 * ii,                        # bottom, lower triangles
        2 * (jj * nx + nx - 1),        # right, lower triangles
        2 * ((ny - 1) * nx + ii) + 1,  # top, upper triangles
        2 * (jj * nx) + 1,             # left, upper triangles
    ])
    n1 = np.concatenate([
        ii, jj * (nx + 1) + nx, ny * (nx + 1) + ii + 1, (jj + 1) * (nx + 1),
    ])
    n2 = np.concatenate([
        ii + 1, (jj + 1) * (nx + 1) + nx, ny * (nx + 1) + ii, jj * (nx + 1),
    ])
    normals = np.concatenate([
        np.tile([0.0, -1.0], (nx, 1)), np.tile([1.0, 0.0], (ny, 1)),
        np.tile([0.0, 1.0], (nx, 1)), np.tile([-1.0, 0.0], (ny, 1)),
    ])
    return elems, n1, n2, normals


def divergence_identity_error(field: VectorField) -> float:
    """Deviation of the distributional ``div(E x B0)`` from 1.

    The discrete field preserves the identity exactly against same-mesh test
    functions (the rotated gradient part is divergence free in distribution,
    and the gauge part is integrated exactly), so the weak divergence with
    its boundary flux is tested against the hat functions of a coarse
    evaluation grid instead, of at most 8 cells a side, interpolated onto the
    mesh.  The lumped L2 norm of the deviation from 1 there is a genuine
    first-order sampling error that halves with the mesh size.
    """
    mesh = field.mesh
    w = rotate(field.values)
    b = fem.assemble_weak_divergence_rhs(mesh, VectorField(mesh, w))
    elems, n1, n2, normals = _boundary_edges(mesh)
    p1, p2 = mesh.nodes[n1], mesh.nodes[n2]
    # a constant flux against a test function linear along the edge: half to each end
    half = 0.5 * np.einsum("md,md->m", w[elems], normals) * np.hypot(*(p2 - p1).T)
    b += np.bincount(np.concatenate([n1, n2]), np.concatenate([half, half]), mesh.n_nodes)

    p = nested_interpolation(
        mesh.nx, mesh.ny, _largest_divisor_below(mesh.nx, 8), _largest_divisor_below(mesh.ny, 8)
    )
    # each interpolated hat function is a P1 function on the mesh: both are exact
    b = p.T @ b
    diag = p.T @ fem.lumped_mass(mesh)
    dev = b / diag - 1.0
    return float(np.sqrt(np.sum(diag * dev**2)))
