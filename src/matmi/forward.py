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

from dataclasses import dataclass, replace

import numpy as np

from . import fem, transport
from .fem import ScalarField, VectorField
from .mesh import Mesh, build_mesh

__all__ = [
    "ForwardResult",
    "rotate", "gauge_field", "compute_field", "forward_map", "simulate",
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
    """Field solve output; ``data`` and diagnostics are filled by simulate()."""

    potential: ScalarField          # zero-mean Neumann potential u
    field: VectorField              # E = gauge + grad(u), elementwise
    field_norm: float               # area-weighted L2 norm of E
    hierarchy: fem.Multigrid        # V-cycle hierarchy of the sigma-weighted stiffness
    operator: transport.AdvectionOperator  # data operator for velocity E x B0
    data: ScalarField | None = None
    divergence_error: float | None = None


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


def simulate(sigma: ScalarField) -> ForwardResult:
    """Field solve plus data map plus diagnostics, for studies and the CLI."""
    result = compute_field(sigma)
    g = forward_map(sigma, result)
    err = divergence_identity_error(result.field)
    return replace(result, data=g, divergence_error=err)


# ---------------------------------------------------------------------------
# divergence identity diagnostic

def _largest_divisor_below(n: int, cap: int) -> int:
    for d in range(min(n, cap), 0, -1):
        if n % d == 0:
            return d
    return 1


def _evaluation_mesh(mesh: Mesh, cap: int = 8) -> tuple[Mesh, np.ndarray]:
    """Coarse evaluation grid plus the coarse element containing each element.

    The subdivision counts are the largest divisors of ``nx`` and ``ny`` not
    exceeding ``cap``, so every fine triangle nests inside exactly one coarse
    triangle (the diagonals are parallel).
    """
    ndx = _largest_divisor_below(mesh.nx, cap)
    ndy = _largest_divisor_below(mesh.ny, cap)
    coarse = build_mesh(ndx, ndy, (mesh.x_min, mesh.x_max, mesh.y_min, mesh.y_max))
    cell = np.arange(mesh.n_elements) // 2
    ci = (cell % mesh.nx) // (mesh.nx // ndx)
    cj = (cell // mesh.nx) // (mesh.ny // ndy)
    hx = (mesh.x_max - mesh.x_min) / ndx
    hy = (mesh.y_max - mesh.y_min) / ndy
    rel_x = (mesh.element_centroids[:, 0] - (mesh.x_min + ci * hx)) / hx
    rel_y = (mesh.element_centroids[:, 1] - (mesh.y_min + cj * hy)) / hy
    below_diagonal = rel_x > rel_y
    parent = 2 * (cj * ndx + ci) + np.where(below_diagonal, 0, 1)
    return coarse, parent


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
    its boundary flux is projected onto a fixed coarse evaluation grid
    instead; the lumped L2 norm of the deviation from 1 there is a genuine
    first-order sampling error that halves with the mesh size.
    """
    mesh = field.mesh
    w = rotate(field.values)
    coarse, parent = _evaluation_mesh(mesh)
    grads = coarse.element_gradients[parent]                 # (M, 3, 2)
    contrib = -mesh.element_areas[:, None] * np.einsum("md,mkd->mk", w, grads)
    nodes, weights = [coarse.elements[parent].ravel()], [contrib.ravel()]

    elems, n1, n2, normals = _boundary_edges(mesh)
    flux = np.einsum("md,md->m", w[elems], normals)
    p1, p2 = mesh.nodes[n1], mesh.nodes[n2]
    length = np.hypot(*(p2 - p1).T)
    ce = parent[elems]
    for k in range(3):
        cnodes = coarse.elements[ce, k]
        g = coarse.element_gradients[ce, k]
        anchor = coarse.nodes[cnodes]
        v1 = 1.0 + np.einsum("md,md->m", g, p1 - anchor)
        v2 = 1.0 + np.einsum("md,md->m", g, p2 - anchor)
        nodes.append(cnodes)
        weights.append(flux * length * 0.5 * (v1 + v2))
    b = np.bincount(
        np.concatenate(nodes), weights=np.concatenate(weights), minlength=coarse.n_nodes
    )

    diag = fem.lumped_mass(coarse)
    dev = b / diag - 1.0
    return float(np.sqrt(np.sum(diag * dev**2)))
