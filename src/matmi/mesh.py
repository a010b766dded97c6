"""Uniform triangulation of a rectangle with P1 element bookkeeping.

Every grid cell is split along the same diagonal (lower-left to upper-right),
which keeps refinement nested: the node set of an ``n`` mesh is a subset of
the node set of the corresponding ``2n`` mesh.  Nodes are numbered row-major,
``index = j*(nx+1) + i``, so matrix sparsity patterns are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

__all__ = ["Mesh", "build_mesh"]

#: consistent P1 mass matrix of a triangle, divided by its area
_LOCAL_MASS = np.full((3, 3), 1.0 / 12.0) + np.eye(3) / 12.0


@dataclass(frozen=True)
class Mesh:
    """Structured conforming triangulation of ``[x_min, x_max] x [y_min, y_max]``."""

    nx: int
    ny: int
    x_min: float
    x_max: float
    y_min: float
    y_max: float
    nodes: np.ndarray            # (n_nodes, 2)
    elements: np.ndarray         # (n_elements, 3) node indices, counterclockwise
    boundary_nodes: np.ndarray   # sorted indices of nodes on the rectangle boundary
    element_areas: np.ndarray    # (n_elements,)
    element_gradients: np.ndarray  # (n_elements, 3, 2) P1 basis gradients
    element_centroids: np.ndarray  # (n_elements, 2)
    interior_nodes: np.ndarray = field(repr=False, default=None)

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_elements(self) -> int:
        return self.elements.shape[0]

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.nx

    @property
    def dy(self) -> float:
        return (self.y_max - self.y_min) / self.ny

    @property
    def element_diameter(self) -> float:
        """Longest edge of any element (the cell diagonal)."""
        return float(np.hypot(self.dx, self.dy))

    @property
    def area(self) -> float:
        return (self.x_max - self.x_min) * (self.y_max - self.y_min)

    def assemble(self, ke: np.ndarray) -> sp.csr_matrix:
        """Scatter (M, 3, 3) element matrices into a CSR matrix."""
        # int32, as scipy stores them below 2**31 nodes: no int64 copies at the peak
        elements = self.elements.astype(np.int32)
        rows = np.repeat(elements, 3, axis=1).ravel()
        cols = np.tile(elements, (1, 3)).ravel()
        mat = sp.coo_matrix(
            (ke.ravel(), (rows, cols)), shape=(self.n_nodes, self.n_nodes)
        )
        return mat.tocsr()

    @cached_property
    def mass_matrix(self) -> sp.csr_matrix:
        """Consistent P1 mass matrix (the L2 Gram matrix), built once and read-only."""
        matrix = self.assemble(self.element_areas[:, None, None] * _LOCAL_MASS)
        for arr in (matrix.data, matrix.indices, matrix.indptr):
            arr.setflags(write=False)
        return matrix

    @cached_property
    def lumped_mass(self) -> np.ndarray:
        """Row-sum lumped mass as a diagonal vector, built once and read-only."""
        diag = np.zeros(self.n_nodes)
        contrib = np.repeat(self.element_areas / 3.0, 3)
        np.add.at(diag, self.elements.ravel(), contrib)
        diag.setflags(write=False)
        return diag


def build_mesh(
    nx: int,
    ny: int,
    bounds: tuple[float, float, float, float] = (0.0, 1.0, 0.0, 1.0),
) -> Mesh:
    """Build the uniform triangulation with ``nx * ny`` cells, two triangles each.

    ``bounds`` is ``(x_min, x_max, y_min, y_max)``.  Raises ``ValueError`` for
    non-positive subdivision counts or degenerate bounds.
    """
    if nx < 1 or ny < 1:
        raise ValueError(f"subdivision counts must be positive, got nx={nx}, ny={ny}")
    x_min, x_max, y_min, y_max = (float(v) for v in bounds)
    if not (x_min < x_max and y_min < y_max):
        raise ValueError(f"degenerate bounds {bounds}")

    xs = np.linspace(x_min, x_max, nx + 1)
    ys = np.linspace(y_min, y_max, ny + 1)
    gx, gy = np.meshgrid(xs, ys)               # row-major: j*(nx+1) + i
    nodes = np.column_stack([gx.ravel(), gy.ravel()])

    ii, jj = np.meshgrid(np.arange(nx), np.arange(ny))
    ii = ii.ravel()
    jj = jj.ravel()
    a = jj * (nx + 1) + ii          # lower-left corner of each cell
    b = a + 1
    c = b + (nx + 1)
    d = a + (nx + 1)
    # diagonal a-c: triangles (a, b, c) and (a, c, d), both counterclockwise
    lower = np.column_stack([a, b, c])
    upper = np.column_stack([a, c, d])
    elements = np.empty((2 * nx * ny, 3), dtype=np.int64)
    elements[0::2] = lower
    elements[1::2] = upper

    p = nodes[elements]                               # (M, 3, 2)
    d1 = p[:, 1] - p[:, 0]
    d2 = p[:, 2] - p[:, 0]
    twice_area = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    if np.any(twice_area <= 0.0):
        bad = int(np.argmax(twice_area <= 0.0))
        raise ValueError(f"degenerate element {bad} with 2*area={twice_area[bad]}")
    edges = p[:, [2, 0, 1]] - p[:, [1, 2, 0]]          # edge opposite each vertex
    grads = np.stack([-edges[..., 1], edges[..., 0]], axis=-1) / twice_area[:, None, None]
    areas = 0.5 * twice_area
    centroids = p.mean(axis=1)

    on_boundary = (
        np.isclose(nodes[:, 0], x_min) | np.isclose(nodes[:, 0], x_max)
        | np.isclose(nodes[:, 1], y_min) | np.isclose(nodes[:, 1], y_max)
    )
    boundary = np.flatnonzero(on_boundary)
    interior = np.flatnonzero(~on_boundary)

    for arr in (nodes, elements, boundary, areas, grads, centroids, interior):
        arr.setflags(write=False)

    return Mesh(
        nx=nx, ny=ny, x_min=x_min, x_max=x_max, y_min=y_min, y_max=y_max,
        nodes=nodes, elements=elements, boundary_nodes=boundary,
        element_areas=areas, element_gradients=grads,
        element_centroids=centroids, interior_nodes=interior,
    )
