"""Uniform triangulation of a rectangle with P1 element bookkeeping.

Every grid cell is split along the same diagonal (lower-left to upper-right),
which keeps refinement nested: the node set of an ``n`` mesh is a subset of
the node set of the corresponding ``2n`` mesh.  Nodes are numbered row-major,
``index = j*(nx+1) + i``, so every P1 coupling lies on one of the seven
diagonals ``0, +-1, +-(nx+1), +-(nx+2)``, by which operators are stored.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

__all__ = [
    "Mesh", "DiagonalLayout", "StiffnessMap", "CoarseLevel", "MAX_ELEMENTS",
    "build_mesh", "nested_interpolation",
]

#: consistent P1 mass matrix of a triangle, divided by its area
_LOCAL_MASS = np.full((3, 3), 1.0 / 12.0) + np.eye(3) / 12.0

#: largest node block the nested dissection leaves undivided
DISSECTION_LEAF = 16

#: most elements a mesh may have: scipy stores indices below 2**31 as int32, and the
#: stiffness map's 7 entries per element outnumber any other index (slots < 7 n_nodes)
MAX_ELEMENTS = (2**31 - 1) // 7


class DiagonalLayout(NamedTuple):
    """Where each element-matrix entry lands in ``dia_matrix`` data of the seven diagonals.

    Entry ``ke[m].ravel()[3a + b]``, of ``(i, j) = (elements[m, a], elements[m, b])``,
    lands in flat slot ``d * n_nodes + j`` with ``offsets[d] = j - i``: scipy's
    ``data[d, j] = A[j - offsets[d], j]``.
    """

    offsets: np.ndarray   # (7,) int32: -(nx + 2), -(nx + 1), -1, 0, 1, nx + 1, nx + 2
    slot: np.ndarray      # (9 * n_elements,) int32, data position of each ke.ravel() entry


class StiffnessMap(NamedTuple):
    """The P1 stiffness as a linear map of the element weights ``area * sigma``, in DIA order.

    ``(matrix @ w).reshape(5, n_nodes)`` is the ``scipy.sparse.dia_matrix``
    data of the stiffness for the diagonals ``offsets``: row
    ``d * n_nodes + j`` of ``matrix`` gives entry ``(j - offsets[d], j)``.
    Rows of the band padding and of the node pairs that wrap around a grid
    row list no element, so their data is zero.
    """

    matrix: sp.csr_matrix  # (5 * n_nodes, n_elements)
    offsets: np.ndarray    # (5,) int32: -(nx + 1), -1, 0, 1, nx + 1


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
    interior_nodes: np.ndarray   # sorted indices of the other nodes
    element_areas: np.ndarray    # (n_elements,)
    element_gradients: np.ndarray  # (n_elements, 3, 2) P1 basis gradients
    element_centroids: np.ndarray  # (n_elements, 2)

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

    @cached_property
    def diagonal_layout(self) -> DiagonalLayout:
        """The diagonal of every element-matrix entry, built once and read-only."""
        n, stride = self.n_nodes, self.nx + 1
        offsets = np.array([-stride - 1, -stride, -1, 0, 1, stride, stride + 1], dtype=np.int32)
        elements = self.elements.astype(np.int32)
        # (i, j) = (elements[m, a], elements[m, b]) is pair 3a + b; j - i is
        # the same for every lower (even) and every upper (odd) element
        diagonal = np.searchsorted(offsets, elements[:2, None, :] - elements[:2, :, None])
        slot = np.tile(elements, (1, 3)).reshape(-1, 2, 9)
        slot += (diagonal * n).reshape(2, 9).astype(np.int32)
        layout = DiagonalLayout(offsets, slot.ravel())
        for arr in layout:
            arr.setflags(write=False)
        return layout

    @property
    def bounds(self) -> tuple[float, float, float, float]:
        return (self.x_min, self.x_max, self.y_min, self.y_max)

    @cached_property
    def stiffness_map(self) -> StiffnessMap:
        """The stiffness as a linear map of the element weights, built once and read-only.

        Element ``m`` adds ``w[m] * grad(phi_i) . grad(phi_j)`` to the slot of
        ``(i, j)`` in ``diagonal_layout``.  The cell-diagonal couplings are exact
        zeros (the right angles sit off the diagonal), so every entry lies on the
        middle five diagonals.  Each row of ``matrix`` lists its elements in
        ascending order, so ``matrix @ w`` sums each entry in the order in which
        ``assemble`` sums the element matrices, bit for bit.
        """
        n = self.n_nodes
        layout = self.diagonal_layout
        g = self.element_gradients
        coupling = np.einsum("mid,mjd->mij", g, g).reshape(-1, 9)
        kept = coupling != 0.0
        # the kept entries element by element: the map's transpose, in CSC
        by_element = np.zeros(self.n_elements + 1, dtype=np.int32)
        np.cumsum(kept.sum(axis=1), out=by_element[1:])
        data = coupling[kept]
        del coupling
        # drop the first diagonal: row d * n_nodes + j of the map is slot (d + 1) * n_nodes + j
        rows = layout.slot.reshape(-1, 9)[kept] - np.int32(n)
        del kept
        # CSC to CSR is a stable counting sort, so each row's elements ascend
        matrix = sp.csc_matrix(
            (data, rows, by_element), shape=(5 * n, self.n_elements),
        ).tocsr()
        del data, rows, by_element
        for arr in (matrix.data, matrix.indices, matrix.indptr):
            arr.setflags(write=False)
        return StiffnessMap(matrix, layout.offsets[1:-1])

    @cached_property
    def coarse(self) -> CoarseLevel:
        """The nested level with half the cells per side, built once and read-only."""
        return _halve(self.nx, self.ny, self.bounds)

    def assemble(self, ke: np.ndarray) -> sp.dia_matrix:
        """Sum (M, 3, 3) element matrices onto the mesh's seven diagonals.

        Each entry sums its element contributions in element order.  The band
        padding and the node pairs that wrap around a grid row hold zeros.
        """
        layout = self.diagonal_layout
        n = self.n_nodes
        # the sequential sum of bincount, without the int64 copy of the slots it takes
        data = np.zeros(layout.offsets.size * n)
        np.add.at(data, layout.slot, ke.ravel())
        return sp.dia_matrix((data.reshape(-1, n), layout.offsets), shape=(n, n))

    @cached_property
    def mass_matrix(self) -> sp.dia_matrix:
        """Consistent P1 mass matrix (the L2 Gram matrix), built once and read-only."""
        matrix = self.assemble(self.element_areas[:, None, None] * _LOCAL_MASS)
        matrix.data.setflags(write=False)
        return matrix

    @cached_property
    def dissection_order(self) -> np.ndarray:
        """Nested-dissection permutation of the nodes, built once and read-only.

        The node grid is split at its middle line across the longer side; the
        two halves come first, each ordered the same way, and the line last.
        Blocks of at most ``DISSECTION_LEAF`` nodes are ordered row-major
        (George, SIAM J. Numer. Anal. 10(2), 1973).
        """
        # (i0, i1, j0, j1) half-open node blocks, in elimination order
        blocks = []

        def dissect(i0, i1, j0, j1):
            width, height = i1 - i0, j1 - j0
            if width * height <= DISSECTION_LEAF:
                blocks.append((i0, i1, j0, j1))
            elif width >= height:
                m = (i0 + i1) // 2
                dissect(i0, m, j0, j1)
                dissect(m + 1, i1, j0, j1)
                blocks.append((m, m + 1, j0, j1))
            else:
                m = (j0 + j1) // 2
                dissect(i0, i1, j0, m)
                dissect(i0, i1, m + 1, j1)
                blocks.append((i0, i1, m, m + 1))

        dissect(0, self.nx + 1, 0, self.ny + 1)
        i0, i1, j0, j1 = np.array(blocks).T
        width = i1 - i0
        sizes = width * (j1 - j0)
        block = np.repeat(np.arange(sizes.size), sizes)
        local = np.arange(sizes.sum()) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        row, col = np.divmod(local, width[block])
        order = (j0[block] + row) * (self.nx + 1) + i0[block] + col
        order.setflags(write=False)
        return order

    @cached_property
    def lumped_mass(self) -> np.ndarray:
        """Row-sum lumped mass as a diagonal vector, built once and read-only."""
        diag = np.bincount(
            self.elements.ravel(), weights=np.repeat(self.element_areas / 3.0, 3),
            minlength=self.n_nodes,
        )
        diag.setflags(write=False)
        return diag


@dataclass(frozen=True)
class CoarseLevel:
    """The nested mesh with half the cells per side, as far as a multigrid reads it.

    It keeps its cell counts and bounds, its stiffness map, the fine elements
    inside each of its elements and the transfers to the finer mesh; the
    next level is built on first use, like ``Mesh.coarse``.
    """

    nx: int
    ny: int
    bounds: tuple[float, float, float, float]
    stiffness_map: StiffnessMap
    children: np.ndarray          # (2 * nx * ny, 4) int32 fine elements inside each element
    prolongation: sp.csr_matrix   # coarse -> fine P1 interpolation
    restriction: sp.csr_matrix    # its transpose, as CSR

    @cached_property
    def coarse(self) -> CoarseLevel:
        """The next nested level, built once and read-only."""
        return _halve(self.nx, self.ny, self.bounds)


def _halve(nx: int, ny: int, bounds: tuple[float, float, float, float]) -> CoarseLevel:
    """The level with half of the ``nx x ny`` cells per side over ``bounds``.

    Both cell counts must be even.  Coarse element ``e`` is the union of the
    fine elements ``children[e]``: a coarse cell's lower triangle holds the
    lower triangles of its lower-left and upper-right fine cells and both
    triangles of its lower-right one, its upper triangle the rest.  The
    coarse mesh itself is dropped once its stiffness map is built.
    """
    if nx % 2 or ny % 2:
        raise ValueError(f"cannot halve {nx} x {ny} cells")
    cx, cy = nx // 2, ny // 2
    stiffness = build_mesh(cx, cy, bounds).stiffness_map
    cj, ci = np.divmod(np.arange(cx * cy, dtype=np.int32), cx)
    lower_left = 2 * cj * nx + 2 * ci      # fine cell index, elements 2c and 2c + 1
    lower_right, upper_left = lower_left + 1, lower_left + nx
    upper_right = upper_left + 1
    children = np.empty((2 * cx * cy, 4), dtype=np.int32)
    children[0::2] = np.column_stack([
        2 * lower_left, 2 * lower_right, 2 * lower_right + 1, 2 * upper_right])
    children[1::2] = np.column_stack([
        2 * lower_left + 1, 2 * upper_left, 2 * upper_left + 1, 2 * upper_right + 1])
    p = nested_interpolation(nx, ny, cx, cy)
    r = p.T.tocsr()
    for arr in (children, p.data, p.indices, p.indptr, r.data, r.indices, r.indptr):
        arr.setflags(write=False)
    return CoarseLevel(cx, cy, bounds, stiffness, children, p, r)


def build_mesh(
    nx: int,
    ny: int,
    bounds: tuple[float, float, float, float] = (0.0, 1.0, 0.0, 1.0),
) -> Mesh:
    """Build the uniform triangulation with ``nx * ny`` cells, two triangles each.

    ``bounds`` is ``(x_min, x_max, y_min, y_max)``.  Raises ``ValueError`` for
    non-positive subdivision counts or more than ``MAX_ELEMENTS`` elements,
    which it checks before allocating, for degenerate bounds, and for an element
    whose area or basis gradients are zero or not finite in float64.
    """
    if nx < 1 or ny < 1:
        raise ValueError(f"subdivision counts must be positive, got nx={nx}, ny={ny}")
    if 2 * nx * ny > MAX_ELEMENTS:
        raise ValueError(
            f"{nx} x {ny} cells give {2 * nx * ny} elements, more than the int32 "
            f"index arrays hold ({MAX_ELEMENTS})"
        )
    x_min, x_max, y_min, y_max = (float(v) for v in bounds)
    if not (0.0 < x_max - x_min < np.inf and 0.0 < y_max - y_min < np.inf):
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
    edges = p[:, [2, 0, 1]] - p[:, [1, 2, 0]]          # edge opposite each vertex
    # bounds that float64 holds can still give a zero, infinite or NaN geometry
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        twice_area = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
        grads = np.stack([-edges[..., 1], edges[..., 0]], axis=-1) / twice_area[:, None, None]
    sound = (0.0 < twice_area) & (twice_area < np.inf)
    if not (sound.all() and np.isfinite(grads).all()):
        bad = int(np.argmin(sound & np.isfinite(grads).all(axis=(1, 2))))
        raise ValueError(f"degenerate element {bad} with 2*area={twice_area[bad]}")
    areas = 0.5 * twice_area
    centroids = p.mean(axis=1)

    # by grid index: comparing coordinates misclassifies offset or tiny domains
    node_j, node_i = np.divmod(np.arange(nodes.shape[0]), nx + 1)
    on_boundary = (node_i == 0) | (node_i == nx) | (node_j == 0) | (node_j == ny)
    boundary = np.flatnonzero(on_boundary)
    interior = np.flatnonzero(~on_boundary)

    for arr in (nodes, elements, boundary, areas, grads, centroids, interior):
        arr.setflags(write=False)

    return Mesh(
        nx=nx, ny=ny, x_min=x_min, x_max=x_max, y_min=y_min, y_max=y_max,
        nodes=nodes, elements=elements, boundary_nodes=boundary, interior_nodes=interior,
        element_areas=areas, element_gradients=grads, element_centroids=centroids,
    )


def nested_interpolation(nx: int, ny: int, cx: int, cy: int) -> sp.csr_matrix:
    """P1 interpolation from the ``cx x cy`` mesh to the ``nx x ny`` mesh refining it.

    ``cx`` must divide ``nx`` and ``cy`` divide ``ny``, with any ratios.  Fine
    node ``(i, j)`` sits at ``(xi, eta)`` in its coarse cell and takes
    ``1 - max(xi, eta)`` of the cell's lower-left corner, ``min(xi, eta)``
    of its upper-right corner and ``|xi - eta|`` of the corner on its side of
    the diagonal; exact zeros are not stored.  Column ``c`` is the fine P1
    interpolant of coarse hat function ``c``, which is that hat function
    itself when both ratios are equal.
    """
    rx, ry = nx // cx, ny // cy
    jj, ii = np.divmod(np.arange((nx + 1) * (ny + 1)), nx + 1)
    # the last row and column of nodes belong to the last coarse cell
    ci, cj = np.minimum(ii // rx, cx - 1), np.minimum(jj // ry, cy - 1)
    xi, eta = (ii - ci * rx) / rx, (jj - cj * ry) / ry
    lower_left = cj * (cx + 1) + ci
    # right of the diagonal the side corner is lower-right, else upper-left
    side = np.where(xi > eta, lower_left + 1, lower_left + cx + 1)
    cols = np.column_stack([lower_left, side, lower_left + cx + 2])
    weights = np.column_stack([1.0 - np.maximum(xi, eta), np.abs(xi - eta), np.minimum(xi, eta)])
    # the columns of each row ascend, so the kept entries are in CSR order
    keep = weights != 0.0
    indptr = np.concatenate([[0], np.cumsum(keep.sum(axis=1))]).astype(np.int32)
    return sp.csr_matrix(
        (weights[keep], cols[keep].astype(np.int32), indptr),
        shape=(ii.size, (cx + 1) * (cy + 1)),
    )
