"""Uniform triangulation of a rectangle, stored as its grid.

Each cell is split along its lower-left to upper-right diagonal into a lower
triangle ``(ll, lr, ur)`` and an upper one ``(ll, ur, ul)``, counterclockwise:
element ``2 c + t`` is the type-``t`` triangle (0 lower, 1 upper) of cell
``c = j*nx + i``, and node ``j*(nx+1) + i`` is grid point ``(j, i)``.  All
triangles of a type are translates, so a mesh keeps its grid and the two
reference triangles.  Local vertex ``k`` of type ``t`` is the node grid
shifted by ``_SHIFT[t][k]``, so gathers, scatters and assembly are sums of
grid slices in element order: stencils (Trottenberg, Oosterlee & Schüller,
*Multigrid*, 2001, §1.3.4) stored by the seven diagonals ``0, +-1,
+-(nx+1), +-(nx+2)`` (Saad, *Iterative Methods*, 2nd ed., 2003, §3.4).
A mesh with even counts nests a mesh with half the cells per side, its
``coarse`` mesh, which it caches with the transfers between the two; a
multigrid walks this chain of meshes.  A mesh also caches its mass, lumped
mass and the nested-dissection order of its interior nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np
import scipy.sparse as sp

__all__ = ["Mesh", "MAX_ELEMENTS", "build_mesh", "nested_interpolation"]

#: grid shift (row, column) of local vertex k of triangle type t from its cell's
#: lower-left node: lower (ll, lr, ur) and upper (ll, ur, ul)
_SHIFT = (((0, 0), (0, 1), (1, 1)), ((0, 0), (1, 1), (1, 0)))
#: (t, k) of every local vertex, ordered so that each node takes its terms in element
#: order: the element whose vertex k is node q lies in cell q - _SHIFT[t][k], so the
#: larger the shift the earlier the cell, and the lower type comes first in a cell
_VERTICES = sorted(((t, k) for t in range(2) for k in range(3)),
                   key=lambda p: (-_SHIFT[p[0]][p[1]][0], -_SHIFT[p[0]][p[1]][1], p[0]))
#: (t, a, b) of every element-matrix entry, in the element order of column b's terms
_BLOCKS = [(t, a, b) for t, b in _VERTICES for a in range(3)]

#: consistent P1 mass matrix of a triangle, divided by its area
_LOCAL_MASS = np.full((3, 3), 1.0 / 12.0) + np.eye(3) / 12.0

#: largest node block the nested dissection leaves undivided
DISSECTION_LEAF = 16

#: most elements a mesh may have.  SuperLU indexes the transport factor with
#: int32, and its fill grows as N log N in the N free nodes: nnz(L) + nnz(U)
#: was 36 N at n = 32 and 92 N at n = 512, 14.6 N more per doubling of n.  At
#: 2**24 elements (n = 2896) that extrapolates to 1.1e9, half of 2**31; the CSR
#: free block (7 entries a node) and ``nested_interpolation`` (3) stay below.
MAX_ELEMENTS = 2**24


def _reference_triangles(dx: float, dy: float) -> tuple[float, np.ndarray]:
    """Area and (2, 3, 2) P1 basis gradients of a cell's lower and upper triangle.

    A gradient is the opposite edge turned by 90 degrees over twice the area.
    Raises ``ValueError`` when the area or a squared gradient is zero or not
    finite: the squares bound the couplings ``grad phi_a . grad phi_b`` of
    the stiffness, and each nonzero coupling is minus one of them.
    """
    twice_area = dx * dy
    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        grads = np.array([[[-dy, 0.0], [dy, -dx], [-0.0, dx]],
                          [[-0.0, -dx], [dy, 0.0], [-dy, dx]]]) / twice_area
        squares = np.einsum("tad,tad->ta", grads, grads)
    if not (0.0 < twice_area < np.inf and ((0.0 < squares) & (squares < np.inf)).all()):
        raise ValueError(f"degenerate {dx} x {dy} cells with 2*area={twice_area}")
    grads.setflags(write=False)
    return 0.5 * twice_area, grads


def _sum_blocks(nx: int, ny: int, block: Callable, offsets: list[int]) -> sp.dia_matrix:
    """Sum the element-matrix entries ``block(t, a, b)`` onto the diagonals ``offsets``.

    ``block(t, a, b)`` is entry ``(a, b)`` of the matrices of the type-``t``
    elements in cell order (rows ``t::2`` of a per-element array), or None
    for zeros.  It couples the node at ``_SHIFT[t][a]`` from each cell to the
    column at ``_SHIFT[t][b]``; scipy's DIA data holds ``A[col - offset, col]``
    at ``(d, col)``, so each block adds to one slice of one diagonal.
    """
    stride = nx + 1
    diagonal = {offset: d for d, offset in enumerate(offsets)}
    data = np.zeros((len(offsets), ny + 1, nx + 1))
    for t, a, b in _BLOCKS:
        entries = block(t, a, b)
        if entries is None:
            continue
        (row_a, col_a), (row_b, col_b) = _SHIFT[t][a], _SHIFT[t][b]
        d = diagonal[(row_b - row_a) * stride + col_b - col_a]
        data[d, row_b:row_b + ny, col_b:col_b + nx] += entries.reshape(ny, nx)
    n = stride * (ny + 1)
    return sp.dia_matrix((data.reshape(len(offsets), n), offsets), shape=(n, n))


def _read_only(matrix: sp.csr_matrix) -> sp.csr_matrix:
    """``matrix``, its data and index arrays made read-only."""
    for arr in (matrix.data, matrix.indices, matrix.indptr):
        arr.setflags(write=False)
    return matrix


def _by_type(rows: np.ndarray, matrices: np.ndarray) -> np.ndarray:
    """``rows[m] @ matrices[t]`` for each element ``m = 2 c + t``."""
    out = np.empty((rows.shape[0], matrices.shape[-1]))
    for t in range(2):
        np.matmul(rows[t::2], matrices[t], out=out[t::2])
    return out


@dataclass(frozen=True, eq=False)
class Mesh:
    """Structured conforming triangulation of ``[x_min, x_max] x [y_min, y_max]``."""

    nx: int
    ny: int
    x_min: float
    x_max: float
    y_min: float
    y_max: float
    area: float                  # of every element
    gradients: np.ndarray        # (2, 3, 2) P1 basis gradients of the lower and upper type

    @property
    def n_nodes(self) -> int:
        return (self.nx + 1) * (self.ny + 1)

    @property
    def n_elements(self) -> int:
        return 2 * self.nx * self.ny

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
    def bounds(self) -> tuple[float, float, float, float]:
        return (self.x_min, self.x_max, self.y_min, self.y_max)

    @property
    def nodes(self) -> np.ndarray:
        """(n_nodes, 2) node coordinates, built on each call."""
        gx, gy = np.meshgrid(np.linspace(self.x_min, self.x_max, self.nx + 1),
                             np.linspace(self.y_min, self.y_max, self.ny + 1))
        return np.column_stack([gx.ravel(), gy.ravel()])

    @property
    def elements(self) -> np.ndarray:
        """(n_elements, 3) node indices of each element, counterclockwise, built on each call."""
        return self.gather(np.arange(self.n_nodes))

    @property
    def element_centroids(self) -> np.ndarray:
        """(n_elements, 2) means of each element's vertices, built on each call."""
        nx, ny = self.nx, self.ny
        xs = np.linspace(self.x_min, self.x_max, nx + 1)
        ys = np.linspace(self.y_min, self.y_max, ny + 1)
        out = np.empty((ny, nx, 2, 2))
        for t, ((r0, c0), (r1, c1), (r2, c2)) in enumerate(_SHIFT):
            out[:, :, t, 0] = (xs[c0:c0 + nx] + xs[c1:c1 + nx] + xs[c2:c2 + nx]) / 3.0
            out[:, :, t, 1] = ((ys[r0:r0 + ny] + ys[r1:r1 + ny] + ys[r2:r2 + ny]) / 3.0)[:, None]
        return out.reshape(-1, 2)

    @cached_property
    def boundary_nodes(self) -> np.ndarray:
        """Sorted indices of the nodes on the rectangle boundary, built once and read-only."""
        # by grid index: comparing coordinates misclassifies offset or tiny domains
        j, i = np.divmod(np.arange(self.n_nodes), self.nx + 1)
        nodes = np.flatnonzero((i == 0) | (i == self.nx) | (j == 0) | (j == self.ny))
        nodes.setflags(write=False)
        return nodes

    @property
    def interior_nodes(self) -> np.ndarray:
        """Sorted indices of the other nodes."""
        return np.setdiff1d(np.arange(self.n_nodes), self.boundary_nodes)

    def gather(self, values: np.ndarray) -> np.ndarray:
        """(n_elements, 3, ...) values at each element's vertices of an (n_nodes, ...) array."""
        nx, ny, rest = self.nx, self.ny, values.shape[1:]
        grid = values.reshape(ny + 1, nx + 1, *rest)
        out = np.empty((ny, nx, 2, 3, *rest), dtype=values.dtype)
        for t, shifts in enumerate(_SHIFT):
            for k, (row, col) in enumerate(shifts):
                out[:, :, t, k] = grid[row:row + ny, col:col + nx]
        return out.reshape(-1, 3, *rest)

    def scatter(self, contributions: np.ndarray) -> np.ndarray:
        """Nodal sums, from zero in element order, of (n_elements, 3) vertex contributions."""
        nx, ny = self.nx, self.ny
        out = np.zeros((ny + 1, nx + 1))
        for t, k in _VERTICES:
            row, col = _SHIFT[t][k]
            out[row:row + ny, col:col + nx] += contributions[t::2, k].reshape(ny, nx)
        return out.ravel()

    def gradient(self, values: np.ndarray) -> np.ndarray:
        """(n_elements, 2) gradient of the P1 function of nodal ``values``."""
        return _by_type(self.gather(values), self.gradients)

    def dot_gradients(self, vectors: np.ndarray) -> np.ndarray:
        """(n_elements, 3) ``v . grad(phi_k)`` of an (n_elements, 2) elementwise field."""
        return _by_type(vectors, self.gradients.transpose(0, 2, 1))

    def boundary_facet_sum(self, facet_values: np.ndarray) -> np.ndarray:
        """Nodal sums of (n_elements, 3) values on the edges opposite each vertex, boundary only.

        Each boundary edge adds its value to both its ends, the two terms of a node in any order.
        """
        nx, ny = self.nx, self.ny
        f = facet_values.reshape(ny, nx, 2, 3)
        out = np.zeros((ny + 1, nx + 1))
        # bottom and right edges are opposite ur and ll of lower triangles,
        # top and left edges opposite ll and ur of upper ones
        for side, values in ((out[0], f[0, :, 0, 2]), (out[:, nx], f[:, -1, 0, 0]),
                             (out[ny], f[-1, :, 1, 0]), (out[:, 0], f[:, 0, 1, 1])):
            side[:-1] += values
            side[1:] += values
        return out.ravel()

    def assemble(self, block: Callable) -> sp.dia_matrix:
        """Sum element matrices ``block(t, a, b)`` (see ``_sum_blocks``) onto seven diagonals."""
        stride = self.nx + 1
        offsets = [-stride - 1, -stride, -1, 0, 1, stride, stride + 1]
        return _sum_blocks(self.nx, self.ny, block, offsets)

    def stiffness(self, weights: np.ndarray) -> sp.dia_matrix:
        """P1 stiffness of the element weights ``area * sigma``, on the diagonals 0, +-1, +-(nx+1).

        Each element adds its weight times the reference couplings
        ``grad(phi_a) . grad(phi_b)``; the cell-diagonal ones are exact zeros
        (the right angles sit off the diagonal) and are skipped.
        """
        nx, ny = self.nx, self.ny
        couplings = np.einsum("tid,tjd->tij", self.gradients, self.gradients)

        def block(t, a, b):
            return None if couplings[t, a, b] == 0.0 else weights[t::2] * couplings[t, a, b]

        return _sum_blocks(nx, ny, block, [-(nx + 1), -1, 0, 1, nx + 1])

    @cached_property
    def coarse(self) -> Mesh:
        """The nested mesh with half the cells per side, built once."""
        if self.nx % 2 or self.ny % 2:
            raise ValueError(f"cannot halve {self.nx} x {self.ny} cells")
        return build_mesh(self.nx // 2, self.ny // 2, self.bounds)

    @cached_property
    def prolongation(self) -> sp.csr_matrix:
        """P1 interpolation from ``coarse`` to this mesh, built once and read-only."""
        coarse = self.coarse
        return _read_only(nested_interpolation(self.nx, self.ny, coarse.nx, coarse.ny))

    @cached_property
    def restriction(self) -> sp.csr_matrix:
        """The transpose of ``prolongation``, as CSR, built once and read-only."""
        return _read_only(self.prolongation.T.tocsr())

    def coarsen(self, weights: np.ndarray) -> np.ndarray:
        """Element weights of ``coarse``: each sums the four of this mesh inside it, in order.

        A lower triangle holds the lower ones of the lower-left and upper-right
        fine cells and both of the lower-right one, an upper triangle the rest.
        """
        coarse = self.coarse
        w = weights.reshape(self.ny, self.nx, 2)
        ll, lr, ul, ur = w[0::2, 0::2], w[0::2, 1::2], w[1::2, 0::2], w[1::2, 1::2]
        out = np.empty((coarse.ny, coarse.nx, 2))
        out[..., 0] = ll[..., 0] + lr[..., 0] + lr[..., 1] + ur[..., 0]
        out[..., 1] = ll[..., 1] + ul[..., 0] + ul[..., 1] + ur[..., 1]
        return out.ravel()

    @cached_property
    def mass_matrix(self) -> sp.dia_matrix:
        """Consistent P1 mass matrix (the L2 Gram matrix), built once and read-only."""
        cells = self.nx * self.ny
        matrix = self.assemble(lambda t, a, b: np.full(cells, self.area * _LOCAL_MASS[a, b]))
        matrix.data.setflags(write=False)
        matrix.offsets.setflags(write=False)
        return matrix

    @cached_property
    def lumped_mass(self) -> np.ndarray:
        """Row-sum lumped mass as a diagonal vector, built once and read-only."""
        diag = self.scatter(np.broadcast_to(self.area / 3.0, (self.n_elements, 3)))
        diag.setflags(write=False)
        return diag

    @cached_property
    def interior_order(self) -> np.ndarray:
        """The interior nodes in nested-dissection order, built once and read-only.

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
        order = order[~np.isin(order, self.boundary_nodes)]
        order.setflags(write=False)
        return order


def build_mesh(
    nx: int,
    ny: int,
    bounds: tuple[float, float, float, float] = (0.0, 1.0, 0.0, 1.0),
) -> Mesh:
    """Build the uniform triangulation with ``nx * ny`` cells, two triangles each.

    ``bounds`` is ``(x_min, x_max, y_min, y_max)``.  Raises ``ValueError`` for
    non-positive subdivision counts or more than ``MAX_ELEMENTS`` elements,
    which it checks before allocating, for degenerate bounds, for cells whose
    area or basis gradients are zero or not finite in float64, and for grid
    lines that float64 does not keep apart.
    """
    if nx < 1 or ny < 1:
        raise ValueError(f"subdivision counts must be positive, got nx={nx}, ny={ny}")
    if 2 * nx * ny > MAX_ELEMENTS:
        raise ValueError(
            f"{nx} x {ny} cells give {2 * nx * ny} elements, more than the int32 "
            f"indices of the sparse solves hold ({MAX_ELEMENTS})"
        )
    x_min, x_max, y_min, y_max = (float(v) for v in bounds)
    if not (0.0 < x_max - x_min < np.inf and 0.0 < y_max - y_min < np.inf):
        raise ValueError(f"degenerate bounds {bounds}")
    for lo, hi, n in ((x_min, x_max, nx), (y_min, y_max, ny)):
        if not np.all(np.diff(np.linspace(lo, hi, n + 1)) > 0.0):
            raise ValueError(f"degenerate bounds: float64 cannot split [{lo}, {hi}] into {n} cells")
    area, gradients = _reference_triangles((x_max - x_min) / nx, (y_max - y_min) / ny)
    return Mesh(
        nx=nx, ny=ny, x_min=x_min, x_max=x_max, y_min=y_min, y_max=y_max,
        area=area, gradients=gradients,
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
