import numpy as np
import pytest

from matmi import fem
from matmi.mesh import build_mesh
from matmi.phantoms import boundary_distance, collar_taper, make_phantom, single_bump_spec


@pytest.fixture(scope="session")
def mesh8():
    return build_mesh(8, 8)


@pytest.fixture(scope="session")
def mesh16():
    return build_mesh(16, 16)


@pytest.fixture(scope="session")
def mesh32():
    return build_mesh(32, 32)


@pytest.fixture(scope="session")
def mesh64():
    return build_mesh(64, 64)


@pytest.fixture(scope="session")
def bump32(mesh32):
    return make_phantom(single_bump_spec(), mesh32)


@pytest.fixture(scope="session")
def bump64(mesh64):
    return make_phantom(single_bump_spec(), mesh64)


def perturbation(mesh, rng, n_bumps=3, amplitude=0.1, collar=0.15):
    """Random smooth collar-supported field (zero near the boundary)."""
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    taper = collar_taper(boundary_distance(mesh, x, y), collar)
    values = np.zeros(mesh.n_nodes)
    for _ in range(n_bumps):
        cx, cy = 0.25 + 0.5 * rng.rand(2)
        amp = amplitude * (2.0 * rng.rand() - 1.0)
        width = 0.06 + 0.1 * rng.rand()
        values += amp * np.exp(-((x - cx) ** 2 + (y - cy) ** 2) / (2.0 * width**2))
    return fem.ScalarField(mesh, values * taper)


def smooth_conductivity(mesh, rng):
    """Positive nodal field with a contrast of up to about 20 across the domain."""
    x = (mesh.nodes[:, 0] - mesh.x_min) / (mesh.x_max - mesh.x_min)
    y = (mesh.nodes[:, 1] - mesh.y_min) / (mesh.y_max - mesh.y_min)
    a, b, c, d = rng.uniform(-1.0, 1.0, 4)
    return fem.ScalarField(mesh, np.exp(1.5 * np.sin(3 * a * x + 2 * b * y + c) + 0.5 * d))


def element_geometry(mesh):
    """Areas, (M, 3, 2) P1 basis gradients and centroids of each element, from its nodes.

    The element-by-element formulas, independent of the mesh's two reference
    triangles, as a reference for the grid operators.
    """
    p = mesh.nodes[mesh.elements]                              # (M, 3, 2)
    d1 = p[:, 1] - p[:, 0]
    d2 = p[:, 2] - p[:, 0]
    edges = p[:, [2, 0, 1]] - p[:, [1, 2, 0]]                  # edge opposite each vertex
    twice_area = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    grads = np.stack([-edges[..., 1], edges[..., 0]], axis=-1) / twice_area[:, None, None]
    return 0.5 * twice_area, grads, p.mean(axis=1)


def element_blocks(mesh, ke):
    """The ``Mesh.assemble`` block function of (M, 3, 3) element matrices."""
    return lambda t, a, b: ke[t::2, a, b]


def add_at_assembly(mesh, ke):
    """(7, n_nodes) DIA data of (M, 3, 3) element matrices, summed entry by entry.

    One sequential ``np.add.at`` in element order onto the diagonals
    ``0, +-1, +-(nx+1), +-(nx+2)``: entry ``(i, j)`` goes to ``(d, j)`` with
    ``offsets[d] = j - i``, scipy's DIA convention.
    """
    stride = mesh.nx + 1
    offsets = np.array([-stride - 1, -stride, -1, 0, 1, stride, stride + 1])
    rows = np.repeat(mesh.elements, 3, axis=1).ravel()
    cols = np.tile(mesh.elements, (1, 3)).ravel()
    data = np.zeros(7 * mesh.n_nodes)
    np.add.at(data, np.searchsorted(offsets, cols - rows) * mesh.n_nodes + cols, ke.ravel())
    return data.reshape(7, mesh.n_nodes)
