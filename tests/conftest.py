import numpy as np
import pytest

from matmi import fem
from matmi.mesh import build_mesh
from matmi.phantoms import make_phantom, single_bump_spec


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
    d = np.minimum(np.minimum(x - mesh.x_min, mesh.x_max - x),
                   np.minimum(y - mesh.y_min, mesh.y_max - y))
    t = np.clip(d / collar - 1.0, 0.0, 1.0)
    taper = t * t * (3.0 - 2.0 * t)
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
