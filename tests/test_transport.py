import numpy as np
import pytest

from matmi import fem, forward, transport
from matmi.fem import ScalarField, VectorField
from matmi.mesh import build_mesh
from matmi.phantoms import PhantomSpec, Bump, make_phantom

from conftest import element_blocks, element_geometry


def velocity(mesh, fn):
    c = mesh.element_centroids
    return VectorField(mesh, np.asarray(fn(c[:, 0], c[:, 1])).T)


def test_zero_velocity_reduces_to_mass(mesh16):
    import scipy.sparse as sp

    op = transport.assemble_advection(VectorField(mesh16, np.zeros((mesh16.n_elements, 2))))
    diff = op.matrix - sp.diags(fem.lumped_mass(mesh16))
    assert diff.nnz == 0 or np.abs(diff.data).max() == 0.0


def test_constant_reproduced_exactly(mesh32):
    rng = np.random.RandomState(30)
    w = VectorField(mesh32, rng.randn(mesh32.n_elements, 2))
    op = transport.assemble_advection(w)
    out = transport.apply_data_operator(op, fem.constant_field(mesh32, 0.7))
    assert np.abs(out.values - 0.7).max() <= 1e-12 * 0.7


def test_affine_transport_interior_exact(mesh32):
    # for constant velocity the streamline term sums to zero at interior
    # nodes, so the affine case is reproduced exactly (stronger than the
    # O(h) consistency the scheme guarantees in general)
    w = VectorField(mesh32, np.tile([1.0, 0.0], (mesh32.n_elements, 1)))
    sigma = fem.interpolate(mesh32, lambda x, y: x)
    op = transport.assemble_advection(w)
    out = transport.apply_data_operator(op, sigma)
    expected = 1.0 + mesh32.nodes[:, 0]
    interior = mesh32.interior_order
    assert np.abs(out.values[interior] - expected[interior]).max() <= 1e-12


def manufactured_case(n):
    mesh = build_mesh(n, n)
    sigma = fem.interpolate(
        mesh, lambda x, y: 0.2 + 0.1 * np.sin(2 * np.pi * x) * np.sin(np.pi * y) + 0.05 * x * x
    )
    w = velocity(mesh, lambda x, y: (0.3 + 0.1 * np.sin(np.pi * x), 0.2 * np.cos(np.pi * y)))

    def data(x, y):
        s = 0.2 + 0.1 * np.sin(2 * np.pi * x) * np.sin(np.pi * y) + 0.05 * x * x
        sx = 0.2 * np.pi * np.cos(2 * np.pi * x) * np.sin(np.pi * y) + 0.1 * x
        sy = 0.1 * np.pi * np.sin(2 * np.pi * x) * np.cos(np.pi * y)
        wx = 0.3 + 0.1 * np.sin(np.pi * x)
        wy = 0.2 * np.cos(np.pi * y)
        return wx * sx + wy * sy + s

    return mesh, sigma, w, fem.interpolate(mesh, data)


def interior_l2_error(mesh, a, b):
    diff = np.zeros(mesh.n_nodes)
    interior = mesh.interior_order
    diff[interior] = (a.values - b.values)[interior]
    return fem.l2_norm(ScalarField(mesh, diff))


def test_manufactured_monotone_refinement():
    errors = []
    for n in (16, 32, 64):
        mesh, sigma, w, g = manufactured_case(n)
        op = transport.assemble_advection(w)
        solution = transport.transport_solve(op, g, sigma)
        errors.append(interior_l2_error(mesh, solution, sigma))
    assert errors[1] <= errors[0] / 1.5
    assert errors[2] <= errors[1] / 1.5


def test_constant_solution_exact(mesh32):
    rng = np.random.RandomState(31)
    w = VectorField(mesh32, rng.randn(mesh32.n_elements, 2))
    op = transport.assemble_advection(w)
    c = fem.constant_field(mesh32, 0.7)
    solution = transport.transport_solve(op, c, c)
    assert np.abs(solution.values - 0.7).max() <= 1e-12


def test_zero_data_zero_solution(mesh16):
    rng = np.random.RandomState(32)
    w = VectorField(mesh16, rng.randn(mesh16.n_elements, 2))
    op = transport.assemble_advection(w)
    zero = fem.constant_field(mesh16, 0.0)
    solution = transport.transport_solve(op, zero, zero)
    assert np.abs(solution.values).max() <= 1e-14


def test_in_crime_consistency_oracle(mesh64, bump64):
    # same operator both ways: g := M^-1 D sigma, then solving recovers sigma
    result = forward.compute_field(bump64)
    w = VectorField(mesh64, forward.rotate(result.field.values))
    op = transport.assemble_advection(w)
    g = transport.apply_data_operator(op, bump64)
    recovered = transport.transport_solve(op, g, bump64)
    err = fem.l2_norm(ScalarField(mesh64, recovered.values - bump64.values))
    assert err <= 1e-10 * fem.l2_norm(bump64)


def test_solve_near_stagnation_point(mesh32):
    # symmetric conductivity puts a stagnation point of w in the interior;
    # the reaction term keeps the system solvable and the residual contract holds
    spec = PhantomSpec(bumps=(Bump((0.5, 0.5), 0.1, 0.15),))
    sigma = make_phantom(spec, mesh32)
    result = forward.compute_field(sigma)
    w = VectorField(mesh32, forward.rotate(result.field.values))
    speed = np.hypot(w.values[:, 0], w.values[:, 1])
    assert speed.min() < speed.max() / 5.0
    op = transport.assemble_advection(w)
    g = transport.apply_data_operator(op, sigma)
    solution = transport.transport_solve(op, g, sigma)
    rhs = fem.lumped_mass(mesh32) * g.values
    rhs[mesh32.boundary_nodes] = sigma.values[mesh32.boundary_nodes]
    system_matrix, _ = fem.dirichlet_system(
        op.matrix, rhs, mesh32.boundary_nodes,
        sigma.values[mesh32.boundary_nodes],
    )
    residual = np.linalg.norm(system_matrix @ solution.values - rhs)
    assert residual <= 1e-12 * np.linalg.norm(rhs)


def test_streamline_scale_bounded():
    # tau |w| <= h/2 even through the stagnation regularisation
    m = build_mesh(8, 8)
    rng = np.random.RandomState(33)
    w_vals = rng.randn(m.n_elements, 2)
    w_vals[0] = 0.0
    op = transport.assemble_advection(VectorField(m, w_vals))
    speed = np.hypot(w_vals[:, 0], w_vals[:, 1])
    assert np.all(op.tau * speed <= m.element_diameter / 2 + 1e-15)
    assert np.isfinite(op.tau).all()


def test_derivative_reads_stored_streamline_data():
    # the element matrices of the derivative along a velocity increment dw, as
    # they were assembled before the derivative became a map of phi, with
    # dw = rot grad(phi): the map must reproduce them on a square and on an
    # offset, stretched rectangle
    rng = np.random.RandomState(34)
    for m in (build_mesh(16, 16), build_mesh(37, 12, (-1.0, 3.0, 0.5, 0.9))):
        w_vals = rng.randn(m.n_elements, 2)
        w_vals[3] = 0.0
        phi = rng.randn(m.n_nodes)
        s = rng.randn(m.n_nodes)
        op = transport.assemble_advection(VectorField(m, w_vals))

        areas, g, _ = element_geometry(m)
        dw_vals = forward.rotate(fem.gradient_field(ScalarField(m, phi)).values)
        a = np.einsum("md,mkd->mk", w_vals, g)
        speed = np.hypot(w_vals[:, 0], w_vals[:, 1])
        tau = m.element_diameter / (2.0 * speed + transport.TAU_EPS)
        da = np.einsum("md,mkd->mk", dw_vals, g)
        with np.errstate(invalid="ignore", divide="ignore"):
            dspeed = np.einsum("md,md->m", w_vals, dw_vals) / speed
        dspeed[speed == 0.0] = 0.0
        dtau = -2.0 * m.element_diameter * dspeed / (2.0 * speed + transport.TAU_EPS) ** 2
        test = 1.0 / 3.0 + tau[:, None] * a
        dtest = dtau[:, None] * a + tau[:, None] * da
        ke = areas[:, None, None] * (
            test[:, :, None] * da[:, None, :] + dtest[:, :, None] * a[:, None, :]
        )
        expected = m.assemble(element_blocks(m, ke)) @ s

        derivative = transport.advection_matrix_derivative(op, s)
        assert derivative.shape == (m.n_nodes, m.n_nodes)
        got = derivative @ phi
        assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()
        # read-only values
        assert not derivative.data.flags.writeable
        with pytest.raises(ValueError):
            derivative.data[0, 0] = 1.0
