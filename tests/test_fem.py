import numpy as np
import pytest
import scipy.sparse as sp

from matmi import fem, forward, transport
from matmi.fem import ScalarField, VectorField
from matmi.mesh import build_mesh
from matmi.phantoms import make_phantom, three_bump_spec


def relative_row_sums(a):
    row_max = np.abs(a).max(axis=1).toarray().ravel()
    sums = np.asarray(a.sum(axis=1)).ravel()
    return np.abs(sums) / row_max


# ---------------------------------------------------------------------------
# stiffness

def test_stiffness_row_sums_vanish(mesh16):
    a = fem.assemble_weighted_stiffness(mesh16, fem.constant_field(mesh16, 1.0))
    assert relative_row_sums(a).max() <= 1e-12


def test_stiffness_corner_diagonal_hand_value():
    # hand assembly of the P1 Laplacian on one unit right triangle
    m = build_mesh(1, 1)
    a = fem.assemble_weighted_stiffness(m, fem.constant_field(m, 1.0))
    # node 1 = (1,0) and node 2 = (0,1) each touch a single triangle
    assert a[1, 1] == pytest.approx(1.0, abs=1e-14)
    assert a[2, 2] == pytest.approx(1.0, abs=1e-14)


def test_stiffness_linear_in_sigma(mesh8):
    a1 = fem.assemble_weighted_stiffness(mesh8, fem.constant_field(mesh8, 1.0))
    a2 = fem.assemble_weighted_stiffness(mesh8, fem.constant_field(mesh8, 2.0))
    diff = a2 - 2.0 * a1
    assert diff.nnz == 0 or np.abs(diff.data).max() == 0.0


def test_stiffness_stores_no_zero(mesh16):
    sigma = make_phantom(three_bump_spec(), mesh16)
    a = fem.assemble_weighted_stiffness(mesh16, sigma)
    assert np.all(a.data != 0.0)
    # the zero-keeping scatter of the same element matrices
    weight = fem.element_means(sigma) * mesh16.element_areas
    g = mesh16.element_gradients
    ke = weight[:, None, None] * np.einsum("mid,mjd->mij", g, g)
    rows = np.repeat(mesh16.elements, 3, axis=1).ravel()
    cols = np.tile(mesh16.elements, (1, 3)).ravel()
    full = sp.coo_matrix((ke.ravel(), (rows, cols)), shape=a.shape).tocsr()
    assert full.nnz > a.nnz
    v = np.random.RandomState(5).randn(mesh16.n_nodes)
    assert np.array_equal(a @ v, full @ v)


def test_stiffness_symmetry(mesh16):
    rng = np.random.RandomState(1)
    sigma = ScalarField(mesh16, 0.5 + rng.rand(mesh16.n_nodes))
    a = fem.assemble_weighted_stiffness(mesh16, sigma)
    asym = np.abs((a - a.T).data).max() if (a - a.T).nnz else 0.0
    assert asym <= 1e-13 * np.abs(a.data).max()


def test_stiffness_rejects_nonpositive_sigma(mesh8):
    values = np.ones(mesh8.n_nodes)
    values[17] = 0.0
    with pytest.raises(ValueError, match="node 17"):
        fem.assemble_weighted_stiffness(mesh8, ScalarField(mesh8, values))


def test_stiffness_rejects_nan_sigma(mesh8):
    values = np.ones(mesh8.n_nodes)
    values[17] = np.nan
    with pytest.raises(ValueError, match="node 17"):
        fem.assemble_weighted_stiffness(mesh8, ScalarField(mesh8, values))


def test_discrete_coercivity(mesh8):
    rng = np.random.RandomState(2)
    lam = 0.3
    sigma = ScalarField(mesh8, lam + rng.rand(mesh8.n_nodes))
    a_sigma = fem.assemble_weighted_stiffness(mesh8, sigma)
    a_one = fem.assemble_weighted_stiffness(mesh8, fem.constant_field(mesh8, 1.0))
    for _ in range(100):
        v = rng.randn(mesh8.n_nodes)
        v -= v.mean()
        assert v @ (a_sigma @ v) >= lam * (v @ (a_one @ v)) * (1.0 - 1e-12)


# ---------------------------------------------------------------------------
# weak divergence load vector

def test_weak_divergence_zero_field(mesh8):
    rhs = fem.assemble_weak_divergence_rhs(mesh8, VectorField(mesh8, np.zeros((mesh8.n_elements, 2))))
    assert np.all(rhs == 0.0)


def test_weak_divergence_entries_sum_to_zero(mesh16):
    rng = np.random.RandomState(3)
    field = VectorField(mesh16, rng.randn(mesh16.n_elements, 2))
    rhs = fem.assemble_weak_divergence_rhs(mesh16, field)
    assert abs(rhs.sum()) <= 1e-12 * np.abs(rhs).max()


def test_weak_divergence_gradient_identity(mesh16):
    # rhs from grad(affine v) equals -(stiffness sigma=1) @ v, by direct assembly
    v = fem.interpolate(mesh16, lambda x, y: 0.4 + 1.3 * x - 0.7 * y)
    field = fem.gradient_field(v)
    rhs = fem.assemble_weak_divergence_rhs(mesh16, field)
    a = fem.assemble_weighted_stiffness(mesh16, fem.constant_field(mesh16, 1.0))
    np.testing.assert_allclose(rhs, -(a @ v.values), atol=1e-12)


def test_mesh_mismatch_rejected(mesh8, mesh16):
    field = VectorField(mesh16, np.zeros((mesh16.n_elements, 2)))
    with pytest.raises(ValueError):
        fem.assemble_weak_divergence_rhs(mesh8, field)


# ---------------------------------------------------------------------------
# norms

def test_mass_operators_cached_read_only(mesh16):
    assert fem.mass_matrix(mesh16) is fem.mass_matrix(mesh16)
    assert fem.lumped_mass(mesh16) is fem.lumped_mass(mesh16)
    with pytest.raises(ValueError):
        fem.lumped_mass(mesh16)[0] = 1.0
    m = fem.mass_matrix(mesh16)
    for arr in (m.data, m.indices, m.indptr):
        with pytest.raises(ValueError):
            arr[0] = 1


def test_l2_norm_constant_one(mesh16):
    assert fem.l2_norm(fem.constant_field(mesh16, 1.0)) == pytest.approx(1.0, rel=1e-12)


def test_l2_norm_linear_function(mesh64):
    # integral of x^2 over the unit square is 1/3; x is P1-exact
    f = fem.interpolate(mesh64, lambda x, y: x)
    assert fem.l2_norm(f) == pytest.approx(1.0 / np.sqrt(3.0), abs=1e-3)


def test_l2_inner_symmetry(mesh16):
    rng = np.random.RandomState(4)
    a = ScalarField(mesh16, rng.randn(mesh16.n_nodes))
    b = ScalarField(mesh16, rng.randn(mesh16.n_nodes))
    assert fem.l2_inner(a, b) == pytest.approx(fem.l2_inner(b, a), abs=1e-14)


def test_l2_norm_vec_constant(mesh16):
    field = VectorField(mesh16, np.tile([3.0, 4.0], (mesh16.n_elements, 1)))
    assert fem.l2_norm_vec(field) == pytest.approx(5.0, rel=1e-12)


def test_scalar_field_shape_checked(mesh8):
    with pytest.raises(ValueError):
        ScalarField(mesh8, np.zeros(3))
    with pytest.raises(ValueError):
        VectorField(mesh8, np.zeros((5, 2)))


# ---------------------------------------------------------------------------
# Neumann solver

def test_neumann_zero_rhs(mesh16):
    a = fem.assemble_weighted_stiffness(mesh16, fem.constant_field(mesh16, 1.0))
    u = fem.solve_neumann(mesh16, a, np.zeros(mesh16.n_nodes))
    assert np.all(u.values == 0.0)


def test_neumann_system_row_sum_invariant(mesh16):
    rng = np.random.RandomState(5)
    sigma = ScalarField(mesh16, 0.2 + rng.rand(mesh16.n_nodes))
    a = fem.assemble_weighted_stiffness(mesh16, sigma)
    rhs = rng.randn(mesh16.n_nodes)
    assert relative_row_sums(a).max() <= 1e-12
    # the solver projects out the rhs mean, so a constant shift of the rhs
    # changes the solution only by rounding
    u = fem.solve_neumann(mesh16, a, rhs)
    shifted = fem.solve_neumann(mesh16, a, rhs + 3.0)
    np.testing.assert_allclose(shifted.values, u.values, rtol=0.0,
                               atol=1e-9 * np.abs(u.values).max())


def test_neumann_gradient_bound_centered_gauge(mesh64):
    # Prop-2.1-type bound with the centered gauge; the infimum norm is
    # sqrt(1/12 + 1/12) = 1/sqrt(6) before the factor 1/2
    from matmi.forward import gauge_field

    gauge = gauge_field(mesh64)
    a = fem.assemble_weighted_stiffness(mesh64, fem.constant_field(mesh64, 1.0))
    rhs = fem.assemble_weak_divergence_rhs(mesh64, gauge)
    u = fem.solve_neumann(mesh64, a, rhs)
    grad_norm = fem.l2_norm_vec(fem.gradient_field(u))
    assert grad_norm <= 1.0 / np.sqrt(6.0)
    assert grad_norm <= fem.l2_norm_vec(gauge) * (1.0 + 1e-10)


def test_neumann_residual_and_mean(mesh32):
    rng = np.random.RandomState(6)
    sigma = ScalarField(mesh32, 0.1 + rng.rand(mesh32.n_nodes))
    a = fem.assemble_weighted_stiffness(mesh32, sigma)
    field = VectorField(mesh32, rng.randn(mesh32.n_elements, 2))
    rhs = fem.assemble_weak_divergence_rhs(mesh32, field)
    u = fem.solve_neumann(mesh32, a, rhs)
    b = rhs - rhs.mean()
    r = a @ u.values - b
    r -= r.mean()
    assert np.linalg.norm(r) <= 1e-12 * np.linalg.norm(b)
    assert abs(u.values.mean()) <= 1e-13 * np.abs(u.values).max()


def test_neumann_constant_shift_residual(mesh16):
    rng = np.random.RandomState(7)
    a = fem.assemble_weighted_stiffness(mesh16, fem.constant_field(mesh16, 1.0))
    field = VectorField(mesh16, rng.randn(mesh16.n_elements, 2))
    rhs = fem.assemble_weak_divergence_rhs(mesh16, field)
    u = fem.solve_neumann(mesh16, a, rhs)
    b = rhs - rhs.mean()
    r0 = np.linalg.norm(a @ u.values - b)
    r1 = np.linalg.norm(a @ (u.values + 1.0) - b)
    assert abs(r1 - r0) <= 1e-12 * np.linalg.norm(b)


def test_neumann_discrete_energy_estimate():
    # ||grad u|| <= ||E|| / lambda holds exactly in the discrete energy argument
    rng = np.random.RandomState(8)
    m = build_mesh(12, 12)
    for _ in range(10):
        sigma = ScalarField(m, 0.1 + 9.9 * rng.rand(m.n_nodes))
        field = VectorField(m, rng.randn(m.n_elements, 2))
        a = fem.assemble_weighted_stiffness(m, sigma)
        u = fem.solve_neumann(m, a, fem.assemble_weak_divergence_rhs(m, field))
        bound = fem.l2_norm_vec(field) / sigma.values.min()
        assert fem.l2_norm_vec(fem.gradient_field(u)) <= bound * (1.0 + 1e-10)


def test_neumann_nonconvergence_raises(mesh8):
    a = fem.assemble_weighted_stiffness(mesh8, fem.constant_field(mesh8, 1.0))
    rng = np.random.RandomState(9)
    field = VectorField(mesh8, rng.randn(mesh8.n_elements, 2))
    rhs = fem.assemble_weak_divergence_rhs(mesh8, field)
    with pytest.raises(fem.SolverError) as err:
        fem._projected_pcg(a, rhs - rhs.mean(), 1e-12, max_iter=2)
    assert err.value.residuals  # carries the residual history


# ---------------------------------------------------------------------------
# Dirichlet solver

NO_NODES = np.array([], dtype=np.int64)


def test_dirichlet_identity_system(mesh8):
    rng = np.random.RandomState(10)
    rhs = rng.randn(mesh8.n_nodes)
    u = fem.solve_dirichlet(mesh8, sp.identity(mesh8.n_nodes, format="csr"), rhs, NO_NODES)
    np.testing.assert_array_equal(u.values, rhs)


def test_dirichlet_rows_are_unit_rows(mesh16):
    a = fem.assemble_weighted_stiffness(mesh16, fem.constant_field(mesh16, 1.0))
    matrix, _ = fem.dirichlet_system(
        a, np.zeros(mesh16.n_nodes), mesh16.boundary_nodes,
        np.zeros(len(mesh16.boundary_nodes)),
    )
    sub = matrix[mesh16.boundary_nodes, :].toarray()
    expected = np.zeros_like(sub)
    expected[np.arange(len(mesh16.boundary_nodes)), mesh16.boundary_nodes] = 1.0
    np.testing.assert_array_equal(sub, expected)


def test_dirichlet_singular_system_raises(mesh8):
    singular = sp.csr_matrix((mesh8.n_nodes, mesh8.n_nodes))
    with pytest.raises(fem.SolverError):
        fem.solve_dirichlet(mesh8, singular, np.ones(mesh8.n_nodes), NO_NODES)


def test_l2_norm_positive_definite(mesh8):
    rng = np.random.RandomState(12)
    assert fem.l2_norm(fem.constant_field(mesh8, 0.0)) == 0.0
    for _ in range(10):
        v = rng.randn(mesh8.n_nodes)
        assert fem.l2_norm(ScalarField(mesh8, v)) > 0.0


def test_dirichlet_boundary_values_bit_exact(mesh16):
    rng = np.random.RandomState(11)
    sigma = ScalarField(mesh16, 0.5 + rng.rand(mesh16.n_nodes))
    a = fem.assemble_weighted_stiffness(mesh16, sigma)
    a = a + 0.3 * fem.mass_matrix(mesh16)  # make it regular
    bvals = rng.randn(len(mesh16.boundary_nodes))
    matrix, rhs = fem.dirichlet_system(a.tocsr(), rng.randn(mesh16.n_nodes),
                                       mesh16.boundary_nodes, bvals)
    u = fem.solve_dirichlet(mesh16, matrix, rhs, mesh16.boundary_nodes)
    np.testing.assert_array_equal(u.values[mesh16.boundary_nodes], bvals)


def test_dirichlet_row_mask_matches_lil_reference(mesh16):
    # reference: the row replacement written out on a LIL matrix
    sigma = make_phantom(three_bump_spec(), mesh16)
    w = VectorField(mesh16, forward.rotate(forward.compute_field(sigma).field.values))
    op = transport.assemble_advection(mesh16, w)
    nodes = mesh16.boundary_nodes
    rhs = fem.lumped_mass(mesh16) * transport.apply_data_operator(op, sigma).values
    values = sigma.values[nodes]

    ref = op.matrix.tolil()
    ref[nodes, :] = 0.0
    ref[nodes, nodes] = 1.0
    ref = ref.tocsr()
    ref_rhs = rhs.copy()
    ref_rhs[nodes] = values

    matrix, out_rhs = fem.dirichlet_system(op.matrix, rhs, nodes, values)
    assert np.array_equal(matrix.indptr, ref.indptr)
    assert np.array_equal(matrix.indices, ref.indices)
    assert np.array_equal(matrix.data, ref.data)
    assert np.array_equal(out_rhs, ref_rhs)
    assert np.array_equal(
        fem.solve_dirichlet(mesh16, matrix, out_rhs, nodes).values,
        fem.solve_dirichlet(mesh16, ref, ref_rhs, nodes).values,
    )
