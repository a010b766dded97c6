import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from matmi import fem, forward, frechet, transport
from matmi.fem import ScalarField, VectorField
from matmi import mesh as mesh_module
from matmi.mesh import build_mesh, nested_interpolation
from matmi.phantoms import make_phantom, single_bump_spec, three_bump_spec

from conftest import (
    add_at_assembly, element_blocks, element_geometry, perturbation, smooth_conductivity,
)


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
    # the same element matrices scattered without dropping the zeros
    areas, g, _ = element_geometry(mesh16)
    weight = fem.element_means(sigma) * areas
    ke = weight[:, None, None] * np.einsum("mid,mjd->mij", g, g)
    full = mesh16.assemble(element_blocks(mesh16, ke))
    assert full.nnz > a.nnz
    v = np.random.RandomState(5).randn(mesh16.n_nodes)
    assert np.array_equal(a @ v, full @ v)


#: (nx, ny, bounds, dyadic): two meshes with dyadic nodes, where every element
#: of a type has the reference triangle's geometry bit for bit, and two without
GRIDS = [
    (128, 128, (0.0, 1.0, 0.0, 1.0), True),
    (64, 32, (-1.0, 3.0, 0.5, 1.5), True),
    (37, 12, (-1.0, 3.0, 0.5, 0.9), False),
    (100, 100, (0.0, 16.0, 0.0, 1.0), False),
]


def assert_matches_reference(got, reference, dyadic):
    """Bitwise on dyadic meshes, else within 1e-13 of the largest reference entry."""
    if dyadic:
        assert np.array_equal(got, reference)
    else:
        assert np.abs(got - reference).max() <= 1e-13 * np.abs(reference).max()


@pytest.mark.parametrize("nx, ny, bounds, dyadic", GRIDS)
def test_stiffness_stencil_matches_element_assembly(nx, ny, bounds, dyadic):
    m = build_mesh(nx, ny, bounds)
    sigma = smooth_conductivity(m, np.random.RandomState(nx))
    means = sigma.values[m.elements].mean(axis=1)
    assert np.array_equal(fem.element_means(sigma), means)
    # the element matrices of each element's own geometry summed onto the
    # diagonals, zeros dropped in CSR
    areas, g, _ = element_geometry(m)
    ke = (means * areas)[:, None, None] * np.einsum("mid,mjd->mij", g, g)
    reference = m.assemble(element_blocks(m, ke)).tocsr()
    reference.eliminate_zeros()
    a = fem.assemble_weighted_stiffness(m, sigma)
    assert np.array_equal(a.indptr, reference.indptr)
    assert np.array_equal(a.indices, reference.indices)
    assert_matches_reference(a.data, reference.data, dyadic)


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


def test_multigrid_rejects_nonpositive_sigma_with_the_stiffness_message(mesh16):
    values = np.ones(mesh16.n_nodes)
    values[17] = 0.0
    with pytest.raises(ValueError, match="^conductivity is not positive at node 17: 0.0$"):
        fem.multigrid(ScalarField(mesh16, values))


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
    rhs = fem.assemble_weak_divergence_rhs(VectorField(mesh8, np.zeros((mesh8.n_elements, 2))))
    assert np.all(rhs == 0.0)


def test_weak_divergence_entries_sum_to_zero(mesh16):
    rng = np.random.RandomState(3)
    field = VectorField(mesh16, rng.randn(mesh16.n_elements, 2))
    rhs = fem.assemble_weak_divergence_rhs(field)
    assert abs(rhs.sum()) <= 1e-12 * np.abs(rhs).max()


def test_weak_divergence_gradient_identity(mesh16):
    # rhs from grad(affine v) equals -(stiffness sigma=1) @ v, by direct assembly
    v = fem.interpolate(mesh16, lambda x, y: 0.4 + 1.3 * x - 0.7 * y)
    field = fem.gradient_field(v)
    rhs = fem.assemble_weak_divergence_rhs(field)
    a = fem.assemble_weighted_stiffness(mesh16, fem.constant_field(mesh16, 1.0))
    np.testing.assert_allclose(rhs, -(a @ v.values), atol=1e-12)


# ---------------------------------------------------------------------------
# norms

def add_at_reference(n, nodes, values):
    """The sequential scatter-add that ``np.bincount`` must reproduce bit for bit."""
    out = np.zeros(n)
    np.add.at(out, nodes, values)
    return out


@pytest.mark.parametrize("nx, ny, bounds, dyadic", GRIDS)
def test_scatters_match_add_at(nx, ny, bounds, dyadic):
    m = build_mesh(nx, ny, bounds)
    nodes = m.elements.ravel()
    areas, g, _ = element_geometry(m)
    lumped = add_at_reference(m.n_nodes, nodes, np.repeat(areas / 3.0, 3))
    assert_matches_reference(m.lumped_mass, lumped, dyadic)
    local_mass = np.full((3, 3), 1.0 / 12.0) + np.eye(3) / 12.0
    mass = add_at_assembly(m, areas[:, None, None] * local_mass)
    assert_matches_reference(m.mass_matrix.data, mass, dyadic)

    field = VectorField(m, np.random.RandomState(nx).randn(m.n_elements, 2))
    contrib = -areas[:, None] * np.einsum("md,mkd->mk", field.values, g)
    rhs = add_at_reference(m.n_nodes, nodes, contrib.ravel())
    assert_matches_reference(fem.assemble_weak_divergence_rhs(field), rhs, dyadic)
    u = ScalarField(m, np.random.RandomState(ny).randn(m.n_nodes))
    gradient = np.einsum("mk,mkd->md", u.values[m.elements], g)
    assert_matches_reference(fem.gradient_field(u).values, gradient, dyadic)


def test_mass_operators_cached_read_only(mesh16):
    assert fem.mass_matrix(mesh16) is fem.mass_matrix(mesh16)
    assert fem.lumped_mass(mesh16) is fem.lumped_mass(mesh16)
    with pytest.raises(ValueError):
        fem.lumped_mass(mesh16)[0] = 1.0
    m = fem.mass_matrix(mesh16)
    for arr in (m.data, m.offsets):
        with pytest.raises(ValueError):
            arr[0] = 1


def test_l2_norm_constant_one(mesh16):
    assert fem.l2_norm(fem.constant_field(mesh16, 1.0)) == pytest.approx(1.0, rel=1e-12)


def test_l2_norm_linear_function(mesh64):
    # integral of x^2 over the unit square is 1/3; x is P1-exact
    f = fem.interpolate(mesh64, lambda x, y: x)
    assert fem.l2_norm(f) == pytest.approx(1.0 / np.sqrt(3.0), abs=1e-3)


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

def neumann_solve(mesh, sigma, rhs):
    """The Neumann solve of the sigma-weighted stiffness, preconditioned by its V-cycle."""
    hierarchy = fem.multigrid(sigma)
    return fem.solve_neumann(mesh, hierarchy.matrices[0], rhs, hierarchy.vcycle)


def test_neumann_zero_rhs(mesh16):
    u, _ = neumann_solve(mesh16, fem.constant_field(mesh16, 1.0), np.zeros(mesh16.n_nodes))
    assert np.all(u.values == 0.0)


def test_neumann_system_row_sum_invariant(mesh16):
    rng = np.random.RandomState(5)
    sigma = ScalarField(mesh16, 0.2 + rng.rand(mesh16.n_nodes))
    a = fem.assemble_weighted_stiffness(mesh16, sigma)
    rhs = rng.randn(mesh16.n_nodes)
    assert relative_row_sums(a).max() <= 1e-12
    # the solver projects out the rhs mean, so a constant shift of the rhs
    # changes the solution only by rounding
    hierarchy = fem.multigrid(sigma)
    u, _ = fem.solve_neumann(mesh16, a, rhs, hierarchy.vcycle)
    shifted, _ = fem.solve_neumann(mesh16, a, rhs + 3.0, hierarchy.vcycle)
    np.testing.assert_allclose(shifted.values, u.values, rtol=0.0,
                               atol=1e-9 * np.abs(u.values).max())


def test_neumann_gradient_bound_centered_gauge(mesh64):
    # Prop-2.1-type bound with the centered gauge; the infimum norm is
    # sqrt(1/12 + 1/12) = 1/sqrt(6) before the factor 1/2
    from matmi.forward import gauge_field

    gauge = gauge_field(mesh64)
    rhs = fem.assemble_weak_divergence_rhs(gauge)
    u, _ = neumann_solve(mesh64, fem.constant_field(mesh64, 1.0), rhs)
    grad_norm = fem.l2_norm_vec(fem.gradient_field(u))
    assert grad_norm <= 1.0 / np.sqrt(6.0)
    assert grad_norm <= fem.l2_norm_vec(gauge) * (1.0 + 1e-10)


def test_neumann_residual_and_mean(mesh32):
    rng = np.random.RandomState(6)
    sigma = ScalarField(mesh32, 0.1 + rng.rand(mesh32.n_nodes))
    a = fem.assemble_weighted_stiffness(mesh32, sigma)
    field = VectorField(mesh32, rng.randn(mesh32.n_elements, 2))
    rhs = fem.assemble_weak_divergence_rhs(field)
    u, _ = neumann_solve(mesh32, sigma, rhs)
    b = rhs - rhs.mean()
    r = a @ u.values - b
    r -= r.mean()
    assert np.linalg.norm(r) <= 1e-12 * np.linalg.norm(b)
    assert abs(u.values.mean()) <= 1e-13 * np.abs(u.values).max()


def test_neumann_constant_shift_residual(mesh16):
    rng = np.random.RandomState(7)
    one = fem.constant_field(mesh16, 1.0)
    a = fem.assemble_weighted_stiffness(mesh16, one)
    field = VectorField(mesh16, rng.randn(mesh16.n_elements, 2))
    rhs = fem.assemble_weak_divergence_rhs(field)
    u, _ = neumann_solve(mesh16, one, rhs)
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
        rhs = fem.assemble_weak_divergence_rhs(field)
        u, _ = neumann_solve(m, sigma, rhs)
        bound = fem.l2_norm_vec(field) / sigma.values.min()
        assert fem.l2_norm_vec(fem.gradient_field(u)) <= bound * (1.0 + 1e-10)


def test_neumann_nonconvergence_raises(mesh32):
    # at n = 8 the coarsest level is the mesh itself and one step converges
    hierarchy = fem.multigrid(fem.constant_field(mesh32, 1.0))
    a, vcycle = hierarchy.matrices[0], hierarchy.vcycle
    rng = np.random.RandomState(9)
    field = VectorField(mesh32, rng.randn(mesh32.n_elements, 2))
    rhs = fem.assemble_weak_divergence_rhs(field)
    with pytest.raises(fem.SolverError) as err:
        fem._projected_pcg(a, rhs - rhs.mean(), vcycle, 1e-12, max_iter=2)
    assert err.value.residuals  # carries the residual history


def test_pcg_restarts_after_failed_residual_check():
    # aspect-12 cells: the recurrence residual meets the tolerance before the
    # true one does; keeping the old direction then drove it to 9e10
    mesh = build_mesh(10, 12, (0.0, 0.203125, 0.0, 3.0))
    rng = np.random.RandomState(29)
    sigma = smooth_conductivity(mesh, rng)
    h = ScalarField(mesh, 0.5 * sigma.values * np.sin(smooth_conductivity(mesh, rng).values))
    assert np.all(np.isfinite(frechet.frechet_derivative(sigma, h).value.values))


def test_pcg_stops_at_a_nonfinite_residual(mesh16):
    # a NaN residual never meets the tolerance; without the check CG ran its
    # whole 10 n cap on NaN before failing
    hierarchy = fem.multigrid(fem.constant_field(mesh16, 1.0))
    rhs = np.full(mesh16.n_nodes, np.nan)
    with pytest.raises(fem.SolverError, match="not finite") as err:
        fem._projected_pcg(hierarchy.matrices[0], rhs, hierarchy.vcycle, 1e-12, 1000)
    assert len(err.value.residuals) - 1 <= 1


def neumann_problem(mesh, sigma):
    hierarchy = fem.multigrid(sigma)
    field = VectorField(mesh, fem.element_means(sigma)[:, None] * forward.gauge_field(mesh).values)
    return hierarchy, fem.assemble_weak_divergence_rhs(field)


def test_neumann_guess_meeting_tolerance_takes_no_iteration(mesh32, bump32):
    hierarchy, rhs = neumann_problem(mesh32, bump32)
    tight, _ = fem._projected_pcg(hierarchy.matrices[0], rhs, hierarchy.vcycle, 1e-14, 1000)
    u, residuals = fem.solve_neumann(
        mesh32, hierarchy.matrices[0], rhs, hierarchy.vcycle, ScalarField(mesh32, tight),
    )
    assert len(residuals) - 1 == 0
    assert residuals[0] <= fem.SOLVER_TOL
    # the guess comes back as given, up to the projection onto mean zero
    assert np.abs(u.values - tight).max() <= 1e-15 * np.abs(tight).max()


def test_warm_and_cold_field_solves_agree(mesh32, bump32):
    # the reconstruction starts each field solve from the last sweep's potential
    start = forward.compute_field(fem.constant_field(mesh32, 0.2)).potential
    cold = forward.compute_field(bump32)
    warm = forward.compute_field(bump32, guess=start)
    assert abs(warm.potential.values.mean()) <= 1e-15 * np.abs(warm.potential.values).max()
    diff = np.abs(warm.potential.values - cold.potential.values).max()
    assert diff <= 1e-11 * np.abs(cold.potential.values).max()
    assert warm.cg_iterations < cold.cg_iterations


def test_neumann_multigrid_iterations_bounded():
    # Jacobi-PCG took 736 iterations here; the V-cycle keeps the count flat in n
    mesh = build_mesh(128, 128)
    sigma = make_phantom(three_bump_spec(), mesh)
    field = VectorField(mesh, fem.element_means(sigma)[:, None] * forward.gauge_field(mesh).values)
    rhs = fem.assemble_weak_divergence_rhs(field)
    hierarchy = fem.multigrid(sigma)
    assert [m.shape[0] for m in hierarchy.matrices] == [129**2, 65**2, 33**2, 17**2, 9**2]
    _, residuals = fem._projected_pcg(hierarchy.matrices[0], rhs, hierarchy.vcycle, 1e-12, 1000)
    assert residuals[-1] <= 1e-12
    assert len(residuals) - 1 <= 15


@pytest.mark.parametrize("nx, ny, bounds", [
    (128, 128, (0.0, 1.0, 0.0, 1.0)), (37, 12, (-1.0, 3.0, 0.5, 0.9)),
])
def test_dia_level_product_matches_csr_stiffness_bitwise(nx, ny, bounds):
    m = build_mesh(nx, ny, bounds)
    sigma = smooth_conductivity(m, np.random.RandomState(nx))
    a = fem.multigrid(sigma).matrices[0]
    assert isinstance(a, sp.dia_matrix)
    assert np.array_equal(a.offsets, [-(nx + 1), -1, 0, 1, nx + 1])
    v = np.random.RandomState(ny).randn(m.n_nodes)
    assert np.array_equal(a @ v, fem.assemble_weighted_stiffness(m, sigma) @ v)


@pytest.mark.parametrize("nx, ny, bounds", [
    (64, 64, (0.0, 1.0, 0.0, 1.0)), (40, 24, (-1.0, 1.5, 2.0, 2.75)),
])
def test_vcycle_is_symmetric_and_sweeps_are_damped_jacobi(nx, ny, bounds):
    m = build_mesh(nx, ny, bounds)
    hierarchy = fem.multigrid(smooth_conductivity(m, np.random.RandomState(nx)))
    rng = np.random.RandomState(ny)
    # CG applies the V-cycle to mean-zero residuals only
    u, v = rng.randn(2, m.n_nodes)
    u -= u.mean()
    v -= v.mean()
    uv, vu = u @ hierarchy.vcycle(v), v @ hierarchy.vcycle(u)
    assert abs(uv - vu) <= 1e-12 * abs(uv)
    matrices, levels = hierarchy.matrices, hierarchy.levels
    assert levels[0] is m and len(levels) == len(matrices)
    assert all(fine.coarse is coarse for fine, coarse in zip(levels, levels[1:]))
    assert len(hierarchy.relaxation) == len(matrices) - 1
    for a, relax in zip(matrices, hierarchy.relaxation):
        assert np.array_equal(relax, fem.SMOOTHER_WEIGHT / a.diagonal())

    def plain_vcycle(r, level=0):
        a = matrices[level]
        if level == len(matrices) - 1:
            return np.linalg.pinv(a.toarray()) @ r
        x = np.zeros_like(r)
        for _ in range(fem.SMOOTHER_SWEEPS):
            x = x + fem.SMOOTHER_WEIGHT * (r - a @ x) / a.diagonal()
        p = hierarchy.levels[level].prolongation
        coarse_r = p.T @ (r - a @ x)
        x = x + p @ plain_vcycle(coarse_r - coarse_r.mean(), level + 1)
        for _ in range(fem.SMOOTHER_SWEEPS):
            x = x + fem.SMOOTHER_WEIGHT * (r - a @ x) / a.diagonal()
        return x

    expected = plain_vcycle(v)
    assert np.abs(hierarchy.vcycle(v) - expected).max() <= 1e-13 * np.abs(expected).max()


def test_neumann_odd_mesh_coarsest_level_is_fine():
    mesh = build_mesh(9, 6, (-1.0, 2.0, 0.5, 1.5))
    sigma = ScalarField(mesh, 0.5 + np.random.RandomState(11).rand(mesh.n_nodes))
    hierarchy = fem.multigrid(sigma)
    assert len(hierarchy.matrices) == 1
    a = hierarchy.matrices[0]
    assert np.array_equal(a.toarray(), fem.assemble_weighted_stiffness(mesh, sigma).toarray())
    rhs = np.random.RandomState(12).randn(mesh.n_nodes)
    _, residuals = fem._projected_pcg(a, rhs, hierarchy.vcycle, 1e-12, 10)
    assert len(residuals) - 1 == 1


def test_multigrid_builds_mesh_operators_once(monkeypatch):
    built = {"meshes": 0, "transfers": 0}

    def count(key, original):
        def counted(*args):
            built[key] += 1
            return original(*args)
        return counted

    monkeypatch.setattr(mesh_module, "build_mesh", count("meshes", mesh_module.build_mesh))
    monkeypatch.setattr(
        mesh_module, "nested_interpolation", count("transfers", mesh_module.nested_interpolation),
    )
    mesh = build_mesh(64, 32, (0.0, 2.0, 0.0, 1.0))
    rng = np.random.RandomState(14)
    r = np.random.RandomState(15).randn(mesh.n_nodes)
    r -= r.mean()
    first = fem.multigrid(smooth_conductivity(mesh, rng))
    first.vcycle(r)   # the V-cycle reads the transfers from the levels
    # 64 x 32 -> 32 x 16 -> 16 x 8: each coarse mesh built once, with the transfer to it
    assert built == {"meshes": 2, "transfers": 2}
    second = fem.multigrid(smooth_conductivity(mesh, rng))
    second.vcycle(r)
    assert built == {"meshes": 2, "transfers": 2}
    for p, q in zip(first.levels, second.levels):
        assert p is q
        assert p.prolongation is q.prolongation and p.restriction is q.restriction
    assert len(first.matrices) == len(first.levels) == 3


@pytest.mark.parametrize("n", [8, 32])
def test_multigrid_singular_coarse_factor_is_solver_error(n):
    # positive, but every element weight area * sigma underflows to zero
    mesh = build_mesh(n, n)
    tiny = fem.constant_field(mesh, np.nextafter(0.0, 1.0))
    with np.errstate(divide="ignore"), pytest.raises(
        fem.SolverError, match="pinned stiffness factor failed",
    ):
        fem.multigrid(tiny)
    # the factor of the fine stiffness is built by the same helper
    with pytest.raises(fem.SolverError, match="pinned stiffness factor failed"):
        fem.pinned_lu(fem.assemble_weighted_stiffness(mesh, tiny))


def test_pinned_solve_matches_the_pseudo_inverse():
    mesh = build_mesh(12, 9, (-1.0, 2.0, 0.5, 1.5))
    a = fem.assemble_weighted_stiffness(mesh, smooth_conductivity(mesh, np.random.RandomState(56)))
    factor = fem.pinned_lu(a)
    assert np.array_equal(factor.row_cols, a.indices[:a.indptr[1]])
    assert np.array_equal(factor.row_vals, a.data[:a.indptr[1]])
    r = np.random.RandomState(57).randn(mesh.n_nodes)
    r -= r.mean()
    expected = np.linalg.pinv(a.toarray()) @ r
    got = fem.pinned_solve(factor, r)
    assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()
    assert abs(got.mean()) <= 1e-15 * np.abs(got).max()


def test_pinned_solve_is_exact_in_the_pinned_row():
    # row 0 is left out of the LU; uncorrected, it collected the row-sum
    # rounding of the stiffness, up to 3e-11 of |r| on these right-hand sides
    mesh = build_mesh(128, 128)
    sigma = make_phantom(three_bump_spec(), mesh)
    base = forward.compute_field(sigma)
    maps = base.derivative_maps
    rng = np.random.RandomState(58)
    for _ in range(5):
        r = maps.rhs @ perturbation(mesh, rng).values
        r -= r.mean()
        residual = r - base.stiffness @ fem.pinned_solve(maps.factor, r)
        residual -= residual.mean()
        assert np.linalg.norm(residual) <= fem.SOLVER_TOL * np.linalg.norm(r)


def assert_interpolates_affine_exactly(nx, ny, cx, cy, bounds):
    fine = build_mesh(nx, ny, bounds)
    coarse = build_mesh(cx, cy, bounds)

    def affine(x, y):
        return 0.3 - 1.7 * x + 2.9 * y

    p = nested_interpolation(nx, ny, cx, cy)
    assert p.shape == (fine.n_nodes, coarse.n_nodes)
    assert np.all(p.data != 0.0)
    expected = fem.interpolate(fine, affine).values
    got = p @ fem.interpolate(coarse, affine).values
    assert np.abs(got - expected).max() <= 1e-14 * np.abs(expected).max()


@pytest.mark.parametrize("nx, ny, bounds", [
    (4, 4, (0.0, 1.0, 0.0, 1.0)), (16, 6, (-1.5, 2.0, 0.25, 1.0)), (10, 24, (2.0, 3.0, -4.0, 1.0)),
])
def test_prolongation_interpolates_affine_exactly(nx, ny, bounds):
    # the multigrid's transfer between levels
    assert_interpolates_affine_exactly(nx, ny, nx // 2, ny // 2, bounds)


@pytest.mark.parametrize("nx, ny, cx, cy, bounds", [
    (24, 36, 8, 6, (0.0, 2.0, 0.0, 1.0)), (7, 11, 7, 1, (-1.0, 0.5, 0.0, 3.0)),
    (16, 6, 8, 6, (0.0, 4.0, 0.0, 0.5)),
])
def test_nested_interpolation_any_ratio_affine_exactly(nx, ny, cx, cy, bounds):
    # unequal ratios put coarse diagonals across fine cells; 16x6 -> 8x6 is
    # the transfer of a semicoarsening that halves x only
    assert_interpolates_affine_exactly(nx, ny, cx, cy, bounds)


# ---------------------------------------------------------------------------
# Dirichlet solver

def test_dirichlet_identity_system(mesh8):
    rng = np.random.RandomState(10)
    rhs = rng.randn(mesh8.n_nodes)
    u = fem.solve_dirichlet(mesh8, sp.identity(mesh8.n_nodes, format="csr"), rhs)
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
        fem.solve_dirichlet(mesh8, singular, np.ones(mesh8.n_nodes))


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
    u = fem.solve_dirichlet(mesh16, matrix, rhs)
    np.testing.assert_array_equal(u.values[mesh16.boundary_nodes], bvals)


def test_dirichlet_row_mask_matches_lil_reference(mesh16):
    # reference: the row replacement written out on a LIL matrix
    sigma = make_phantom(three_bump_spec(), mesh16)
    w = VectorField(mesh16, forward.rotate(forward.compute_field(sigma).field.values))
    op = transport.assemble_advection(w)
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
        fem.solve_dirichlet(mesh16, matrix, out_rhs).values,
        fem.solve_dirichlet(mesh16, ref, ref_rhs).values,
    )


@pytest.mark.parametrize("nx, ny", [(1, 1), (1, 7), (3, 40), (40, 3), (128, 128)])
def test_dissection_order_is_read_only_permutation(nx, ny):
    # of the interior nodes, which are none on the 1 x 1 and 1 x 7 meshes
    mesh = build_mesh(nx, ny)
    order = mesh.interior_order
    assert order is mesh.interior_order
    assert not order.flags.writeable
    interior = np.setdiff1d(np.arange(mesh.n_nodes), mesh.boundary_nodes)
    assert np.array_equal(np.sort(order), interior)


def transport_system(mesh, spec):
    """Transport operator at ``spec``, its data, boundary values and row-replaced system."""
    sigma = make_phantom(spec, mesh)
    op = forward.compute_field(sigma).operator
    g = transport.apply_data_operator(op, sigma)
    boundary = fem.constant_field(mesh, 0.2)
    nodes = mesh.boundary_nodes
    matrix, rhs = fem.dirichlet_system(
        op.matrix, fem.lumped_mass(mesh) * g.values, nodes, boundary.values[nodes],
    )
    return op, g, boundary, matrix, rhs


def test_dirichlet_reads_only_free_rows(mesh16):
    # the operator's boundary rows are not unit rows; the values ride in the rhs
    op, _, _, matrix, rhs = transport_system(mesh16, three_bump_spec())
    nodes = mesh16.boundary_nodes
    assert (op.matrix.tocsr()[nodes] != matrix[nodes]).nnz > 0
    assert np.array_equal(
        fem.solve_dirichlet(mesh16, op.matrix, rhs).values,
        fem.solve_dirichlet(mesh16, matrix, rhs).values,
    )


def test_dirichlet_free_block_fill_bounded(monkeypatch):
    op, g, boundary, _, _ = transport_system(build_mesh(128, 128), single_bump_spec())
    factors = []

    def splu(*args, **kwargs):
        factors.append(original(*args, **kwargs))
        return factors[-1]

    original = spla.splu
    monkeypatch.setattr(spla, "splu", splu)
    transport.transport_solve(op, g, boundary)
    assert len(factors) == 1
    # COLAMD on the full row-replaced matrix fills 1.74M
    assert factors[0].L.nnz + factors[0].U.nnz <= 1.1e6


def test_dirichlet_free_block_matches_full_solve():
    mesh = build_mesh(64, 64)
    op, g, boundary, matrix, rhs = transport_system(mesh, three_bump_spec())
    x = transport.transport_solve(op, g, boundary).values
    reference = spla.spsolve(matrix.tocsc(), rhs)
    assert np.abs(x - reference).max() <= 1e-13 * np.abs(reference).max()


@pytest.mark.parametrize("nx, ny", [(1, 7), (6, 1)])
def test_dirichlet_mesh_without_interior_node(nx, ny, monkeypatch):
    # every node is a boundary node: the boundary values come back, nothing is factored
    mesh = build_mesh(nx, ny)
    op = forward.compute_field(fem.constant_field(mesh, 0.5)).operator
    rng = np.random.RandomState(13)
    g = ScalarField(mesh, rng.randn(mesh.n_nodes))
    boundary = ScalarField(mesh, rng.randn(mesh.n_nodes))

    def splu(*args, **kwargs):
        raise AssertionError("no free block to factor")

    monkeypatch.setattr(spla, "splu", splu)
    u = transport.transport_solve(op, g, boundary)
    np.testing.assert_array_equal(u.values, boundary.values)


def sweep_operators(mesh, n_sweeps):
    """Transport operators of the first sweeps of an in-crime single-bump reconstruction."""
    truth = make_phantom(single_bump_spec(), mesh)
    g = forward.forward_map(truth)
    start = fem.constant_field(mesh, 0.2)
    sigma, ops = start, []
    for _ in range(n_sweeps):
        ops.append(forward.compute_field(sigma).operator)
        sigma = transport.transport_solve(ops[-1], g, start)
    return ops, g, start


def count_factors(monkeypatch):
    factors = []
    original = spla.splu

    def splu(*args, **kwargs):
        factors.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(spla, "splu", splu)
    return factors


def test_refinement_from_the_previous_sweeps_factor(mesh32, monkeypatch):
    ops, g, start = sweep_operators(mesh32, 3)
    held = fem.FreeBlockLU()
    transport.transport_solve(ops[1], g, start, held)
    factors = count_factors(monkeypatch)
    refined = transport.transport_solve(ops[2], g, start, held).values
    assert factors == [] and not held.fresh   # refined from the stale LU, none built
    fresh = transport.transport_solve(ops[2], g, start).values

    nodes = mesh32.boundary_nodes
    rhs = fem.lumped_mass(mesh32) * g.values
    rhs[nodes] = start.values[nodes]
    matrix, _ = fem.dirichlet_system(ops[2].matrix, rhs, nodes, start.values[nodes])
    assert np.linalg.norm(matrix @ refined - rhs) <= fem.SOLVER_TOL * np.linalg.norm(rhs)
    np.testing.assert_array_equal(refined[nodes], start.values[nodes])
    # both meet the same residual contract; the solutions differ at its conditioning
    assert np.abs(refined - fresh).max() <= 1e-9 * np.abs(fresh).max()


def test_unrelated_factor_is_replaced_once(mesh32, monkeypatch):
    ops, g, start = sweep_operators(mesh32, 1)
    fresh = transport.transport_solve(ops[0], g, start).values
    held = fem.FreeBlockLU()
    n_free = mesh32.n_nodes - len(mesh32.boundary_nodes)
    held.lu = spla.splu(sp.identity(n_free, format="csc"))
    factors = count_factors(monkeypatch)
    got = transport.transport_solve(ops[0], g, start, held).values
    assert len(factors) == 1 and held.fresh
    # the stalled refinement is discarded: the new factor solves from zero
    np.testing.assert_array_equal(got, fresh)
