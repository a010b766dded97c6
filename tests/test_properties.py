"""Property tests of assembly, the solves, the field, its linearisation and the
in-crime reconstruction over random rectangles.

Meshes have ``nx != ny`` in [3, 40] over non-unit bounds, so the multigrid
hierarchy coarsens zero, one or several times (both counts even and above
8), with odd counts solved on the fine level directly, and the nested
dissection of the transport solve meets odd and unequal node counts.
"""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import example, given, settings, strategies as st

from matmi import fem, forward, frechet, recon, transport
from matmi.fem import ScalarField, VectorField
from matmi.mesh import build_mesh
from matmi.phantoms import Bump, PhantomSpec, make_phantom

from conftest import add_at_assembly, element_blocks, element_geometry, smooth_conductivity

#: counts in [3, 40], with multiples of 4 and 8 drawn often enough to coarsen twice
counts = st.one_of(st.integers(3, 40), st.sampled_from([12, 16, 20, 24, 32, 40]))
#: even counts in [2, 40], so that the mesh itself has a nested coarse mesh
even_counts = st.one_of(st.integers(1, 20).map(lambda k: 2 * k), st.sampled_from([16, 24, 32, 40]))
#: counts in [1, 40], with the one-cell strips drawn often
strip_counts = st.one_of(st.just(1), counts)


@st.composite
def rectangles(draw, counts=counts):
    nx = draw(counts)
    ny = draw(counts.filter(lambda n: n != nx))
    x_min = draw(st.floats(-3.0, 3.0))
    y_min = draw(st.floats(-3.0, 3.0))
    width = draw(st.floats(0.2, 5.0))
    height = draw(st.floats(0.2, 5.0))
    return build_mesh(nx, ny, (x_min, x_min + width, y_min, y_min + height))


def coo_reference(mesh, ke):
    """scipy's COO to CSR sum of the element matrices, and each row's absolute sum."""
    rows = np.repeat(mesh.elements, 3, axis=1).ravel()
    cols = np.tile(mesh.elements, (1, 3)).ravel()
    shape = (mesh.n_nodes, mesh.n_nodes)
    matrix = sp.coo_matrix((ke.ravel(), (rows, cols)), shape=shape).tocsr()
    row_abs = np.bincount(rows, weights=np.abs(ke).ravel(), minlength=mesh.n_nodes)
    return matrix, row_abs


def assert_matches_coo(mesh, ke, assembled):
    """The CSR form of an assembled DIA matrix has the reference's nonzeros."""
    matrix = assembled.tocsr()
    reference, row_abs = coo_reference(mesh, ke)
    reference.eliminate_zeros()
    assert np.array_equal(matrix.indptr, reference.indptr)
    assert np.array_equal(matrix.indices, reference.indices)
    row = np.repeat(np.arange(mesh.n_nodes), np.diff(reference.indptr))
    assert np.all(np.abs(matrix.data - reference.data) <= 1e-14 * row_abs[row])


def jacobi_pcg(a, b, tol=1e-13, max_iter=100_000):
    """Reference: Jacobi-preconditioned CG on the mean-zero complement."""
    inv_diag = 1.0 / a.diagonal()
    b = b - b.mean()
    b_norm = np.linalg.norm(b)
    x = np.zeros_like(b)
    r = b.copy()
    z = inv_diag * r
    z -= z.mean()
    p = z.copy()
    rz = r @ z
    for _ in range(max_iter):
        ap = a @ p
        alpha = rz / (p @ ap)
        x += alpha * p
        r -= alpha * ap
        r -= r.mean()
        if np.linalg.norm(r) <= tol * b_norm:
            return x - x.mean()
        z = inv_diag * r
        z -= z.mean()
        rz_next = r @ z
        p = z + (rz_next / rz) * p
        rz = rz_next
    raise AssertionError("reference CG did not converge")


PROPERTY_SETTINGS = settings(max_examples=50, derandomize=True, deadline=None, database=None)


@PROPERTY_SETTINGS
@given(mesh=rectangles(), seed=st.integers(0, 2**32 - 1))
@example(mesh=build_mesh(40, 24, (-1.0, 1.5, 2.0, 2.75)), seed=1)   # coarsens twice
@example(mesh=build_mesh(18, 36, (0.5, 1.0, -2.0, 1.0)), seed=2)    # coarsens once
@example(mesh=build_mesh(9, 16, (0.0, 3.0, 0.0, 1.0)), seed=3)      # odd: fine level only
def test_neumann_matches_jacobi_reference(mesh, seed):
    rng = np.random.RandomState(seed)
    sigma = smooth_conductivity(mesh, rng)
    a = fem.assemble_weighted_stiffness(mesh, sigma)
    rhs = fem.assemble_weak_divergence_rhs(VectorField(mesh, rng.randn(mesh.n_elements, 2)))
    hierarchy = fem.multigrid(sigma)
    u = fem.solve_neumann(mesh, hierarchy.matrices[0], rhs, hierarchy.vcycle)[0].values

    reference = jacobi_pcg(a, rhs)
    assert np.abs(u - reference).max() <= 1e-10 * np.abs(reference).max()

    b = rhs - rhs.mean()
    residual = a @ u - b
    residual -= residual.mean()
    assert np.linalg.norm(residual) <= 1e-12 * np.linalg.norm(rhs)


def assert_galerkin(fine, p, coarse):
    """``coarse`` equals ``P^T fine P`` within 1e-13 of each row's absolute sum."""
    galerkin = (p.T @ fine @ p).tocsr()
    row_abs = abs(galerkin) @ np.ones(galerkin.shape[1])
    assert np.all(abs(galerkin - coarse).max(axis=1).toarray().ravel() <= 1e-13 * row_abs)


def assert_five_point(a):
    """Every stored entry of a DIA level is nonzero, and they fill the 5-point pattern.

    DIA stores the band padding and the zeros where a diagonal wraps around a
    grid row, so the check reads the CSR form, which keeps the nonzeros only.
    """
    stride = int(a.offsets.max())     # nx + 1 nodes per grid row
    csr = a.tocsr()
    assert np.all(csr.data != 0.0)

    def path(k):
        return sp.diags([1.0, 1.0, 1.0], [-1, 0, 1], shape=(k, k))

    rows = a.shape[0] // stride
    five_point = sp.kron(sp.eye(rows), path(stride)) + sp.kron(path(rows), sp.eye(stride))
    assert (csr.astype(bool) != five_point.tocsr().astype(bool)).nnz == 0


@PROPERTY_SETTINGS
@given(mesh=rectangles(even_counts), seed=st.integers(0, 2**32 - 1))
@example(mesh=build_mesh(40, 24, (-1.0, 1.5, 2.0, 2.75)), seed=1)   # coarsens twice
def test_assembled_levels_are_galerkin_products(mesh, seed):
    sigma = smooth_conductivity(mesh, np.random.RandomState(seed))
    hierarchy = fem.multigrid(sigma)
    for a in hierarchy.matrices:
        assert_five_point(a)
    for level, a, coarse in zip(hierarchy.levels, hierarchy.matrices, hierarchy.matrices[1:]):
        assert (level.restriction != level.prolongation.T).nnz == 0
        assert_galerkin(a, level.prolongation, coarse)
    # the mesh's own coarse mesh, which the hierarchy skips at 8 cells or fewer
    areas, _, _ = element_geometry(mesh)
    coarse = mesh.coarse.stiffness(mesh.coarsen(fem.element_means(sigma) * areas))
    assert_five_point(coarse)
    assert_galerkin(hierarchy.matrices[0], mesh.prolongation, coarse)


@PROPERTY_SETTINGS
@given(mesh=rectangles(), value=st.floats(0.05, 20.0))
def test_constant_conductivity_gives_constant_data(mesh, value):
    sigma = fem.constant_field(mesh, value)
    result = forward.compute_field(sigma)
    g = forward.forward_map(sigma, result)
    # exact up to the rounding of each row's sum: its advection terms cancel
    row_scale = abs(result.operator.matrix) @ np.ones(mesh.n_nodes) / fem.lumped_mass(mesh)
    assert np.all(np.abs(g.values - value) <= 8 * np.finfo(float).eps * value * row_scale)


@PROPERTY_SETTINGS
@given(mesh=rectangles(), seed=st.integers(0, 2**32 - 1))
def test_compute_field_rerun_bit_identical(mesh, seed):
    sigma = smooth_conductivity(mesh, np.random.RandomState(seed))
    first = forward.compute_field(sigma)
    again = forward.compute_field(sigma)
    assert np.array_equal(first.potential.values, again.potential.values)
    assert np.array_equal(first.field.values, again.field.values)


@PROPERTY_SETTINGS
@given(mesh=rectangles(), seed=st.integers(0, 2**32 - 1))
def test_transport_solve_matches_full_system(mesh, seed):
    rng = np.random.RandomState(seed)
    sigma = smooth_conductivity(mesh, rng)
    op = forward.compute_field(sigma).operator
    noise = rng.uniform(0.9, 1.1, mesh.n_nodes)
    g = ScalarField(mesh, transport.apply_data_operator(op, sigma).values * noise)
    boundary = smooth_conductivity(mesh, rng)
    x = transport.transport_solve(op, g, boundary)[0].values

    nodes = mesh.boundary_nodes
    matrix, rhs = fem.dirichlet_system(
        op.matrix, fem.lumped_mass(mesh) * g.values, nodes, boundary.values[nodes],
    )
    reference = spla.spsolve(matrix.tocsc(), rhs)
    assert np.abs(x - reference).max() <= 1e-12 * np.abs(reference).max()
    assert np.linalg.norm(matrix @ x - rhs) <= fem.SOLVER_TOL * np.linalg.norm(rhs)
    assert np.array_equal(x[nodes], boundary.values[nodes])


@PROPERTY_SETTINGS
@given(mesh=rectangles(), seed=st.integers(0, 2**32 - 1))
def test_assemble_matches_scipy_coo(mesh, seed):
    ke = np.random.RandomState(seed).randn(mesh.n_elements, 3, 3)
    assert_matches_coo(mesh, ke, mesh.assemble(element_blocks(mesh, ke)))


@PROPERTY_SETTINGS
@given(mesh=rectangles(strip_counts), seed=st.integers(0, 2**32 - 1))
@example(mesh=build_mesh(1, 1), seed=0)
@example(mesh=build_mesh(9, 1, (-2.0, 1.0, 0.5, 0.6)), seed=2)
def test_assemble_sums_each_entry_in_element_order(mesh, seed):
    # bit for bit the sequential add of every element-matrix entry onto the
    # diagonals, in element order: the grid slices keep each entry's order
    ke = np.random.RandomState(seed).randn(mesh.n_elements, 3, 3)
    matrix = mesh.assemble(element_blocks(mesh, ke))
    assert np.array_equal(matrix.offsets, [-(mesh.nx + 2), -(mesh.nx + 1), -1, 0, 1,
                                           mesh.nx + 1, mesh.nx + 2])
    assert np.array_equal(matrix.data, add_at_assembly(mesh, ke))
    contributions = ke[:, 0]
    reference = np.zeros(mesh.n_nodes)
    np.add.at(reference, mesh.elements.ravel(), contributions.ravel())
    assert np.array_equal(mesh.scatter(contributions), reference)


@PROPERTY_SETTINGS
@given(mesh=rectangles(strip_counts), seed=st.integers(0, 2**32 - 1))
@example(mesh=build_mesh(1, 1), seed=0)
@example(mesh=build_mesh(1, 7, (0.0, 0.1, 0.0, 1.0)), seed=1)
@example(mesh=build_mesh(9, 1, (-2.0, 1.0, 0.5, 0.6)), seed=2)
def test_diagonal_product_matches_csr_bitwise(mesh, seed):
    # the DIA product adds the stored zeros the CSR form drops, which changes no bit
    rng = np.random.RandomState(seed)
    ke = rng.randn(mesh.n_elements, 3, 3)
    ke[rng.rand(mesh.n_elements) < 0.5] = 0.0
    matrix = mesh.assemble(element_blocks(mesh, ke))
    v = rng.randn(mesh.n_nodes)
    assert np.array_equal(matrix @ v, matrix.tocsr() @ v)


@PROPERTY_SETTINGS
@given(mesh=rectangles(), seed=st.integers(0, 2**32 - 1))
def test_changing_a_matrix_leaves_next_assembly_unchanged(mesh, seed):
    rng = np.random.RandomState(seed)
    ke = rng.randn(mesh.n_elements, 3, 3)
    # half the elements contribute nothing, so some entries sum to exact zeros
    zeroed = ke.copy()
    zeroed[: mesh.n_elements // 2] = 0.0
    first = mesh.assemble(element_blocks(mesh, zeroed))
    assert first.tocsr().nnz < mesh.assemble(element_blocks(mesh, ke)).tocsr().nnz
    first.data *= 2.0
    assert_matches_coo(mesh, ke, mesh.assemble(element_blocks(mesh, ke)))
    assert_matches_coo(mesh, zeroed, mesh.assemble(element_blocks(mesh, zeroed)))


def cell_aspect(mesh):
    return max(mesh.dx / mesh.dy, mesh.dy / mesh.dx)


# Cells are kept at most 4:1.  On more stretched cells the auxiliary Neumann
# solve can sit at a rounding floor above fem.SOLVER_TOL (about 4e-12 of |b|
# on 10 x 12 cells over 0.2 x 3) and raise SolverError.
@PROPERTY_SETTINGS
@given(mesh=rectangles().filter(lambda m: cell_aspect(m) <= 4.0), seed=st.integers(0, 2**32 - 1))
def test_frechet_remainder_is_quadratic(mesh, seed):
    rng = np.random.RandomState(seed)
    sigma = smooth_conductivity(mesh, rng)
    # |h| <= sigma / 2 keeps sigma + t h admissible
    shape = smooth_conductivity(mesh, rng).values
    h = ScalarField(mesh, 0.5 * sigma.values * np.sin(shape))
    t = 1e-2
    r = frechet.fd_validate(sigma, h, t_values=(t, t / 2))
    assert 3.2 <= r[0] / r[1] <= 4.8


@PROPERTY_SETTINGS
@given(mesh=rectangles().filter(lambda m: cell_aspect(m) <= 4.0), seed=st.integers(0, 2**32 - 1))
def test_pinned_solve_meets_the_solver_tolerance(mesh, seed):
    # one exact solve, its pinned row included, is within the residual contract
    rng = np.random.RandomState(seed)
    a = fem.assemble_weighted_stiffness(mesh, smooth_conductivity(mesh, rng))
    r = fem.assemble_weak_divergence_rhs(VectorField(mesh, rng.randn(mesh.n_elements, 2)))
    r -= r.mean()
    residual = r - a @ fem.pinned_solve(fem.pinned_lu(a), r)
    residual -= residual.mean()
    assert np.linalg.norm(residual) <= fem.SOLVER_TOL * np.linalg.norm(r)


@st.composite
def reconstruction_rectangles(draw):
    """Meshes of 8 to 40 cells a side, sides log-uniform in [0.2, 5], cells at most 4:1."""
    nx, ny = draw(st.integers(8, 40)), draw(st.integers(8, 40))
    x_min, y_min = draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0))
    width, height = (np.exp(draw(st.floats(np.log(0.2), np.log(5.0)))) for _ in range(2))
    return build_mesh(nx, ny, (x_min, x_min + width, y_min, y_min + height))


@PROPERTY_SETTINGS
@given(mesh=reconstruction_rectangles().filter(lambda m: cell_aspect(m) <= 4.0))
def test_in_crime_reconstruction_reaches_solver_floor(mesh):
    width, height = mesh.x_max - mesh.x_min, mesh.y_max - mesh.y_min
    short = min(width, height)
    center = (mesh.x_min + 0.45 * width, mesh.y_min + 0.55 * height)
    spec = PhantomSpec(
        background=0.2, bumps=(Bump(center, 0.1, 0.12 * short),), collar_width=0.15 * short,
    )
    truth = make_phantom(spec, mesh)
    config = recon.ReconConfig(sigma0=fem.constant_field(mesh, 0.2), truth=truth)
    _, report = recon.reconstruct(forward.forward_map(truth), config)
    assert report.sweeps[-1].rel_error <= 1e-7
