import tracemalloc

import numpy as np
import pytest

from matmi import forward
from matmi.mesh import MAX_ELEMENTS, build_mesh
from matmi.phantoms import make_phantom, single_bump_spec

from conftest import element_geometry


def test_node_and_element_counts():
    m = build_mesh(2, 2)
    assert m.n_nodes == 9
    assert m.n_elements == 8


def test_paper_mesh_size():
    m = build_mesh(64, 64)
    assert m.n_nodes == 4225
    assert m.n_elements == 8192
    assert m.dx == pytest.approx(1.0 / 64)


def test_total_area_exact():
    m = build_mesh(1, 1)
    areas, _, _ = element_geometry(m)
    assert m.area == 0.5 and areas.sum() == 1.0


def test_areas_congruent():
    m = build_mesh(2, 2)
    areas, _, _ = element_geometry(m)
    assert m.area == 0.125
    np.testing.assert_array_equal(areas, m.area)


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        build_mesh(0, 4)
    with pytest.raises(ValueError):
        build_mesh(4, -1)
    with pytest.raises(ValueError):
        build_mesh(4, 4, (0.0, 0.0, 0.0, 1.0))


def test_rejects_element_counts_beyond_int32_indices(monkeypatch):
    def allocate(*args, **kwargs):
        raise AssertionError("the size is checked after allocating")

    monkeypatch.setattr(np, "linspace", allocate)
    assert 2 * 2896**2 <= MAX_ELEMENTS < 2 * 2897**2
    for nx, ny in [(2897, 2897), (MAX_ELEMENTS // 2 + 1, 1)]:
        with pytest.raises(ValueError, match="int32"):
            build_mesh(nx, ny)


@pytest.mark.parametrize("bounds", [
    (0.0, 1e300, 0.0, 1e300),     # areas overflow
    (0.0, 1e-320, 0.0, 1.0),      # subnormal areas: gradients overflow
    (-1e308, 1e308, 0.0, 1.0),    # the width overflows
    (0.0, 1e-155, 0.0, 1.0),      # finite gradients whose couplings overflow
    (0.0, 1e300, 0.0, 1.0),       # the x couplings underflow to zero: a singular stiffness
])
def test_rejects_geometry_outside_float_range(bounds):
    with pytest.raises(ValueError, match="degenerate"):
        build_mesh(8, 8, bounds)


def test_rejects_cells_that_float64_does_not_separate():
    # the spacing of float64 at 1e16 is 2: grid lines 0.5 apart coincide
    with pytest.raises(ValueError, match="degenerate"):
        build_mesh(16, 4, (1e16, 1e16 + 8.0, 0.0, 1.0))


def test_triangle_geometry_hand_values():
    # P1 barycentric gradients on the two triangles of the unit square, by hand:
    # lower (0,0),(1,0),(1,1) has basis 1-x, x-y, y; upper (0,0),(1,1),(0,1)
    # has basis 1-y, x, y-x
    m = build_mesh(1, 1)
    np.testing.assert_array_equal(m.elements, [[0, 1, 3], [0, 3, 2]])
    assert m.area == 0.5
    np.testing.assert_array_equal(m.gradients[0], [[-1.0, 0.0], [1.0, -1.0], [0.0, 1.0]])
    np.testing.assert_array_equal(m.gradients[1], [[0.0, -1.0], [1.0, 0.0], [-1.0, 1.0]])
    _, grads, _ = element_geometry(m)
    np.testing.assert_array_equal(grads, m.gradients)


def test_basis_gradients_partition_of_unity():
    m = build_mesh(5, 3, (0.0, 2.0, -1.0, 1.0))
    assert np.abs(m.gradients.sum(axis=1)).max() <= 1e-14


@pytest.mark.parametrize("nx, ny, bounds", [
    (4, 7, (0.0, 3.0, 0.0, 1.0)), (37, 12, (-1.0, 3.0, 0.5, 0.9)),
    (100, 100, (0.0, 16.0, 0.0, 1.0)),
])
def test_reference_triangles_match_every_element(nx, ny, bounds):
    # each element's own geometry, from its node coordinates: the cross product
    # of its edges and its basis gradients
    m = build_mesh(nx, ny, bounds)
    areas, grads, _ = element_geometry(m)
    np.testing.assert_allclose(areas, m.area, rtol=1e-13)
    per_type = grads.reshape(-1, 2, 3, 2)
    scale = np.abs(m.gradients).max()
    assert np.abs(per_type - m.gradients).max() <= 1e-13 * scale


def test_element_centroids_are_vertex_means():
    m = build_mesh(9, 4, (0.0, 1.5, -0.5, 0.5))
    _, _, centroids = element_geometry(m)
    np.testing.assert_array_equal(m.element_centroids, centroids)


def test_boundary_nodes_on_rectangle():
    m = build_mesh(6, 9, (0.0, 2.0, 1.0, 4.0))
    pts = m.nodes[m.boundary_nodes]
    on_edge = (
        np.isclose(pts[:, 0], 0.0, atol=1e-14) | np.isclose(pts[:, 0], 2.0, atol=1e-14)
        | np.isclose(pts[:, 1], 1.0, atol=1e-14) | np.isclose(pts[:, 1], 4.0, atol=1e-14)
    )
    assert on_edge.all()
    assert len(m.boundary_nodes) == 2 * 6 + 2 * 9


@pytest.mark.parametrize("bounds", [
    (0.0, 1.0, 0.0, 1.0),
    (1000.0, 1001.0, 0.0, 1.0),       # np.isclose on coordinates found 766 nodes
    (0.0, 1e-7, 0.0, 1e-7),           # ... and 6032 here
    (-3.0, 2.0, 1e6, 1e6 + 0.5),      # ... and every node here
], ids=["unit", "offset", "tiny", "far"])
def test_boundary_nodes_by_grid_index(bounds):
    m = build_mesh(128, 96, bounds)
    x_min, x_max, y_min, y_max = bounds
    x, y = m.nodes.T
    # linspace hits both ends exactly, so the boundary nodes are the exact matches
    on_edge = (x == x_min) | (x == x_max) | (y == y_min) | (y == y_max)
    assert len(m.boundary_nodes) == 2 * (128 + 96)
    assert np.array_equal(m.boundary_nodes, np.flatnonzero(on_edge))
    assert np.array_equal(m.interior_nodes, np.flatnonzero(~on_edge))


def test_conforming_interior_edges():
    m = build_mesh(4, 5)
    counts = {}
    for tri in m.elements:
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            counts[frozenset((a, b))] = counts.get(frozenset((a, b)), 0) + 1
    boundary = set(m.boundary_nodes)
    for edge, count in counts.items():
        if edge <= boundary and count == 1:
            continue  # boundary edge
        assert count == 2, f"interior edge {sorted(edge)} shared by {count} elements"


def test_refinement_nesting():
    coarse = build_mesh(6, 6, (0.0, 1.0, 0.0, 2.0))
    fine = build_mesh(12, 12, (0.0, 1.0, 0.0, 2.0))
    ii = np.arange(7) * 2
    idx = (ii[:, None] * 13 + ii[None, :]).ravel()  # (2j)*(nx_f+1) + 2i
    jj, kk = np.meshgrid(np.arange(7) * 2, np.arange(7) * 2, indexing="ij")
    idx = (jj * 13 + kk).ravel()
    np.testing.assert_allclose(
        fine.nodes[idx].reshape(7, 7, 2),
        coarse.nodes.reshape(7, 7, 2),
        atol=1e-14,
    )


def test_affine_reproduction_at_centroids():
    from matmi import fem

    m = build_mesh(9, 4, (0.0, 1.5, -0.5, 0.5))
    f = fem.interpolate(m, lambda x, y: 1.7 + 0.3 * x - 1.1 * y)
    at_centroids = fem.element_means(f)
    exact = 1.7 + 0.3 * m.element_centroids[:, 0] - 1.1 * m.element_centroids[:, 1]
    np.testing.assert_allclose(at_centroids, exact, rtol=1e-13)


@pytest.mark.parametrize("nx, ny, bounds", [
    (2, 2, (0.0, 1.0, 0.0, 1.0)), (16, 6, (-1.5, 2.0, 0.25, 1.0)), (10, 24, (2.0, 3.0, -4.0, 1.0)),
])
def test_coarse_weights_sum_the_children_tiling_their_parent(nx, ny, bounds):
    fine = build_mesh(nx, ny, bounds)
    coarse = fine.coarse
    assert (coarse.nx, coarse.ny) == (nx // 2, ny // 2)
    assert coarse.bounds == fine.bounds
    # the children of each coarse element, read off the weight sum of each fine element
    parent_of = np.empty(fine.n_elements, dtype=int)
    for e in range(fine.n_elements):
        unit = np.zeros(fine.n_elements)
        unit[e] = 1.0
        summed = fine.coarsen(unit)
        assert np.array_equal(np.sort(summed)[-2:], [0.0, 1.0])
        parent_of[e] = np.argmax(summed)
    children = np.argsort(parent_of, kind="stable").reshape(coarse.n_elements, 4)
    parents = np.repeat(np.arange(coarse.n_elements)[:, None], 4, axis=1)
    assert np.array_equal(parent_of[children], parents)
    fine_areas, _, fine_centroids = element_geometry(fine)
    parent_areas, _, _ = element_geometry(coarse)
    np.testing.assert_allclose(fine.coarsen(fine_areas), parent_areas, rtol=1e-13)
    # every child's centroid lies inside its parent: barycentric coordinates in [0, 1]
    parent = coarse.nodes[coarse.elements]                           # (M_c, 3, 2)
    centroids = fine_centroids[children]                              # (M_c, 4, 2)
    basis = np.stack([parent[:, 1] - parent[:, 0], parent[:, 2] - parent[:, 0]], axis=-1)
    local = np.linalg.solve(basis[:, None], (centroids - parent[:, None, 0])[..., None])[..., 0]
    lam = np.concatenate([1.0 - local.sum(axis=-1, keepdims=True), local], axis=-1)
    assert lam.min() > 0.0 and lam.max() < 1.0


def test_odd_mesh_has_no_coarse_mesh():
    with pytest.raises(ValueError, match="halve"):
        build_mesh(9, 6).coarse


def test_meshes_compare_and_hash_by_identity():
    # comparing the array fields raised ValueError, and hashing them TypeError
    m = build_mesh(4, 4)
    assert m == m and m != build_mesh(4, 4)
    cached = {m: 1}
    assert cached[m] == 1 and build_mesh(4, 4) not in cached


def test_mesh_caches_are_lazy_and_read_only():
    m = build_mesh(16, 12)
    # build_mesh builds none of them: the first assembly or multigrid does
    lazy = {"coarse", "prolongation", "restriction", "mass_matrix", "lumped_mass",
            "interior_order"}
    assert not lazy & set(vars(m))
    coarse = m.coarse
    assert m.coarse is coarse
    # the coarse mesh's own coarse mesh and transfers are built on first use, once
    assert not lazy & set(vars(coarse))
    assert coarse.coarse is coarse.coarse
    assert m.prolongation is m.prolongation and m.restriction is m.restriction
    assert m.prolongation.shape == (m.n_nodes, coarse.n_nodes)
    assert (m.restriction != m.prolongation.T).nnz == 0
    assert np.array_equal(m.mass_matrix.offsets, [-18, -17, -1, 0, 1, 17, 18])
    assert np.array_equal(m.stiffness(np.ones(m.n_elements)).offsets, [-17, -1, 0, 1, 17])
    indices, values = [], [m.gradients, coarse.gradients, m.boundary_nodes]
    for matrix in (m.prolongation, m.restriction):
        indices += [matrix.indices, matrix.indptr]
        values.append(matrix.data)
    assert all(arr.dtype == np.int32 for arr in indices)
    for arr in indices + values:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr.flat[0] = 1


#: traced memory that a mesh, its conductivity and the mesh's caches hold after a
#: field solve at n = 256: 5.0 MB measured (the coarse levels' transfers most of
#: it), against 39.4 MB when the mesh held per-element geometry and index maps
FOOTPRINT_MB = 8


def test_field_solve_leaves_a_small_footprint():
    tracemalloc.start()
    try:
        mesh = build_mesh(256, 256)
        sigma = make_phantom(single_bump_spec(), mesh)
        forward.compute_field(sigma)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held <= FOOTPRINT_MB * 2**20, f"{held / 2**20:.1f} MB held"
