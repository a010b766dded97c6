import numpy as np
import pytest

from matmi import fem, forward, frechet, recon, transport
from matmi.fem import ScalarField, VectorField
from matmi.mesh import build_mesh, nested_interpolation
from matmi.phantoms import make_phantom, random_bump_spec, single_bump_spec, three_bump_spec

from conftest import perturbation


def test_rotation_convention():
    v = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, -3.0]])
    np.testing.assert_array_equal(forward.rotate(v), [[0.0, -1.0], [1.0, 0.0], [-3.0, -2.0]])


def test_rotation_divergence_curl_identity(mesh16):
    # div(v x B0) = (curl v) . B0 for the chosen sign convention: the rotated
    # centered gauge is 0.5*(x - xc, y - yc), whose divergence is 1 = curl(gauge)
    gauge = forward.gauge_field(mesh16)
    rotated = forward.rotate(gauge.values)
    c = mesh16.element_centroids
    np.testing.assert_allclose(rotated[:, 0], 0.5 * (c[:, 0] - 0.5), atol=1e-14)
    np.testing.assert_allclose(rotated[:, 1], 0.5 * (c[:, 1] - 0.5), atol=1e-14)


def test_gauge_norm_is_centered_infimum(mesh64):
    # inf over shifts of ||(-y+a, x+b)|| is sqrt(1/12 + 1/12); the gauge carries 1/2
    gauge = forward.gauge_field(mesh64)
    assert fem.l2_norm_vec(gauge) <= 0.5 * np.sqrt(1.0 / 6.0)
    # the gauge 0.5 * (-y + 0.9, x - 0.1), off center by 0.2 in each component
    shifted = VectorField(mesh64, gauge.values + 0.2)
    assert fem.l2_norm_vec(shifted) > fem.l2_norm_vec(gauge)


def test_field_bound_constant_sigma(mesh64):
    result = forward.compute_field(fem.constant_field(mesh64, 0.2))
    # C1 = 0.5*(Lambda/lambda + 1)*sqrt(1/6) with Lambda = lambda for constants
    assert 0.0 < result.field_norm <= np.sqrt(1.0 / 6.0)


def test_field_independent_of_constant_scale(mesh32):
    r1 = forward.compute_field(fem.constant_field(mesh32, 0.2))
    r2 = forward.compute_field(fem.constant_field(mesh32, 5.0))
    assert np.abs(r1.field.values - r2.field.values).max() <= 1e-10


def test_weak_divergence_free(bump32, mesh32):
    # the solved equation: integral(sigma E . grad phi_i) = 0 for all i
    result = forward.compute_field(bump32)
    sigma_e = fem.element_means(bump32)
    weighted = VectorField(mesh32, sigma_e[:, None] * result.field.values)
    residual = fem.assemble_weak_divergence_rhs(weighted)
    assert np.abs(residual).max() <= 1e-10 * fem.l2_norm_vec(weighted)


def test_compute_field_rejects_inadmissible(mesh8):
    values = np.full(mesh8.n_nodes, 0.2)
    values[5] = -0.1
    with pytest.raises(ValueError):
        forward.compute_field(ScalarField(mesh8, values))


def test_deterministic_bit_identical(bump32):
    r1 = forward.compute_field(bump32)
    r2 = forward.compute_field(bump32)
    np.testing.assert_array_equal(r1.field.values, r2.field.values)
    np.testing.assert_array_equal(r1.potential.values, r2.potential.values)


def test_forward_map_applies_stored_operator(bump32, mesh32):
    field = forward.compute_field(bump32).field
    op = transport.assemble_advection(VectorField(mesh32, forward.rotate(field.values)))
    expected = transport.apply_data_operator(op, bump32)
    assert np.array_equal(forward.forward_map(bump32).values, expected.values)


def test_forward_map_rejects_a_result_at_another_conductivity(bump32, mesh32):
    # it returned the data of the result's conductivity, A(sigma_result) sigma
    result = forward.compute_field(bump32)
    for other in (ScalarField(mesh32, 1.01 * bump32.values),
                  ScalarField(build_mesh(32, 32), bump32.values)):
        with pytest.raises(ValueError, match="different conductivity"):
            forward.forward_map(other, result)
    # an equal conductivity in another array is the same result
    same = ScalarField(mesh32, bump32.values.copy())
    assert np.array_equal(forward.forward_map(same, result).values,
                          forward.forward_map(bump32, result).values)


def _operator(sigma):
    return forward.compute_field(sigma).operator


@pytest.mark.parametrize("call, name", [
    (lambda a, b: transport.apply_data_operator(_operator(a), b), "sigma"),
    (lambda a, b: transport.transport_solve(_operator(a), b, a), "g"),
    (lambda a, b: transport.transport_solve(_operator(a), a, b), "boundary_value"),
    (lambda a, b: recon.reconstruct(b, recon.ReconConfig(sigma0=a)), "sigma0"),
    (lambda a, b: recon.stability_check(a, b), "sigma2"),
    (lambda a, b: frechet.frechet_derivative(a, b), "increment"),
    (lambda a, b: frechet.fd_validate(a, b), "increment"),
    (lambda a, b: fem.assemble_weighted_stiffness(a.mesh, b), "sigma"),
], ids=["apply_data_operator", "transport_solve-data", "transport_solve-boundary",
        "reconstruct", "stability_check", "frechet_derivative", "fd_validate",
        "assemble_weighted_stiffness"])
def test_fields_from_another_mesh_rejected(call, name, mesh8):
    # an equal mesh built again is another mesh: only the identity check tells them apart
    here = fem.constant_field(mesh8, 0.5)
    there = fem.constant_field(build_mesh(8, 8), 0.5)
    with pytest.raises(ValueError, match=f"^{name} lives on a different mesh$"):
        call(here, there)


def test_gauge_independence(bump32, mesh32, monkeypatch):
    # shifting the gauge by a constant vector (the gradient of an affine
    # function) changes the potential but not the field
    base = forward.compute_field(bump32)
    # the gauge 0.5 * (-y + 0.7, x + 0.3), off center by (0.1, 0.4)
    gauge = VectorField(mesh32, forward.gauge_field(mesh32).values + [0.1, 0.4])
    monkeypatch.setattr(forward, "gauge_field", lambda mesh: gauge)
    shifted = forward.compute_field(bump32)
    scale = np.abs(base.field.values).max()
    assert np.abs(base.field.values - shifted.field.values).max() <= 1e-10 * scale
    assert np.abs(base.potential.values - shifted.potential.values).max() > 1e-6


def test_field_bound_random_sigma(mesh32):
    rng = np.random.RandomState(20)
    for _ in range(20):
        sigma = make_phantom(random_bump_spec(rng, n_bumps=3), mesh32)
        lam = sigma.values.min()
        big_lam = fem.w1inf_norm(sigma)
        c1 = 0.5 * (big_lam / lam + 1.0) * np.sqrt(1.0 / 6.0)
        result = forward.compute_field(sigma)
        assert result.field_norm <= c1


def test_forward_boundedness(mesh32):
    rng = np.random.RandomState(21)
    area_sqrt = 1.0
    for _ in range(10):
        sigma = make_phantom(random_bump_spec(rng, n_bumps=2), mesh32)
        lam = sigma.values.min()
        big_lam = fem.w1inf_norm(sigma)
        c1 = 0.5 * (big_lam / lam + 1.0) * np.sqrt(1.0 / 6.0)
        g = forward.forward_map(sigma)
        assert fem.l2_norm(g) <= (area_sqrt + c1) * big_lam


# ---------------------------------------------------------------------------
# forward data map

def test_constant_sigma_gives_constant_data(mesh64):
    g = forward.forward_map(fem.constant_field(mesh64, 0.2))
    assert np.abs(g.values - 0.2).max() <= 1e-10 * 0.2


def test_amplitude_linearisation(mesh32):
    base = fem.constant_field(mesh32, 0.2)
    g0 = forward.forward_map(base)
    bump = perturbation(mesh32, np.random.RandomState(22), n_bumps=1, amplitude=1.0)
    diffs = []
    for amp in (1e-3, 2e-3):
        sigma = ScalarField(mesh32, base.values + amp * bump.values)
        g = forward.forward_map(sigma)
        diffs.append(fem.l2_norm(ScalarField(mesh32, g.values - g0.values)))
    assert 1.6 <= diffs[1] / diffs[0] <= 2.4


@pytest.mark.parametrize("n", [32, 64])
def test_data_integral_identity(n):
    # integrating by parts twice with div(E x B0) = 1 and the unit circulation
    # of E gives  integral(g) = sigma_boundary * |Omega|  for phantoms that
    # are constant near the boundary; both sides computed discretely
    m = build_mesh(n, n)
    sigma = make_phantom(single_bump_spec(), m)
    g = forward.forward_map(sigma)
    diag = fem.lumped_mass(m)
    assert float(diag @ g.values) == pytest.approx(0.2, abs=2e-7)


# ---------------------------------------------------------------------------
# divergence identity diagnostic

# values pinned by the refinement study; the decay rate is exactly first order
DIVERGENCE_ERRORS = {16: 8.960755487e-2, 32: 4.480377743e-2, 64: 2.240188872e-2}


@pytest.mark.parametrize("n", [16, 32, 64])
def test_divergence_error_pinned(n):
    m = build_mesh(n, n)
    sigma = make_phantom(single_bump_spec(), m)
    result = forward.compute_field(sigma)
    err = forward.divergence_identity_error(result.field)
    assert err == pytest.approx(DIVERGENCE_ERRORS[n], rel=1e-6)


def test_divergence_error_refinement_decay():
    errs = []
    for n in (16, 32, 64):
        m = build_mesh(n, n)
        sigma = make_phantom(single_bump_spec(), m)
        errs.append(forward.divergence_identity_error(forward.compute_field(sigma).field))
    assert errs[1] <= errs[0] / 1.5
    assert errs[2] <= errs[1] / 1.5


def test_divergence_gauge_alone_exact_interior(mesh32):
    # the rotated gauge is linear with exact unit divergence; on the coarse
    # evaluation grid only boundary nodes see the flux sampling offset
    gauge = forward.gauge_field(mesh32)
    w = VectorField(mesh32, forward.rotate(gauge.values))
    p = nested_interpolation(32, 32, 8, 8)
    b = p.T @ fem.assemble_weak_divergence_rhs(w)
    diag = p.T @ fem.lumped_mass(mesh32)
    interior = build_mesh(8, 8).interior_order
    assert np.abs(b[interior] / diag[interior] - 1.0).max() <= 1e-13


@pytest.mark.parametrize("nx, ny, bounds", [
    (32, 32, (0.0, 1.0, 0.0, 1.0)), (24, 36, (0.0, 2.0, 0.0, 1.0)), (48, 16, (0.0, 1.0, 0.0, 1.0)),
])
def test_divergence_pure_gradient_consistent(nx, ny, bounds):
    # a rotated gradient is divergence free in distribution; the diagnostic
    # sees it against the constant-1 target, so the deviation equals the
    # gauge-free projection of 0 shifted by -1, i.e. the diagnostic of the
    # field made of the gauge alone; the unequal cell ratios of the
    # non-square meshes put coarse diagonals across fine triangles
    mesh = build_mesh(nx, ny, bounds)
    v = fem.interpolate(mesh, lambda x, y: np.sin(2 * np.pi * x) * np.cos(np.pi * y))
    grad = fem.gradient_field(v)
    gauge = forward.gauge_field(mesh)
    with_gradient = VectorField(mesh, gauge.values + grad.values)
    e_gauge = forward.divergence_identity_error(gauge)
    e_full = forward.divergence_identity_error(with_gradient)
    assert e_full == pytest.approx(e_gauge, abs=1e-12)


def test_divergence_error_does_not_depend_on_sigma(mesh64):
    # the rotated gradient part is divergence free in distribution, so the
    # diagnostic reads the gauge's centroid sampling whatever sigma is
    gauge_only = forward.divergence_identity_error(forward.gauge_field(mesh64))
    for sigma in (
        fem.constant_field(mesh64, 0.2),
        make_phantom(single_bump_spec(), mesh64),
        make_phantom(three_bump_spec(), mesh64),
    ):
        err = forward.divergence_identity_error(forward.compute_field(sigma).field)
        assert err == pytest.approx(gauge_only, rel=1e-13)
