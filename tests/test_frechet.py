import numpy as np
import pytest

from matmi import fem, forward, frechet
from matmi.fem import ScalarField
from matmi.mesh import build_mesh
from matmi.phantoms import make_phantom, single_bump_spec

from conftest import perturbation


def test_constant_sigma_constant_h(mesh32):
    sigma = fem.constant_field(mesh32, 0.3)
    h = fem.constant_field(mesh32, 0.05)
    df = frechet.frechet_derivative(sigma, h)
    assert np.abs(df.value.values - 0.05).max() <= 1e-10
    assert np.abs(df.potential.values).max() <= 1e-10


def test_linearity_scaling(bump32, mesh32):
    rng = np.random.RandomState(40)
    h = perturbation(mesh32, rng)
    df1 = frechet.frechet_derivative(bump32, h)
    df2 = frechet.frechet_derivative(bump32, ScalarField(mesh32, 2.0 * h.values))
    scale = np.abs(df1.value.values).max()
    assert np.abs(df2.value.values - 2.0 * df1.value.values).max() <= 1e-12 * scale


def test_precomputed_base_changes_nothing(bump32, mesh32):
    h = perturbation(mesh32, np.random.RandomState(42))
    reused = frechet.frechet_derivative(bump32, h, forward.compute_field(bump32))
    alone = frechet.frechet_derivative(bump32, h)
    assert np.array_equal(reused.value.values, alone.value.values)
    assert np.array_equal(reused.potential.values, alone.potential.values)


def test_linearity_combination(bump32, mesh32):
    rng = np.random.RandomState(41)
    base = forward.compute_field(bump32)
    h1 = perturbation(mesh32, rng)
    h2 = perturbation(mesh32, rng)
    a, b = 0.7, -1.3
    combo = ScalarField(mesh32, a * h1.values + b * h2.values)
    df_combo = frechet.frechet_derivative(bump32, combo, base)
    df1 = frechet.frechet_derivative(bump32, h1, base)
    df2 = frechet.frechet_derivative(bump32, h2, base)
    gap = fem.l2_norm(ScalarField(
        mesh32, df_combo.value.values - a * df1.value.values - b * df2.value.values
    ))
    assert gap <= 1e-10 * (fem.l2_norm(df1.value) + fem.l2_norm(df2.value))


def test_derivative_bound(mesh32):
    # ||DF(h)|| <= (|Omega|^1/2 + C1(Lambda/lambda + 1)) ||h||_W1inf
    rng = np.random.RandomState(42)
    sigma = make_phantom(single_bump_spec(), mesh32)
    lam = sigma.values.min()
    big_lam = fem.w1inf_norm(sigma)
    c1 = 0.5 * (big_lam / lam + 1.0) * np.sqrt(1.0 / 6.0)
    bound_factor = 1.0 + c1 * (big_lam / lam + 1.0)
    base = forward.compute_field(sigma)
    for _ in range(5):
        h = perturbation(mesh32, rng)
        df = frechet.frechet_derivative(sigma, h, base)
        assert fem.l2_norm(df.value) <= bound_factor * fem.w1inf_norm(h)


def test_fd_remainder_quadratic(bump32, mesh32):
    rng = np.random.RandomState(43)
    h = perturbation(mesh32, rng, amplitude=0.5)
    r = frechet.fd_validate(bump32, h)
    assert 3.2 <= r[0] / r[1] <= 4.8
    assert 3.2 <= r[1] / r[2] <= 4.8


def test_fd_zero_direction(bump32, mesh32):
    h = fem.constant_field(mesh32, 0.0)
    r = frechet.fd_validate(bump32, h, t_values=(1e-2,))
    assert r[0] <= 1e-11


def test_fd_rejects_inadmissible(mesh16):
    sigma = fem.constant_field(mesh16, 0.01)
    h = fem.constant_field(mesh16, -2.0)
    with pytest.raises(ValueError):
        frechet.fd_validate(sigma, h, t_values=(1.0,))


def test_lower_bound_constant_sigma(mesh64):
    # Lipschitz lower bound at constant conductivity: ||DF(h)|| >= 0.45 ||h||
    rng = np.random.RandomState(44)
    sigma = fem.constant_field(mesh64, 0.2)
    base = forward.compute_field(sigma)
    ratios = []
    for _ in range(20):
        h = perturbation(mesh64, rng)
        df = frechet.frechet_derivative(sigma, h, base)
        ratios.append(fem.l2_norm(df.value) / fem.l2_norm(h))
    assert min(ratios) >= 0.45


def test_pairing_approaches_half_under_refinement():
    # <h, DF(h)> = 0.5 ||h||^2 in the continuum at constant sigma; the
    # discrete pairing converges to 1/2 at first order
    gaps = []
    for n in (16, 32, 64):
        mesh = build_mesh(n, n)
        sigma = fem.constant_field(mesh, 0.2)
        base = forward.compute_field(sigma)
        h = perturbation(mesh, np.random.RandomState(45))
        df = frechet.frechet_derivative(sigma, h, base)
        pairing = fem.l2_inner(h, df.value) / fem.l2_inner(h, h)
        gaps.append(abs(pairing - 0.5))
    assert gaps[1] <= gaps[0] / 1.5
    assert gaps[2] <= gaps[1] / 1.5
