import numpy as np
import pytest

from matmi import fem, forward, frechet, transport
from matmi.fem import ScalarField
from matmi.mesh import build_mesh
from matmi.phantoms import make_phantom, single_bump_spec, three_bump_spec

from conftest import perturbation, record_stats, smooth_conductivity


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


def test_directions_share_the_base_hierarchy(bump32, mesh32, monkeypatch):
    # N directions on one base build no hierarchy, and the derivative maps and
    # the factor of the fine stiffness once
    base = forward.compute_field(bump32)
    built, factored, maps = [], [], []

    def counting(calls, original, counts=lambda *args: True):
        def wrapped(*args):
            if counts(*args):
                calls.append(args)
            return original(*args)
        return wrapped

    monkeypatch.setattr(fem, "multigrid", counting(built, fem.multigrid))
    # a multigrid also pins the LU of its coarsest level, which is smaller
    monkeypatch.setattr(fem, "pinned_lu", counting(
        factored, fem.pinned_lu, lambda matrix: matrix.shape[0] == mesh32.n_nodes))
    monkeypatch.setattr(transport, "advection_matrix_derivative",
                        counting(maps, transport.advection_matrix_derivative))
    for seed in (46, 47, 48, 49, 50):
        frechet.frechet_derivative(bump32, perturbation(mesh32, np.random.RandomState(seed)), base)
    assert built == [] and len(factored) == 1 and len(maps) == 1
    frechet.frechet_derivative(bump32, perturbation(mesh32, np.random.RandomState(46)))
    assert len(built) == 1 and len(factored) == 2 and len(maps) == 2


@pytest.mark.parametrize("nx, ny, bounds", [
    (32, 32, (0, 1, 0, 1)), (32, 32, (0, 4, 0, 0.25)), (16, 36, (0, 4, 0, 0.5)),
])
def test_directions_solve_in_two_steps(nx, ny, bounds, monkeypatch):
    # the factor-preconditioned auxiliary solve takes at most two CG steps, also
    # on cells of aspect 16-18 where a V-cycle takes over a hundred, and matches
    # a V-cycle solve driven ten times below the residual contract.  The
    # directions vary along the long side: variation across a thin domain puts
    # the rounding floor of a Neumann solve near SOLVER_TOL for any preconditioner
    mesh = build_mesh(nx, ny, bounds)
    sigma = smooth_conductivity(mesh, np.random.RandomState(53))
    base = forward.compute_field(sigma)
    maps = base.derivative_maps
    reference = fem.multigrid(sigma).vcycle
    xi = (mesh.nodes[:, 0] - mesh.x_min) / (mesh.x_max - mesh.x_min)
    solves = record_stats(monkeypatch, "solve_neumann")
    for k in (1, 2, 3):
        h = ScalarField(mesh, sigma.values * np.sin(2 * np.pi * k * xi) / 2)
        df = frechet.frechet_derivative(sigma, h, base).value.values
        phi, _ = fem._projected_pcg(base.stiffness, maps.rhs @ h.values, reference, 1e-13,
                                    10 * mesh.n_nodes)
        expected = (base.operator.matrix @ h.values + maps.advection @ phi) / fem.lumped_mass(mesh)
        assert np.abs(df - expected).max() <= 1e-12 * np.abs(expected).max()
    assert len(solves) == 3 and max(s.steps for s in solves) <= 2


@pytest.mark.parametrize("n", [64, 128])
def test_directions_solve_in_one_step(n, monkeypatch):
    # the pinned factor's solve is exact in its pinned row too, so one CG step
    # meets SOLVER_TOL; with that row's rounding left in, most directions took two
    mesh = build_mesh(n, n)
    sigma = make_phantom(three_bump_spec(), mesh)
    base = forward.compute_field(sigma)
    solves = record_stats(monkeypatch, "solve_neumann")
    rng = np.random.RandomState(59)
    for _ in range(5):
        frechet.frechet_derivative(sigma, perturbation(mesh, rng), base)
    assert [s.steps for s in solves] == [1] * 5


def test_solve_at_the_rounding_floor_fails_fast():
    # on cells of aspect 16 this direction's true residual stalls near 1.8e-12,
    # above SOLVER_TOL: CG must give up once a restart stops halving it, not
    # restart until its cap of 10 n iterations
    mesh = build_mesh(32, 32, (0, 4, 0, 0.25))
    sigma = smooth_conductivity(mesh, np.random.RandomState(0))
    h = smooth_conductivity(mesh, np.random.RandomState(51))
    with pytest.raises(fem.SolverError, match="stalled") as err:
        frechet.frechet_derivative(sigma, h)
    assert len(err.value.residuals) - 1 <= 20
    assert min(err.value.residuals) > fem.SOLVER_TOL


def test_base_at_another_conductivity_rejected(bump32, mesh32):
    h = perturbation(mesh32, np.random.RandomState(49))
    base = forward.compute_field(bump32)
    other = ScalarField(mesh32, 1.01 * bump32.values)
    with pytest.raises(ValueError, match="different conductivity"):
        frechet.frechet_derivative(other, h, base)
    # an equal conductivity in another array is the same base
    same = ScalarField(mesh32, bump32.values.copy())
    assert np.array_equal(frechet.frechet_derivative(same, h, base).value.values,
                          frechet.frechet_derivative(bump32, h, base).value.values)


@pytest.mark.filterwarnings("error")
def test_nonfinite_direction_rejected_before_any_solve(bump32, mesh32, monkeypatch):
    base = forward.compute_field(bump32)

    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran on a non-finite direction")

    monkeypatch.setattr(fem, "_projected_pcg", no_solve)
    for bad in (np.nan, np.inf):
        values = perturbation(mesh32, np.random.RandomState(50)).values.copy()
        values[40] = bad
        h = ScalarField(mesh32, values)
        for given in (base, None):
            with pytest.raises(ValueError, match="increment is not finite at node 40"):
                frechet.frechet_derivative(bump32, h, given)
        with pytest.raises(ValueError, match="increment is not finite at node 40"):
            frechet.fd_validate(bump32, h)


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
        mass = fem.mass_matrix(mesh)
        pairing = (h.values @ (mass @ df.value.values)) / (h.values @ (mass @ h.values))
        gaps.append(abs(pairing - 0.5))
    assert gaps[1] <= gaps[0] / 1.5
    assert gaps[2] <= gaps[1] / 1.5
