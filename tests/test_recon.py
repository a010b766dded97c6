import numpy as np
import pytest

from matmi import cli, fem, forward, recon, transport
from matmi.fem import ScalarField, VectorField
from matmi.mesh import build_mesh
from matmi.phantoms import make_phantom, single_bump_spec, three_bump_spec, random_bump_spec
from matmi.recon import ReconConfig, ReconReport, Sweep

from conftest import perturbation


def assert_error_monotone(abs_errors):
    """From sweep 2 on, an error above the solver floor grows by no more than rounding."""
    for k in range(2, len(abs_errors)):
        previous, current = abs_errors[k - 1], abs_errors[k]
        if previous > recon.SOLVER_FLOOR:
            assert current <= previous * (1.0 + 1e-9), (k, previous, current)


def test_config_validation(mesh16):
    sigma0 = fem.constant_field(mesh16, 0.2)
    with pytest.raises(ValueError):
        ReconConfig(sigma0=sigma0, max_iterations=0)
    with pytest.raises(ValueError):
        ReconConfig(sigma0=sigma0, tolerance_update=-1.0)


def test_constant_data_constant_start(mesh64):
    # the discrete fixed point for constants is immediate
    g = fem.constant_field(mesh64, 0.2)
    cfg = ReconConfig(sigma0=fem.constant_field(mesh64, 0.2),
                      truth=fem.constant_field(mesh64, 0.2))
    sigma, report = recon.reconstruct(g, cfg)
    assert report.n_iterations <= 1
    assert report.sweeps[-1].abs_error < 5e-8


def test_reverse_experiment(mesh64, bump64):
    # constant truth, bump initial guess: one transport solve lands on the
    # constant because the update equation maps constant data to the constant
    truth = fem.constant_field(mesh64, 0.2)
    g = forward.forward_map(truth)
    cfg = ReconConfig(sigma0=bump64, truth=truth)
    sigma, report = recon.reconstruct(g, cfg)
    assert report.n_iterations <= 2
    assert report.sweeps[-1].abs_error < 1e-7
    assert report.stopping_reason in ("misfit_tolerance", "update_tolerance")


def test_single_bump_reconstruction(mesh64, bump64):
    g = forward.forward_map(bump64)
    cfg = ReconConfig(sigma0=fem.constant_field(mesh64, 0.2), truth=bump64)
    sigma, report = recon.reconstruct(g, cfg)
    assert report.n_iterations <= 30
    assert min(s.rel_error for s in report.sweeps) <= 1e-6
    assert_error_monotone([s.abs_error for s in report.sweeps])


def test_report_records_each_sweeps_solver_work(mesh32, bump32, monkeypatch):
    iterations = []
    original = fem._projected_pcg

    def counting(*args, **kwargs):
        x, residuals = original(*args, **kwargs)
        iterations.append(len(residuals) - 1)
        return x, residuals

    monkeypatch.setattr(fem, "_projected_pcg", counting)
    g = forward.forward_map(bump32)
    del iterations[:]
    cfg = ReconConfig(sigma0=fem.constant_field(mesh32, 0.2), truth=bump32)
    sigma, report = recon.reconstruct(g, cfg)
    assert [s.cg_iterations for s in report.sweeps] == iterations
    # one field solve per iterate, each after the first started from the last potential
    assert len(iterations) == len(report.sweeps)
    assert iterations[-1] < iterations[0]
    # no solve produced sigma_0, the first builds the LU, and later ones reuse it
    # until a refinement step stalls
    factors = [s.transport_factors for s in report.sweeps]
    assert factors[:2] == [0, 1] and set(factors) <= {0, 1}
    assert sum(factors) < report.n_iterations


def test_fixed_point_exactness(mesh32, bump32):
    # if sigma_k equals the truth, the next transport solve returns the truth
    result = forward.compute_field(bump32)
    w = VectorField(mesh32, forward.rotate(result.field.values))
    op = transport.assemble_advection(w)
    g = forward.forward_map(bump32, result)
    nxt = transport.transport_solve(op, g, bump32)
    err = fem.l2_norm(ScalarField(mesh32, nxt.values - bump32.values))
    assert err <= 1e-10 * fem.l2_norm(bump32)


def test_contraction_uniform_factor(mesh32):
    truth = make_phantom(single_bump_spec(), mesh32)
    g = forward.forward_map(truth)
    cfg = ReconConfig(sigma0=fem.constant_field(mesh32, 0.2), truth=truth)
    _, report = recon.reconstruct(g, cfg)
    errs = np.array([s.abs_error for s in report.sweeps])
    usable = errs > recon.SOLVER_FLOOR * 10
    ratios = errs[usable][1:] / errs[usable][:-1]
    assert np.all(ratios < 1.0)


def test_admissibility_abort(mesh16):
    # strongly negative data forces the first iterate far below the floor
    g = fem.constant_field(mesh16, -1.0)
    cfg = ReconConfig(sigma0=fem.constant_field(mesh16, 0.2))
    with pytest.raises(recon.AdmissibilityError) as err:
        recon.reconstruct(g, cfg)
    assert err.value.report.sweeps  # partial report attached
    assert err.value.report.stopping_reason == "inadmissible_iterate"


def test_nan_initial_guess_rejected_before_any_solve(mesh16):
    values = np.full(mesh16.n_nodes, 0.2)
    values[40] = np.nan
    # bad input, not a diverging iteration: the config refuses it, so nothing is solved
    with pytest.raises(ValueError, match="sigma0 is not finite at node 40"):
        ReconConfig(sigma0=ScalarField(mesh16, values))


def test_nonfinite_inputs_rejected_before_any_solve(mesh16, monkeypatch):
    sigma0 = fem.constant_field(mesh16, 0.2)
    for key in ("tolerance_update", "tolerance_misfit"):
        with pytest.raises(ValueError, match="tolerances"):
            ReconConfig(sigma0=sigma0, **{key: np.nan})
    values = np.full(mesh16.n_nodes, 0.2)
    values[40] = np.inf
    with pytest.raises(ValueError, match="sigma0 is not finite at node 40"):
        ReconConfig(sigma0=ScalarField(mesh16, values))
    solves = []
    monkeypatch.setattr(forward, "compute_field", lambda *args, **kw: solves.append(args))
    values[40] = np.nan
    with pytest.raises(ValueError, match="g is not finite at node 40"):
        recon.reconstruct(ScalarField(mesh16, values), ReconConfig(sigma0=sigma0))
    assert solves == []


def test_mesh_mismatch(mesh16, mesh32):
    g = fem.constant_field(mesh16, 0.2)
    with pytest.raises(ValueError):
        recon.reconstruct(g, ReconConfig(sigma0=fem.constant_field(mesh32, 0.2)))


# ---------------------------------------------------------------------------
# convergence factor fit

def geometric_report(c, n=10, e0=1.0):
    return ReconReport([Sweep(k, 0.0, 0.0, np.nan, e0 * c**k, 0, 0) for k in range(n)])


def test_fit_exact_geometric():
    report = geometric_report(0.5)
    c, r2 = recon.fit_convergence_factor(report)
    assert c == pytest.approx(0.5, abs=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)


def test_fit_requires_enough_entries():
    report = geometric_report(0.5, n=3)
    with pytest.raises(ValueError):
        recon.fit_convergence_factor(report)


def test_fit_ignores_floor_entries():
    report = geometric_report(0.1, n=20)  # tail sinks below the floor
    c, r2 = recon.fit_convergence_factor(report)
    assert c == pytest.approx(0.1, rel=1e-6)


def test_example1_like_fit(mesh64, bump64):
    g = forward.forward_map(bump64)
    cfg = ReconConfig(sigma0=fem.constant_field(mesh64, 0.2), truth=bump64)
    _, report = recon.reconstruct(g, cfg)
    c, r2 = recon.fit_convergence_factor(report)
    assert c < 1.0
    assert r2 > 0.98


def test_steeper_phantom_larger_factor(mesh64, bump64):
    g1 = forward.forward_map(bump64)
    cfg1 = ReconConfig(sigma0=fem.constant_field(mesh64, 0.2), truth=bump64)
    _, rep1 = recon.reconstruct(g1, cfg1)
    c1, _ = recon.fit_convergence_factor(rep1)

    steep = make_phantom(three_bump_spec(), mesh64)
    g2 = forward.forward_map(steep)
    cfg2 = ReconConfig(sigma0=fem.constant_field(mesh64, 0.2), truth=steep)
    _, rep2 = recon.reconstruct(g2, cfg2)
    c2, _ = recon.fit_convergence_factor(rep2)
    assert c2 > c1


@pytest.mark.parametrize("spec", [single_bump_spec, three_bump_spec], ids=["single", "three"])
def test_contraction_factor_mesh_independent(spec):
    # in-crime fits at n = 32 / 64 / 128 read 0.141 / 0.145 / 0.145 (single)
    # and 0.235 / 0.237 / 0.230 (three): the contraction is a property of the
    # continuous problem, not of the mesh
    factors = []
    for n in (32, 64, 128):
        mesh = build_mesh(n, n)
        truth = make_phantom(spec(), mesh)
        cfg = ReconConfig(sigma0=fem.constant_field(mesh, 0.2), truth=truth)
        _, rep = recon.reconstruct(forward.forward_map(truth), cfg)
        factors.append(recon.fit_convergence_factor(rep)[0])
    assert max(factors) - min(factors) <= 0.02


# ---------------------------------------------------------------------------
# stability

def test_stability_constant_vs_bump(mesh64, bump64):
    ratio = recon.stability_check(fem.constant_field(mesh64, 0.2), bump64)
    assert ratio <= 2.1


def test_stability_degenerate(mesh32, bump32):
    with pytest.raises(ValueError, match="degenerate"):
        recon.stability_check(bump32, bump32)


def test_stability_affine_pair(mesh32):
    # t*sigma1 + (1-t)*sigma2 constant: sigma2 = (C - t*sigma1)/(1-t); the
    # elementwise gradient cross product vanishes identically
    t = 0.5
    p = perturbation(mesh32, np.random.RandomState(60), n_bumps=2, amplitude=0.08)
    sigma1 = ScalarField(mesh32, 0.2 + p.values)
    sigma2 = ScalarField(mesh32, (0.2 - t * sigma1.values) / (1.0 - t))
    g1 = fem.gradient_field(sigma1).values
    g2 = fem.gradient_field(sigma2).values
    cross = g1[:, 0] * g2[:, 1] - g1[:, 1] * g2[:, 0]
    assert np.abs(cross).max() <= 1e-12 * max(np.abs(g1).max() * np.abs(g2).max(), 1e-30)
    assert recon.stability_check(sigma1, sigma2) <= 2.1


def test_qualitative_four_constant_bound(mesh32):
    # smooth pairs with mild gradients and collar-supported difference obey
    # ||s1 - s2|| <= 4 ||F(s1) - F(s2)||
    rng = np.random.RandomState(61)
    for _ in range(5):
        s1 = make_phantom(random_bump_spec(rng, n_bumps=2), mesh32)
        s2 = make_phantom(random_bump_spec(rng, n_bumps=2), mesh32)
        ratio = recon.stability_check(s1, s2)
        assert ratio <= 4.0


@pytest.mark.parametrize("bounds, n", [((0.0, 2.0, 0.0, 2.0), 16), ((0.0, 1.0, 0.0, 1.0), 8)])
def test_truth_on_another_mesh_rejected(mesh16, bounds, n):
    # a 16 x 16 truth on [0, 2]^2 ran and reported a wrong error; an 8 x 8 one
    # failed in numpy broadcasting after the first field solve
    truth = fem.constant_field(build_mesh(n, n, bounds), 0.2)
    with pytest.raises(ValueError, match="truth lives on a different mesh"):
        ReconConfig(sigma0=fem.constant_field(mesh16, 0.2), truth=truth)


def fine_mesh_reconstruction(n, noise_seed=None):
    """Final relative error of the single bump from 2x fine-mesh data at ``n``,
    with 1% seeded multiplicative Gaussian noise on the data when a seed is given."""
    config = cli.RunConfig(mesh_n=n, data_mode="fine-mesh")
    mesh = config.build_mesh()
    truth = make_phantom(config.phantom_spec(), mesh)
    g, _ = cli.synthesize_data(config, truth)
    if noise_seed is not None:
        noise = np.random.default_rng(noise_seed).standard_normal(mesh.n_nodes)
        g = ScalarField(mesh, g.values * (1.0 + 0.01 * noise))
    cfg = ReconConfig(sigma0=fem.constant_field(mesh, config.background), truth=truth)
    _, report = recon.reconstruct(g, cfg)
    return report.sweeps[-1].rel_error


def test_fine_mesh_error_rate_per_halving():
    # off-mesh data: the error falls about linearly in the cell size; measured
    # 1.535e-2 / 8.334e-3 / 4.156e-3 at n = 16 / 32 / 64, ratios 1.84 and 2.01
    errors = [fine_mesh_reconstruction(n) for n in (16, 32, 64)]
    assert errors[0] / errors[1] >= 1.7
    assert errors[1] / errors[2] >= 1.7


def test_noise_amplification_bounded():
    # 1% multiplicative noise on fine-mesh data at n = 64 raised the error from
    # 4.156e-3 by at most 1.197x over the noise seeds 0-9 (worst: seed 6)
    clean = fine_mesh_reconstruction(64)
    noisy = [fine_mesh_reconstruction(64, seed) for seed in range(10)]
    assert max(noisy) <= 1.3 * clean
