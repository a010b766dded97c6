"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred.
"""

import time

import numpy as np
import pytest

from matmi import fem, forward, frechet, recon
from matmi.fem import ScalarField
from matmi.mesh import build_mesh
from matmi.phantoms import (
    make_phantom, random_bump_spec, single_bump_spec, three_bump_spec,
)
from matmi.recon import ReconConfig

from conftest import perturbation


def report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {criterion}: {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def unit64():
    return build_mesh(64, 64)


def test_criterion_1_constant_forward(unit64):
    t0 = time.time()
    g = forward.forward_map(fem.constant_field(unit64, 0.2))
    elapsed = time.time() - t0
    deviation = float(np.abs(g.values - 0.2).max())
    report(
        1, deviation <= 1e-9 and elapsed <= 1.0,
        f"sigma=0.2, n=64: max |g - 0.2| = {deviation:.3e} (<= 1e-9), {elapsed:.2f}s (<= 1s)",
    )


def test_criterion_2_example3_reverse(unit64):
    t0 = time.time()
    truth = fem.constant_field(unit64, 0.2)
    g = forward.forward_map(truth)
    sigma0 = make_phantom(single_bump_spec(), unit64)
    _, rep = recon.reconstruct(g, ReconConfig(sigma0=sigma0, truth=truth))
    elapsed = time.time() - t0
    abs_error = rep.sweeps[-1].abs_error
    report(
        2, rep.n_iterations <= 2 and abs_error < 1e-7 and elapsed <= 2.0,
        f"reverse run: {rep.n_iterations} iterations (<= 2), "
        f"abs L2 error {abs_error:.3e} (< 1e-7), {elapsed:.2f}s (<= 2s)",
    )


def test_criterion_3_example1_reconstruction(unit64):
    t0 = time.time()
    truth = make_phantom(single_bump_spec(), unit64)
    g = forward.forward_map(truth)
    _, rep = recon.reconstruct(
        g, ReconConfig(sigma0=fem.constant_field(unit64, 0.2), truth=truth)
    )
    c, r2 = recon.fit_convergence_factor(rep)
    elapsed = time.time() - t0
    reached = [s.k for s in rep.sweeps if s.rel_error <= 1e-6]
    ok = (
        bool(reached) and reached[0] <= 30
        and r2 > 0.98 and c < 1.0 and elapsed <= 30.0
    )
    report(
        3, ok,
        f"single bump n=64: rel error <= 1e-6 at iteration "
        f"{reached[0] if reached else 'never'} (<= 30), fit c = {c:.4f} (< 1), "
        f"r^2 = {r2:.4f} (> 0.98), {elapsed:.1f}s (<= 30s)",
    )


def test_criterion_4_gradient_vs_rate(unit64):
    t0 = time.time()
    cs = {}
    for name, spec in (("single", single_bump_spec()), ("three", three_bump_spec())):
        truth = make_phantom(spec, unit64)
        g = forward.forward_map(truth)
        _, rep = recon.reconstruct(
            g, ReconConfig(sigma0=fem.constant_field(unit64, 0.2), truth=truth)
        )
        cs[name], _ = recon.fit_convergence_factor(rep)
    elapsed = time.time() - t0
    report(
        4, cs["three"] > cs["single"] and elapsed <= 60.0,
        f"fitted c: three-bump {cs['three']:.4f} > single-bump {cs['single']:.4f}, "
        f"{elapsed:.1f}s (<= 60s)",
    )


def test_criterion_5_frechet_remainder():
    t0 = time.time()
    mesh = build_mesh(32, 32)
    sigma = make_phantom(single_bump_spec(), mesh)
    h = perturbation(mesh, np.random.RandomState(101), amplitude=0.5)
    r = frechet.fd_validate(sigma, h, t_values=(1e-2, 5e-3, 2.5e-3))
    ratios = (r[0] / r[1], r[1] / r[2])
    elapsed = time.time() - t0
    ok = all(3.2 <= q <= 4.8 for q in ratios) and elapsed <= 10.0
    report(
        5, ok,
        f"remainder ratios r(t)/r(t/2) = ({ratios[0]:.3f}, {ratios[1]:.3f}) "
        f"(in [3.2, 4.8]), {elapsed:.1f}s (<= 10s)",
    )


def test_criterion_6_df_lower_bound(unit64):
    t0 = time.time()
    sigma = fem.constant_field(unit64, 0.2)
    base = forward.compute_field(sigma)
    rng = np.random.RandomState(102)
    ratios = []
    for _ in range(20):
        h = perturbation(unit64, rng)
        df = frechet.frechet_derivative(sigma, h, base)
        ratios.append(fem.l2_norm(df.value) / fem.l2_norm(h))
    elapsed = time.time() - t0
    report(
        6, min(ratios) >= 0.45 and elapsed <= 20.0,
        f"min ||DF(h)||/||h|| = {min(ratios):.4f} over 20 draws (>= 0.45), "
        f"{elapsed:.1f}s (<= 20s)",
    )


def test_criterion_7_nonlinear_stability(unit64):
    t0 = time.time()
    rng = np.random.RandomState(103)
    sigma1 = fem.constant_field(unit64, 0.2)
    ratios = [
        recon.stability_check(sigma1, make_phantom(random_bump_spec(rng), unit64))
        for _ in range(20)
    ]
    elapsed = time.time() - t0
    report(
        7, max(ratios) <= 2.1 and elapsed <= 30.0,
        f"max ||ds||/||dF|| = {max(ratios):.4f} over 20 phantoms (<= 2.1), "
        f"{elapsed:.1f}s (<= 30s)",
    )


def test_criterion_8_field_bound_and_identity(unit64):
    t0 = time.time()
    rng = np.random.RandomState(104)
    margin = 0.0
    for _ in range(20):
        sigma = make_phantom(random_bump_spec(rng, n_bumps=3), unit64)
        lam = float(sigma.values.min())
        big_lam = fem.w1inf_norm(sigma)
        c1 = 0.5 * (big_lam / lam + 1.0) * np.sqrt(1.0 / 6.0)
        result = forward.compute_field(sigma)
        margin = max(margin, result.field_norm / c1)
    errs = []
    for n in (16, 32, 64):
        mesh = build_mesh(n, n)
        sigma = make_phantom(single_bump_spec(), mesh)
        errs.append(forward.divergence_identity_error(forward.compute_field(sigma).field))
    elapsed = time.time() - t0
    decays = errs[1] <= errs[0] / 1.5 and errs[2] <= errs[1] / 1.5
    report(
        8, margin <= 1.0 and decays and elapsed <= 30.0,
        f"worst ||E||/C1 = {margin:.4f} (<= 1), divergence-identity errors "
        f"{errs[0]:.3e} -> {errs[1]:.3e} -> {errs[2]:.3e} "
        f"(>= 1.5x decay per halving), {elapsed:.1f}s (<= 30s)",
    )


def test_criterion_9_solver_contracts(unit64):
    t0 = time.time()
    rng = np.random.RandomState(105)
    sigma = ScalarField(unit64, 0.2 + 0.3 * rng.rand(unit64.n_nodes))
    stiffness = fem.assemble_weighted_stiffness(unit64, sigma)
    row_max = np.abs(stiffness).max(axis=1).toarray().ravel()
    row_sums = np.abs(np.asarray(stiffness.sum(axis=1)).ravel())
    rows_ok = bool(np.all(row_sums <= 1e-12 * row_max))

    gauge = forward.gauge_field(unit64)
    sigma_e = fem.element_means(sigma)
    rhs = fem.assemble_weak_divergence_rhs(fem.VectorField(unit64, sigma_e[:, None] * gauge.values))
    hierarchy = fem.multigrid(sigma)
    u, _ = fem.solve_neumann(unit64, hierarchy.matrices[0], rhs, hierarchy.vcycle)
    rhs = rhs - rhs.mean()
    res = stiffness @ u.values - rhs
    res -= res.mean()
    neumann_ok = np.linalg.norm(res) <= 1e-12 * np.linalg.norm(rhs)

    from matmi import transport
    field = forward.compute_field(sigma)
    w = fem.VectorField(unit64, forward.rotate(field.field.values))
    op = transport.assemble_advection(w)
    g = transport.apply_data_operator(op, sigma)
    sol, _ = transport.transport_solve(op, g, sigma)
    rhs_t = fem.lumped_mass(unit64) * g.values
    rhs_t[unit64.boundary_nodes] = sigma.values[unit64.boundary_nodes]
    mat, _ = fem.dirichlet_system(
        op.matrix, rhs_t, unit64.boundary_nodes,
        sigma.values[unit64.boundary_nodes],
    )
    transport_ok = (
        np.linalg.norm(mat @ sol.values - rhs_t) <= 1e-12 * np.linalg.norm(rhs_t)
    )

    again = forward.compute_field(sigma)
    deterministic = (
        np.array_equal(field.field.values, again.field.values)
        and np.array_equal(field.potential.values, again.potential.values)
    )
    elapsed = time.time() - t0
    ok = rows_ok and neumann_ok and transport_ok and deterministic and elapsed <= 5.0
    report(
        9, ok,
        f"row sums relative {float((row_sums / row_max).max()):.2e} (<= 1e-12), "
        f"Neumann residual ok={neumann_ok}, transport residual ok={transport_ok}, "
        f"bit-identical rerun={deterministic}, {elapsed:.1f}s (<= 5s)",
    )
