"""Reconstruct a conductivity from its acoustic-source data.

Two experiments on the 64x64 unit-square mesh:

  1. bump truth, constant initial model: the iteration contracts linearly
     until it hits the solver floor;
  2. the reverse: constant truth, bump initial model, which converges in a
     single sweep because constant data forces the constant solution.
"""

import numpy as np

from matmi import fem, forward, recon
from matmi.mesh import build_mesh
from matmi.phantoms import make_phantom, single_bump_spec
from matmi.recon import ReconConfig


def print_report(rep):
    print(f"  {'k':>3} {'update':>12} {'misfit':>12} {'rel error':>12}")
    for s in rep.sweeps:
        print(f"  {s.k:>3} {s.update:>12.3e} {s.misfit:>12.3e} {s.rel_error:>12.3e}")
    print(f"  stopped: {rep.stopping_reason} after {rep.n_iterations} transport solves")


def main():
    mesh = build_mesh(64, 64)
    truth = make_phantom(single_bump_spec(), mesh)
    background = fem.constant_field(mesh, 0.2)

    print("=== bump truth, constant initial model ===")
    g = forward.forward_map(truth)
    sigma, rep = recon.reconstruct(g, ReconConfig(sigma0=background, truth=truth))
    print_report(rep)
    c, r2 = recon.fit_convergence_factor(rep)
    print(f"  fitted convergence factor c = {c:.4f} (r^2 = {r2:.4f})")

    print("\n=== reverse: constant truth, bump initial model ===")
    g_const = forward.forward_map(background)
    sigma, rep = recon.reconstruct(g_const, ReconConfig(sigma0=truth, truth=background))
    print_report(rep)
    print(f"  final absolute error {rep.sweeps[-1].abs_error:.3e}")


if __name__ == "__main__":
    main()
