"""Refinement behaviour across mesh sizes.

Three studies on n = 16, 32, 64:
  - the divergence-identity diagnostic of the computed field (first order);
  - interior error of the transport solve on a manufactured solution;
  - reconstruction error floor and fitted contraction factor.
"""

import numpy as np

from matmi import fem, forward, recon, transport
from matmi.fem import VectorField
from matmi.mesh import build_mesh
from matmi.phantoms import make_phantom, single_bump_spec
from matmi.recon import ReconConfig


def manufactured_transport_error(n):
    mesh = build_mesh(n, n)
    sigma = fem.interpolate(
        mesh, lambda x, y: 0.2 + 0.1 * np.sin(2 * np.pi * x) * np.sin(np.pi * y) + 0.05 * x * x
    )
    c = mesh.element_centroids
    w = VectorField(mesh, np.column_stack([
        0.3 + 0.1 * np.sin(np.pi * c[:, 0]), 0.2 * np.cos(np.pi * c[:, 1]),
    ]))

    def data(x, y):
        s = 0.2 + 0.1 * np.sin(2 * np.pi * x) * np.sin(np.pi * y) + 0.05 * x * x
        sx = 0.2 * np.pi * np.cos(2 * np.pi * x) * np.sin(np.pi * y) + 0.1 * x
        sy = 0.1 * np.pi * np.sin(2 * np.pi * x) * np.cos(np.pi * y)
        return (0.3 + 0.1 * np.sin(np.pi * x)) * sx + 0.2 * np.cos(np.pi * y) * sy + s

    op = transport.assemble_advection(w)
    solution, _ = transport.transport_solve(op, fem.interpolate(mesh, data), sigma)
    diff = np.zeros(mesh.n_nodes)
    interior = mesh.interior_order
    diff[interior] = (solution.values - sigma.values)[interior]
    return fem.l2_norm(fem.ScalarField(mesh, diff))


def main():
    sizes = (16, 32, 64)
    print(f"{'n':>4} {'divergence err':>16} {'transport err':>15} "
          f"{'recon rel err':>14} {'fitted c':>9}")
    for n in sizes:
        mesh = build_mesh(n, n)
        truth = make_phantom(single_bump_spec(), mesh)
        div_err = forward.divergence_identity_error(forward.compute_field(truth).field)
        trans_err = manufactured_transport_error(n)
        g = forward.forward_map(truth)
        _, rep = recon.reconstruct(
            g, ReconConfig(sigma0=fem.constant_field(mesh, 0.2), truth=truth)
        )
        c, _ = recon.fit_convergence_factor(rep)
        print(f"{n:>4} {div_err:>16.4e} {trans_err:>15.4e} "
              f"{rep.sweeps[-1].rel_error:>14.3e} {c:>9.4f}")
    print("\nboth error columns shrink at first order under mesh halving;")
    print("the reconstruction bottoms out at the linear-solver floor.")


if __name__ == "__main__":
    main()
