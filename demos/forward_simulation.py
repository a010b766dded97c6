"""Simulate the induced field and acoustic-source data for a bump phantom.

The conductivity is a smooth bump over a 0.2 background, constant near the
boundary.  The script prints the solve diagnostics and writes the fields as
CSV next to this file (point both at your favourite plotting tool).
"""

import os

import numpy as np

from matmi import cli, fem, forward
from matmi.mesh import build_mesh
from matmi.phantoms import make_phantom, single_bump_spec


def main():
    mesh = build_mesh(64, 64)
    sigma = make_phantom(single_bump_spec(), mesh)
    print(f"mesh: {mesh.nx}x{mesh.ny} cells, {mesh.n_nodes} nodes, {mesh.n_elements} triangles")
    print(f"conductivity: min {sigma.values.min():.3f}, max {sigma.values.max():.3f}, "
          f"gradient sup {fem.gradient_sup(sigma):.3f}")

    result = forward.compute_field(sigma)
    data = forward.forward_map(sigma, result)
    lam = sigma.values.min()
    big_lam = fem.w1inf_norm(sigma)
    c1 = 0.5 * (big_lam / lam + 1.0) * np.sqrt(1.0 / 6.0)
    print(f"\nfield norm ||E|| = {result.field_norm:.6f}  (bound C1 = {c1:.6f})")
    print(f"divergence identity error = {forward.divergence_identity_error(result.field):.3e}")
    print(f"data range: [{data.values.min():.4f}, {data.values.max():.4f}]")

    out = os.path.join(os.path.dirname(__file__), "output_forward")
    cli.write_scalar_csv(os.path.join(out, "sigma.csv"), sigma)
    cli.write_scalar_csv(os.path.join(out, "data.csv"), data)
    cli.write_vector_csv(os.path.join(out, "field.csv"), result.field)
    print(f"\nwrote sigma.csv, data.csv, field.csv to {out}")


if __name__ == "__main__":
    main()
