"""Byte-identity oracle: small ``matmi`` runs whose output files are committed.

Each case runs one command in-process on a small mesh and writes its files
into ``<out>/<case>/``; ``frechet`` writes the derivative of the data map
along three fixed directions.  ``tests/test_golden.py`` reruns every case and
compares the files with the committed ones byte for byte.

    python tests/golden/regenerate.py

rewrites the committed files and ``VERSIONS``, the numpy and scipy versions
that produced them.  Regenerate only when a change is meant to move output
bits, and state the largest difference it made.
"""

from __future__ import annotations

import os
import shutil
import sys

import numpy as np
import scipy

HERE = os.path.dirname(os.path.abspath(__file__))

#: (command, config text) of each case
CASES = {
    "forward": ("forward", "mesh.n = 8\n"),
    "invert_incrime": ("invert", "mesh.n = 16\noutput.vtk = true\n"),
    "invert_finemesh": (
        "invert",
        "mesh.n = 8\ndata.mode = fine-mesh\n"
        "phantom.bumps = 0.35 0.62 0.16 0.085 ; 0.65 0.62 0.16 0.085 ; 0.5 0.38 0.13 0.09\n",
    ),
    "phantom": ("phantom", "mesh.n = 8\n"),
    "study": ("study", "mesh.n = 8\nstudy.mesh_sizes = 8 16\nstudy.amplitude_scales = 0.5 1.0\n"),
    "offset_forward": (
        "forward",
        "mesh.n = 16\ndomain.x_min = -1\ndomain.x_max = 3\ndomain.y_min = 0.5\n"
        "domain.y_max = 1.5\nphantom.bumps = 1.1 1.0 0.1 0.2\nphantom.collar_width = 0.1\n"
        "output.vtk = true\n",
    ),
}

#: mesh size and direction seeds of the derivative case
FRECHET_N = 32
FRECHET_SEEDS = (3, 5, 7)


def versions() -> str:
    return f"numpy {np.__version__}\nscipy {scipy.__version__}\n"


def _frechet(out: str) -> None:
    from matmi import fem, forward, frechet, mesh, phantoms

    grid = mesh.build_mesh(FRECHET_N, FRECHET_N)
    sigma = phantoms.make_phantom(phantoms.three_bump_spec(), grid)
    base = forward.compute_field(sigma)
    columns = []
    for seed in FRECHET_SEEDS:
        spec = phantoms.random_bump_spec(np.random.RandomState(seed))
        h = fem.ScalarField(grid, phantoms.make_phantom(spec, grid).values - spec.background)
        columns.append(frechet.frechet_derivative(sigma, h, base).value.values)
    rows = np.column_stack(columns)
    header = ",".join(f"seed_{seed}" for seed in FRECHET_SEEDS)
    with open(os.path.join(out, "derivative.csv"), "w") as handle:
        handle.write(header + "\n")
        handle.write("".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in rows))


def generate(out: str) -> None:
    """Run every case into ``out``, one directory per case."""
    from matmi import cli

    for name, (command, text) in CASES.items():
        case = os.path.join(out, name)
        os.makedirs(case)
        config = os.path.join(out, f"{name}.cfg")
        with open(config, "w") as handle:
            handle.write(text)
        code = cli.main([command, "--config", config, "--out", case])
        os.unlink(config)
        if code != 0:
            raise RuntimeError(f"case {name}: matmi {command} exited {code}")
    os.makedirs(os.path.join(out, "frechet"))
    _frechet(os.path.join(out, "frechet"))


def main() -> None:
    for name in [*CASES, "frechet"]:
        shutil.rmtree(os.path.join(HERE, name), ignore_errors=True)
    generate(HERE)
    with open(os.path.join(HERE, "VERSIONS"), "w") as handle:
        handle.write(versions())


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(HERE, os.pardir, os.pardir, "src"))
    main()
