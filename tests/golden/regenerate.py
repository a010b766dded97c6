"""Byte-identity oracle: small ``matmi`` runs whose output files are committed.

Each case runs one command in-process on a small mesh and writes its files
into ``<out>/<case>/``; ``frechet`` writes the derivative of the data map
along three fixed directions.  ``tests/test_golden.py`` reruns every case and
compares the files with the committed ones byte for byte.

    python tests/golden/regenerate.py

rewrites the committed files and ``VERSIONS``, the numpy and scipy versions
that produced them.  Before it overwrites, it prints each file it changes
with ``describe_difference`` and the file's largest absolute and relative
difference.  Regenerate only when a change is meant to move output bits, and
state the largest difference it made.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile

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


def number(cell):
    try:
        return float(cell)
    except ValueError:
        return np.nan


def cells(text):
    """What the entries of a file are called, and the cells of each by name.

    A ``key,value`` file has one entry per key, any other CSV file one per
    header column, and any other file one entry of every token.
    """
    lines = text.splitlines()
    if lines[0] == "key,value":
        return "key", {key: [value] for key, value in (line.split(",", 1) for line in lines[1:])}
    if "," in lines[0]:
        names = lines[0].split(",")
        rows = [line.split(",") for line in lines[1:]]
        return "column", {name: [row[i] for row in rows] for i, name in enumerate(names)}
    return "column", {"all tokens": text.split()}


def _differences(a, b):
    """Of two equally long lists of cells: the changed cells that are not both
    numbers, and the absolute and relative differences of the numbers."""
    x, y = np.array([number(c) for c in a]), np.array([number(c) for c in b])
    text = np.isnan(x) | np.isnan(y)
    changed = [i for i in np.flatnonzero(text) if a[i] != b[i]]
    with np.errstate(divide="ignore", invalid="ignore"):
        diff = np.where(text, 0.0, np.abs(x - y))
        rel = np.where(diff != 0, diff / np.abs(x), 0.0)
    return changed, diff, rel


def describe_difference(path, expected, got):
    """Name each entry of the file that differs.

    It gives the entry's first changed cell that is not a number, and the
    largest absolute and relative difference of its numbers.
    """
    lines = [f"{path} differs from the golden file"]
    kind, want = cells(expected)
    _, have = cells(got)
    for name in [*want, *(name for name in have if name not in want)]:
        a, b = want.get(name), have.get(name)
        if a is None or b is None or len(a) != len(b):
            lines.append(f"  {kind} {name!r}: {None if a is None else len(a)} golden cells, "
                         f"{None if b is None else len(b)} now")
            continue
        changed, diff, rel = _differences(a, b)
        if changed:
            i = changed[0]
            row = "" if kind == "key" else f" row {i + 1}"
            lines.append(f"  {kind} {name!r}{row}: {a[i]!r} golden, {b[i]!r} now")
        if (diff != 0).any():
            lines.append(f"  {kind} {name!r}: largest absolute difference {np.nanmax(diff):.3e}, "
                         f"largest relative {np.nanmax(rel):.3e}")
    return "\n".join(lines)


def largest_difference(expected, got):
    """The largest absolute and relative difference of the numbers of a file's
    entries that kept their name and length."""
    _, want = cells(expected)
    _, have = cells(got)
    largest = np.zeros(2)
    for name, a in want.items():
        b = have.get(name)
        if b is not None and len(a) == len(b):
            _, diff, rel = _differences(a, b)
            largest = np.fmax(largest, [diff.max(initial=0.0), rel.max(initial=0.0)])
    return tuple(largest)


def report(old, new):
    """Print how each file under the case directories of ``new`` differs from ``old``."""
    for name in [*CASES, "frechet"]:
        files = set()
        for root in (old, new):
            if os.path.isdir(os.path.join(root, name)):
                files.update(os.listdir(os.path.join(root, name)))
        for path in sorted(os.path.join(name, f) for f in files):
            before, after = (os.path.join(root, path) for root in (old, new))
            if not os.path.exists(before) or not os.path.exists(after):
                print(f"{path}: {'added' if os.path.exists(after) else 'removed'}")
                continue
            with open(before) as a, open(after) as b:
                expected, got = a.read(), b.read()
            if expected != got:
                print(describe_difference(path, expected, got))
                print("  the file: largest absolute difference {:.3e}, "
                      "largest relative {:.3e}".format(*largest_difference(expected, got)))


def main() -> None:
    with tempfile.TemporaryDirectory() as fresh:
        generate(fresh)
        report(HERE, fresh)
        for name in [*CASES, "frechet"]:
            shutil.rmtree(os.path.join(HERE, name), ignore_errors=True)
            shutil.move(os.path.join(fresh, name), os.path.join(HERE, name))
    with open(os.path.join(HERE, "VERSIONS"), "w") as handle:
        handle.write(versions())


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(HERE, os.pardir, os.pardir, "src"))
    main()
