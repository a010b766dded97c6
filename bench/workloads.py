"""The three benchmark workloads: seeded inputs, one operation, its gate.

Each workload splits an operation into three parts so that only the
program's work is timed: ``prepare`` (untimed), ``call`` (timed, the work a
user asks for) and ``check`` (untimed correctness gate).  The program only
sees what ``make_state`` generates from the seed: config text for the CLI
workloads, conductivity and directions for the derivative workload.
"""

from __future__ import annotations

import math
import os
import shutil
from dataclasses import dataclass

import numpy as np

from matmi import cli, fem, forward, frechet, mesh, phantoms

SINGLE_BUMP = ((0.4, 0.6, 0.1, 0.12),)
THREE_BUMP = (
    (0.35, 0.62, 0.16, 0.085),
    (0.65, 0.62, 0.16, 0.085),
    (0.5, 0.38, 0.13, 0.09),
)
#: derivative directions per operation of frechet-3bump
FRECHET_DIRECTIONS = 20
#: fixed seed of the finite-difference check direction, so that its
#: remainder (the workload's rel_error) is comparable across workload seeds
FD_DIRECTION_SEED = 20150312


def seed_sequence(seed: int) -> np.random.SeedSequence:
    """Entropy for any integer ``--seed``.  ``SeedSequence`` takes only
    non-negative integers, so the seed is reduced modulo 2**128; seeds in
    that range keep their own stream."""
    return np.random.SeedSequence(seed % 2**128)


@dataclass
class Check:
    ok: bool
    why: str = ""
    rel_error: float | None = None


def jittered_bumps(bumps, rng: np.random.Generator) -> str:
    """Config text for the bumps, each moved by at most 0.002 in x and y and
    scaled by at most 0.4% in amplitude and width.

    The jitter is small on purpose: it gives each seed its own inputs while
    keeping the sweep count, and so the in-crime error at the stopping rule,
    steady across seeds.
    """
    parts = []
    for cx, cy, amplitude, width in bumps:
        cx += rng.uniform(-0.002, 0.002)
        cy += rng.uniform(-0.002, 0.002)
        amplitude *= 1.0 + rng.uniform(-0.004, 0.004)
        width *= 1.0 + rng.uniform(-0.004, 0.004)
        parts.append(f"{cx:.17g} {cy:.17g} {amplitude:.17g} {width:.17g}")
    return " ; ".join(parts)


class InvertWorkload:
    """``matmi invert`` through ``cli.main``, in-process."""

    def __init__(self, name, bumps, data_mode, vtk, rel_error_gate, max_sweeps=None):
        self.name = name
        self.bumps = bumps
        self.data_mode = data_mode
        self.vtk = vtk
        self.rel_error_gate = rel_error_gate   # callable n -> bound
        self.max_sweeps = max_sweeps

    def make_state(self, seed: int, workdir: str, n: int) -> dict:
        rng = np.random.default_rng(seed_sequence(seed))
        text = (
            f"mesh.n = {n}\n"
            f"phantom.bumps = {jittered_bumps(self.bumps, rng)}\n"
            f"data.mode = {self.data_mode}\n"
            f"output.vtk = {'true' if self.vtk else 'false'}\n"
        )
        config = os.path.join(workdir, "config.txt")
        with open(config, "w") as handle:
            handle.write(text)
        return {"config": config, "out": os.path.join(workdir, "out"), "n": n}

    def prepare(self, state: dict) -> None:
        shutil.rmtree(state["out"], ignore_errors=True)

    def call(self, state: dict):
        return cli.main(["invert", "--config", state["config"], "--out", state["out"]])

    def check(self, state: dict, exit_code) -> Check:
        if exit_code != 0:
            return Check(False, f"exit code {exit_code}")
        summary = os.path.join(state["out"], "summary.csv")
        with open(summary) as handle:
            rows = dict(line.strip().split(",", 1) for line in handle.readlines()[1:])
        rel_error = float(rows["final_rel_error"])
        sweeps = int(rows["iterations"])
        bound = self.rel_error_gate(state["n"])
        if not rel_error <= bound:
            return Check(False, f"rel_error {rel_error:.3e} above {bound:.1e}", rel_error)
        if self.max_sweeps is not None and sweeps > self.max_sweeps:
            return Check(False, f"{sweeps} sweeps, more than {self.max_sweeps}", rel_error)
        if self.vtk and not os.path.isfile(os.path.join(state["out"], "invert.vtk")):
            return Check(False, "invert.vtk missing", rel_error)
        return Check(True, rel_error=rel_error)

    def run_check(self, state: dict) -> Check | None:
        return None


class FrechetWorkload:
    """One field solve at the three-bump conductivity, then the Fréchet
    derivative along seeded random-bump directions reusing that solve."""

    name = "frechet-3bump-128"

    def make_state(self, seed: int, workdir: str, n: int) -> dict:
        grid = mesh.build_mesh(n, n)
        sigma = phantoms.make_phantom(phantoms.three_bump_spec(), grid)
        # random_bump_spec draws from the legacy RandomState, whose integer
        # seed must lie below 2**32; seed it with words from the sequence
        rng = np.random.RandomState(seed_sequence(seed).generate_state(4))
        directions = [self._direction(grid, rng) for _ in range(FRECHET_DIRECTIONS)]
        return {"sigma": sigma, "directions": directions}

    @staticmethod
    def _direction(grid, rng) -> fem.ScalarField:
        spec = phantoms.random_bump_spec(rng)
        bump = phantoms.make_phantom(spec, grid)
        return fem.ScalarField(grid, bump.values - spec.background)

    def prepare(self, state: dict) -> None:
        pass

    def call(self, state: dict):
        sigma = state["sigma"]
        base = forward.compute_field(sigma)
        return [frechet.frechet_derivative(sigma, h, base).value
                for h in state["directions"]]

    def check(self, state: dict, values) -> Check:
        """Criterion 6: every DF(h) finite and ||DF(h)|| / ||h|| >= 0.45."""
        for i, (h, df) in enumerate(zip(state["directions"], values)):
            if not np.all(np.isfinite(df.values)):
                return Check(False, f"direction {i}: DF(h) is not finite")
            ratio = fem.l2_norm(df) / fem.l2_norm(h)
            if not ratio >= 0.45:
                return Check(False, f"direction {i}: ||DF(h)||/||h|| = {ratio:.4f} < 0.45")
        return Check(True)

    def run_check(self, state: dict) -> Check:
        """Criterion 5, once a run: r(t)/r(t/2) in [3.2, 4.8] along a fixed
        direction.  Its rel_error is r(t) / ||t DF(h)||, the linearisation's
        relative error at step t."""
        sigma = state["sigma"]
        h = self._direction(sigma.mesh, np.random.RandomState(FD_DIRECTION_SEED))
        t = 1e-2
        r = frechet.fd_validate(sigma, h, t_values=(t, t / 2))
        df = frechet.frechet_derivative(sigma, h).value
        rel_error = float(r[0] / (t * fem.l2_norm(df)))
        ratio = float(r[0] / r[1])
        if not (math.isfinite(rel_error) and 3.2 <= ratio <= 4.8):
            return Check(False, f"remainder ratio r(t)/r(t/2) = {ratio:.3f} outside [3.2, 4.8]",
                         rel_error)
        return Check(True, rel_error=rel_error)


def _fine_mesh_gate(n: int) -> float:
    # 4.43e-3 at n = 128; the discretisation error falls about linearly in h
    return 5e-3 * 128 / n


WORKLOADS = {
    w.name: w for w in (
        InvertWorkload("invert-incrime-128", SINGLE_BUMP, "in-crime", vtk=True,
                       rel_error_gate=lambda n: 1e-6, max_sweeps=30),
        InvertWorkload("invert-finemesh-3bump-128", THREE_BUMP, "fine-mesh", vtk=False,
                       rel_error_gate=_fine_mesh_gate),
        FrechetWorkload(),
    )
}
