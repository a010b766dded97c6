"""Admissible test conductivities: Gaussian bumps over a constant background.

Every phantom equals the background exactly on a collar near the boundary,
which is where the reconstruction reads its Dirichlet data.  The cutoff is a
C1 cubic smoothstep in the distance to the boundary: zero within one collar
width, one beyond two collar widths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fem import ScalarField
from .mesh import Mesh

__all__ = [
    "Bump", "PhantomSpec", "make_phantom", "boundary_distance", "collar_taper",
    "single_bump_spec", "three_bump_spec", "random_bump_spec",
]

#: iterates and phantoms below this conductivity are treated as inadmissible
LAMBDA_FLOOR = 1e-3


@dataclass(frozen=True)
class Bump:
    center: tuple[float, float]
    amplitude: float
    width: float


@dataclass(frozen=True)
class PhantomSpec:
    background: float = 0.2
    bumps: tuple[Bump, ...] = ()
    collar_width: float = 0.15


def boundary_distance(mesh: Mesh, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Distance to the rectangle boundary."""
    return np.minimum(
        np.minimum(x - mesh.x_min, mesh.x_max - x),
        np.minimum(y - mesh.y_min, mesh.y_max - y),
    )


def collar_taper(distance: np.ndarray, collar_width: float) -> np.ndarray:
    """Cubic smoothstep: exactly 0 within the collar, 1 beyond twice its width."""
    # a tiny width overflows the ratio to inf, which the clip takes to 1
    with np.errstate(over="ignore"):
        t = np.clip(distance / collar_width - 1.0, 0.0, 1.0)
    return t * t * (3.0 - 2.0 * t)


def make_phantom(spec: PhantomSpec, mesh: Mesh) -> ScalarField:
    """Evaluate the phantom at the mesh nodes.

    Raises ``ValueError`` for invalid parameters, a width among them whose
    square float64 cannot hold, or if the field is below the floor anywhere.
    """
    if spec.collar_width <= 0.0:
        raise ValueError(f"collar width must be positive, got {spec.collar_width}")
    if spec.background <= 0.0:
        raise ValueError(f"background must be positive, got {spec.background}")
    for b in spec.bumps:
        # a square that underflows gives 0/0 at a node on the centre, and
        # Python raises OverflowError on one past the float64 range
        with np.errstate(over="ignore", under="ignore"):
            if not (b.width > 0.0 and 0.0 < np.square(b.width) < np.inf):
                raise ValueError(
                    f"bump width must be positive, with a square float64 holds; got {b.width}"
                )
        if b.amplitude <= -spec.background:
            raise ValueError(
                f"bump amplitude {b.amplitude} would cancel the background"
            )
    x, y = mesh.nodes.T
    taper = collar_taper(boundary_distance(mesh, x, y), spec.collar_width)
    values = np.full(mesh.n_nodes, float(spec.background))
    for b in spec.bumps:
        with np.errstate(over="ignore"):   # off a narrow bump's centre: exp(-inf) = 0
            blob = b.amplitude * np.exp(
                -((x - b.center[0]) ** 2 + (y - b.center[1]) ** 2) / (2.0 * b.width**2)
            )
        values += blob * taper
    if not np.all(values >= LAMBDA_FLOOR):
        bad = int(np.argmin(values))
        raise ValueError(
            f"phantom dips to {values[bad]:.3e} at node {bad}, "
            f"below the admissibility floor {LAMBDA_FLOOR}"
        )
    return ScalarField(mesh, values)


def single_bump_spec() -> PhantomSpec:
    """Mild off-center bump; the standard smooth test model."""
    return PhantomSpec(bumps=(Bump((0.4, 0.6), 0.1, 0.12),))


def three_bump_spec() -> PhantomSpec:
    """Steeper asymmetric three-bump model with a larger gradient."""
    return PhantomSpec(bumps=(
        Bump((0.35, 0.62), 0.16, 0.085),
        Bump((0.65, 0.62), 0.16, 0.085),
        Bump((0.5, 0.38), 0.13, 0.09),
    ))


def random_bump_spec(rng: np.random.RandomState, n_bumps: int = 2) -> PhantomSpec:
    """Random admissible bump collection, for property and stability tests.

    Each bump is at most its amplitude deep, so the phantom stays above
    ``background + sum(min(amplitude, 0))``.  A draw whose bound falls below
    the admissibility floor is redrawn from the same stream; one that meets
    it is returned as drawn.
    """
    background = PhantomSpec.background
    while True:
        bumps = []
        for _ in range(n_bumps):
            center = (0.3 + 0.4 * rng.rand(), 0.3 + 0.4 * rng.rand())
            amplitude = 0.12 * (2.0 * rng.rand() - 1.0)
            width = 0.08 + 0.08 * rng.rand()
            bumps.append(Bump(center, amplitude, width))
        if background + sum(min(b.amplitude, 0.0) for b in bumps) >= LAMBDA_FLOOR:
            return PhantomSpec(bumps=tuple(bumps))
