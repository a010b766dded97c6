"""Fixed-point reconstruction of the conductivity from the internal data.

Each sweep alternates a field solve with a transport solve:

    E_k   from the current iterate (well-posed Neumann problem),
    sigma_{k+1} from  div(sigma_{k+1} E_k x B0) = g  with Dirichlet data
    sigma_0 on the whole boundary.

The data misfit ``g - F(sigma_k)`` reuses the operator assembled for the
transport step, so checking it costs nothing extra.  The iterates contract,
so each sweep's systems are close to the last one's: the field solve starts
from the last potential, and the transport solve refines from the last LU
until a step stalls (``fem.solve_dirichlet``).  Iterates that fall
below the admissibility floor abort the run; clamping would hide the
divergence the convergence theory predicts for steep conductivities.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import fem, forward, transport
from .fem import ScalarField
from .phantoms import LAMBDA_FLOOR

__all__ = [
    "ReconConfig", "ReconReport", "Sweep", "AdmissibilityError",
    "reconstruct", "fit_convergence_factor", "stability_check",
]

#: errors below this are considered solver noise when fitting rates
SOLVER_FLOOR = 1e-11


class AdmissibilityError(RuntimeError):
    """An iterate left the admissible set; carries the partial report."""

    def __init__(self, message: str, report: "ReconReport"):
        super().__init__(message)
        self.report = report


@dataclass(frozen=True)
class ReconConfig:
    """Initial guess, stopping rules and optional truth of a reconstruction.

    Raises ``ValueError`` for a rule out of range, at the first node where
    ``sigma0`` is not finite, and when ``truth`` lives on another mesh.
    """

    sigma0: ScalarField
    max_iterations: int = 200
    tolerance_update: float = 1e-8
    tolerance_misfit: float = 1e-10
    truth: ScalarField | None = None

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if not (self.tolerance_update > 0.0 and self.tolerance_misfit > 0.0):
            raise ValueError("tolerances must be positive")
        fem.check_nodes("sigma0", self.sigma0, ~np.isfinite(self.sigma0.values))
        if self.truth is not None:
            fem.check_mesh("truth", self.truth, self.sigma0.mesh)


class Sweep(NamedTuple):
    """Iterate sigma_k's row of the report and of ``report.csv``.

    ``misfit`` is the L2 distance of its data from ``g``, ``update`` its
    distance from sigma_{k-1} (0 for k = 0), and the errors are NaN without
    a truth.  ``cg_iterations`` counts the field solve at sigma_k, and
    ``transport_factors`` the LU factors, 0 or 1, built for the solve that
    produced it (0 for k = 0, which no solve produced).
    """

    k: int
    update: float
    misfit: float
    rel_error: float
    abs_error: float
    cg_iterations: int
    transport_factors: int


@dataclass
class ReconReport:
    """Log of the fixed-point loop: one ``Sweep`` per iterate, and why it stopped:
    ``"misfit_tolerance"``, ``"update_tolerance"``, ``"max_iterations"`` or, in the
    report an ``AdmissibilityError`` carries, ``"inadmissible_iterate"``."""

    sweeps: list[Sweep] = field(default_factory=list)
    stopping_reason: str = "max_iterations"

    @property
    def n_iterations(self) -> int:
        """Number of transport solves performed: the last sweep's ``k``."""
        return self.sweeps[-1].k if self.sweeps else 0


def reconstruct(g: ScalarField, config: ReconConfig) -> tuple[ScalarField, ReconReport]:
    """Run the fixed-point iteration until a stopping rule fires.

    Raises ``ValueError``, before any solve, when ``config.sigma0`` is on another
    mesh than ``g`` or ``g`` is not finite at a node.
    """
    mesh = g.mesh
    sigma0 = config.sigma0
    fem.check_mesh("sigma0", sigma0, mesh)
    fem.check_nodes("g", g, ~np.isfinite(g.values))
    truth = config.truth
    truth_norm = fem.l2_norm(truth) if truth is not None else np.nan

    report = ReconReport()
    sigma = sigma0
    # carried from sweep to sweep: the field potential and the transport LU
    potential = None
    factor = fem.FreeBlockLU()
    built = 0

    def errors(s: ScalarField) -> tuple[float, float]:
        if truth is None:
            return np.nan, np.nan
        diff = fem.l2_norm(ScalarField(mesh, s.values - truth.values))
        return diff / truth_norm, diff

    for k in range(config.max_iterations + 1):
        if np.any(~(sigma.values >= LAMBDA_FLOOR)):
            bad = int(np.argmin(sigma.values))   # argmin finds a NaN first
            report.stopping_reason = "inadmissible_iterate"
            raise AdmissibilityError(
                f"iterate {k} fell to {sigma.values[bad]:.3e} at node {bad}, "
                f"below the floor {LAMBDA_FLOOR}",
                report,
            )
        result = forward.compute_field(sigma, guess=potential)
        # the stiffness and the field are freed before the transport solve
        op, potential, cg_iterations = result.operator, result.potential, result.cg_iterations
        del result
        predicted = transport.apply_data_operator(op, sigma)
        misfit = fem.l2_norm(ScalarField(mesh, g.values - predicted.values))
        del predicted
        rel_err, abs_err = errors(sigma)
        update = (
            0.0 if k == 0
            else fem.l2_norm(ScalarField(mesh, sigma.values - previous.values))
        )
        report.sweeps.append(Sweep(k, update, misfit, rel_err, abs_err, cg_iterations, built))

        if misfit <= config.tolerance_misfit:
            report.stopping_reason = "misfit_tolerance"
            return sigma, report
        if k >= 1 and update <= config.tolerance_update:
            report.stopping_reason = "update_tolerance"
            return sigma, report
        if k == config.max_iterations:
            break

        previous = sigma
        sigma = transport.transport_solve(op, g, sigma0, factor)
        built = int(factor.fresh)
        # the held LU outlives this operator: free it before the next field solve
        del op

    return sigma, report


def fit_convergence_factor(report: ReconReport) -> tuple[float, float]:
    """Least-squares fit of ``log(error) ~ k`` over entries above ``10 * SOLVER_FLOOR``.

    Returns the per-iteration factor ``c`` and the fit's R^2.  Requires at
    least five usable error entries.
    """
    floor = 10 * SOLVER_FLOOR
    errs = np.array([s.abs_error for s in report.sweeps], dtype=float)
    ks = np.array([s.k for s in report.sweeps], dtype=float)
    usable = np.isfinite(errs) & (errs > floor)
    if usable.sum() < 5:
        raise ValueError(
            f"need at least 5 error entries above {floor:.1e}, have {int(usable.sum())}"
        )
    x, y = ks[usable], np.log(errs[usable])
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(np.exp(slope)), r_squared


def stability_check(sigma1: ScalarField, sigma2: ScalarField) -> float:
    """Ratio ``||sigma1 - sigma2|| / ||F(sigma1) - F(sigma2)||``.

    The Lipschitz stability estimate bounds this by 2 when one of the
    applicable structure conditions holds (constant sigma1, or an affine
    combination reducing to a constant).  Raises ``ValueError`` when the
    data difference sits at the solver floor.
    """
    mesh = sigma1.mesh
    fem.check_mesh("sigma2", sigma2, mesh)
    f1 = forward.forward_map(sigma1)
    f2 = forward.forward_map(sigma2)
    num = fem.l2_norm(ScalarField(mesh, sigma1.values - sigma2.values))
    den = fem.l2_norm(ScalarField(mesh, f1.values - f2.values))
    if den <= SOLVER_FLOOR:
        raise ValueError(
            f"data difference {den:.3e} is at the solver floor; "
            "the stability ratio is degenerate"
        )
    return num / den
