"""Fixed-point reconstruction of the conductivity from the internal data.

Each sweep alternates a field solve with a transport solve:

    E_k   from the current iterate (well-posed Neumann problem),
    sigma_{k+1} from  div(sigma_{k+1} E_k x B0) = g  with Dirichlet data
    sigma_0 on the whole boundary.

The data misfit ``g - F(sigma_k)`` reuses the operator assembled for the
transport step, so checking it costs nothing extra.  Iterates that fall
below the admissibility floor abort the run; clamping would hide the
divergence the convergence theory predicts for steep conductivities.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import fem, forward, transport
from .fem import ScalarField
from .phantoms import LAMBDA_FLOOR

__all__ = [
    "ReconConfig", "ReconReport", "AdmissibilityError",
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
    sigma0: ScalarField
    max_iterations: int = 200
    tolerance_update: float = 1e-8
    tolerance_misfit: float = 1e-10
    truth: ScalarField | None = None

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if self.tolerance_update <= 0.0 or self.tolerance_misfit <= 0.0:
            raise ValueError("tolerances must be positive")


@dataclass
class ReconReport:
    """Per-iteration log of the fixed-point sweep.

    Row k describes iterate sigma_k: its misfit against the data and, when a
    truth is available, its errors.  ``updates[k]`` is the L2 distance from
    the previous iterate (zero for k = 0).
    """

    iterations: list[int] = field(default_factory=list)
    updates: list[float] = field(default_factory=list)
    misfits: list[float] = field(default_factory=list)
    rel_errors: list[float] = field(default_factory=list)
    abs_errors: list[float] = field(default_factory=list)
    stopping_reason: str = "max_iterations"
    error_monotone: bool = True

    def record(self, k, update, misfit, rel_error, abs_error):
        self.iterations.append(k)
        self.updates.append(update)
        self.misfits.append(misfit)
        self.rel_errors.append(rel_error)
        self.abs_errors.append(abs_error)
        if (
            k >= 2
            and not np.isnan(abs_error)
            and abs_error > max(self.abs_errors[-2], SOLVER_FLOOR) * (1.0 + 1e-9)
            and self.abs_errors[-2] > SOLVER_FLOOR
        ):
            self.error_monotone = False

    @property
    def n_iterations(self) -> int:
        """Number of transport solves performed."""
        return max(self.iterations, default=0)


def reconstruct(g: ScalarField, config: ReconConfig) -> tuple[ScalarField, ReconReport]:
    """Run the fixed-point iteration until a stopping rule fires."""
    mesh = g.mesh
    sigma0 = config.sigma0
    if sigma0.mesh is not mesh:
        raise ValueError("initial guess lives on a different mesh")
    truth = config.truth
    truth_norm = fem.l2_norm(truth) if truth is not None else np.nan

    report = ReconReport()
    sigma = sigma0

    def errors(s: ScalarField) -> tuple[float, float]:
        if truth is None:
            return np.nan, np.nan
        diff = fem.l2_norm(ScalarField(mesh, s.values - truth.values))
        return diff / truth_norm, diff

    for k in range(config.max_iterations + 1):
        if np.any(~(sigma.values >= LAMBDA_FLOOR)):
            bad = int(np.argmin(sigma.values))   # argmin finds a NaN first
            raise AdmissibilityError(
                f"iterate {k} fell to {sigma.values[bad]:.3e} at node {bad}, "
                f"below the floor {LAMBDA_FLOOR}",
                report,
            )
        # only the operator is kept: the stiffness is freed before the transport solve
        op = forward.compute_field(sigma).operator
        predicted = transport.apply_data_operator(op, sigma)
        misfit = fem.l2_norm(ScalarField(mesh, g.values - predicted.values))
        rel_err, abs_err = errors(sigma)
        update = (
            0.0 if k == 0
            else fem.l2_norm(ScalarField(mesh, sigma.values - previous.values))
        )
        report.record(k, update, misfit, rel_err, abs_err)

        if misfit <= config.tolerance_misfit:
            report.stopping_reason = "misfit_tolerance"
            return sigma, report
        if k >= 1 and update <= config.tolerance_update:
            report.stopping_reason = "update_tolerance"
            return sigma, report
        if k == config.max_iterations:
            report.stopping_reason = "max_iterations"
            return sigma, report

        previous = sigma
        sigma = transport.transport_solve(op, g, sigma0)

    return sigma, report  # pragma: no cover


def fit_convergence_factor(report: ReconReport, floor: float = 10 * SOLVER_FLOOR) -> tuple[float, float]:
    """Least-squares fit of ``log(error) ~ k`` over entries above the floor.

    Returns the per-iteration factor ``c`` and the fit's R^2.  Requires at
    least five usable error entries.
    """
    errs = np.asarray(report.abs_errors, dtype=float)
    ks = np.asarray(report.iterations, dtype=float)
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
    mesh = fem._check_same_mesh(sigma1, sigma2)
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
