"""P1 finite element operators and sparse linear solvers.

Assembly uses a one-point centroid rule with vertex-averaged coefficients,
which integrates every product of elementwise constants exactly.  The pure
Neumann system keeps its constant null space; it is solved by a Jacobi
preconditioned conjugate gradient iteration that projects the mean out of
the residual, returning the zero-mean representative.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .mesh import Mesh

__all__ = [
    "ScalarField", "VectorField", "SolverError",
    "constant_field", "interpolate", "element_means", "gradient_field",
    "assemble_weighted_stiffness", "assemble_weak_divergence_rhs",
    "mass_matrix", "lumped_mass", "dirichlet_system",
    "solve_neumann", "solve_dirichlet",
    "l2_norm", "l2_inner", "l2_norm_vec", "w1inf_norm", "gradient_sup",
]


class SolverError(RuntimeError):
    """Linear solve failed to meet its residual contract."""

    def __init__(self, message: str, residuals: list[float] | None = None):
        super().__init__(message)
        self.residuals = residuals or []


@dataclass(frozen=True)
class ScalarField:
    """P1 nodal function: one coefficient per mesh node."""

    mesh: Mesh
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != (self.mesh.n_nodes,):
            raise ValueError(
                f"expected {self.mesh.n_nodes} coefficients, got {self.values.shape}"
            )


@dataclass(frozen=True)
class VectorField:
    """Elementwise-constant 2-vector field."""

    mesh: Mesh
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != (self.mesh.n_elements, 2):
            raise ValueError(
                f"expected ({self.mesh.n_elements}, 2) values, got {self.values.shape}"
            )


def constant_field(mesh: Mesh, value: float) -> ScalarField:
    return ScalarField(mesh, np.full(mesh.n_nodes, float(value)))


def interpolate(mesh: Mesh, fn: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> ScalarField:
    """Nodal interpolation of ``fn(x, y)`` (must accept numpy arrays)."""
    return ScalarField(mesh, np.asarray(fn(mesh.nodes[:, 0], mesh.nodes[:, 1]), dtype=float))


def element_means(field: ScalarField) -> np.ndarray:
    """Vertex average of a P1 field on each element (its value at the centroid)."""
    return field.values[field.mesh.elements].mean(axis=1)


def gradient_field(field: ScalarField) -> VectorField:
    """Elementwise-constant gradient of a P1 field."""
    mesh = field.mesh
    vals = field.values[mesh.elements]                       # (M, 3)
    grads = np.einsum("mk,mkd->md", vals, mesh.element_gradients)
    return VectorField(mesh, grads)


def _check_same_mesh(a, b) -> Mesh:
    if a.mesh is not b.mesh:
        raise ValueError("fields live on different meshes")
    return a.mesh


# ---------------------------------------------------------------------------
# assembly

def assemble_weighted_stiffness(mesh: Mesh, sigma: ScalarField) -> sp.csr_matrix:
    """Stiffness matrix of ``integral(sigma grad(u) . grad(phi))``.

    ``sigma`` is evaluated per element as the vertex average.  Raises
    ``ValueError`` if any nodal coefficient is non-positive.
    """
    if sigma.mesh is not mesh:
        raise ValueError("fields live on different meshes")
    nonpositive = ~(sigma.values > 0.0)
    if np.any(nonpositive):
        bad = int(np.argmax(nonpositive))
        raise ValueError(
            f"conductivity must be positive, node {bad} has value {sigma.values[bad]}"
        )
    weight = element_means(sigma) * mesh.element_areas       # (M,)
    g = mesh.element_gradients                               # (M, 3, 2)
    ke = weight[:, None, None] * np.einsum("mid,mjd->mij", g, g)
    matrix = mesh.assemble(ke)
    # cell-diagonal couplings are exact zeros (right angles sit off the diagonal)
    matrix.eliminate_zeros()
    return matrix


def assemble_weak_divergence_rhs(mesh: Mesh, field: VectorField) -> np.ndarray:
    """Load vector with entries ``-integral(field . grad(phi_i))``."""
    if field.mesh is not mesh:
        raise ValueError("field lives on a different mesh")
    contrib = -mesh.element_areas[:, None] * np.einsum(
        "md,mkd->mk", field.values, mesh.element_gradients
    )
    rhs = np.zeros(mesh.n_nodes)
    np.add.at(rhs, mesh.elements.ravel(), contrib.ravel())
    return rhs


def mass_matrix(mesh: Mesh) -> sp.csr_matrix:
    """Consistent P1 mass matrix (the L2 Gram matrix), cached read-only on the mesh."""
    return mesh.mass_matrix


def lumped_mass(mesh: Mesh) -> np.ndarray:
    """Row-sum lumped mass as a diagonal vector, cached read-only on the mesh."""
    return mesh.lumped_mass


# ---------------------------------------------------------------------------
# norms

def l2_norm(field: ScalarField) -> float:
    """L2 norm through the consistent mass matrix."""
    m = mass_matrix(field.mesh)
    return float(np.sqrt(max(field.values @ (m @ field.values), 0.0)))


def l2_inner(a: ScalarField, b: ScalarField) -> float:
    _check_same_mesh(a, b)
    return float(a.values @ (mass_matrix(a.mesh) @ b.values))


def l2_norm_vec(field: VectorField) -> float:
    """Area-weighted L2 norm of an elementwise-constant vector field."""
    return float(np.sqrt(np.sum(field.mesh.element_areas * np.sum(field.values**2, axis=1))))


def gradient_sup(field: ScalarField) -> float:
    """Max elementwise Euclidean norm of the P1 gradient."""
    g = gradient_field(field).values
    return float(np.max(np.hypot(g[:, 0], g[:, 1])))


def w1inf_norm(field: ScalarField) -> float:
    """Discrete W^{1,inf} norm: max nodal value plus max gradient norm."""
    return float(np.max(np.abs(field.values))) + gradient_sup(field)


# ---------------------------------------------------------------------------
# sparse solvers

#: relative residual demanded from every linear solve
SOLVER_TOL = 1e-12


def dirichlet_system(
    matrix: sp.csr_matrix,
    rhs: np.ndarray,
    dirichlet_nodes: np.ndarray,
    dirichlet_values: np.ndarray,
) -> tuple[sp.csr_matrix, np.ndarray]:
    """Replace the given rows by unit rows carrying the prescribed values."""
    keep = np.ones(matrix.shape[0])
    keep[dirichlet_nodes] = 0.0
    mat = (sp.diags(keep) @ matrix + sp.diags(1.0 - keep)).tocsr()
    mat.eliminate_zeros()
    rhs = rhs.copy()
    rhs[dirichlet_nodes] = dirichlet_values
    return mat, rhs


def _projected_pcg(
    a: sp.csr_matrix, b: np.ndarray, tol: float, max_iter: int
) -> tuple[np.ndarray, list[float]]:
    """Jacobi-preconditioned CG on the mean-zero complement of a singular SPD system."""
    inv_diag = 1.0 / a.diagonal()
    n = b.shape[0]

    def project(v: np.ndarray) -> np.ndarray:
        return v - v.mean()

    b = project(b)
    b_norm = np.linalg.norm(b)
    x = np.zeros(n)
    if b_norm == 0.0:
        return x, [0.0]
    r = b.copy()
    z = project(inv_diag * r)
    p = z.copy()
    rz = r @ z
    residuals = [1.0]
    for _ in range(max_iter):
        ap = a @ p
        alpha = rz / (p @ ap)
        x += alpha * p
        r -= alpha * ap
        r = project(r)
        rel = np.linalg.norm(r) / b_norm
        residuals.append(rel)
        if rel <= tol:
            return project(x), residuals
        z = project(inv_diag * r)
        rz_next = r @ z
        p = z + (rz_next / rz) * p
        rz = rz_next
    raise SolverError(
        f"CG failed to reach {tol} after {max_iter} iterations "
        f"(last residual {residuals[-1]:.3e})",
        residuals,
    )


def solve_neumann(mesh: Mesh, matrix: sp.csr_matrix, rhs: np.ndarray) -> ScalarField:
    """Solve the singular Neumann system, returning the zero-mean representative.

    The mean of the rhs is projected out first, which makes the system
    consistent.
    """
    rhs = rhs - rhs.mean()
    x, _ = _projected_pcg(matrix, rhs, SOLVER_TOL, 10 * rhs.shape[0])
    return ScalarField(mesh, x)


def solve_dirichlet(
    mesh: Mesh,
    matrix: sp.csr_matrix,
    rhs: np.ndarray,
    dirichlet_nodes: np.ndarray,
) -> ScalarField:
    """Direct sparse solve of a Dirichlet-reduced system; checks the residual."""
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error", spla.MatrixRankWarning)
        try:
            x = spla.spsolve(matrix.tocsc(), rhs)
        except (RuntimeError, spla.MatrixRankWarning) as exc:
            raise SolverError(f"direct solve failed: {exc}", [np.inf]) from exc
    b_norm = np.linalg.norm(rhs)
    rel = np.linalg.norm(matrix @ x - rhs) / max(b_norm, 1e-300)
    if not np.isfinite(rel) or (b_norm > 0.0 and rel > SOLVER_TOL):
        raise SolverError(f"direct solve residual {rel:.3e} exceeds {SOLVER_TOL}", [rel])
    # unit rows make these exact; enforce bit-exact equality anyway
    x[dirichlet_nodes] = rhs[dirichlet_nodes]
    return ScalarField(mesh, x)
