"""P1 finite element operators and sparse linear solvers.

Assembly uses a one-point centroid rule with vertex-averaged coefficients,
which integrates every product of elementwise constants exactly.  Each
element is a translate of one of the mesh's two reference triangles, so
every operator is a stencil on the grid (see ``mesh``): the stiffness is the
reference couplings ``grad(phi_a) . grad(phi_b)`` times the grid of element
weights ``area * sigma``, on the five diagonals 0, +-1, +-(nx + 1); each
builder reads the mesh from the field it is given.  The pure Neumann system
keeps its constant null space; it is solved by conjugate gradients on the
mean-zero complement, preconditioned by one geometric multigrid V(2,2)-cycle
on the mesh's chain of ``coarse`` meshes and the transfers each caches,
returning the zero-mean representative.  Each coarse mesh weights each
element by the sum of its four children's weights, which equals the Galerkin
product ``P^T A P`` under full coarsening (Briggs, Henson & McCormick, *A
Multigrid Tutorial*, 2nd ed., SIAM 2000, ch. 2, 3 and 10), and each damped-Jacobi
sweep is one product with the level's own matrix.  The coarsest level is solved
exactly by ``pinned_solve`` with its ``pinned_lu``: a sparse LU of the rows
and columns other than node 0, whose solve is corrected in row 0 by the
stored row and one precomputed solve, so every row of its residual sits at
the LU's rounding.  A run of Neumann solves with one matrix is preconditioned
by that exact solve on the matrix itself, and CG then meets ``SOLVER_TOL`` in
one step, unless the LU's own rounding lies above it (on the unit square,
from about n = 256 on), when it takes two.  A
Dirichlet solve prescribes the boundary nodes: it reads only the interior
rows, takes the boundary values from the rhs and refines the interior values,
from a guess when given, with a held sparse LU of the CSR interior block, in
the mesh's geometric nested-dissection order (A. George, "Nested dissection
of a regular finite element mesh", SIAM J. Numer. Anal. 10(2), 1973).  Every
sparse LU comes from one helper, which reports a SuperLU failure as
``SolverError``.  Both solves return their field with a ``SolveStats``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .mesh import Mesh

__all__ = [
    "ScalarField", "VectorField", "SolverError", "check_mesh", "check_nodes",
    "constant_field", "interpolate", "element_means", "gradient_field",
    "assemble_weighted_stiffness", "assemble_weak_divergence_rhs",
    "mass_matrix", "lumped_mass", "dirichlet_system",
    "Multigrid", "multigrid", "PinnedLU", "pinned_lu", "pinned_solve",
    "SolveStats", "solve_neumann", "FreeBlockLU", "solve_dirichlet",
    "l2_norm", "l2_norm_vec", "w1inf_norm", "gradient_sup",
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


def check_mesh(name: str, field: ScalarField, mesh: Mesh) -> None:
    """Raise ``ValueError`` unless ``field`` lives on ``mesh`` itself, not an equal copy."""
    if field.mesh is not mesh:
        raise ValueError(f"{name} lives on a different mesh")


def check_nodes(name: str, field: ScalarField, bad: np.ndarray, what: str = "not finite") -> None:
    """Raise ``ValueError`` naming the first node where ``bad`` holds, and its value."""
    if np.any(bad):
        node = int(np.argmax(bad))
        raise ValueError(f"{name} is {what} at node {node}: {field.values[node]}")


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
    return ScalarField(mesh, np.asarray(fn(*mesh.nodes.T), dtype=float))


def element_means(field: ScalarField) -> np.ndarray:
    """Vertex average of a P1 field on each element (its value at the centroid)."""
    v = field.mesh.gather(field.values)
    # the sum and order of mean(axis=1), without its slow reduction over rows of three
    return (v[:, 0] + v[:, 1] + v[:, 2]) / 3.0


def gradient_field(field: ScalarField) -> VectorField:
    """Elementwise-constant gradient of a P1 field."""
    return VectorField(field.mesh, field.mesh.gradient(field.values))


# ---------------------------------------------------------------------------
# assembly

def assemble_weighted_stiffness(mesh: Mesh, sigma: ScalarField) -> sp.csr_matrix:
    """Stiffness matrix of ``integral(sigma grad(u) . grad(phi))``, in CSR.

    ``sigma`` is evaluated per element as the vertex average, and the mesh's
    stiffness stencil is applied to the element weights ``area * sigma``.
    The result stores the nonzeros of the 5-point pattern, its columns ascending.
    Raises ``ValueError`` if ``sigma`` is on another mesh or not positive at a node.
    """
    check_mesh("sigma", sigma, mesh)
    return mesh.stiffness(_element_weights(sigma)).tocsr()


def _element_weights(sigma: ScalarField) -> np.ndarray:
    """The element weights ``area * sigma`` of a positive conductivity on its mesh."""
    check_nodes("conductivity", sigma, ~(sigma.values > 0.0), "not positive")
    return element_means(sigma) * sigma.mesh.area


def assemble_weak_divergence_rhs(field: VectorField) -> np.ndarray:
    """Load vector with entries ``-integral(field . grad(phi_i))`` on the field's mesh."""
    mesh = field.mesh
    return mesh.scatter(-mesh.area * mesh.dot_gradients(field.values))


def mass_matrix(mesh: Mesh) -> sp.dia_matrix:
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


def l2_norm_vec(field: VectorField) -> float:
    """Area-weighted L2 norm of an elementwise-constant vector field."""
    return float(np.sqrt(np.sum(field.mesh.area * np.sum(field.values**2, axis=1))))


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
    matrix: sp.spmatrix,
    rhs: np.ndarray,
    dirichlet_nodes: np.ndarray,
    dirichlet_values: np.ndarray,
) -> tuple[sp.csr_matrix, np.ndarray]:
    """Replace the given rows by unit rows carrying the prescribed values.

    The explicit form of the system that ``solve_dirichlet`` solves without
    building it: a reference for checking that solve.
    """
    keep = np.ones(matrix.shape[0])
    keep[dirichlet_nodes] = 0.0
    mat = (sp.diags(keep) @ matrix + sp.diags(1.0 - keep)).tocsr()
    mat.eliminate_zeros()
    rhs = rhs.copy()
    rhs[dirichlet_nodes] = dirichlet_values
    return mat, rhs


#: damping of the Jacobi smoother, and its sweeps before and after the coarse correction
SMOOTHER_WEIGHT = 2.0 / 3.0
SMOOTHER_SWEEPS = 2
#: coarsening stops once either cell count is odd or at most this
COARSEST_CELLS = 8


@dataclass(frozen=True)
class Multigrid:
    """Geometric multigrid hierarchy of a Neumann stiffness matrix.

    ``levels[0]`` is the fine mesh and ``levels[l + 1]`` is ``levels[l].coarse``.
    ``matrices[0]`` is the fine stiffness and ``matrices[l + 1]`` its Galerkin
    operator ``R_l matrices[l] P_l``, with the transfers ``P_l`` and
    ``R_l = P_l^T`` that ``levels[l]`` caches, assembled from summed weights
    without the rounding-level couplings the product would store.  Every
    level is a five-diagonal ``dia_matrix``; each level above the coarsest is
    smoothed by damped-Jacobi sweeps ``x <- x + relaxation[l] (r - A_l x)``
    with ``relaxation[l] = w D_l^-1``.  The coarsest level is solved exactly
    by ``pinned_solve`` with ``coarse_lu``.
    """

    levels: tuple[Mesh, ...]
    matrices: tuple[sp.dia_matrix, ...]
    relaxation: tuple[np.ndarray, ...]         # damped inverse diagonals above the coarsest
    coarse_lu: PinnedLU

    def vcycle(self, r: np.ndarray, level: int = 0) -> np.ndarray:
        """One V(2,2) cycle from a zero guess: a symmetric approximation to ``A^+ r``."""
        if level == len(self.levels) - 1:
            return pinned_solve(self.coarse_lu, r)
        mesh, a, relax = self.levels[level], self.matrices[level], self.relaxation[level]
        x = relax * r                     # the first sweep, from zero
        for _ in range(SMOOTHER_SWEEPS - 1):
            x += relax * (r - a @ x)
        coarse_r = mesh.restriction @ (r - a @ x)
        x += mesh.prolongation @ self.vcycle(coarse_r - coarse_r.mean(), level + 1)
        for _ in range(SMOOTHER_SWEEPS):
            x += relax * (r - a @ x)
        return x


def multigrid(sigma: ScalarField) -> Multigrid:
    """Build the V-cycle hierarchy of the sigma-weighted stiffness on the nested meshes.

    The mesh of ``sigma`` is coarsened while both cell counts are even and
    above ``COARSEST_CELLS``; for an odd count the coarsest level is the mesh
    itself.  Each mesh caches its coarse mesh and the transfers to it, so a
    build only sums weights and applies the stencils.  Raises ``ValueError``
    if any nodal coefficient is non-positive.
    """
    level = sigma.mesh
    weights = _element_weights(sigma)
    levels, matrices = [level], [level.stiffness(weights)]
    while level.nx % 2 == 0 and level.ny % 2 == 0 and min(level.nx, level.ny) > COARSEST_CELLS:
        weights = level.coarsen(weights)
        level = level.coarse
        levels.append(level)
        matrices.append(level.stiffness(weights))
    coarse_lu = pinned_lu(matrices[-1])
    relaxation = tuple(SMOOTHER_WEIGHT / a.diagonal() for a in matrices[:-1])
    return Multigrid(
        levels=tuple(levels), matrices=tuple(matrices), relaxation=relaxation, coarse_lu=coarse_lu,
    )


def _splu(matrix: sp.csc_matrix, failure: str, **options) -> spla.SuperLU:
    """SuperLU factor of ``matrix``; raises ``SolverError`` starting ``failure`` if it fails."""
    try:
        return spla.splu(matrix, **options)
    except RuntimeError as exc:
        raise SolverError(f"{failure}: {exc}", [np.inf]) from exc


class PinnedLU(NamedTuple):
    """A Neumann stiffness ``A`` factored with node 0 pinned, and what corrects row 0.

    ``lu`` factors ``A`` without row and column 0.  ``row_cols`` and
    ``row_vals`` are the stored row 0 of ``A``, and ``green`` is the
    zero-mean solution of ``A g = e_0 - 1/N`` by ``lu``.
    """

    lu: spla.SuperLU
    row_cols: np.ndarray
    row_vals: np.ndarray
    green: np.ndarray


def pinned_lu(matrix: sp.spmatrix) -> PinnedLU:
    """Sparse LU of a Neumann stiffness with node 0 pinned, in minimum-degree order.

    It comes with the stored row 0 and the solve ``green``, which
    ``pinned_solve`` corrects that row by.  Raises ``SolverError`` when
    SuperLU fails to factor it.
    """
    a = matrix.tocsr()
    lu = _splu(a[1:, 1:].tocsc(), "pinned stiffness factor failed", permc_spec="MMD_AT_PLUS_A")
    end = a.indptr[1]
    source = np.full(a.shape[0], -1.0 / a.shape[0])
    source[0] += 1.0
    return PinnedLU(lu, a.indices[:end].copy(), a.data[:end].copy(), _pinned(lu, source))


def _pinned(lu: spla.SuperLU, r: np.ndarray) -> np.ndarray:
    """``lu``'s solve of rows 1.. of ``r`` with node 0 held at zero, shifted to mean zero."""
    x = np.zeros_like(r)
    x[1:] = lu.solve(r[1:])
    return x - x.mean()


def pinned_solve(factor: PinnedLU, r: np.ndarray) -> np.ndarray:
    """The zero-mean solution of ``A x = r`` for a mean-zero ``r``, by ``factor = pinned_lu(A)``.

    The rows other than 0 are solved by the LU.  Row 0, which the LU leaves
    out, would collect the row-sum rounding of the stored ``A``; its residual
    ``r_0 - A_0 x`` is put back through ``green``, so that every row of the
    projected residual sits at the LU's own rounding.
    """
    x = _pinned(factor.lu, r)
    x += (r[0] - factor.row_vals @ x[factor.row_cols]) * factor.green
    return x


def _projected_pcg(
    a: sp.spmatrix,
    b: np.ndarray,
    precondition: Callable[[np.ndarray], np.ndarray],
    tol: float,
    max_iter: int,
    x0: np.ndarray | None = None,
) -> tuple[np.ndarray, list[float]]:
    """Preconditioned CG on the mean-zero complement of a singular SPD system.

    Starts from the projection of ``x0`` (zero when not given) and stops at
    ``||r|| <= tol * ||b||``, relative to ``b`` whatever the start.  Raises
    ``SolverError`` at the first residual that is not finite, and at a restart
    whose true residual stalls at the rounding floor above ``tol``.
    """
    n = b.shape[0]

    def project(v: np.ndarray) -> np.ndarray:
        return v - v.mean()

    b = project(b)
    b_norm = np.linalg.norm(b)
    if b_norm == 0.0:
        return np.zeros(n), [0.0]
    if x0 is None:
        x, r = np.zeros(n), b.copy()
    else:
        x = project(x0)
        r = project(b - a @ x)
    residuals: list[float] = []

    def converged(rel: float) -> bool:
        residuals.append(rel)
        if not np.isfinite(rel):
            raise SolverError(
                f"CG residual is not finite after {len(residuals) - 1} iterations", residuals,
            )
        return rel <= tol

    if converged(np.linalg.norm(r) / b_norm):
        return x, residuals
    z = project(precondition(r))
    p = z.copy()
    rz = r @ z
    restarted = np.inf   # the true residual at the last restart
    for _ in range(max_iter):
        ap = a @ p
        alpha = rz / (p @ ap)
        x += alpha * p
        r -= alpha * ap
        r = project(r)
        rel = np.linalg.norm(r) / b_norm
        restart = rel <= tol
        if restart:
            # confirm on the true residual, which the recurrence can drift from
            r = project(b - a @ x)
            rel = np.linalg.norm(r) / b_norm
        if converged(rel):
            return project(x), residuals
        if restart:
            # a solve that converges does so at its first or second restart; one
            # that does not halve the last restart's residual sits at the floor
            if not rel < 0.5 * restarted:
                raise SolverError(
                    f"CG stalled at residual {rel:.3e} above {tol} "
                    f"after {len(residuals) - 1} iterations",
                    residuals,
                )
            restarted = rel
        z = project(precondition(r))
        rz_next = r @ z
        # the old direction is not conjugate to the true residual: restart from z
        p = z if restart else z + (rz_next / rz) * p
        rz = rz_next
    raise SolverError(
        f"CG failed to reach {tol} after {max_iter} iterations "
        f"(last residual {residuals[-1]:.3e})",
        residuals,
    )


class SolveStats(NamedTuple):
    """How a linear solve stopped."""

    steps: int          # CG iterations, or refinement LU solves, a stalled held LU's included
    residual: float     # the relative residual that the stopping test last read
    factors: int        # LU factors built


def solve_neumann(
    mesh: Mesh, matrix: sp.spmatrix, rhs: np.ndarray,
    precondition: Callable[[np.ndarray], np.ndarray], guess: ScalarField | None = None,
) -> tuple[ScalarField, SolveStats]:
    """Solve the singular Neumann system of ``matrix``.

    Returns the zero-mean representative and its ``SolveStats``: the CG
    iterations, the last relative residual, and no factors.  The mean of the rhs is
    projected out, which makes the system consistent.  CG starts from
    ``guess`` when given, and applies ``precondition`` to each mean-zero
    residual: a ``Multigrid.vcycle`` of ``matrix``, or ``pinned_solve`` with
    its ``pinned_lu``, so solves of one matrix share its set-up.
    """
    x, residuals = _projected_pcg(
        matrix, rhs, precondition, SOLVER_TOL, 10 * rhs.shape[0],
        None if guess is None else guess.values,
    )
    return ScalarField(mesh, x), SolveStats(len(residuals) - 1, residuals[-1], 0)


class FreeBlockLU:
    """The sparse LU that ``solve_dirichlet`` refines from, held between solves.

    A caller that solves a run of nearby matrices passes one holder to each
    solve.  ``lu`` is the factor the last solve ended with (None before the
    first).  Holding it here lets a solve free an LU that stalls before it
    builds the next one, so the two are never alive together.
    """

    def __init__(self) -> None:
        self.lu: spla.SuperLU | None = None


def solve_dirichlet(
    mesh: Mesh, matrix: sp.spmatrix, rhs: np.ndarray, factor: FreeBlockLU | None = None,
    guess: ScalarField | None = None,
) -> tuple[ScalarField, SolveStats]:
    """Sparse solve with prescribed values at the mesh's boundary nodes; checks the residual.

    The boundary rows are never read: those values are taken from the rhs
    bit-exactly.  The interior values come from iterative refinement,
    ``x_f += LU^-1 (rhs_f - A_f x)`` from the interior values of ``guess``,
    or from ``x_f = 0`` without one (Higham, *Accuracy and Stability of
    Numerical Algorithms*, 2nd ed., ch. 12), with the LU held by ``factor``,
    which may belong to an earlier, nearby matrix (the chord method; Kelley,
    *Iterative Methods for Linear and Nonlinear Equations*, 1995, §5.4).
    When a step cuts the interior-row residual by less than 10x, that LU is
    dropped, the refinement restarts from the guess, and the interior block
    of ``matrix``, in CSR, is factored in the mesh's ``interior_order`` with
    diagonal pivots preferred (George, SIAM J. Numer. Anal. 10(2), 1973); a
    fresh factor normally needs one solve.  The loop stops once the
    interior-row residual is at most ``SOLVER_TOL * ||rhs||``, which equals
    the residual of the ``dirichlet_system`` form, whose prescribed rows have
    none; so a guess that already meets it returns with no factor built.
    That test is looser than it reads when the boundary values dominate
    ``||rhs||``: for the transport solve of in-crime single-bump data,
    ``||rhs||`` is 371 to 8187 times the norm of its interior entries from
    n = 32 to 256, so the interior rows meet only that multiple of
    ``SOLVER_TOL`` relative to their own rhs.  Raises ``ValueError``
    if ``guess`` lives on another mesh, and ``SolverError`` if the residual
    is not met.  Returns the field and its ``SolveStats``.
    """
    if guess is not None:
        check_mesh("guess", guess, mesh)
    if factor is None:
        factor = FreeBlockLU()
    boundary, free = mesh.boundary_nodes, mesh.interior_order
    x = np.zeros(matrix.shape[0]) if guess is None else guess.values.copy()
    x[boundary] = rhs[boundary]
    start = x[free]   # a copy: a refinement whose held LU stalls restarts here
    b_norm = max(np.linalg.norm(rhs), 1e-300)

    def residual() -> tuple[np.ndarray, float]:
        r = rhs[free] - (matrix @ x)[free]
        return r, np.linalg.norm(r) / b_norm

    steps = factors = 0
    r, rel = residual()
    while not rel <= SOLVER_TOL:
        if factor.lu is None:
            factor.lu = _splu(
                matrix.tocsr()[free][:, free].tocsc(), "direct solve failed",
                permc_spec="NATURAL", options=dict(SymmetricMode=True),
            )
            factors += 1
        x[free] += factor.lu.solve(r)
        steps += 1
        last = rel
        r, rel = residual()
        if rel <= SOLVER_TOL or rel <= last / 10.0:
            continue
        if factors:   # the factor this solve built stalls too: fail below
            break
        # the held LU stalls on this matrix: free it before the new one is built
        factor.lu = None
        x[free] = start
        r, rel = residual()
    if not rel <= SOLVER_TOL:
        raise SolverError(f"direct solve residual {rel:.3e} exceeds {SOLVER_TOL}", [rel])
    return ScalarField(mesh, x), SolveStats(steps, rel, factors)
