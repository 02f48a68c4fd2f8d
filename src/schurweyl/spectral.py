"""Reduced density matrices, Schmidt decompositions, entanglement entropy
and variational maximization of the leading Schmidt coefficient over a
projector-defined subspace."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .tensor_space import TensorState

# Tolerance for declaring a supplied basis orthonormal.
BASIS_TOL = 1e-8


@dataclass
class SchmidtResult:
    """Schmidt data across the cut between factors 1..k and k+1..n.

    Coefficients are the descending singular values of the d^k x d^(n-k)
    amplitude matrix; left and right vectors are the paired orthonormal
    states on the two sides.
    """

    cut: int
    coefficients: np.ndarray
    left_vectors: tuple[TensorState, ...]
    right_vectors: tuple[TensorState, ...]


def schmidt_decompose(psi: TensorState, k: int) -> SchmidtResult:
    """Singular value decomposition of a state across the cut after factor k."""
    n = psi.n_factors
    if not 1 <= k <= n - 1:
        raise ValueError(f"cut must be in 1..{n - 1}")
    d = psi.local_dim
    matrix = psi.amplitudes.reshape(d**k, d ** (n - k))
    u, s, vh = np.linalg.svd(matrix, full_matrices=False)
    left = tuple(TensorState(d, k, u[:, i]) for i in range(s.shape[0]))
    right = tuple(TensorState(d, n - k, vh[i, :]) for i in range(s.shape[0]))
    return SchmidtResult(k, s, left, right)


def reduced_density_matrix(psi: TensorState, keep) -> np.ndarray:
    """Partial trace onto the listed factor positions (1-based).

    Returns a hermitian positive-semidefinite matrix of size d^|keep|, with
    unit trace for a normalized input; the kept factors appear in increasing
    position order.
    """
    n = psi.n_factors
    positions = sorted(set(int(k) for k in keep))
    if not positions:
        raise ValueError("keep set must be nonempty")
    if any(not 1 <= k <= n for k in positions):
        raise ValueError(f"factor positions must lie in 1..{n}")
    if len(positions) == n:
        raise ValueError("keep set must be a proper subset of the factors")
    traced = [ax for ax in range(n) if ax + 1 not in positions]
    nd = psi.nd()
    rho = np.tensordot(nd, nd.conj(), axes=(traced, traced))
    m = psi.local_dim ** len(positions)
    return rho.reshape(m, m)


def entanglement_entropy(psi: TensorState, k: int) -> float:
    """Von Neumann entropy of either side of the cut, in nats."""
    s = schmidt_decompose(psi, k).coefficients
    p = s[s > 0] ** 2
    if p.size == 0:
        return 0.0
    out = float(-(p * np.log(p)).sum())
    return 0.0 if out <= 0 else out


@dataclass
class MaximizeConfig:
    """Knobs for the alternating-ascent maximization."""

    restarts: int = 32
    max_iterations: int = 500
    tol: float = 1e-10
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.restarts < 0:
            raise ValueError("restarts must be nonnegative")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")
        if not 0 < self.tol < math.inf:
            raise ValueError("tolerance must be positive and finite")


@dataclass
class MaximizationReport:
    """Outcome of maximizing the leading squared Schmidt coefficient.

    ``best_restart`` indexes the restart whose final objective is
    ``best_lambda1_sq`` in ``iterations`` and ``converged``.
    ``fixed_point_residual`` is :func:`verify_fixed_point` of the maximizer
    at the cut, computed on the basis matrix the ascent validated.
    """

    best_lambda1_sq: float
    restarts: int
    iterations: tuple[int, ...]
    converged: tuple[bool, ...]
    best_restart: int
    maximizer: TensorState
    fixed_point_residual: float
    cut: int
    analytic_bound: Fraction | None = None
    seed: int | None = None
    objective_traces: tuple[tuple[float, ...], ...] = field(default=(), repr=False)

    def to_json_dict(self, include_trace: bool = False) -> dict:
        out = {
            "best_lambda1_sq": self.best_lambda1_sq,
            "restarts": self.restarts,
            "iterations": list(self.iterations),
            "converged": list(self.converged),
            "cut": self.cut,
            "analytic_bound": None if self.analytic_bound is None else str(self.analytic_bound),
            "seed": self.seed,
            "maximizer": self.maximizer.to_json_dict(),
        }
        if include_trace:
            out["objective_traces"] = [list(tr) for tr in self.objective_traces]
        return out


def _check_orthonormal(mat: np.ndarray) -> None:
    # The Gram matrix on and above the diagonal, for 32 MiB of columns at a
    # time: only those columns are conjugated, never the whole matrix.
    rows, cols = mat.shape
    if cols == 0:
        raise ValueError("empty basis")
    step = max(1, (1 << 25) // (rows * mat.itemsize))
    for j in range(0, cols, step):
        gram = mat[:, j : j + step].conj().T @ mat[:, j:]
        if np.abs(gram - np.eye(*gram.shape)).max() > BASIS_TOL:
            raise ValueError("basis is not orthonormal")


def _factor_count(rows: int, d: int, k: int) -> int:
    # N with d**N == rows, in integers.  At d = 1 every N fits, and the
    # least one the cut allows, k + 1, is taken.
    n = 0
    while d > 1 and d**n < rows:
        n += 1
    if d < 1 or d**n != rows:
        raise ValueError(f"{rows} rows is not a power of the local dimension {d}")
    return n if d > 1 else k + 1


def max_lambda1_over_subspace(
    basis: np.ndarray,
    d: int,
    k: int,
    config: MaximizeConfig | None = None,
    *,
    analytic_bound: Fraction | None = None,
    initial_pairs: Sequence[tuple[TensorState, TensorState]] = (),
) -> MaximizationReport:
    """Maximize the leading squared Schmidt coefficient over a subspace.

    Alternating ascent: starting from a product state alpha x beta on the two
    sides of the cut, project onto the subspace, normalize, replace the pair
    by the top Schmidt pair of the result and repeat until the squared
    projection norm stops increasing.  Every iteration is monotonically
    non-decreasing in that objective, so each restart converges to a fixed
    point; the report keeps the best over all restarts.  A restart counts
    only when its last step produced a state: one that ends on a reset from
    a start orthogonal to the subspace does not.  ``initial_pairs``
    prepends deterministic restarts (e.g. a pair taken from a known
    saturating state) to the random ones.  ``basis`` is the ``d^N x dim``
    matrix of an orthonormal basis (N is read off its rows), which each
    projection reads in place, as ``mat (prod^H mat)^H``: no conjugate copy.
    """
    config = config or MaximizeConfig()
    mat = np.asarray(basis)
    _check_orthonormal(mat)
    n = _factor_count(mat.shape[0], d, k)
    if not 1 <= k <= n - 1:
        raise ValueError(f"cut must be in 1..{n - 1}")
    dim_a, dim_b = d**k, d ** (n - k)
    rng = np.random.default_rng(config.seed)

    def random_side(dim: int) -> np.ndarray:
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        return v / np.linalg.norm(v)

    starts: list[tuple[np.ndarray, np.ndarray] | None] = []
    for a, b in initial_pairs:
        if a.local_dim != d or b.local_dim != d:
            raise ValueError(f"initial pair does not live on local dimension {d}")
        if a.n_factors != k or b.n_factors != n - k:
            raise ValueError("initial pair does not match the cut")
        starts.append((a.normalized().amplitudes, b.normalized().amplitudes))
    starts.extend([None] * config.restarts)
    if not starts:
        raise ValueError("need at least one restart or initial pair")

    iterations = []
    converged = []
    traces = []
    best_obj = -1.0
    best_restart = -1
    best_psi: np.ndarray | None = None
    for index, start in enumerate(starts):
        alpha, beta = start if start is not None else (random_side(dim_a), random_side(dim_b))
        prev = None
        psi = None
        trace: list[float] = []
        done = False
        it = 0
        for it in range(1, config.max_iterations + 1):
            prod = np.multiply.outer(alpha, beta).reshape(-1)
            proj = mat @ (prod.conj() @ mat).conj()
            obj = float(np.real(np.vdot(proj, proj)))
            if prev is not None and obj < prev - 1e-12:
                raise RuntimeError(
                    f"ascent objective decreased from {prev} to {obj}"
                )
            trace.append(obj)
            if obj < 1e-24:
                # product state (numerically) orthogonal to the subspace
                alpha, beta = random_side(dim_a), random_side(dim_b)
                prev = None
                psi = None
                continue
            psi = proj / math.sqrt(obj)
            if prev is not None and obj - prev < config.tol:
                done = True
                break
            prev = obj
            u, _, vh = np.linalg.svd(psi.reshape(dim_a, dim_b), full_matrices=False)
            alpha = u[:, 0]
            beta = vh[0, :]
        iterations.append(it)
        converged.append(done)
        traces.append(tuple(trace))
        if psi is not None and trace[-1] > best_obj:
            best_obj = trace[-1]
            best_restart = index
            best_psi = psi
    if best_psi is None:
        raise RuntimeError("no restart produced a state inside the subspace")
    maximizer = TensorState(d, n, best_psi)
    return MaximizationReport(
        best_lambda1_sq=best_obj,
        restarts=len(starts),
        iterations=tuple(iterations),
        converged=tuple(converged),
        best_restart=best_restart,
        maximizer=maximizer,
        fixed_point_residual=_fixed_point_residual(maximizer, mat, k),
        cut=k,
        analytic_bound=analytic_bound,
        seed=config.seed,
        objective_traces=tuple(traces),
    )


def verify_fixed_point(psi: TensorState, basis: np.ndarray, k: int) -> float:
    """Residual of the maximizer fixed-point equation.

    A maximizer equals the normalized subspace projection of its own top
    Schmidt pair; the returned norm distance is near zero exactly for such
    states.  ``basis`` holds an orthonormal basis in its columns.  Raises
    when it is not orthonormal, has another row count than psi has
    amplitudes, or psi is not (numerically) inside its span.
    """
    mat = np.asarray(basis)
    _check_orthonormal(mat)
    if mat.shape[0] != psi.amplitudes.shape[0]:
        raise ValueError(
            f"basis has {mat.shape[0]} rows, but the state lives on "
            f"d={psi.local_dim}, n={psi.n_factors}"
        )
    return _fixed_point_residual(psi, mat, k)


def _fixed_point_residual(psi: TensorState, mat: np.ndarray, k: int) -> float:
    # mat holds an orthonormal basis in its columns, already validated.
    vec = psi.amplitudes
    inside = mat @ (vec.conj() @ mat).conj()
    if np.linalg.norm(inside - vec) > 1e-6:
        raise ValueError("state lies outside the span of the basis")
    sr = schmidt_decompose(psi, k)
    pair = np.multiply.outer(
        sr.left_vectors[0].amplitudes, sr.right_vectors[0].amplitudes
    ).reshape(-1)
    proj = mat @ (pair.conj() @ mat).conj()
    nrm = np.linalg.norm(proj)
    if nrm == 0:
        return float(np.linalg.norm(vec))
    return float(np.linalg.norm(vec - proj / nrm))
