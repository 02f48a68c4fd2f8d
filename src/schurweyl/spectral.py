"""Reduced density matrices, Schmidt decompositions, entanglement entropy
and variational maximization of the leading Schmidt coefficient over a
projector-defined subspace."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .tensor_space import TensorState, WeightBlocks


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
    at the cut, on the basis the ascent projected onto.
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


def max_lambda1_over_subspace(
    basis: WeightBlocks,
    k: int,
    config: MaximizeConfig | None = None,
    *,
    analytic_bound: Fraction | None = None,
    initial_pairs: Sequence[tuple[TensorState, TensorState]] = (),
) -> MaximizationReport:
    """Maximize the leading squared Schmidt coefficient over a subspace.

    Alternating ascent: starting from a product state alpha x beta on the two
    sides of the cut, project onto the subspace and normalize to psi, take
    one alternating power step on the amplitude matrix Psi of psi (alpha
    <- Psi conj(beta), then beta <- Psi^T conj(alpha) with the new alpha,
    each normalized) and repeat until the squared projection norm gains
    less than ``tol`` in one step.  Each half-step maximizes
    ``|<alpha x beta|psi>|`` over one side, and the squared projection norm
    of a unit product state is at least that overlap squared, so the
    objective never decreases; the report keeps the best over all
    restarts.  A restart counts only when its last step produced a state:
    one that ends on a reset from a start orthogonal to the subspace does
    not.  ``initial_pairs`` prepends deterministic restarts (e.g. a pair
    taken from a known saturating state) to the random ones.  ``basis`` is
    the subspace's orthonormal basis as weight blocks, as
    :func:`block_basis` and :func:`subspace_basis` return it; it carries d
    and N, and every projection applies its blocks.
    """
    config = config or MaximizeConfig()
    if not len(basis):
        raise ValueError("empty basis")
    d, n = basis.d, basis.n
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
            proj = basis(prod)
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
            # Each half-step maximizes |<alpha x beta|psi>| over one side, so obj cannot
            # fall; alpha^H Psi conj(beta) = sqrt(obj) > 0 keeps both norms nonzero.
            mat = psi.reshape(dim_a, dim_b)
            alpha = mat @ beta.conj()
            alpha /= np.linalg.norm(alpha)
            beta = mat.T @ alpha.conj()
            beta /= np.linalg.norm(beta)
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
        fixed_point_residual=verify_fixed_point(maximizer, basis, k),
        cut=k,
        analytic_bound=analytic_bound,
        seed=config.seed,
        objective_traces=tuple(traces),
    )


def verify_fixed_point(psi: TensorState, basis: WeightBlocks, k: int) -> float:
    """Residual of the maximizer fixed-point equation.

    A maximizer equals the normalized subspace projection of its own top
    Schmidt pair; the returned norm distance is near zero exactly for such
    states.  ``basis`` is the subspace's orthonormal basis as weight
    blocks, as :func:`block_basis` returns it.  Raises when it lives on
    another space than psi, psi is off its span or k is no cut (1..N-1).
    """
    if (basis.d, basis.n) != (psi.local_dim, psi.n_factors):
        raise ValueError(
            f"basis lives on d={basis.d}, n={basis.n}, but the state on "
            f"d={psi.local_dim}, n={psi.n_factors}"
        )
    vec = psi.amplitudes
    inside = basis(vec)
    if np.linalg.norm(inside - vec) > 1e-6:
        raise ValueError("state lies outside the span of the basis")
    top = schmidt_decompose(psi, k)
    pair = np.multiply.outer(top.left_vectors[0].amplitudes, top.right_vectors[0].amplitudes)
    proj = basis(pair.reshape(-1))
    nrm = np.linalg.norm(proj)
    if nrm == 0:
        return float(np.linalg.norm(vec))
    return float(np.linalg.norm(vec - proj / nrm))
