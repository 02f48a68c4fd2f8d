"""Schmidt decompositions, entanglement entropy and variational
maximization of the leading Schmidt coefficient over a projector-defined
subspace."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .tensor_space import TensorState, WeightBlocks


@dataclass
class SchmidtResult:
    """Schmidt data across the cut between factors 1..k and k+1..n.

    Coefficients are the descending singular values of the d^k x d^(n-k)
    amplitude matrix.  ``left`` and ``right`` are the SVD's ``u`` and
    ``vh``: column i of ``left`` (d^k amplitudes) and row i of ``right``
    (d^(n-k) amplitudes) are the orthonormal pair of coefficient i.
    """

    coefficients: np.ndarray
    left: np.ndarray
    right: np.ndarray


def schmidt_decompose(psi: TensorState, k: int) -> SchmidtResult:
    """Singular value decomposition of a state across the cut after factor k."""
    n = psi.n_factors
    if not 1 <= k <= n - 1:
        raise ValueError(f"cut must be in 1..{n - 1}")
    d = psi.local_dim
    u, s, vh = np.linalg.svd(psi.amplitudes.reshape(d**k, d ** (n - k)), full_matrices=False)
    return SchmidtResult(s, u, vh)


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

    ``iterations``, ``converged`` and ``objective_traces`` hold one entry
    per restart, seeded ones first.  ``best_restart`` indexes the restart
    whose final objective is ``best_lambda1_sq``, and ``maximizer`` is its
    state.  ``fixed_point_residual`` is :func:`verify_fixed_point` of the
    maximizer at the cut, on the basis the ascent projected onto.
    """

    best_lambda1_sq: float
    restarts: int
    iterations: tuple[int, ...]
    converged: tuple[bool, ...]
    best_restart: int
    maximizer: TensorState
    fixed_point_residual: float
    objective_traces: tuple[tuple[float, ...], ...] = field(default=(), repr=False)


# Bytes of the ascent's batch arrays.  A restart in the window holds at most
# three complex vectors of d**N amplitudes at the peak of an iteration: its
# two gathered factors and their product, or its projection and the dense
# state of the power step.
BATCH_BYTES = 2**20


def _row_norms(mat: np.ndarray) -> np.ndarray:
    """Norm of each row of a C-ordered complex matrix, read through its
    real (re, im) view."""
    pairs = mat.view(np.float64)
    return np.sqrt(np.einsum("ij,ij->i", pairs, pairs))


def _batch_width(starts: int, d: int, n: int) -> int:
    """Restarts the ascent advances side by side: as many of ``starts`` as
    fit their batch arrays in ``BATCH_BYTES``, at least one."""
    return max(1, min(starts, BATCH_BYTES // (3 * 16 * d**n)))


def max_lambda1_over_subspace(
    basis: WeightBlocks,
    k: int,
    config: MaximizeConfig | None = None,
    *,
    initial_pairs: Sequence[tuple[np.ndarray, np.ndarray]] = (),
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
    restarts, the first of equal ones.  A restart counts only when its last
    step produced a state: one that ends on a reset from a start orthogonal
    to the subspace does not.  ``initial_pairs`` prepends deterministic
    restarts (e.g. the top Schmidt pair of a known saturating state) to the
    random ones: each is a pair of finite, nonzero amplitude arrays of d^k
    and d^(n-k) entries, normalized here.  ``basis`` is the subspace's
    orthonormal basis as weight blocks, as :func:`block_basis` and
    :func:`subspace_basis` return it; it carries d and N, and every
    projection applies its real blocks to the gathered rows of the product
    states (:meth:`WeightBlocks.project_rows`).

    The restarts advance side by side as the columns of one batch, a window
    as wide as fits in ``BATCH_BYTES`` (at least one restart), so a large
    space takes one at a time.  A restart that stops hands its column to
    the next start, in restart order, and each restart keeps its own
    iteration count, stopping rule, monotonicity check and trace.  Each
    random start is drawn when it enters the window, alpha then beta, so the
    draws are those of one restart after another until a start orthogonal
    to the subspace is reset: its new pair is drawn in that iteration, in
    column order, between the draws of the starts around it.
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

    def unit_side(side, dim: int) -> np.ndarray:
        v = np.array(side, dtype=np.complex128)
        if v.shape != (dim,):
            raise ValueError(
                f"initial pair must hold {dim_a} and {dim_b} amplitudes "
                f"(local dimension {d}, cut {k})"
            )
        if not np.isfinite(v).all():
            raise ValueError("initial pair amplitudes must be finite")
        nrm = np.linalg.norm(v)
        if nrm == 0:
            raise ValueError("initial pair has a zero vector")
        return v / nrm

    seeded = [(unit_side(a, dim_a), unit_side(b, dim_b)) for a, b in initial_pairs]
    if not seeded and not config.restarts:
        raise ValueError("need at least one restart or initial pair")
    # lazy: no list as long as the restart count is ever made
    starts = enumerate(itertools.chain(seeded, itertools.repeat(None, config.restarts)))

    def pair(start) -> tuple[np.ndarray, np.ndarray]:
        return start if start is not None else (random_side(dim_a), random_side(dim_b))

    # Column c of the window advances restart index[c] from the product of
    # alpha[c] and beta[c]; prev is NaN before a first objective and after a
    # reset, so neither the monotonicity nor the stopping test sees it.
    window = list(itertools.islice(starts, _batch_width(len(seeded) + config.restarts, d, n)))
    index = [i for i, _ in window]
    alpha, beta = (np.array(side) for side in zip(*(pair(s) for _, s in window)))
    prev = np.full(len(index), np.nan)
    steps = np.zeros(len(index), dtype=np.int64)
    traces: list[list[float]] = [[] for _ in index]
    left, right = np.divmod(basis.gather, dim_b)  # each gathered row's alpha and beta index

    records: dict[int, tuple[int, bool, tuple[float, ...]]] = {}
    best_obj = -1.0
    best_restart = -1
    best_psi: np.ndarray | None = None
    while index:
        proj = basis.project_rows(alpha.T[left] * beta.T[right])
        pairs = proj.view(np.float64)
        obj = np.einsum("ij,ij->j", pairs, pairs).reshape(-1, 2).sum(axis=1)
        fell = np.flatnonzero(obj < prev - 1e-12)
        if fell.size:
            c = fell[0]
            raise RuntimeError(f"ascent objective decreased from {prev[c]} to {obj[c]}")
        steps += 1
        for trace, value in zip(traces, obj.tolist()):
            trace.append(value)
        reset = obj < 1e-24  # product state (numerically) orthogonal to the subspace
        done = ~reset & (obj - prev < config.tol)
        stop = done | (steps >= config.max_iterations)
        # psi on the gathered rows; a reset column has none and stays 0
        proj *= np.divide(1.0, np.sqrt(obj), out=np.zeros_like(obj), where=~reset)
        prev = np.where(reset, np.nan, obj)
        # Each half-step maximizes |<alpha x beta|psi>| over one side, so obj cannot
        # fall; alpha^H Psi conj(beta) = sqrt(obj) > 0 keeps both norms nonzero
        # off the reset columns, which draw a new pair below.
        full = np.zeros((len(index), dim_a * dim_b), dtype=np.complex128)
        full[:, basis.gather] = proj.T
        mat = full.reshape(-1, dim_a, dim_b)  # mat[c] is column c's Psi
        alpha = (mat @ beta.conj()[:, :, None])[:, :, 0]
        np.divide(alpha, _row_norms(alpha)[:, None], out=alpha, where=~reset[:, None])
        beta = (alpha.conj()[:, None, :] @ mat)[:, 0, :]
        np.divide(beta, _row_norms(beta)[:, None], out=beta, where=~reset[:, None])
        del full, mat
        dropped = []
        for c in np.flatnonzero(stop | reset):
            start = None
            if stop[c]:
                better = obj[c] > best_obj or (obj[c] == best_obj and index[c] < best_restart)
                if not reset[c] and better:
                    best_obj, best_restart = float(obj[c]), index[c]
                    best_psi = np.zeros(d**n, dtype=np.complex128)
                    best_psi[basis.gather] = proj[:, c]
                records[index[c]] = (int(steps[c]), bool(done[c]), tuple(traces[c]))
                nxt = next(starts, None)
                if nxt is None:
                    dropped.append(c)
                    continue
                index[c], start = nxt
                traces[c], steps[c], prev[c] = [], 0, np.nan
            alpha[c], beta[c] = pair(start)
        del proj
        if dropped:
            keep = np.ones(len(index), dtype=bool)
            keep[dropped] = False
            index = [i for i, kept in zip(index, keep) if kept]
            traces = [tr for tr, kept in zip(traces, keep) if kept]
            alpha, beta, prev, steps = alpha[keep], beta[keep], prev[keep], steps[keep]
    if best_psi is None:
        raise RuntimeError("no restart produced a state inside the subspace")
    iterations, converged, objective_traces = zip(*(records[i] for i in range(len(records))))
    maximizer = TensorState(d, n, best_psi)
    return MaximizationReport(
        best_lambda1_sq=best_obj,
        restarts=len(records),
        iterations=iterations,
        converged=converged,
        best_restart=best_restart,
        maximizer=maximizer,
        fixed_point_residual=verify_fixed_point(maximizer, basis, k),
        objective_traces=objective_traces,
    )


def verify_fixed_point(psi: TensorState, basis: WeightBlocks, k: int) -> float:
    """Residual of the maximizer fixed-point equation.

    A maximizer equals the normalized subspace projection of its own top
    Schmidt pair; the returned norm distance is near zero exactly for such
    states, and at least psi's distance to the span, as it compares psi
    with a vector of the span (or 0).  ``basis`` is the subspace's
    orthonormal basis as weight blocks, as :func:`block_basis` returns it.
    Raises when it lives on another space than psi or k is no cut (1..N-1).
    """
    if (basis.d, basis.n) != (psi.local_dim, psi.n_factors):
        raise ValueError(
            f"basis lives on d={basis.d}, n={basis.n}, but the state on "
            f"d={psi.local_dim}, n={psi.n_factors}"
        )
    top = schmidt_decompose(psi, k)
    pair = np.multiply.outer(top.left[:, 0], top.right[0])
    proj = basis(pair.reshape(-1))
    nrm = np.linalg.norm(proj)
    if nrm == 0:
        return float(np.linalg.norm(psi.amplitudes))
    return float(np.linalg.norm(psi.amplitudes - proj / nrm))
