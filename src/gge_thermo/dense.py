"""Exact density-matrix realisation of the three equilibration maps for
small dimensions, the maximum-entropy dual solver for arbitrary conserved
quantities, passivity tests, and the brute-force bridge to the fermionic
correlation-matrix formalism.

States are plain d x d numpy arrays (Hermitian, PSD, unit trace).  The
maximum-entropy state compatible with a mean energy and a set of observable
expectations is found by minimising the smooth convex dual

    phi(beta, lambda) = ln Tr exp(-beta H + sum_j lambda_j Q_j)
                        + beta E_target - sum_j lambda_j q_j

with a damped Newton iteration; its gradient is exactly the vector of
constraint residuals, so dual optimality certifies the constraints.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np
import scipy.sparse
from scipy.optimize import brentq
from scipy.special import xlogy

from .hermitian import (
    DEGENERACY_TOL,
    _energy_matching_root,
    cluster_degenerate,
    eigh,
    require_hermitian,
)

__all__ = [
    "ConservedSet",
    "DualPoint",
    "check_state",
    "ta_state",
    "gibbs_state_dense",
    "gge_state_dense",
    "vn_entropy",
    "kl_gap",
    "is_passive",
    "passive_rearrangement",
    "ground_degeneracy",
    "evolve_dense",
    "entropy_matching_beta",
    "annihilation_operators",
    "quadratic_to_dense",
    "mode_number_operators",
    "correlation_of_dense",
    "gaussian_to_dense",
]

STATE_ATOL = 1e-10
MAX_DENSE_MODES = 12


def check_state(rho, atol: float = STATE_ATOL) -> np.ndarray:
    """Validate Hermiticity, positivity and unit trace; return symmetrised copy."""
    r = require_hermitian(rho, atol=atol, name="state")
    tr = float(np.trace(r).real)
    if abs(tr - 1.0) > atol:
        raise ValueError(f"state trace {tr:.12g} deviates from 1 beyond {atol:.1e}")
    lo = float(np.linalg.eigvalsh(r).min())
    if lo < -atol:
        raise ValueError(f"state has negative eigenvalue {lo:.3e}")
    return r


def _expectation(rho: np.ndarray, obs: np.ndarray) -> float:
    return float(np.einsum("ij,ji->", obs, rho).real)


def ta_state(rho, hamiltonian, tol: float = DEGENERACY_TOL) -> np.ndarray:
    """Pinch the state in the eigenbasis of the Hamiltonian.

    Coherences between eigenspaces separated by more than ``tol`` are
    dropped; blocks within a near-degenerate group are kept.  This is the
    infinite-time average of the unitary evolution and it preserves the
    expectation of every function of the Hamiltonian.
    """
    r = check_state(rho)
    es = eigh(hamiltonian, atol=1e-10)
    if r.shape != (es.dim, es.dim):
        raise ValueError(f"dimension mismatch: state {r.shape} vs Hamiltonian dim {es.dim}")
    labels = cluster_degenerate(es.values, tol).labels()
    mask = labels[:, None] == labels[None, :]
    b = es.vectors.conj().T @ r @ es.vectors
    return es.vectors @ (b * mask) @ es.vectors.conj().T


def _thermal_weights(eps: np.ndarray, beta: float) -> np.ndarray:
    x = -beta * eps
    x = x - x.max()
    w = np.exp(x)
    return w / w.sum()


def gibbs_state_dense(rho, hamiltonian) -> tuple[np.ndarray, float]:
    """Thermal state of the Hamiltonian at the energy of ``rho``.

    The inverse temperature is fixed by Tr(H omega) = Tr(H rho) via bracketed
    root finding on the strictly decreasing energy curve.  A negative beta is
    returned as-is (population-inverted target); a flat spectrum returns the
    maximally mixed state at beta = 0 since every beta matches the energy.

    Raises ValueError when the target energy sits at or outside the spectral
    edges (no thermal state can match it strictly).
    """
    r = check_state(rho)
    es = eigh(hamiltonian, atol=1e-10)
    if r.shape != (es.dim, es.dim):
        raise ValueError(f"dimension mismatch: state {r.shape} vs Hamiltonian dim {es.dim}")
    h = es.reconstruct()
    target = _expectation(r, h)
    eps = es.values
    d = es.dim
    span = float(eps[-1] - eps[0])
    if span <= 1e-14 * max(1.0, abs(float(eps[0]))):
        return np.eye(d) / d, 0.0
    if not (eps[0] < target < eps[-1]):
        raise ValueError(
            f"target energy {target:.12g} at or outside the spectral edges "
            f"({eps[0]:.12g}, {eps[-1]:.12g})"
        )

    def f(beta: float) -> float:
        return float(_thermal_weights(eps, beta) @ eps) - target

    def slope(beta: float) -> float:
        w = _thermal_weights(eps, beta)
        mean = float(w @ eps)
        return -float(w @ (eps - mean) ** 2)

    beta = _energy_matching_root(f, slope, target)
    w = _thermal_weights(eps, beta)
    omega = (es.vectors * w) @ es.vectors.conj().T
    return omega, float(beta)


@dataclass(frozen=True)
class ConservedSet:
    """Observables with target expectation values."""

    observables: tuple[np.ndarray, ...]
    targets: tuple[float, ...]

    def __post_init__(self):
        obs = tuple(require_hermitian(q, atol=1e-10, name=f"observable {i}")
                    for i, q in enumerate(self.observables))
        tgt = tuple(float(t) for t in self.targets)
        if len(obs) != len(tgt):
            raise ValueError(f"{len(obs)} observables but {len(tgt)} targets")
        if obs:
            d = obs[0].shape[0]
            for i, q in enumerate(obs):
                if q.shape != (d, d):
                    raise ValueError(f"observable {i} has shape {q.shape}, expected {(d, d)}")
        if any(not np.isfinite(t) for t in tgt):
            raise ValueError("targets must be finite")
        object.__setattr__(self, "observables", obs)
        object.__setattr__(self, "targets", tgt)

    @classmethod
    def from_state(cls, rho, observables) -> "ConservedSet":
        r = check_state(rho)
        obs = tuple(np.asarray(q, dtype=complex) for q in observables)
        return cls(obs, tuple(_expectation(r, q) for q in obs))

    @property
    def q(self) -> int:
        return len(self.observables)

    def residuals(self, state) -> np.ndarray:
        s = np.asarray(state, dtype=complex)
        return np.array([_expectation(s, q) - t for q, t in zip(self.observables, self.targets)])


@dataclass(frozen=True)
class DualPoint:
    """Unconstrained dual variables of the maximum-entropy problem."""

    beta: float
    lambdas: tuple[float, ...]


def _dual_stats(theta: np.ndarray, operators: list[np.ndarray]):
    """Eigen-data of K(theta) = sum_a theta_a X_a plus normalised weights."""
    k_mat = sum(t * x for t, x in zip(theta, operators))
    vals, vecs = np.linalg.eigh(0.5 * (k_mat + k_mat.conj().T))
    shifted = vals - vals.max()
    w = np.exp(shifted)
    z = w.sum()
    w /= z
    ln_z = float(vals.max() + np.log(z))
    return vals, vecs, w, ln_z


def gge_state_dense(
    rho,
    hamiltonian,
    conserved: ConservedSet,
    *,
    grad_tol: float = 1e-10,
    residual_tol: float = 1e-8,
    bound: float = 1e4,
    max_iter: int = 300,
) -> tuple[np.ndarray, DualPoint]:
    """Maximum-entropy state matching the energy of ``rho`` and the targets
    of ``conserved``.

    Parameters
    ----------
    rho : array
        State supplying the energy target (and, conventionally, the
        conserved-quantity targets via ``ConservedSet.from_state``).
    hamiltonian : array
        Hermitian Hamiltonian.
    conserved : ConservedSet
        Observables and target expectations.  An empty set reduces to
        :func:`gibbs_state_dense`.

    Returns
    -------
    (omega, dual) : (array, DualPoint)
        omega = exp(-beta H + sum_j lambda_j Q_j) / Z with all constraint
        residuals below ``residual_tol``.

    Raises
    ------
    ValueError
        Dual divergence (the sup-norm of the dual point exceeding ``bound``
        signals targets on the boundary of the attainable set), or residuals
        that fail to converge (worst residual reported).

    Notes
    -----
    The damped Newton iteration starts from the energy-matching beta with
    zero lambdas.  The Hessian of ln Z is the covariance-like matrix built
    from the first divided differences of the exponential, so it is PSD and
    the backtracking line search keeps the dual monotone.
    """
    r = check_state(rho)
    h = require_hermitian(hamiltonian, atol=1e-10, name="Hamiltonian")
    if r.shape != h.shape:
        raise ValueError(f"dimension mismatch: state {r.shape} vs Hamiltonian {h.shape}")
    if conserved.q and conserved.observables[0].shape != h.shape:
        raise ValueError("conserved observables must match the Hamiltonian dimension")

    if conserved.q == 0:
        omega, beta = gibbs_state_dense(r, h)
        return omega, DualPoint(beta=beta, lambdas=())

    e_target = _expectation(r, h)
    operators = [-h] + list(conserved.observables)
    consts = np.array([-e_target] + list(conserved.targets))

    _, beta0 = gibbs_state_dense(r, h)
    theta = np.zeros(1 + conserved.q)
    theta[0] = beta0

    def phi_and_grad(th):
        vals, vecs, w, ln_z = _dual_stats(th, operators)
        phi = ln_z - float(th @ consts)
        tilde = [vecs.conj().T @ x @ vecs for x in operators]
        expect = np.array([float(np.sum(w * np.diag(xt).real)) for xt in tilde])
        return phi, expect - consts, (vals, vecs, w, tilde)

    phi, grad, stats = phi_and_grad(theta)
    for _ in range(max_iter):
        if float(np.max(np.abs(grad))) <= grad_tol:
            break
        vals, vecs, w, tilde = stats
        dk = vals[:, None] - vals[None, :]
        dw = w[:, None] - w[None, :]
        small = np.abs(dk) <= 1e-12 * max(1.0, float(np.abs(vals).max()))
        fdiv = np.where(small, 0.5 * (w[:, None] + w[None, :]), dw / np.where(small, 1.0, dk))
        m = len(operators)
        hess = np.empty((m, m))
        expect = grad + consts
        for a in range(m):
            for b in range(a, m):
                t_ab = float(np.sum(tilde[a].T * tilde[b] * fdiv).real)
                hess[a, b] = hess[b, a] = t_ab - expect[a] * expect[b]
        ridge = 1e-12 * max(1.0, float(np.abs(np.diag(hess)).max()))
        try:
            step = np.linalg.solve(hess + ridge * np.eye(m), -grad)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(hess, -grad, rcond=None)[0]
        alpha = 1.0
        slope = float(grad @ step)
        while alpha > 1e-12:
            cand = theta + alpha * step
            phi_c, grad_c, stats_c = phi_and_grad(cand)
            if phi_c <= phi + 1e-4 * alpha * slope:
                break
            alpha *= 0.5
        theta, phi, grad, stats = cand, phi_c, grad_c, stats_c
        if float(np.max(np.abs(theta))) > bound:
            worst = float(np.max(np.abs(grad)))
            raise ValueError(
                "dual divergence: |(beta, lambda)| exceeded "
                f"{bound:.0e} (targets at the boundary of the attainable set; "
                f"worst residual {worst:.3e})"
            )

    residuals = np.abs(grad)
    if float(residuals.max()) > residual_tol:
        raise ValueError(
            f"constraints not met: worst residual {float(residuals.max()):.3e} "
            f"exceeds {residual_tol:.1e}"
        )
    _, vecs, w, _ = stats
    omega = (vecs * w) @ vecs.conj().T
    return omega, DualPoint(beta=float(theta[0]), lambdas=tuple(float(x) for x in theta[1:]))


def vn_entropy(rho, atol: float = STATE_ATOL) -> float:
    """Von Neumann entropy in nats, with 0 log 0 = 0."""
    p = np.linalg.eigvalsh(check_state(rho, atol=atol))
    p = np.clip(p, 0.0, 1.0)
    return float(-np.sum(xlogy(p, p)))


def kl_gap(rho, hamiltonian, conserved: ConservedSet, tol: float = DEGENERACY_TOL) -> float:
    """Entropy surplus of the constrained maximum-entropy state over the
    pinched state; equals their relative entropy and is non-negative."""
    omega, _ = gge_state_dense(rho, hamiltonian, conserved)
    return vn_entropy(omega) - vn_entropy(ta_state(rho, hamiltonian, tol))


def is_passive(rho, hamiltonian, tol: float = 1e-9) -> bool:
    """True when the state commutes with H and its populations do not
    increase with energy (ties between near-degenerate levels are free).

    Within each energy group (clustered at ``tol``) the populations are the
    eigenvalues of the state's block, which removes any basis ambiguity.
    """
    r = check_state(rho)
    es = eigh(hamiltonian, atol=1e-10)
    if r.shape != (es.dim, es.dim):
        raise ValueError(f"dimension mismatch: state {r.shape} vs Hamiltonian dim {es.dim}")
    h = es.reconstruct()
    if float(np.linalg.norm(r @ h - h @ r)) > tol:
        return False
    part = cluster_degenerate(es.values, tol)
    b = es.vectors.conj().T @ r @ es.vectors
    group_pops = []
    for group in part.groups:
        idx = np.asarray(group)
        block = b[np.ix_(idx, idx)]
        group_pops.append(np.linalg.eigvalsh(0.5 * (block + block.conj().T)))
    for lower, upper in zip(group_pops, group_pops[1:]):
        if float(lower.min()) < float(upper.max()) - tol:
            return False
    return True


def passive_rearrangement(rho, hamiltonian) -> np.ndarray:
    """State with the spectrum of ``rho`` arranged non-increasingly along the
    ascending energy eigenbasis; the minimum-energy point of the unitary
    orbit of ``rho``."""
    r = check_state(rho)
    es = eigh(hamiltonian, atol=1e-10)
    if r.shape != (es.dim, es.dim):
        raise ValueError(f"dimension mismatch: state {r.shape} vs Hamiltonian dim {es.dim}")
    p = np.linalg.eigvalsh(r)[::-1]
    return (es.vectors * p) @ es.vectors.conj().T


def ground_degeneracy(hamiltonian, tol: float = DEGENERACY_TOL) -> int:
    """Size of the lowest near-degenerate eigenvalue group."""
    es = eigh(hamiltonian, atol=1e-10)
    if es.dim == 0:
        raise ValueError("empty Hamiltonian")
    return len(cluster_degenerate(es.values, tol).groups[0])


def evolve_dense(rho, hamiltonian, t: float) -> np.ndarray:
    """rho(t) = exp(-i H t) rho exp(i H t)."""
    r = check_state(rho)
    es = eigh(hamiltonian, atol=1e-10)
    if r.shape != (es.dim, es.dim):
        raise ValueError(f"dimension mismatch: state {r.shape} vs Hamiltonian dim {es.dim}")
    u = (es.vectors * np.exp(-1j * float(t) * es.values)) @ es.vectors.conj().T
    return u @ r @ u.conj().T


def entropy_matching_beta(
    hamiltonian, entropy: float, *, max_beta: float = 1e8
) -> float | None:
    """Positive inverse temperature whose thermal state has the given
    entropy, or None when no such beta exists (entropy at or below the
    ground-degeneracy floor)."""
    es = eigh(hamiltonian, atol=1e-10)
    eps = es.values

    def s_of(beta: float) -> float:
        w = _thermal_weights(eps, beta)
        return float(-np.sum(xlogy(w, w)))

    s0 = float(entropy)
    if s0 > np.log(es.dim) + 1e-12:
        return None
    f0 = s_of(0.0) - s0
    if f0 < 0.0:
        return None
    if f0 == 0.0:
        return 0.0
    hi = 1.0
    while s_of(hi) > s0 and hi < max_beta:
        hi *= 2.0
    if s_of(hi) > s0:
        return None
    return float(brentq(lambda b: s_of(b) - s0, 0.0, hi, xtol=1e-14))


# ---------------------------------------------------------------------------
# Fock-space bridge for the fermionic correlation-matrix formalism
# ---------------------------------------------------------------------------

def _check_mode_count(n: int) -> None:
    if n < 1:
        raise ValueError("need at least one mode")
    if n > MAX_DENSE_MODES:
        raise ValueError(f"n={n} too large for the dense bridge (max {MAX_DENSE_MODES})")


def annihilation_operators(n: int) -> list[scipy.sparse.csr_matrix]:
    """Jordan-Wigner annihilation operators on the 2^n occupation basis
    (site 0 leftmost, basis index bit 1 = occupied)."""
    _check_mode_count(n)
    sz = scipy.sparse.csr_matrix(np.diag([1.0, -1.0]).astype(complex))
    lower = scipy.sparse.csr_matrix(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))
    ident = scipy.sparse.identity(2, dtype=complex, format="csr")
    ops = []
    for i in range(n):
        factors = [sz] * i + [lower] + [ident] * (n - 1 - i)
        ops.append(reduce(lambda a, b: scipy.sparse.kron(a, b, format="csr"), factors))
    return ops


def quadratic_to_dense(coefficients) -> np.ndarray:
    """2^n-dimensional Hamiltonian sum_ij c[i, j] a_i^dag a_j."""
    c = require_hermitian(coefficients, atol=1e-10, name="coefficient matrix")
    n = c.shape[0]
    _check_mode_count(n)
    ops = annihilation_operators(n)
    h = scipy.sparse.csr_matrix((2**n, 2**n), dtype=complex)
    for i in range(n):
        for j in range(n):
            if c[i, j] != 0:
                h = h + c[i, j] * (ops[i].conj().T @ ops[j])
    return np.asarray(h.todense())


def mode_number_operators(modes) -> list[np.ndarray]:
    """Dense number operators eta_k^dag eta_k for eta_k = sum_j conj(A[j,k]) a_j."""
    a = np.asarray(modes, dtype=complex)
    n = a.shape[0]
    _check_mode_count(n)
    ops = annihilation_operators(n)
    out = []
    for k in range(n):
        eta = sum(np.conj(a[j, k]) * ops[j] for j in range(n))
        out.append(np.asarray((eta.conj().T @ eta).todense()))
    return out


def correlation_of_dense(rho) -> np.ndarray:
    """Correlation matrix gamma[i, j] = Tr(a_i^dag a_j rho) of a Fock-space state."""
    r = check_state(rho)
    d = r.shape[0]
    n = int(round(np.log2(d)))
    if 2**n != d:
        raise ValueError(f"state dimension {d} is not a power of two")
    _check_mode_count(n)
    ops = annihilation_operators(n)
    b = [np.asarray((op @ r)) for op in ops]
    gamma = np.empty((n, n), dtype=complex)
    for i in range(n):
        ai = ops[i].todense()
        for j in range(n):
            gamma[i, j] = np.vdot(np.asarray(ai), b[j])
    return gamma


def gaussian_to_dense(gamma, atol: float = 1e-6) -> np.ndarray:
    """2^n-dimensional Gaussian state with the given correlation matrix.

    Eigendecomposing gamma = W diag(d) W^dag, the state is the product over
    the eigenmodes of (d_k on occupied, 1 - d_k on empty); its correlation
    matrix reproduces gamma exactly.
    """
    g = require_hermitian(gamma, atol=1e-10, name="correlation matrix")
    n = g.shape[0]
    _check_mode_count(n)
    d, w = np.linalg.eigh(g)
    if d.min() < -atol or d.max() > 1.0 + atol:
        raise ValueError(
            f"correlation spectrum outside [0, 1]: min {d.min():.3e}, max {d.max():.6f}"
        )
    d = np.clip(d, 0.0, 1.0)
    numbers = mode_number_operators(w.conj())
    dim = 2**n
    rho = np.eye(dim, dtype=complex)
    for dk, nk in zip(d, numbers):
        rho = rho @ ((1.0 - dk) * np.eye(dim) + (2.0 * dk - 1.0) * nk)
    return rho
