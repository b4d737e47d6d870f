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

import numpy as np
from scipy.special import xlogy

from .hermitian import (STATE_ATOL, _check_spectrum, _eigh, _energy_matching_root,
                        cluster_degenerate, eigh, require_hermitian)

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
    "evolve_dense",
    "entropy_matching_beta",
    "quadratic_to_dense",
    "mode_number_operators",
    "correlation_of_dense",
    "gaussian_to_dense",
]

MAX_DENSE_MODES = 12


def check_state(rho) -> np.ndarray:
    """Validate Hermiticity, positivity and unit trace; return symmetrised copy."""
    r = require_hermitian(rho, atol=STATE_ATOL, name="state")
    tr = float(np.trace(r).real)
    if abs(tr - 1.0) > STATE_ATOL:
        raise ValueError(f"state trace {tr:.12g} deviates from 1 beyond {STATE_ATOL:.1e}")
    lo = float(np.linalg.eigvalsh(r).min())
    if lo < -STATE_ATOL:
        raise ValueError(f"state has negative eigenvalue {lo:.3e}")
    return r


def _prologue(rho, hamiltonian):
    """Validated state and the Hamiltonian's eigensystem, of matching
    dimensions: the checks every public map below runs before its kernel.
    The kernels (``_pinch``, ``_gibbs``, ``_evolve``, ``_entropy``) trust
    their arguments; the protocol runner calls them after validating a whole
    schedule once."""
    r = check_state(rho)
    es = eigh(hamiltonian, atol=STATE_ATOL)
    if r.shape != (es.dim, es.dim):
        raise ValueError(f"dimension mismatch: state {r.shape} vs Hamiltonian dim {es.dim}")
    return r, es


def _expectation(rho: np.ndarray, obs: np.ndarray) -> float:
    return float(np.einsum("ij,ji->", obs, rho).real)


def ta_state(rho, hamiltonian) -> np.ndarray:
    """Pinch the state in the eigenbasis of the Hamiltonian.

    Coherences between eigenspaces separated by more than ``DEGENERACY_TOL``
    are dropped; blocks within a near-degenerate group are kept.  This is
    the infinite-time average of the unitary evolution and it preserves the
    expectation of every function of the Hamiltonian.
    """
    return _pinch(*_prologue(rho, hamiltonian))


def _pinch(r: np.ndarray, es) -> np.ndarray:
    labels = cluster_degenerate(es.values).labels()
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
    return _gibbs(*_prologue(rho, hamiltonian))


def _gibbs(r: np.ndarray, es) -> tuple[np.ndarray, float]:
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
        obs = tuple(require_hermitian(q, atol=STATE_ATOL, name=f"observable {i}")
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


def gge_state_dense(rho, hamiltonian, conserved: ConservedSet) -> tuple[np.ndarray, DualPoint]:
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
        residuals below 1e-8.

    Raises
    ------
    ValueError
        Dual divergence (the sup-norm of the dual point exceeding 1e4
        signals targets on the boundary of the attainable set), or residuals
        that fail to converge (worst residual reported).

    Notes
    -----
    The damped Newton iteration starts from the energy-matching beta with
    zero lambdas and stops once every gradient entry is at most 1e-10, or
    after 300 steps.  The Hessian of ln Z is the covariance-like matrix built
    from the first divided differences of the exponential, so it is PSD.

    Each Newton step is backtracked from the full step, halving alpha down
    to 1e-12.  A candidate is accepted when it passes the Armijo test
    phi(cand) <= phi + 1e-4 alpha (grad . step), or when its gradient
    sup-norm is at most half the current one.  The second test accepts the
    quadratically convergent steps near the optimum, where the Armijo
    decrease (about 1e-4 |grad|^2) is below the round-off of ln Z.  When no
    candidate is accepted the iteration stops without moving; the state is
    then returned if every residual is within 1e-8, and ValueError is raised
    otherwise.
    """
    h = require_hermitian(hamiltonian, atol=STATE_ATOL, name="Hamiltonian")
    r = check_state(rho)
    if r.shape != h.shape:
        raise ValueError(f"dimension mismatch: state {r.shape} vs Hamiltonian dim {h.shape[0]}")
    es = _eigh(h)
    if conserved.q and conserved.observables[0].shape != h.shape:
        raise ValueError("conserved observables must match the Hamiltonian dimension")

    omega, beta0 = _gibbs(r, es)
    if conserved.q == 0:
        return omega, DualPoint(beta=beta0, lambdas=())

    e_target = _expectation(r, h)
    operators = [-h] + list(conserved.observables)
    consts = np.array([-e_target] + list(conserved.targets))

    theta = np.zeros(1 + conserved.q)
    theta[0] = beta0

    def phi_and_grad(th):
        vals, vecs, w, ln_z = _dual_stats(th, operators)
        phi = ln_z - float(th @ consts)
        tilde = [vecs.conj().T @ x @ vecs for x in operators]
        expect = np.array([float(np.sum(w * np.diag(xt).real)) for xt in tilde])
        return phi, expect - consts, (vals, vecs, w, tilde)

    phi, grad, stats = phi_and_grad(theta)
    for _ in range(300):
        g_sup = float(np.max(np.abs(grad)))
        if g_sup <= 1e-10:
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
            if (phi_c <= phi + 1e-4 * alpha * slope
                    or float(np.max(np.abs(grad_c))) <= 0.5 * g_sup):
                break
            alpha *= 0.5
        else:
            break  # no candidate accepted: keep theta; the residual check decides
        theta, phi, grad, stats = cand, phi_c, grad_c, stats_c
        if float(np.max(np.abs(theta))) > 1e4:
            worst = float(np.max(np.abs(grad)))
            raise ValueError(
                "dual divergence: |(beta, lambda)| exceeded "
                "1e+04 (targets at the boundary of the attainable set; "
                f"worst residual {worst:.3e})"
            )

    residuals = np.abs(grad)
    if float(residuals.max()) > 1e-8:
        raise ValueError(
            f"constraints not met: worst residual {float(residuals.max()):.3e} exceeds 1.0e-08"
        )
    _, vecs, w, _ = stats
    omega = (vecs * w) @ vecs.conj().T
    return omega, DualPoint(beta=float(theta[0]), lambdas=tuple(float(x) for x in theta[1:]))


def vn_entropy(rho) -> float:
    """Von Neumann entropy in nats, with 0 log 0 = 0."""
    return _entropy(check_state(rho))


def _entropy(r: np.ndarray) -> float:
    # the sign check costs nothing beyond the eigenvalues the entropy needs,
    # so it stays on the trusted path and still catches a drifting state
    p = np.linalg.eigvalsh(r)
    if p.size and p.min() < -STATE_ATOL:
        raise ValueError(f"state has negative eigenvalue {p.min():.3e}")
    p = np.clip(p, 0.0, 1.0)
    return float(-np.sum(xlogy(p, p)))


def kl_gap(rho, hamiltonian, conserved: ConservedSet) -> float:
    """Entropy surplus of the constrained maximum-entropy state over the
    pinched state; equals their relative entropy and is non-negative."""
    omega, _ = gge_state_dense(rho, hamiltonian, conserved)
    return vn_entropy(omega) - vn_entropy(ta_state(rho, hamiltonian))


def is_passive(rho, hamiltonian, tol: float = 1e-9) -> bool:
    """True when the state commutes with H and its populations do not
    increase with energy (ties between near-degenerate levels are free).

    Within each energy group (clustered at ``tol``) the populations are the
    eigenvalues of the state's block, which removes any basis ambiguity.
    """
    r, es = _prologue(rho, hamiltonian)
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
    r, es = _prologue(rho, hamiltonian)
    p = np.linalg.eigvalsh(r)[::-1]
    return (es.vectors * p) @ es.vectors.conj().T


def evolve_dense(rho, hamiltonian, t: float) -> np.ndarray:
    """rho(t) = exp(-i H t) rho exp(i H t)."""
    return _evolve(*_prologue(rho, hamiltonian), t)


def _evolve(r: np.ndarray, es, t: float) -> np.ndarray:
    u = (es.vectors * np.exp(-1j * float(t) * es.values)) @ es.vectors.conj().T
    return u @ r @ u.conj().T


def entropy_matching_beta(hamiltonian, entropy: float) -> float | None:
    """Positive inverse temperature whose thermal state has the given
    entropy, or None when no such beta exists (entropy above ln d, or at or
    below the ground-degeneracy floor, probed at beta = 1e8).  For beta > 0
    the entropy falls with slope -beta Var_beta(H); the root is bracketed
    from [0, 1]."""
    eps = eigh(hamiltonian, atol=STATE_ATOL).values
    s0 = float(entropy)
    if not np.isfinite(s0):
        raise ValueError(f"entropy must be finite, got {entropy!r}")

    def f(beta: float) -> float:
        w = _thermal_weights(eps, beta)
        return float(-np.sum(xlogy(w, w))) - s0

    def slope(beta: float) -> float:
        w = _thermal_weights(eps, beta)
        return -beta * float(w @ (eps - w @ eps) ** 2)

    f0 = f(0.0)
    if f0 == 0.0:
        return 0.0
    if s0 > np.log(eps.size) + 1e-12 or f0 < 0.0 or f(1e8) >= 0.0:
        return None
    return float(_energy_matching_root(f, slope, s0, lo=0.0, hi=1.0))


# ---------------------------------------------------------------------------
# Fock-space bridge for the fermionic correlation-matrix formalism.  Every
# operator is built from one hopping rule on the 2^n occupation basis (site 0
# leftmost, basis index bit 1 = occupied); no sparse matrices are formed.
# ---------------------------------------------------------------------------

def _check_mode_count(n: int) -> None:
    if n < 1:
        raise ValueError("need at least one mode")
    if n > MAX_DENSE_MODES:
        raise ValueError(f"n={n} too large for the dense bridge (max {MAX_DENSE_MODES})")


def _hopping(n: int, i: int, j: int):
    """Basis indices b, b' and signs s with a_i^dag a_j |b> = s |b'> for
    every b it does not annihilate.  Under Jordan-Wigner the sign is the
    parity of the occupied sites strictly between i and j."""
    b = np.arange(2**n)
    bit_i, bit_j = 1 << (n - 1 - i), 1 << (n - 1 - j)
    b = b[((b & bit_j) != 0) & (((b & bit_i) == 0) | (i == j))]
    parity = sum(((b >> (n - 1 - k)) & 1 for k in range(min(i, j) + 1, max(i, j))),
                 np.zeros_like(b)) & 1
    return b, b ^ bit_j ^ bit_i, 1.0 - 2.0 * parity


def quadratic_to_dense(coefficients) -> np.ndarray:
    """2^n-dimensional Hamiltonian sum_ij c[i, j] a_i^dag a_j."""
    c = require_hermitian(coefficients, atol=STATE_ATOL, name="coefficient matrix")
    n = c.shape[0]
    _check_mode_count(n)
    h = np.zeros((2**n, 2**n), dtype=complex)
    for i in range(n):
        for j in range(n):
            if c[i, j] != 0:
                b, b_out, sign = _hopping(n, i, j)
                h[b_out, b] += c[i, j] * sign
    return h


def mode_number_operators(modes) -> list[np.ndarray]:
    """Dense number operators eta_k^dag eta_k for eta_k = sum_j conj(A[j,k]) a_j,
    each the quadratic form of the rank-one matrix A[:, k] A[:, k]^dag."""
    a = np.asarray(modes, dtype=complex)
    n = a.shape[0]
    _check_mode_count(n)
    return [quadratic_to_dense(np.outer(a[:, k], a[:, k].conj())) for k in range(n)]


def correlation_of_dense(rho) -> np.ndarray:
    """Correlation matrix gamma[i, j] = Tr(a_i^dag a_j rho) of a Fock-space state."""
    r = check_state(rho)
    d = r.shape[0]
    n = int(round(np.log2(d)))
    if 2**n != d:
        raise ValueError(f"state dimension {d} is not a power of two")
    _check_mode_count(n)
    gamma = np.empty((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            b, b_out, sign = _hopping(n, i, j)
            gamma[i, j] = sign @ r[b, b_out]
    return gamma


def gaussian_to_dense(gamma) -> np.ndarray:
    """2^n-dimensional Gaussian state with the given correlation matrix.

    Eigendecomposing gamma = W diag(d) W^dag, the state is the product over
    the eigenmodes of (d_k on occupied, 1 - d_k on empty); its correlation
    matrix reproduces gamma exactly.
    """
    g = require_hermitian(gamma, atol=STATE_ATOL, name="correlation matrix")
    n = g.shape[0]
    _check_mode_count(n)
    d, w = np.linalg.eigh(g)
    d = np.clip(_check_spectrum(d), 0.0, 1.0)
    numbers = mode_number_operators(w.conj())
    dim = 2**n
    rho = np.eye(dim, dtype=complex)
    for dk, nk in zip(d, numbers):
        rho = rho @ ((1.0 - dk) * np.eye(dim) + (2.0 * dk - 1.0) * nk)
    return rho
