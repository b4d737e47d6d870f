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

from .hermitian import (_EPS4, STATE_ATOL, EigenSystem, _check_spectrum, _eigh, _eigh_all,
                        _energy_matching_root, _hermitian_part, _labels, _require_hermitian_all,
                        _xlogx, cluster_degenerate, require_hermitian)

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
    "quadratic_to_dense",
    "mode_number_operators",
    "correlation_of_dense",
    "gaussian_to_dense",
]

MAX_DENSE_MODES = 12


def check_state(rho) -> np.ndarray:
    """Validate Hermiticity, positivity and unit trace; return symmetrised copy."""
    r = require_hermitian(rho, name="state")
    tr = float(np.trace(r).real)
    if abs(tr - 1.0) > STATE_ATOL:
        raise ValueError(f"state trace {tr:.12g} deviates from 1 beyond {STATE_ATOL:.1e}")
    lo = float(np.linalg.eigvalsh(r).min())
    if lo < -STATE_ATOL:
        raise ValueError(f"state has negative eigenvalue {lo:.3e}")
    return r


def _hamiltonian(hamiltonian, r: np.ndarray, name: str = "Hamiltonian") -> np.ndarray:
    """The one dense Hamiltonian (or observable, named ``name`` in errors)
    check: Hermitian within ``STATE_ATOL`` and of the shape of the validated
    state ``r``; returns the symmetrised copy."""
    h = require_hermitian(hamiltonian, name=name)
    if h.shape != r.shape:
        raise ValueError(f"dimension mismatch: state {r.shape} vs {name} {h.shape}")
    return h


def _checked(matrices, r: np.ndarray, name: str = "Hamiltonian") -> list[np.ndarray]:
    """:func:`_hamiltonian` of each matrix (the i-th named ``name.format(i=i)``) in one
    stacked check; if one fails, the per-matrix checks raise the first error in order."""
    ms = list(matrices)
    try:
        hs = _require_hermitian_all(ms, name)
        if all(h.shape == r.shape for h in hs):
            return hs
    except (TypeError, ValueError):
        pass
    return [_hamiltonian(m, r, name.format(i=i)) for i, m in enumerate(ms)]


class _Hamiltonian:
    """A checked Hamiltonian ``h`` carrying its eigensystem ``es`` and the pinching
    ``labels`` of its energies: the dense counterpart of
    ``fermions.QuadraticHamiltonian``.  :func:`_schedule` decomposes a schedule's
    in stacked calls; one it leaves undecomposed is decomposed on first use."""

    __slots__ = ("h", "_levels")

    def __init__(self, h: np.ndarray, levels: tuple | None = None):
        self.h, self._levels = h, levels

    def _decomposed(self) -> tuple:
        if self._levels is None:
            es = _eigh(self.h)
            self._levels = es, _labels(es.values)
        return self._levels

    @property
    def es(self) -> EigenSystem:
        return self._decomposed()[0]

    @property
    def labels(self) -> np.ndarray:
        return self._decomposed()[1]


def _schedule(hs: list[np.ndarray]) -> list[_Hamiltonian]:
    """Checked Hamiltonians as :class:`_Hamiltonian` records, all but the first decomposed
    and labelled in stacked calls: a schedule's step 0 is never equilibrated."""
    es = _eigh_all(hs[1:])
    labels = _labels(np.array([e.values for e in es], ndmin=2))
    return [_Hamiltonian(h, levels) for h, levels in zip(hs, [None, *zip(es, labels)])]


def _prologue(rho, hamiltonian):
    """Validated state and the Hamiltonian's eigensystem, of matching
    dimensions: the checks every public map below runs before its kernel.
    The kernels (``_pinch``, ``_gibbs``, ``_evolve``, ``_entropy``) trust
    their arguments; the protocol runner calls them after validating a whole
    schedule once."""
    r = check_state(rho)
    return r, _eigh(_hamiltonian(hamiltonian, r))


def _expectation(rho: np.ndarray, obs: np.ndarray) -> float:
    return float(np.einsum("ij,ji->", obs, rho).real)


def ta_state(rho, hamiltonian) -> np.ndarray:
    """Pinch the state in the eigenbasis of the Hamiltonian.

    Coherences between eigenspaces separated by more than ``DEGENERACY_TOL``
    are dropped; blocks within a near-degenerate group are kept.  This is
    the infinite-time average of the unitary evolution and it preserves the
    expectation of every function of the Hamiltonian.
    """
    r, es = _prologue(rho, hamiltonian)
    return _pinch(r, es, cluster_degenerate(es.values))


def _pinch(r: np.ndarray, es, labels: np.ndarray) -> np.ndarray:
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
    span = float(eps[-1] - eps[0])
    if span <= 1e-14 * max(1.0, abs(float(eps[0]))):
        return np.eye(len(eps)) / len(eps), 0.0
    if not (eps[0] < target < eps[-1]):
        raise ValueError(
            f"target energy {target:.12g} at or outside the spectral edges "
            f"({eps[0]:.12g}, {eps[-1]:.12g})"
        )

    def fs(beta: float) -> tuple[float, float]:
        w = _thermal_weights(eps, beta)
        mean = float(w @ eps)
        return mean - target, -float(w @ (eps - mean) ** 2)

    # the residual's round-off floor: the weights sum to 1, so the mean is off by eps max |eps_k|
    floor = _EPS4 * (max(abs(float(eps[0])), abs(float(eps[-1]))) + abs(target))
    beta = _energy_matching_root(fs, floor=floor)
    w = _thermal_weights(eps, beta)
    omega = (es.vectors * w) @ es.vectors.conj().T
    return omega, float(beta)


@dataclass(frozen=True)
class ConservedSet:
    """Observables with target expectation values."""

    observables: tuple[np.ndarray, ...]
    targets: tuple[float, ...]

    def __post_init__(self):
        self._set(_require_hermitian_all(self.observables, "observable {i}"), self.targets)

    def _set(self, obs, targets) -> None:
        """The fields from validated observables: one target each, a common shape, finite targets."""
        obs, tgt = tuple(obs), tuple(float(t) for t in targets)
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
        obs = _checked(observables, r, "observable {i}")
        conserved = cls.__new__(cls)
        conserved._set(obs, [_expectation(r, q) for q in obs])
        return conserved

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
    after 300 steps.  The Hessian of ln Z is the covariance matrix of
    X = (-H, Q_1, ...) built from the first divided differences of the
    exponential; each step solves it plus the ridge 1e-12 max(1, max diag),
    which is positive definite.  If some sum_a c_a X_a is proportional to I,
    ln Z is flat along c: such c (the null space of Tr(X_a X_b) -
    Tr X_a Tr X_b / d, X at unit norm, cut 1e-10) are found once and every
    step drops its part along them, so the dual point is canonical.

    Each step is backtracked from the full step, halving alpha down to
    1e-12.  A candidate is accepted by the Armijo test
    phi(cand) <= phi + 1e-4 alpha (grad . step), or when its gradient
    sup-norm is at most half the current one: near the optimum the Armijo
    decrease (about 1e-4 |grad|^2) is below the round-off of ln Z.  When no
    candidate is accepted the iteration stops without moving, and the state
    is returned only if every residual is within 1e-8.
    """
    r = check_state(rho)
    h = _hamiltonian(hamiltonian, r)
    es = _eigh(h)
    if conserved.q and conserved.observables[0].shape != h.shape:
        raise ValueError("conserved observables must match the Hamiltonian dimension")

    omega, beta0 = _gibbs(r, es)
    if conserved.q == 0:
        return omega, DualPoint(beta=beta0, lambdas=())

    e_target = _expectation(r, h)
    operators = [-h] + list(conserved.observables)
    consts = np.array([-e_target] + list(conserved.targets))

    theta = np.r_[beta0, np.zeros(conserved.q)]
    # an orthonormal basis of the flat directions c (see Notes); a zero X_a keeps norm 1
    flat = np.array([x.ravel() for x in operators])
    gram, tr = (flat.conj() @ flat.T).real, flat[:, ::len(h) + 1].sum(axis=1).real
    norm = np.sqrt(np.diag(gram)) + (np.diag(gram) == 0.0)
    vals, vecs = np.linalg.eigh((gram - np.outer(tr, tr) / len(h)) / np.outer(norm, norm))
    null = np.linalg.qr(vecs[:, vals <= 1e-10] / norm[:, None])[0]

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
        step = np.linalg.solve(hess + ridge * np.eye(m), -grad)
        step -= null @ (null.T @ step)
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
            raise ValueError("dual divergence: |(beta, lambda)| exceeded 1e+04 (targets at the boundary "
                             f"of the attainable set; worst residual {float(np.max(np.abs(grad))):.3e})")

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
    return 0.0 - float(np.sum(_xlogx(p)))       # +0.0, not -0.0, when pure


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
    labels = cluster_degenerate(es.values, tol)
    b = es.vectors.conj().T @ r @ es.vectors
    pops = [np.linalg.eigvalsh(_hermitian_part(b[np.ix_(labels == k, labels == k)]))
            for k in range(labels[-1] + 1)]
    return not any(float(lower.min()) < float(upper.max()) - tol for lower, upper in zip(pops, pops[1:]))


def passive_rearrangement(rho, hamiltonian) -> np.ndarray:
    """State with the spectrum of ``rho`` arranged non-increasingly along the
    ascending energy eigenbasis; the minimum-energy point of the unitary
    orbit of ``rho``."""
    r, es = _prologue(rho, hamiltonian)
    p = np.linalg.eigvalsh(r)[::-1]
    return (es.vectors * p) @ es.vectors.conj().T


def _evolve(r: np.ndarray, es, t: float) -> np.ndarray:
    u = (es.vectors * np.exp(-1j * float(t) * es.values)) @ es.vectors.conj().T
    return u @ r @ u.conj().T


def _entropy_matching_beta(eps: np.ndarray, entropy: float) -> float | None:
    """Positive inverse temperature at which the thermal state of the
    ascending energies ``eps`` has the given entropy, or None when no such
    beta exists (entropy above ln d, or at or below the ground-degeneracy
    floor, probed at beta = 1e8).  For beta > 0 the entropy falls with slope
    -beta Var_beta(H); the root is bracketed from [0, 1]."""
    s0 = float(entropy)
    if not np.isfinite(s0):
        raise ValueError(f"entropy must be finite, got {entropy!r}")

    def fs(beta: float) -> tuple[float, float]:
        w = _thermal_weights(eps, beta)
        return -float(np.sum(_xlogx(w))) - s0, -beta * float(w @ (eps - w @ eps) ** 2)

    f0 = fs(0.0)[0]
    if f0 == 0.0:
        return 0.0
    if s0 > np.log(eps.size) + 1e-12 or f0 < 0.0 or fs(1e8)[0] >= 0.0:
        return None
    return float(_energy_matching_root(fs, lo=0.0, hi=1.0))


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
    c = require_hermitian(coefficients, name="coefficient matrix")
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
    g = require_hermitian(gamma, name="correlation matrix")
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
