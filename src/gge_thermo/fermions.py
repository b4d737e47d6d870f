"""Quadratic fermion Hamiltonians and Gaussian states via correlation
matrices.

Conventions
-----------
A particle-number conserving Hamiltonian is specified by a Hermitian
coefficient matrix ``c``::

    H = sum_ij c[i, j] a_i^dag a_j,        c = A diag(eps) A^dag

The columns of ``A`` are the normal modes, with single-particle energies
``eps`` sorted ascending.  States enter only through the correlation matrix

    gamma[i, j] = <a_i^dag a_j>

whose mode-basis form is ``gamma_eta = A.T @ gamma @ A.conj()``; its real
diagonal holds the mode populations ``p_k``.  The mean energy is
``sum_ij c[i, j] * gamma[i, j]`` and, for a Gaussian state, the entropy is
the sum of binary entropies of the eigenvalues of ``gamma``.

Equilibration maps
------------------
``Exact(hold_min, hold_max=None, seed=0)``
    Unitary evolution for a hold time drawn uniformly from
    ``[hold_min, hold_max]`` after every quench; ``Exact(t)`` holds for
    exactly ``t``.  Spectrum preserving.
``TimeAverageGGE``
    Dephasing in the instantaneous mode basis, keeping the block of each
    degenerate single-particle level.  For quadratic Hamiltonians the
    infinite-time averaged correlation matrix and the maximum-entropy state
    preserving every conserved quadratic charge (the mode populations and,
    inside a degenerate level, its block) coincide, so one tag covers both.
    Its entropy is the Gaussian maximum entropy, not the von Neumann entropy
    of the pinched many-body state, which has the same correlation matrix but
    after a generic quench is not Gaussian, so S_TA <= S_GGE, generically
    strictly (Rigol et al., PRL 98, 050405 (2007)).
``Gibbs``
    Fermi-Dirac state at the inverse temperature fixed by conserving the
    mean energy.

Initial states need not be Gaussian: every map consumes and produces only
correlation matrices, so any state with the same second moments gives the
same work accounting.

Every state is one ``_ModeState``: in the modes of a Hamiltonian, or on the
sites for a correlation matrix as given (a run's step 0).  It is the dense
back end's eigenbasis state ``hermitian._EigenState`` in the conjugate basis
A^*, so both back ends share one ``quench`` (the one transport rule),
``evolve``, ``dephase`` and ``thermalise`` (here on Fermi weights), the three
maps of the runner and the public maps alike.  Its ``of`` builds every site
state and names a NaN or non-Hermitian matrix.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .hermitian import (_check_spectrum, _eigh, _EigenState, _fermi, _Hamiltonian, _hermitian_dtype, _xlogx,
                        require_hermitian)

__all__ = [
    "QuadraticHamiltonian",
    "Exact",
    "TimeAverageGGE",
    "Gibbs",
    "GGE",
    "GIBBS",
    "as_hamiltonian",
    "build_chain",
    "to_mode_basis",
    "from_mode_basis",
    "gibbs_correlation",
    "solve_beta",
    "evolve_exact",
    "dephase_gge",
    "energy",
    "entropy_gaussian",
    "work_of_quench",
]


class QuadraticHamiltonian(_Hamiltonian):
    """Particle-number conserving quadratic Hamiltonian.

    The Hamiltonian record of ``hermitian`` for the coefficient matrix ``c``: the public
    constructor checks and decomposes it at once; a builder's trusted records are decomposed
    by the state's ``schedule``, or on first use (a schedule's step 0).
    """

    __slots__ = ()

    def __init__(self, coefficients):
        c = require_hermitian(coefficients, name="coefficient matrix")
        if not c.size:
            raise ValueError("coefficient matrix has shape (0, 0): a Hamiltonian needs at least one mode")
        super().__init__(c, _eigh(c))

    @property
    def c(self) -> np.ndarray:
        return self.h

    @property
    def n(self) -> int:
        return self.h.shape[0]

    @property
    def energies(self) -> np.ndarray:
        """Single-particle energies, ascending."""
        return self.es.values

    @property
    def modes(self) -> np.ndarray:
        """Unitary of normal modes (columns), matching :attr:`energies`."""
        return self.es.vectors

    def __repr__(self) -> str:  # pragma: no cover
        return f"QuadraticHamiltonian(n={self.n})"


def as_hamiltonian(obj) -> QuadraticHamiltonian:
    """Pass through a QuadraticHamiltonian or wrap a coefficient matrix."""
    if isinstance(obj, QuadraticHamiltonian):
        return obj
    return QuadraticHamiltonian(obj)


@dataclass(frozen=True)
class Exact:
    """Unitary evolution for a hold time drawn uniformly from
    [hold_min, hold_max] (finite) after every quench; ``Exact(t)`` holds for
    exactly ``t``.

    Each run starts a fresh PCG64 stream from ``seed`` (an int >= 0 or a
    ``numpy.random.SeedSequence``) and draws one hold per step, in step
    order, so a run is reproducible from the model alone.  A fixed hold
    needs no stream: ``uniform(t, t)`` is ``t`` bit for bit.
    """

    hold_min: float
    hold_max: float | None = None
    seed: int | np.random.SeedSequence = 0

    def __post_init__(self):
        if self.hold_max is None:
            object.__setattr__(self, "hold_max", self.hold_min)
        if not all(isinstance(h, numbers.Real) for h in (self.hold_min, self.hold_max)):
            raise ValueError(f"hold times must be real numbers, got {self.hold_min!r}, {self.hold_max!r}")
        if not (np.isfinite(self.hold_min) and np.isfinite(self.hold_max)):
            raise ValueError(f"hold times must be finite, got {self.hold_min!r}, {self.hold_max!r}")
        if self.hold_min > self.hold_max:
            raise ValueError("hold_min must not exceed hold_max")
        if not isinstance(self.seed, np.random.SeedSequence) and not (
                isinstance(self.seed, (int, np.integer)) and self.seed >= 0):
            raise ValueError(f"seed must be an int >= 0 or a SeedSequence, got {self.seed!r}")


@dataclass(frozen=True)
class TimeAverageGGE:
    """Dephasing in the instantaneous mode basis, keeping degenerate blocks; its entropy is the Gaussian
    maximum entropy of the dephased correlation matrix, generically above the pinched state's (dense)."""


@dataclass(frozen=True)
class Gibbs:
    """Fermi-Dirac state at the energy-matching inverse temperature."""


GGE = TimeAverageGGE()
GIBBS = Gibbs()


def build_chain(n: int, eps, g: float) -> QuadraticHamiltonian:
    """Open chain with on-site energies ``eps`` and hopping ``g``."""
    if n < 1:
        raise ValueError("n must be at least 1")
    eps = np.asarray(eps, dtype=float)
    if eps.shape != (n,):
        raise ValueError(f"eps must have length {n}, got shape {eps.shape}")
    c = np.zeros((n, n))
    np.fill_diagonal(c, eps)
    for i in range(n - 1):
        c[i, i + 1] = g
        c[i + 1, i] = g
    return QuadraticHamiltonian(c)


def _as_checked(matrix, name: str) -> np.ndarray:
    """``matrix``, finite and Hermitian within ``STATE_ATOL``, as given (not symmetrised)
    in the dtype :func:`require_hermitian` keeps: float64 when it is real."""
    require_hermitian(matrix, name=name)
    return _hermitian_dtype(matrix)


def to_mode_basis(gamma, ham: QuadraticHamiltonian) -> np.ndarray:
    """gamma_eta = A.T @ gamma @ A.conj(), for ``ham`` or its coefficient matrix."""
    state, ham = _ModeState.prologue(gamma, ham)
    return state.quench(ham).b


def from_mode_basis(gamma_eta, ham: QuadraticHamiltonian) -> np.ndarray:
    """Inverse of :func:`to_mode_basis`: gamma = A.conj() @ gamma_eta @ A.T.
    ``gamma_eta`` must be finite and Hermitian within ``STATE_ATOL``; it is used as given."""
    g = _as_checked(gamma_eta, "mode-basis correlation matrix")
    ham = _ModeState(None, g).schedule([ham])[0]
    return _ModeState(ham, g).matrix()


class _ModeState(_EigenState):
    """Gaussian state: ``hermitian._EigenState`` in the basis A^* of the modes A of ``ham``,
    so the correlation matrix A^* b A^T, or on the sites when ``ham`` is None; with the
    gaussian checks, spectrum, site energy, dephasing duals and Fermi weights."""

    __slots__ = ()
    backend = "gaussian"
    _conjugate = True
    _record = QuadraticHamiltonian
    _name, _label = "coefficient matrix", "correlation matrix"

    @classmethod
    def of(cls, gamma) -> "_ModeState":
        """The correlation matrix ``gamma`` as a state on the sites: finite and Hermitian
        within ``STATE_ATOL``, kept as given."""
        return cls(None, _as_checked(gamma, "correlation matrix"))

    @staticmethod
    def listed(hams: list) -> list:     # what ProtocolRecord.hamiltonians holds
        return hams

    def spectrum(self) -> np.ndarray:
        """The populations or the symmetrised matrix's spectrum, checked by :func:`_check_spectrum`."""
        b = self.b
        return _check_spectrum(b if b.ndim == 1 else np.linalg.eigvalsh(0.5 * (b + b.conj().T)))

    @staticmethod
    def entropies(d: np.ndarray) -> np.ndarray:
        """Binary-entropy sum of each checked spectrum (a row of ``d``, or ``d``), clipped to [0, 1]."""
        d = np.clip(d, 0.0, 1.0)
        return 0.0 - np.sum(_xlogx(d) + _xlogx(1.0 - d), axis=-1)     # +0.0, not -0.0, when pure

    def _site_energy(self, ham: QuadraticHamiltonian) -> float:
        """Mean energy sum c[i, j] g[i, j] of the correlation matrix g on the sites."""
        return float(np.sum(ham.c * self.b).real)

    def dephase(self, ham: QuadraticHamiltonian):
        """Time average in the modes of ``ham`` (the pinching, which keeps each degenerate
        level's block); duals log((1-p)/p) of the populations p, the block's diagonal
        on a degenerate level."""
        state = _EigenState.dephase(self, ham)[0]
        p = np.clip(state.p, 0.0, 1.0)
        with np.errstate(divide="ignore"):
            lam = np.log((1.0 - p) / p)
        return state, tuple(lam.tolist())

    @staticmethod
    def _weights(eps: np.ndarray, beta: float) -> np.ndarray:     # Fermi-Dirac populations
        return _fermi(beta * eps)

    @staticmethod
    def _moments(eps: np.ndarray, p: np.ndarray) -> tuple[float, float]:
        return float(eps @ p), float((eps * eps) @ (p * (1.0 - p)))

    @staticmethod
    def _range(eps: np.ndarray) -> tuple[float, float, float]:     # populations in (0, 1); sum |eps_k|
        lo, hi = float(np.minimum(eps, 0.0).sum()), float(np.maximum(eps, 0.0).sum())
        return lo, hi, hi - lo


def gibbs_correlation(ham: QuadraticHamiltonian, beta: float) -> np.ndarray:
    """Correlation matrix of the thermal state at inverse temperature ``beta``.

    For a quadratic Hamiltonian the thermal state is Gaussian with
    Fermi-Dirac mode occupations p_k = 1 / (1 + exp(beta * eps_k)); no
    approximation is involved.  ``beta`` may be any real number: negative for
    population-inverted diagnostics, +-inf for the ground-state and fully
    inverted limits (a zero-energy mode stays half filled).  A NaN raises.
    """
    ham, beta = as_hamiltonian(ham), float(beta)
    if np.isnan(beta):      # _fermi would read it as an empty mode: the vacuum
        raise ValueError(f"beta must be a real number, got {beta}")
    eps = ham.energies      # beta eps is 0 where eps is, also at beta = +-inf (inf * 0 is NaN)
    return _ModeState(ham, _fermi(np.multiply(beta, eps, out=np.zeros_like(eps), where=eps != 0.0))).matrix()


def solve_beta(ham: QuadraticHamiltonian, target_energy: float) -> tuple[float, bool]:
    """Inverse temperature whose thermal state has the given mean energy.

    The energy is strictly decreasing in beta, so bracketed root finding
    (geometric bracket expansion followed by Newton steps safeguarded by
    bisection) cannot fail inside the attainable range; it is the energy match
    of both back ends, ``hermitian._EigenState.energy_beta``, on Fermi weights.

    Returns ``(beta, negative_temperature_flag)``; the flag is set when the
    matched beta is negative, which corresponds to a population-inverted
    target.  An all-zero spectrum matches at beta = 0.

    Raises
    ------
    ValueError
        Target outside the attainable open interval or within round-off of it.
    RuntimeError
        No convergence after bracket expansion (residual reported).
    """
    beta = _ModeState.energy_beta(as_hamiltonian(ham), target_energy)
    return beta, bool(beta < 0.0)


def evolve_exact(gamma, ham: QuadraticHamiltonian, t: float) -> np.ndarray:
    """Correlation matrix after unitary evolution for time ``t``.

    In the mode basis each entry picks up the phase exp(i t (eps_k - eps_l));
    equivalently gamma -> U gamma U^dag with U = A.conj() exp(i t D) A.T.
    """
    state, ham = _ModeState.prologue(gamma, ham)
    return state.quench(ham).evolve(ham, t)[0].matrix()


def dephase_gge(gamma, ham: QuadraticHamiltonian) -> np.ndarray:
    """Drop the coherences between normal modes of different energies, keeping
    populations exactly and the block of each degenerate level.

    This is simultaneously the infinite-time averaged correlation matrix and
    the maximum-entropy state with every conserved quadratic charge held
    fixed.  The mean energy is conserved because only the mode diagonal
    carries energy.
    """
    state, ham = _ModeState.prologue(gamma, ham)
    return state.quench(ham).dephase(ham)[0].matrix()


def energy(gamma, ham: QuadraticHamiltonian) -> float:
    """Mean energy sum_ij c[i, j] * gamma[i, j] (imaginary round-off dropped)."""
    state, ham = _ModeState.prologue(gamma, ham)
    return state.energy(ham)


def entropy_gaussian(gamma) -> float:
    """Entropy (nats) of the Gaussian state with this correlation matrix.

    Eigenvalues must lie in [-1e-6, 1 + 1e-6]; they are clamped to [0, 1]
    before the binary-entropy sum, with 0 log 0 = 0.
    """
    return _ModeState.of(gamma).entropy()


def work_of_quench(gamma, ham_old: QuadraticHamiltonian, ham_new: QuadraticHamiltonian) -> float:
    """Work cost of the quench ham_old -> ham_new on a frozen state.

    Positive values cost energy; negate for the extraction convention.
    """
    return energy(gamma, ham_new) - energy(gamma, ham_old)
