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
    Dephasing in the instantaneous mode basis.  For quadratic Hamiltonians
    the infinite-time averaged correlation matrix and the maximum-entropy
    state preserving all mode populations coincide, so one tag covers both.
``Gibbs``
    Fermi-Dirac state at the inverse temperature fixed by conserving the
    mean energy.

Initial states need not be Gaussian: every map consumes and produces only
correlation matrices, so any state with the same second moments gives the
same work accounting.

Every state is one ``_ModeState``: in the modes of a Hamiltonian, or on the
sites for a correlation matrix as given (a run's step 0).  Its ``quench`` is
the one transport rule.  ``_site`` builds the runner's initial state and the
site state of every public map, and names a NaN or non-Hermitian matrix.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .hermitian import (_EPS4, EigenSystem, _check_spectrum, _eigh, _eigh_all, _energy_matching_root, _fermi,
                        _fix_phases, _hermitian_part, _require_hermitian_all, _xlogx, require_hermitian)

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
    "attainable_energy_range",
    "solve_beta",
    "evolve_exact",
    "dephase_gge",
    "energy",
    "entropy_gaussian",
    "work_of_quench",
]


class QuadraticHamiltonian:
    """Particle-number conserving quadratic Hamiltonian.

    The eigendecomposition of the coefficient matrix is computed once at
    construction and reused by every map that needs the normal modes.
    """

    __slots__ = ("c", "eig")

    def __init__(self, coefficients):
        self.c = _nonempty([require_hermitian(coefficients, name="coefficient matrix")])[0]
        self.eig = _eigh(self.c)

    @classmethod
    def _of(cls, es: EigenSystem) -> "QuadraticHamiltonian":
        """Trusted, from an eigensystem: modes its phase-fixed U, c = U diag(eps) U^dag."""
        ham = cls.__new__(cls)
        ham.c, ham.eig = _hermitian_part(es.reconstruct()), EigenSystem(es.values, _fix_phases(es.vectors))
        return ham

    @property
    def n(self) -> int:
        return self.c.shape[0]

    @property
    def energies(self) -> np.ndarray:
        """Single-particle energies, ascending."""
        return self.eig.values

    @property
    def modes(self) -> np.ndarray:
        """Unitary of normal modes (columns), matching :attr:`energies`."""
        return self.eig.vectors

    def __repr__(self) -> str:  # pragma: no cover
        return f"QuadraticHamiltonian(n={self.n})"


def _nonempty(cs: list[np.ndarray]) -> list[np.ndarray]:
    """Checked coefficient matrices, rejected when one has no mode (is 0 x 0)."""
    if not all(c.size for c in cs):
        raise ValueError("coefficient matrix has shape (0, 0): a Hamiltonian needs at least one mode")
    return cs


def as_hamiltonian(obj) -> QuadraticHamiltonian:
    """Pass through a QuadraticHamiltonian or wrap a coefficient matrix."""
    if isinstance(obj, QuadraticHamiltonian):
        return obj
    return QuadraticHamiltonian(obj)


def _hamiltonians(objs) -> list[QuadraticHamiltonian]:
    """:func:`as_hamiltonian` of each entry, checking and decomposing the matrices in stacked calls."""
    hams = list(objs)
    at = [i for i, h in enumerate(hams) if not isinstance(h, QuadraticHamiltonian)]
    cs = _nonempty(_require_hermitian_all([hams[i] for i in at], "coefficient matrix"))
    for i, c, es in zip(at, cs, _eigh_all(cs)):
        hams[i] = ham = QuadraticHamiltonian.__new__(QuadraticHamiltonian)
        ham.c, ham.eig = c, es
    return hams


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
    """Dephasing in the instantaneous mode basis."""


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


def _check_dims(gamma: np.ndarray, ham: QuadraticHamiltonian) -> None:
    if gamma.shape != (ham.n, ham.n):
        raise ValueError(
            f"dimension mismatch: correlation matrix {gamma.shape} vs Hamiltonian n={ham.n}"
        )


def _as_checked(matrix, name: str) -> np.ndarray:
    """``matrix``, finite and Hermitian within ``STATE_ATOL``, as given (not symmetrised)
    in the dtype :func:`require_hermitian` keeps: float64 when it is real."""
    real = np.isrealobj(require_hermitian(matrix, name=name))
    m = np.asarray(matrix)
    return m.real.astype(float, copy=False) if real else m.astype(complex, copy=False)


def _site(gamma, ham: QuadraticHamiltonian | None = None) -> "_ModeState":
    """The correlation matrix ``gamma`` as a state on the sites: finite and Hermitian
    within ``STATE_ATOL``, kept as given, and sized for ``ham`` when one is given."""
    g = _as_checked(gamma, "correlation matrix")
    if ham is not None:
        _check_dims(g, ham)
    return _ModeState(None, g)


def to_mode_basis(gamma, ham: QuadraticHamiltonian) -> np.ndarray:
    """gamma_eta = A.T @ gamma @ A.conj()."""
    return _site(gamma, ham).quench(ham).g


def from_mode_basis(gamma_eta, ham: QuadraticHamiltonian) -> np.ndarray:
    """Inverse of :func:`to_mode_basis`: gamma = A.conj() @ gamma_eta @ A.T.
    ``gamma_eta`` must be finite and Hermitian within ``STATE_ATOL``; it is used as given."""
    g = _as_checked(gamma_eta, "mode-basis correlation matrix")
    _check_dims(g, ham)
    return _ModeState(ham, g).matrix()


class _ModeState(NamedTuple):
    """Gaussian state in the modes of ``ham``, A.conj() @ g @ A.T, with g its
    matrix there or, for a state diagonal there, its populations p; or on
    the sites when ``ham`` is None, with g the correlation matrix."""

    ham: QuadraticHamiltonian | None
    g: np.ndarray

    @property
    def p(self) -> np.ndarray:
        return self.g if self.g.ndim == 1 else self.g.diagonal().real

    def matrix(self) -> np.ndarray:
        g = self.g if self.g.ndim == 2 else np.diag(self.g)
        return g if self.ham is None else self.ham.modes.conj() @ g @ self.ham.modes.T

    def entropy(self) -> float:
        """Binary-entropy sum over the populations or the symmetrised matrix's
        spectrum, checked by :func:`_check_spectrum` and clipped to [0, 1]."""
        g = self.g
        d = g if g.ndim == 1 else np.linalg.eigvalsh(0.5 * (g + g.conj().T))
        d = np.clip(_check_spectrum(d), 0.0, 1.0)
        return 0.0 - float(np.sum(_xlogx(d) + _xlogx(1.0 - d)))     # +0.0, not -0.0, when pure

    def energy(self, ham: QuadraticHamiltonian) -> float:
        """Mean energy: sum c[i, j] g[i, j] on the sites, else eps . p in the modes of ``ham``."""
        if self.ham is None:
            return float(np.sum(ham.c * self.g).real)
        return float(ham.energies @ self.quench(ham).p)

    def quench(self, ham: QuadraticHamiltonian) -> "_ModeState":
        """Frozen across the quench to ``ham`` (itself under its own): with O = A'^T A^*,
        or A'^T from the sites, populations go to |O|^2 p and a matrix to O g O^dag.
        O is real when both mode sets are, and |O|^2 is then O * O."""
        if ham is self.ham:
            return self
        o = ham.modes.T if self.ham is None else ham.modes.T @ self.ham.modes.conj()
        if self.g.ndim == 1:
            o2 = o * o if np.isrealobj(o) else o.real * o.real + o.imag * o.imag
            return _ModeState(ham, o2 @ self.g)
        if np.isrealobj(o) and np.iscomplexobj(self.g):
            # a real O acts on real and imaginary parts alike: two real products
            # on the interleaved float view instead of two complex ones
            h = (o @ np.ascontiguousarray(self.g).view(float)).view(complex)
            return _ModeState(ham, (o @ np.ascontiguousarray(h.T).view(float)).view(complex).T)
        return _ModeState(ham, o @ self.g @ o.conj().T)


def _evolve(state: _ModeState, ham: QuadraticHamiltonian, t: float) -> _ModeState:
    """Hold of a matrix state in the modes of ``ham``: g[k, l] picks up exp(i t (eps_k - eps_l))."""
    phase = np.exp(1j * float(t) * ham.energies)
    return _ModeState(ham, state.g * np.outer(phase, phase.conj()))


def _dephase(state: _ModeState, ham: QuadraticHamiltonian):
    """Time average in the modes of ``ham``: the populations p, duals log((1-p)/p)."""
    p = np.clip(state.p, 0.0, 1.0)
    with np.errstate(divide="ignore"):
        lam = np.log((1.0 - p) / p)
    return _ModeState(ham, state.p), tuple(lam.tolist())


def _thermalise(state: _ModeState, ham: QuadraticHamiltonian):
    """Thermal state of ``ham`` at the mean energy of ``state``; dual beta."""
    beta, _ = solve_beta(ham, state.energy(ham))
    return _ModeState(ham, _fermi(beta * ham.energies)), (beta,)


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


def attainable_energy_range(ham: QuadraticHamiltonian) -> tuple[float, float]:
    """Open interval of mean energies reachable with mode occupations in (0, 1)."""
    eps = as_hamiltonian(ham).energies
    return float(np.minimum(eps, 0.0).sum()), float(np.maximum(eps, 0.0).sum())


def solve_beta(ham: QuadraticHamiltonian, target_energy: float) -> tuple[float, bool]:
    """Inverse temperature whose thermal state has the given mean energy.

    The energy is strictly decreasing in beta, so bracketed root finding
    (geometric bracket expansion followed by Newton steps safeguarded by
    bisection) cannot fail inside the attainable range.

    Returns ``(beta, negative_temperature_flag)``; the flag is set when the
    matched beta is negative, which corresponds to a population-inverted
    target.

    Raises
    ------
    ValueError
        Target outside the attainable open interval.
    RuntimeError
        No convergence after bracket expansion (residual reported).
    """
    ham = as_hamiltonian(ham)
    eps = ham.energies
    lo_e, hi_e = attainable_energy_range(ham)
    t = float(target_energy)
    if not (lo_e < t < hi_e):
        raise ValueError(
            f"target energy {t:.12g} outside the attainable open interval "
            f"({lo_e:.12g}, {hi_e:.12g})"
        )

    eps2 = eps * eps

    def fs(beta: float) -> tuple[float, float]:
        p = _fermi(beta * eps)
        return float(eps @ p) - t, -float(eps2 @ (p * (1.0 - p)))

    # the residual's round-off floor: hi_e - lo_e is sum |eps_k|
    beta = _energy_matching_root(fs, floor=_EPS4 * (hi_e - lo_e + abs(t)))
    return float(beta), bool(beta < 0.0)


def evolve_exact(gamma, ham: QuadraticHamiltonian, t: float) -> np.ndarray:
    """Correlation matrix after unitary evolution for time ``t``.

    In the mode basis each entry picks up the phase exp(i t (eps_k - eps_l));
    equivalently gamma -> U gamma U^dag with U = A.conj() exp(i t D) A.T.
    """
    ham = as_hamiltonian(ham)
    return _evolve(_site(gamma, ham).quench(ham), ham, t).matrix()


def dephase_gge(gamma, ham: QuadraticHamiltonian) -> np.ndarray:
    """Drop all coherences between normal modes, keeping populations exactly.

    This is simultaneously the infinite-time averaged correlation matrix and
    the maximum-entropy state with every mode population held fixed.  The
    mean energy is conserved because only the mode diagonal carries energy.
    """
    ham = as_hamiltonian(ham)
    return _dephase(_site(gamma, ham).quench(ham), ham)[0].matrix()


def energy(gamma, ham: QuadraticHamiltonian) -> float:
    """Mean energy sum_ij c[i, j] * gamma[i, j] (imaginary round-off dropped)."""
    ham = as_hamiltonian(ham)
    return _site(gamma, ham).energy(ham)


def entropy_gaussian(gamma) -> float:
    """Entropy (nats) of the Gaussian state with this correlation matrix.

    Eigenvalues must lie in [-1e-6, 1 + 1e-6]; they are clamped to [0, 1]
    before the binary-entropy sum, with 0 log 0 = 0.
    """
    return _site(gamma).entropy()


def work_of_quench(gamma, ham_old: QuadraticHamiltonian, ham_new: QuadraticHamiltonian) -> float:
    """Work cost of the quench ham_old -> ham_new on a frozen state.

    Positive values cost energy; negate for the extraction convention.
    """
    return energy(gamma, ham_new) - energy(gamma, ham_old)
