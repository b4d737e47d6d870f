"""Quench schedules, effective evolution under repeated quenches,
quasi-static limits, entropy-production accounting, minimum-work scans and
the optimal work-extraction constructions.

A protocol is a list of Hamiltonians ``H^(0) .. H^(N)``; the state is frozen
across each quench ``H^(m-1) -> H^(m)`` and then equilibrated under
``H^(m)`` according to the chosen model.  Work is recorded with the
extraction sign (positive = work gained), the negation of the quench cost
``Tr(rho (H^(m) - H^(m-1)))``.  Both back ends are supported: ``gaussian``
(n x n correlation matrices) and ``dense`` (d x d density matrices).
"""

from __future__ import annotations

import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg

from . import dense as qd
from . import fermions as fg
from .hermitian import DEGENERACY_TOL, eigh, require_hermitian

__all__ = [
    "Trajectory",
    "StepRecord",
    "ProtocolRecord",
    "ExactDynamics",
    "model_label",
    "hamiltonian_schedule",
    "run_schedule",
    "run_protocol",
    "QuasiStaticResult",
    "quasi_static",
    "optimal_work_bound",
    "optimal_gge_schedule",
    "optimal_gge_protocol",
    "optimal_ta_schedule",
    "optimal_ta_protocol",
    "optimal_gibbs_protocol",
    "restricted_first_quench",
    "passive_trajectory",
    "ScanResult",
    "min_work_scan",
    "thermal_bath_initial_state",
    "build_population_inverted_bath",
    "local_quench_schedule",
]

BACKENDS = ("gaussian", "dense")
_RULES = ("linear", "eigenvalues", "eigenvectors")


# ---------------------------------------------------------------------------
# Trajectories
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Trajectory:
    """Piecewise path of Hamiltonians over u in [0, 1].

    Segments interpolate between consecutive keyframes according to their
    rule:

    ``linear``
        Straight line in coefficient space.
    ``eigenvalues``
        Same as linear but asserts the keyframes commute, so only the
        spectrum moves while the eigenbasis stays put.
    ``eigenvectors``
        Geodesic rotation of the eigenbasis at frozen spectrum,
        U(s) = exp(s log(A_b A_a^dag)) A_a with the principal matrix
        logarithm; keyframes must share their sorted spectra.

    Sampling is deterministic in u and reproduces the keyframes exactly at
    the segment ends.
    """

    keyframes: tuple
    rules: tuple
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        frames = tuple(
            require_hermitian(k, atol=1e-10, name=f"keyframe {i}")
            for i, k in enumerate(self.keyframes)
        )
        if len(frames) < 2:
            raise ValueError("a trajectory needs at least two keyframes")
        dim = frames[0].shape[0]
        for i, f in enumerate(frames):
            if f.shape != (dim, dim):
                raise ValueError(f"keyframe {i} has shape {f.shape}, expected {(dim, dim)}")
        rules = tuple(self.rules)
        if len(rules) != len(frames) - 1:
            raise ValueError(f"{len(frames)} keyframes need {len(frames) - 1} rules, got {len(rules)}")
        for r in rules:
            if r not in _RULES:
                raise ValueError(f"unknown interpolation rule {r!r}; choose from {_RULES}")
        object.__setattr__(self, "keyframes", frames)
        object.__setattr__(self, "rules", rules)

    @classmethod
    def linear(cls, h0, h1) -> "Trajectory":
        return cls((h0, h1), ("linear",))

    @property
    def dim(self) -> int:
        return self.keyframes[0].shape[0]

    def reversed(self) -> "Trajectory":
        return Trajectory(self.keyframes[::-1], self.rules[::-1])

    def _segment_data(self, i: int):
        if i in self._cache:
            return self._cache[i]
        a, b = self.keyframes[i], self.keyframes[i + 1]
        rule = self.rules[i]
        if rule == "eigenvalues":
            scale = max(1.0, float(np.abs(a).max()) * float(np.abs(b).max()))
            defect = float(np.max(np.abs(a @ b - b @ a)))
            if defect > 1e-8 * scale:
                raise ValueError(
                    f"eigenvalue segment {i}: keyframes do not commute (defect {defect:.3e})"
                )
            data = None
        elif rule == "eigenvectors":
            es_a, es_b = eigh(a), eigh(b)
            gap = float(np.max(np.abs(es_a.values - es_b.values)))
            if gap > 1e-8 * max(1.0, float(np.abs(es_a.values).max())):
                raise ValueError(
                    f"eigenvector segment {i}: keyframes must share their spectra "
                    f"(sorted mismatch {gap:.3e})"
                )
            v = es_b.vectors @ es_a.vectors.conj().T
            # Principal logarithm of a unitary via its (diagonal) Schur form.
            t_mat, z = scipy.linalg.schur(v, output="complex")
            log_v = (z * (1j * np.angle(np.diag(t_mat)))) @ z.conj().T
            log_v = 0.5 * (log_v - log_v.conj().T)
            phis, p = np.linalg.eigh(1j * log_v)
            data = (es_a.values, es_a.vectors, phis, p)
        else:
            data = None
        self._cache[i] = data
        return data

    def sample(self, u: float) -> np.ndarray:
        """Hamiltonian at path parameter u."""
        u = float(u)
        if not (-1e-12 <= u <= 1.0 + 1e-12):
            raise ValueError(f"path parameter {u} outside [0, 1]")
        u = min(max(u, 0.0), 1.0)
        nseg = len(self.rules)
        x = u * nseg
        i = min(int(np.floor(x)), nseg - 1)
        s = x - i
        if s <= 0.0:
            return self.keyframes[i].copy()
        if s >= 1.0:
            return self.keyframes[i + 1].copy()
        rule = self.rules[i]
        a, b = self.keyframes[i], self.keyframes[i + 1]
        if rule in ("linear", "eigenvalues"):
            self._segment_data(i)
            return (1.0 - s) * a + s * b
        eps, a_vecs, phis, p = self._segment_data(i)
        rot = (p * np.exp(-1j * s * phis)) @ p.conj().T
        u_s = rot @ a_vecs
        return (u_s * eps) @ u_s.conj().T


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------

@dataclass
class StepRecord:
    """Per-step log entry; ``duals`` holds beta for the thermal map or the
    per-mode multipliers log((1-p)/p) for the dephasing map."""

    step: int
    work_extracted: float
    energy: float
    entropy: float
    duals: tuple | None
    state: np.ndarray | None


@dataclass
class ProtocolRecord:
    """Full log of a quench-equilibrate run."""

    steps: list[StepRecord]
    hamiltonians: list
    model: object
    backend: str
    meta: dict = field(default_factory=dict)

    @property
    def work(self) -> float:
        """Total extracted work, accumulated in step order."""
        return sum(s.work_extracted for s in self.steps)

    @property
    def works(self) -> np.ndarray:
        return np.array([s.work_extracted for s in self.steps])

    @property
    def energies(self) -> np.ndarray:
        return np.array([s.energy for s in self.steps])

    @property
    def entropies(self) -> np.ndarray:
        return np.array([s.entropy for s in self.steps])

    @property
    def entropy_production(self) -> float:
        return self.steps[-1].entropy - self.steps[0].entropy

    @property
    def final_state(self) -> np.ndarray:
        return self.meta["final_state"]

    def dual_jumps(self, threshold: float = 10.0) -> list[int]:
        """Steps whose dual variables jump by more than ``threshold`` in sup
        norm; a heuristic smoothness flag, not a certificate."""
        out = []
        prev = None
        for s in self.steps:
            if s.duals is not None and prev is not None and len(prev) == len(s.duals):
                cur = np.asarray(s.duals, dtype=float)
                old = np.asarray(prev, dtype=float)
                finite = np.isfinite(cur) & np.isfinite(old)
                if finite.any() and float(np.max(np.abs(cur[finite] - old[finite]))) > threshold:
                    out.append(s.step)
            if s.duals is not None:
                prev = s.duals
        return out


@dataclass(frozen=True)
class ExactDynamics:
    """Exact unitary evolution for a random hold time after every quench.

    Each run starts a fresh PCG64 stream from ``seed`` (an int or a
    ``numpy.random.SeedSequence``) and draws one hold time uniformly from
    [hold_min, hold_max] per step, in step order, so a run is reproducible
    from the model alone.
    """

    hold_min: float
    hold_max: float
    seed: int | np.random.SeedSequence = 0

    def __post_init__(self):
        if self.hold_min > self.hold_max:
            raise ValueError("hold_min must not exceed hold_max")


def model_label(model) -> str:
    if isinstance(model, (ExactDynamics, fg.Exact)):
        return "exact"
    if isinstance(model, fg.TimeAverageGGE):
        return "ta-gge"
    if isinstance(model, fg.Gibbs):
        return "gibbs"
    raise TypeError(f"unknown model {model!r}")


# ---------------------------------------------------------------------------
# Back-end dispatch
# ---------------------------------------------------------------------------

def _check_backend(backend: str) -> None:
    if backend not in BACKENDS:
        raise ValueError(f"backend must be one of {BACKENDS}, got {backend!r}")


def _wrap_hams(hamiltonians, backend: str) -> list:
    if backend == "gaussian":
        return [fg.as_hamiltonian(h) for h in hamiltonians]
    return [require_hermitian(h, atol=1e-10, name="Hamiltonian") for h in hamiltonians]


def _energy(state, ham, backend: str) -> float:
    if backend == "gaussian":
        return fg.energy(state, ham)
    return float(np.einsum("ij,ji->", ham, state).real)


def _entropy(state, backend: str) -> float:
    if backend == "gaussian":
        return fg.entropy_gaussian(state)
    return qd.vn_entropy(state)


def _mode_multipliers(populations: np.ndarray) -> tuple:
    with np.errstate(divide="ignore"):
        lam = np.log((1.0 - populations) / populations)
    return tuple(float(x) for x in lam)


def _equilibrate(state, ham, model, backend: str, tol: float):
    if backend == "gaussian":
        if isinstance(model, fg.Exact):
            return fg.evolve_exact(state, ham, model.t), None
        if isinstance(model, fg.TimeAverageGGE):
            new = fg.dephase_gge(state, ham)
            p = np.clip(fg.mode_populations(new, ham), 0.0, 1.0)
            return new, _mode_multipliers(p)
        if isinstance(model, fg.Gibbs):
            beta, _ = fg.solve_beta(ham, fg.energy(state, ham))
            return fg.gibbs_correlation(ham, beta), (beta,)
        raise TypeError(f"unknown equilibration model: {model!r}")
    if isinstance(model, fg.Exact):
        return qd.evolve_dense(state, ham, model.t), None
    if isinstance(model, fg.TimeAverageGGE):
        return qd.ta_state(state, ham, tol), None
    if isinstance(model, fg.Gibbs):
        omega, beta = qd.gibbs_state_dense(state, ham)
        return omega, (beta,)
    raise TypeError(f"unknown equilibration model: {model!r}")


# ---------------------------------------------------------------------------
# Protocol runners
# ---------------------------------------------------------------------------

def run_schedule(
    initial_state,
    hamiltonians,
    model,
    *,
    backend: str = "gaussian",
    degeneracy_tol: float = DEGENERACY_TOL,
    keep_states: bool = True,
) -> ProtocolRecord:
    """Quench through the explicit Hamiltonian list, equilibrating after
    every quench according to ``model``.

    Under :class:`ExactDynamics` each step evolves exactly for a hold time
    drawn from the model's own seeded stream."""
    _check_backend(backend)
    hams = _wrap_hams(hamiltonians, backend)
    if not hams:
        raise ValueError("the schedule must contain at least the initial Hamiltonian")
    exact = isinstance(model, ExactDynamics)
    rng = np.random.Generator(np.random.PCG64(model.seed)) if exact else None
    state = np.asarray(initial_state, dtype=complex)
    steps = [
        StepRecord(
            step=0,
            work_extracted=0.0,
            energy=_energy(state, hams[0], backend),
            entropy=_entropy(state, backend),
            duals=None,
            state=state if keep_states else None,
        )
    ]
    for m in range(1, len(hams)):
        try:
            cost = _energy(state, hams[m], backend) - _energy(state, hams[m - 1], backend)
            step_model = model if rng is None else fg.Exact(
                float(rng.uniform(model.hold_min, model.hold_max)))
            state, duals = _equilibrate(state, hams[m], step_model, backend, degeneracy_tol)
            steps.append(
                StepRecord(
                    step=m,
                    work_extracted=-cost,
                    energy=_energy(state, hams[m], backend),
                    entropy=_entropy(state, backend),
                    duals=duals,
                    state=state if keep_states else None,
                )
            )
        except Exception as exc:
            raise RuntimeError(f"step {m}: {exc}") from exc
    return ProtocolRecord(
        steps=steps,
        hamiltonians=hams,
        model=model,
        backend=backend,
        meta={"final_state": state},
    )


def hamiltonian_schedule(traj: Trajectory, n_quenches: int) -> list[np.ndarray]:
    """Equidistant samples H(m / N) for m = 0..N."""
    if n_quenches < 1:
        raise ValueError("need at least one quench")
    return [traj.sample(m / n_quenches) for m in range(n_quenches + 1)]


def run_protocol(
    initial_state,
    traj: Trajectory,
    n_quenches: int,
    model,
    *,
    backend: str = "gaussian",
    degeneracy_tol: float = DEGENERACY_TOL,
    keep_states: bool = True,
) -> ProtocolRecord:
    """Run ``n_quenches`` equidistant quenches along the trajectory."""
    return run_schedule(
        initial_state,
        hamiltonian_schedule(traj, n_quenches),
        model,
        backend=backend,
        degeneracy_tol=degeneracy_tol,
        keep_states=keep_states,
    )


# ---------------------------------------------------------------------------
# Quasi-static limit
# ---------------------------------------------------------------------------

@dataclass
class QuasiStaticResult:
    n_values: tuple[int, ...]
    records: list[ProtocolRecord]
    works: np.ndarray
    entropy_productions: np.ndarray
    work_limit: float | None
    work_error: float | None
    entropy_limit: float | None
    entropy_error: float | None


def _richardson(ns, ys):
    """Eliminate the 1/N term from the last two points; the spread against
    the previous pair estimates the error.  Returns (None, None) when the
    sequence is not monotone."""
    ys = np.asarray(ys, dtype=float)
    ns = np.asarray(ns, dtype=float)
    if ys.size < 2:
        return None, None
    diffs = np.diff(ys)
    slack = 1e-12 * max(1.0, float(np.max(np.abs(ys))))
    if not (np.all(diffs >= -slack) or np.all(diffs <= slack)):
        return None, None

    def pair(i, j):
        return (ns[j] * ys[j] - ns[i] * ys[i]) / (ns[j] - ns[i])

    last = pair(-2, -1)
    prev = pair(-3, -2) if ys.size >= 3 else ys[-1]
    return float(last), float(abs(last - prev))


def quasi_static(
    initial_state,
    traj: Trajectory,
    model,
    n_schedule,
    *,
    backend: str = "gaussian",
    degeneracy_tol: float = DEGENERACY_TOL,
) -> QuasiStaticResult:
    """Run the protocol at each N and extrapolate W and the entropy
    production in 1/N.  Non-monotone sequences are reported raw, without
    extrapolation."""
    ns = [int(n) for n in n_schedule]
    if len(ns) < 3:
        raise ValueError("need at least three N values")
    if any(b <= a for a, b in zip(ns, ns[1:])) or ns[0] < 1:
        raise ValueError("N values must be strictly increasing and at least 1")
    records = [
        run_protocol(initial_state, traj, n, model, backend=backend,
                     degeneracy_tol=degeneracy_tol, keep_states=False)
        for n in ns
    ]
    works = np.array([r.work for r in records])
    dss = np.array([r.entropy_production for r in records])
    w_lim, w_err = _richardson(ns, works)
    s_lim, s_err = _richardson(ns, dss)
    return QuasiStaticResult(
        n_values=tuple(ns),
        records=records,
        works=works,
        entropy_productions=dss,
        work_limit=w_lim,
        work_error=w_err,
        entropy_limit=s_lim,
        entropy_error=s_err,
    )


# ---------------------------------------------------------------------------
# Optimal constructions
# ---------------------------------------------------------------------------

def optimal_work_bound(gamma0, ham0) -> float:
    """Largest work any quench-and-dephase protocol can extract: the initial
    energy minus the anti-ordered pairing of the correlation spectrum with
    the mode energies."""
    ham0 = fg.as_hamiltonian(ham0)
    g = require_hermitian(gamma0, atol=1e-10, name="correlation matrix")
    d = np.linalg.eigvalsh(g)
    floor = float(np.sort(d)[::-1] @ np.sort(ham0.energies))
    return fg.energy(g, ham0) - floor


def _four_phase_schedule(state, ham0, half: int, dephase) -> list:
    """Two legs, each a quench to the state's eigenbasis carrying the
    spectrum of ``ham0`` anti-sorted, then a ``half``-step eigenbasis
    rotation back to ``ham0`` (repeated ``ham0`` if the quench is a no-op).
    The second leg starts from the state ``dephase`` leaves after the first.
    A QuadraticHamiltonian ``ham0`` pairs with a correlation matrix, whose
    modes are the conjugated eigenvectors; a dense one with a density matrix.
    """
    gaussian = isinstance(ham0, fg.QuadraticHamiltonian)
    h0, energies = (ham0.c, ham0.energies) if gaussian else (ham0, np.linalg.eigvalsh(ham0))
    e_desc = np.sort(energies)[::-1]

    def leg(rho) -> list:
        _, w = np.linalg.eigh(0.5 * (rho + rho.conj().T))    # populations ascending
        if gaussian:
            w = w.conj()
        h_from = (w * e_desc) @ w.conj().T
        if np.allclose(h_from, h0, atol=1e-13):
            return [ham0] * (half + 1)
        seg = Trajectory((h_from, h0), ("eigenvectors",))
        out = [h_from] + [seg.sample(j / half) for j in range(1, half)]
        if gaussian:
            out = [fg.QuadraticHamiltonian(h) for h in out]
        return out + [ham0]

    hams = [ham0] + leg(state)
    for h in hams[1:]:
        state = dephase(state, h)
    return hams + leg(state)


def optimal_gge_schedule(gamma0, ham0, n_quenches: int) -> list:
    """Cyclic schedule extracting the maximum work under the dephasing map.

    Four phases: a quench aligning the modes with the state's eigenbasis
    (spectrum assigned anti-sorted), an N/2-step rotation back to the
    original Hamiltonian, an ordering quench rebuilt from the mid-protocol
    state, and a second N/2-step rotation back.
    """
    if n_quenches < 2 or n_quenches % 2:
        raise ValueError("the number of quenches must be even and at least 2")
    ham0 = fg.as_hamiltonian(ham0)
    gamma = np.asarray(gamma0, dtype=complex)
    return _four_phase_schedule(gamma, ham0, n_quenches // 2, fg.dephase_gge)


def optimal_gge_protocol(gamma0, ham0, n_quenches: int, *, keep_states: bool = True) -> ProtocolRecord:
    """Run :func:`optimal_gge_schedule` under the dephasing map."""
    schedule = optimal_gge_schedule(gamma0, ham0, n_quenches)
    record = run_schedule(gamma0, schedule, fg.GGE, backend="gaussian", keep_states=keep_states)
    record.meta["work_bound"] = optimal_work_bound(gamma0, ham0)
    return record


def optimal_ta_schedule(rho0, h0, n_quenches: int, *, degeneracy_tol: float = DEGENERACY_TOL) -> list:
    """Dense counterpart of :func:`optimal_gge_schedule` for the pinching map."""
    if n_quenches < 2 or n_quenches % 2:
        raise ValueError("the number of quenches must be even and at least 2")
    h0 = require_hermitian(h0, atol=1e-10, name="Hamiltonian")
    rho = qd.check_state(rho0)
    return _four_phase_schedule(rho, h0, n_quenches // 2,
                                lambda state, h: qd.ta_state(state, h, degeneracy_tol))


def optimal_ta_protocol(rho0, h0, n_quenches: int, *, degeneracy_tol: float = DEGENERACY_TOL,
                        keep_states: bool = True) -> ProtocolRecord:
    """Cyclic pinching protocol whose final state tends to the passive
    rearrangement of the initial state; work is bounded by the passive gap
    Tr(rho0 H0) - Tr(rearranged H0)."""
    schedule = optimal_ta_schedule(rho0, h0, n_quenches, degeneracy_tol=degeneracy_tol)
    record = run_schedule(rho0, schedule, fg.GGE, backend="dense",
                          degeneracy_tol=degeneracy_tol, keep_states=keep_states)
    target = qd.passive_rearrangement(rho0, schedule[0])
    record.meta["work_bound"] = (
        _energy(np.asarray(rho0, complex), schedule[0], "dense") - _energy(target, schedule[0], "dense")
    )
    return record


def optimal_gibbs_protocol(rho0, h0, k: float, n_quenches: int, *,
                           keep_states: bool = True) -> ProtocolRecord:
    """Thermal-map extraction: quench to k ln(rho0) (k < 0), whose first
    equilibration leaves the state invariant at beta = -1/k, then return to
    the original Hamiltonian quasi-statically in ``n_quenches`` steps.

    The entropy-matching inverse temperature of the return target (when it
    exists) fixes the large-N work limit; its absence is reported in
    ``meta['beta_star'] = None`` and the protocol still runs, with residual
    entropy production.
    """
    if k >= 0:
        raise ValueError("k must be negative")
    if n_quenches < 1:
        raise ValueError("need at least one return quench")
    h0 = require_hermitian(h0, atol=1e-10, name="Hamiltonian")
    rho = qd.check_state(rho0)
    p, w = np.linalg.eigh(rho)
    if float(p.min()) < 1e-12:
        raise ValueError(f"state is singular (smallest eigenvalue {float(p.min()):.3e}); "
                         "the logarithm quench needs full rank")
    h1 = (w * (k * np.log(p))) @ w.conj().T
    schedule = [h0, h1]
    schedule += [(1.0 - j / n_quenches) * h1 + (j / n_quenches) * h0 for j in range(1, n_quenches)]
    schedule.append(h0)
    record = run_schedule(rho, schedule, fg.GIBBS, backend="dense", keep_states=keep_states)
    beta_star = qd.entropy_matching_beta(h0, qd.vn_entropy(rho))
    record.meta["beta_star"] = beta_star
    if beta_star is not None:
        es = eigh(h0, atol=1e-10)
        omega_star = (es.vectors * qd._thermal_weights(es.values, beta_star)) @ es.vectors.conj().T
        record.meta["work_limit"] = (
            _energy(rho, h0, "dense") - _energy(omega_star, h0, "dense")
        )
    return record


def restricted_first_quench(state, family, *, backend: str = "dense",
                            grid_points: int = 33) -> np.ndarray:
    """Pick from a restricted Hamiltonian family the first quench whose
    thermal equilibration leaves the least entropy.

    ``family`` is either an iterable of Hamiltonians (finite scan) or a
    tuple ``(builder, lo, hi)`` with a 1-D parameter interval; the interval
    is scanned on a coarse grid and refined by bounded golden-section
    minimisation around the best bracket.
    """
    _check_backend(backend)

    def entropy_after(h) -> float:
        if backend == "dense":
            omega, _ = qd.gibbs_state_dense(state, h)
            return qd.vn_entropy(omega)
        ham = fg.as_hamiltonian(h)
        beta, _ = fg.solve_beta(ham, fg.energy(state, ham))
        return fg.entropy_gaussian(fg.gibbs_correlation(ham, beta))

    if isinstance(family, tuple) and len(family) == 3 and callable(family[0]):
        builder, lo, hi = family
        lo, hi = float(lo), float(hi)
        if not hi > lo:
            raise ValueError("parameter interval must satisfy lo < hi")
        grid = np.linspace(lo, hi, grid_points)
        values = [entropy_after(builder(x)) for x in grid]
        best = int(np.argmin(values))
        a = grid[max(best - 1, 0)]
        b = grid[min(best + 1, grid_points - 1)]
        from scipy.optimize import minimize_scalar

        res = minimize_scalar(lambda x: entropy_after(builder(x)), bounds=(a, b),
                              method="bounded", options={"xatol": 1e-10})
        x_star = float(res.x) if res.fun <= values[best] else float(grid[best])
        return builder(x_star)

    members = list(family)
    if not members:
        raise ValueError("the Hamiltonian family is empty")
    values = [entropy_after(h) for h in members]
    return members[int(np.argmin(values))]


def passive_trajectory(h0, h1, populations=None) -> Trajectory:
    """Two-segment path whose quasi-static endpoint is passive: first morph
    the eigenvalues (eigenbasis of ``h0`` fixed) to the spectrum of ``h1``,
    ordered against the state's populations, then rotate the eigenbasis to
    that of ``h1`` at frozen spectrum.

    ``populations`` are the state's populations aligned with the ascending
    eigenbasis of ``h0``; omitted, the state is assumed already passive with
    respect to ``h0`` (populations non-increasing in energy).
    """
    es0 = eigh(h0, atol=1e-10)
    es1 = eigh(h1, atol=1e-10)
    if es0.dim != es1.dim:
        raise ValueError(f"dimension mismatch: {es0.dim} vs {es1.dim}")
    n = es0.dim
    if populations is None:
        order = np.arange(n)
    else:
        pops = np.asarray(populations, dtype=float)
        if pops.shape != (n,):
            raise ValueError(f"populations must have length {n}")
        order = np.argsort(-pops, kind="stable")
    e_assign = np.empty(n)
    e_assign[order] = np.sort(es1.values)
    h_mid = (es0.vectors * e_assign) @ es0.vectors.conj().T
    return Trajectory((es0.reconstruct(), h_mid, es1.reconstruct()),
                      ("eigenvalues", "eigenvectors"))


# ---------------------------------------------------------------------------
# Scans
# ---------------------------------------------------------------------------

def _max_workers(explicit=None) -> int:
    if explicit is not None:
        return max(1, int(explicit))
    env = os.environ.get("GGE_THERMO_THREADS")
    if not env:
        return 1
    try:
        workers = int(env)
    except ValueError:
        workers = 0
    if workers < 1:
        warnings.warn(f"GGE_THERMO_THREADS={env!r} is not a positive integer; using 1 thread",
                      RuntimeWarning, stacklevel=3)
        return 1
    return workers


def _parallel_map(fn, items, workers: int):
    if workers <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


@dataclass
class ScanResult:
    n_values: tuple[int, ...]
    model_labels: tuple[str, ...]
    works: np.ndarray            # (models, n_values), NaN on failure
    verdicts: dict
    failures: dict

    def table(self):
        header = ["N"] + [f"W_{label.replace('-', '_')}" for label in self.model_labels]
        rows = [
            [n] + [self.works[i, j] for i in range(len(self.model_labels))]
            for j, n in enumerate(self.n_values)
        ]
        return header, rows


def _monotone_verdict(works: np.ndarray) -> str:
    valid = works[np.isfinite(works)]
    if valid.size < 2:
        return "insufficient data"
    slack = 1e-9 * max(1.0, float(np.max(np.abs(valid))))
    if np.all(np.diff(valid) >= -slack):
        return "non-decreasing"
    return "violated"


def min_work_scan(
    initial_state,
    traj: Trajectory,
    models,
    n_list,
    seed,
    *,
    backend: str = "gaussian",
    threads=None,
    degeneracy_tol: float = DEGENERACY_TOL,
) -> ScanResult:
    """Work per (N, model) over a fixed trajectory, with a monotonicity
    verdict per model.  Cells run independently (optionally in parallel,
    capped by GGE_THERMO_THREADS); failures are recorded and the scan
    continues.  Exact cells draw their hold times from per-cell seeds, so
    results do not depend on scheduling."""
    _check_backend(backend)
    models = list(models)
    ns = [int(n) for n in n_list]
    if not models or not ns:
        raise ValueError("need at least one model and one N")
    labels = tuple(model_label(m) for m in models)

    def cell(args):
        i, j = args
        model, n = models[i], ns[j]
        try:
            if isinstance(model, ExactDynamics):
                model = replace(model, seed=np.random.SeedSequence(int(seed), spawn_key=(i, n)))
            rec = run_protocol(initial_state, traj, n, model, backend=backend,
                               degeneracy_tol=degeneracy_tol, keep_states=False)
            return (i, j, rec.work, None)
        except Exception as exc:
            return (i, j, float("nan"), f"{type(exc).__name__}: {exc}")

    pairs = [(i, j) for i in range(len(models)) for j in range(len(ns))]
    results = _parallel_map(cell, pairs, _max_workers(threads))
    works = np.full((len(models), len(ns)), np.nan)
    failures = {}
    for i, j, w, err in results:
        works[i, j] = w
        if err is not None:
            failures[(labels[i], ns[j])] = err
    verdicts = {labels[i]: _monotone_verdict(works[i]) for i in range(len(models))}
    return ScanResult(
        n_values=tuple(ns),
        model_labels=labels,
        works=works,
        verdicts=verdicts,
        failures=failures,
    )


# ---------------------------------------------------------------------------
# Chain initial states and local-quench schedules
# ---------------------------------------------------------------------------

def _compose_system_bath(system_occupation: float, gamma_bath: np.ndarray) -> np.ndarray:
    n = 1 + gamma_bath.shape[0]
    gamma = np.zeros((n, n), dtype=complex)
    gamma[0, 0] = float(system_occupation)
    gamma[1:, 1:] = gamma_bath
    return gamma


def thermal_bath_initial_state(
    n: int,
    beta: float,
    *,
    g: float,
    eps_bulk: float = 1.0,
    system_occupation: float = 0.1,
) -> np.ndarray:
    """Product of a single populated system site with a thermal bath chain
    on the remaining n-1 sites (bath hopping ``g``, no system-bath
    coherences)."""
    if n < 2:
        raise ValueError("need at least two sites")
    bath = fg.build_chain(n - 1, [eps_bulk] * (n - 1), g)
    return _compose_system_bath(system_occupation, fg.gibbs_correlation(bath, beta))


def build_population_inverted_bath(
    n: int,
    K: int,
    *,
    g: float = 0.5,
    eps_bulk: float = 1.0,
    system_occupation: float = 0.1,
) -> np.ndarray:
    """Product of the system site with a bath whose K most energetic modes
    are fully occupied and the rest empty (a population-inverted bath no
    thermal state could produce)."""
    if n < 2:
        raise ValueError("need at least two sites")
    if not 0 <= K < n:
        raise ValueError(f"K must satisfy 0 <= K < n, got K={K}, n={n}")
    bath = fg.build_chain(n - 1, [eps_bulk] * (n - 1), g)
    p = np.zeros(n - 1)
    if K:
        p[-K:] = 1.0
    gamma_bath = fg.from_mode_basis(np.diag(p.astype(complex)), bath)
    return _compose_system_bath(system_occupation, gamma_bath)


def local_quench_schedule(ham0, eps1_peak: float, n_quenches: int) -> list:
    """First quench of the site-0 energy to ``eps1_peak``, then N-1
    equidistant quenches back to the starting Hamiltonian (cyclic for
    N >= 2)."""
    ham0 = fg.as_hamiltonian(ham0)
    if n_quenches < 1:
        raise ValueError("need at least one quench")
    eps1_init = float(ham0.c[0, 0].real)
    if n_quenches == 1:
        values = [float(eps1_peak)]
    else:
        values = [
            float(eps1_peak) + j * (eps1_init - float(eps1_peak)) / (n_quenches - 1)
            for j in range(n_quenches)
        ]
    hams = [ham0]
    for v in values:
        c = ham0.c.copy()
        c[0, 0] = v
        hams.append(fg.QuadraticHamiltonian(c))
    if n_quenches >= 2:
        hams[-1] = ham0
    return hams
