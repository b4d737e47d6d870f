"""Quench schedules, effective evolution under repeated quenches,
entropy-production accounting, the minimum-work sweep, the quasi-static
limit and the optimal work-extraction constructions.

A protocol is a list of Hamiltonians ``H^(0) .. H^(N)``; the state is frozen
across each quench ``H^(m-1) -> H^(m)`` and then equilibrated under
``H^(m)`` according to the chosen model.  Work is recorded with the
extraction sign (positive = work gained), the negation of the quench cost
``Tr(rho (H^(m) - H^(m-1)))``.  Both back ends are supported: ``gaussian``
(n x n correlation matrices) and ``dense`` (d x d density matrices).

:func:`min_work_scan` is the one loop over (model, N): it takes a schedule
builder ``n -> [H^(0) .. H^(N)]`` (``traj.schedule``, a partial of
:func:`local_quench_schedule`, or the four-phase builder ``_four_phase``,
which builds its first leg once for every N and returns n + 3 Hamiltonians,
i.e. n + 2 quenches), builds each N's schedule once and runs every model on
it, recording works and entropy productions, which :func:`richardson_limit`
extrapolates to N -> infinity.  The ``optimal_*_protocol`` functions run
that four-phase schedule on either back end under the dephasing map.
"""

from __future__ import annotations

import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from threading import Lock
from typing import Callable, NamedTuple

import numpy as np

from . import dense as qd
from . import fermions as fg
from .hermitian import (EigenSystem, _check_spectrum, _eigh, _eigh_all, _hermitian_part,
                        _require_hermitian_all, require_hermitian)

__all__ = [
    "Trajectory",
    "StepRecord",
    "ProtocolRecord",
    "run_schedule",
    "run_protocol",
    "richardson_limit",
    "optimal_work_bound",
    "optimal_gge_protocol",
    "optimal_ta_protocol",
    "optimal_gibbs_protocol",
    "ScanResult",
    "min_work_scan",
    "thermal_bath_initial_state",
    "build_population_inverted_bath",
    "local_quench_schedule",
]

_RULES = ("linear", "eigenvectors")


# ---------------------------------------------------------------------------
# Trajectories
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Trajectory:
    """Piecewise path of Hamiltonians over u in [0, 1].

    Segments interpolate between consecutive keyframes according to their
    rule:

    ``linear``
        Straight line in coefficient space (between commuting keyframes,
        only the spectrum moves while the eigenbasis stays put).
    ``eigenvectors``
        Geodesic rotation of the eigenbasis at frozen spectrum,
        U(s) = exp(s log(A_b A_a^dag)) A_a with the principal matrix
        logarithm; keyframes must share their sorted spectra.

    Cycle gauge: when M = A_a^dag A_b is a phase permutation (the four-phase
    legs rotate by a signed permutation of modes), the lowest-index column
    of A_b in each cycle of length L is rescaled so that the cycle's phase
    product is (-1)^(L+1).  Then v = A_b A_a^dag has no eigenvalue -1 and its
    principal logarithm is unique, so the path does not follow round-off;
    the rescaled columns describe the same keyframe.

    Each eigenvector segment is a :class:`_Rotation` between its keyframes'
    eigensystems (a shared keyframe decomposed once), checked when the
    trajectory is built; segment ends return the keyframes exactly.
    """

    keyframes: tuple
    rules: tuple
    _rotations: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        frames = tuple(_require_hermitian_all(self.keyframes, "keyframe {i}"))
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
        ends = sorted({j for i, r in enumerate(rules) if r == "eigenvectors" for j in (i, i + 1)})
        es = dict(zip(ends, _eigh_all([frames[j] for j in ends])))
        rotations = tuple(_Rotation(es[i], es[i + 1], f"eigenvector segment {i}")
                          if r == "eigenvectors" else None for i, r in enumerate(rules))
        object.__setattr__(self, "keyframes", frames)
        object.__setattr__(self, "rules", rules)
        object.__setattr__(self, "_rotations", rotations)

    @classmethod
    def linear(cls, h0, h1) -> "Trajectory":
        return cls((h0, h1), ("linear",))

    def sample(self, u: float) -> np.ndarray:
        """Hamiltonian at path parameter u."""
        u = float(u)
        if not (-1e-12 <= u <= 1.0 + 1e-12):
            raise ValueError(f"path parameter {u} outside [0, 1]")
        u = min(max(u, 0.0), 1.0)
        x = u * len(self.rules)
        i = min(int(np.floor(x)), len(self.rules) - 1)
        s = x - i
        if s <= 0.0:
            return self.keyframes[i].copy()
        if s >= 1.0:
            return self.keyframes[i + 1].copy()
        if self.rules[i] == "linear":
            return (1.0 - s) * self.keyframes[i] + s * self.keyframes[i + 1]
        return self._rotations[i].at(s).reconstruct()

    def schedule(self, n_quenches: int) -> list:
        """The samples H(m / N) for m = 0..N of ``n_quenches`` equidistant
        quenches."""
        n_quenches = _quench_counts([n_quenches])[0]
        return [self.sample(m / n_quenches) for m in range(n_quenches + 1)]


class _Rotation:
    """The eigenvector rule of :class:`Trajectory` from ``es_a`` to ``es_b``,
    whose sorted spectra must agree (the error is prefixed by ``name``).

    One Schur form v = Z T Z^dag of the gauged v = A_b A_a^dag, built at the
    first :meth:`at`, once, under a lock shared by threads, gives B = Z^dag A_a
    and U(s) = Z R(s) B: R(s) turns row pairs of B by s theta (real form, real
    eigensystems: the path stays float64) or scales rows by e^{i s phi}
    (complex form, also for an eigenvalue -1)."""

    def __init__(self, es_a: EigenSystem, es_b: EigenSystem, name: str = "rotation"):
        gap = float(np.max(np.abs(es_a.values - es_b.values)))
        if gap > 1e-8 * max(1.0, float(np.abs(es_a.values).max())):
            raise ValueError(f"{name}: keyframes must share their spectra "
                             f"(sorted mismatch {gap:.3e})")
        self._a, self._b, self._lock, self._form = es_a, es_b, Lock(), None

    def at(self, s: float) -> EigenSystem:
        """The eigensystem at 0 < s < 1: the common spectrum, U(s) = Z R(s) B."""
        with self._lock:
            if self._form is None:
                a = self._a.vectors
                v = _cycle_gauge(a, self._b.vectors) @ a.conj().T
                # scipy loads here, for eigenvector rotations only
                import scipy.linalg
                t, z = scipy.linalg.schur(v, output="real" if np.isrealobj(v) else "complex")
                k = np.flatnonzero(np.diag(t, -1))      # first rows of the real 2x2 blocks
                # a 1x1 block's entry is +-1; an eigenvalue -1 has no real logarithm
                if np.isrealobj(t) and np.any(np.delete(np.diag(t), np.r_[k, k + 1]) < 0.0):
                    t, z = scipy.linalg.rsf2csf(t, z)
                b = z.conj().T @ a
                if np.iscomplexobj(t):  # R(s) B = cos(s angles) B + sin(s angles) turned, row by row
                    angles, turned = np.angle(np.diag(t)), 1j * b
                else:   # a block [[c, -s], [s, c]] at rows k, k + 1 has angle theta
                    theta = np.arctan2(t[k + 1, k] - t[k, k + 1], t[k, k] + t[k + 1, k + 1])
                    angles, partner = np.zeros(len(t)), np.arange(len(t))
                    angles[k], angles[k + 1], partner[k], partner[k + 1] = -theta, theta, k + 1, k
                    turned = b[partner]
                self._form = (z, b, turned, angles[:, None])
        z, b, turned, angles = self._form
        return EigenSystem(self._a.values, z @ (np.cos(s * angles) * b + np.sin(s * angles) * turned))


def _cycle_gauge(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``b`` with the cycle gauge of :class:`Trajectory` when M = a^dag b is a
    phase permutation (each column's largest entry within 1e-8 of modulus 1,
    on distinct rows), in the dtype of M (real when both are); else ``b``."""
    m = a.conj().T @ b
    cols = np.arange(m.shape[1])
    perm = np.argmax(np.abs(m), axis=0)
    phase = m[perm, cols]
    if np.unique(perm).size != perm.size or np.abs(np.abs(phase) - 1.0).max(initial=0.0) > 1e-8:
        return b
    phase = phase / np.abs(phase)
    b, seen = b.astype(m.dtype), np.zeros(perm.size, dtype=bool)
    for j in cols:      # j is the lowest index of each cycle it opens
        if seen[j]:
            continue
        cycle = [j]
        while perm[cycle[-1]] != j:
            cycle.append(perm[cycle[-1]])
        seen[cycle] = True
        b[:, j] *= (-1.0) ** (len(cycle) + 1) / np.prod(phase[cycle])
    return b


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
    """Full log of a quench-equilibrate run: its steps, the validated
    Hamiltonians, the final correlation or density matrix, and in ``meta``
    what a construction adds (``work_bound`` of the four-phase protocols,
    ``beta_star`` and ``work_limit`` of :func:`optimal_gibbs_protocol`)."""

    steps: list[StepRecord]
    hamiltonians: list
    model: object
    backend: str
    final_state: np.ndarray
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


# ---------------------------------------------------------------------------
# Back ends and equilibration maps
# ---------------------------------------------------------------------------

class _Backend(NamedTuple):
    """How one back end validates its inputs and applies the three maps.

    ``check`` and ``wrap`` validate the initial state and a list of Hamiltonians
    against it, checking and decomposing the matrices in stacked calls, once per
    entry point, which hands them to ``_run`` with the step-0 ``entropy`` (the
    check of a correlation spectrum); the other entries trust their arguments.
    A wrapped Hamiltonian carries its eigensystem: a ``fg.QuadraticHamiltonian``
    (by ``fg._hamiltonians``), or a ``qd._Hamiltonian`` (by ``qd._checked`` and
    ``qd._schedule``), which also carries its pinching labels and leaves step 0
    undecomposed until a caller asks.  ``listed`` gives what
    ``ProtocolRecord.hamiltonians`` holds: the gaussian records, or copies of
    the dense matrices.
    Each map takes the state in the frame of its Hamiltonian (after
    ``quench``) and returns ``(state, duals)``.  Entries call through the
    module (``fg._evolve``, not a bound reference), so a function patched on
    its module is seen here too.
    The gaussian state is a ``fg._ModeState`` from step 0 on, in the site
    basis until the first ``quench`` moves it to the modes; ``matrix``
    expands it.  The dense state is the density matrix itself.
    """

    check: Callable        # state -> validated state
    wrap: Callable         # (Hamiltonians, state) -> validated list
    quench: Callable       # (state, ham) -> state frozen across the quench to ham
    energy: Callable       # (state, ham) -> mean energy
    entropy: Callable      # state -> entropy in nats
    matrix: Callable       # state -> correlation or density matrix
    evolve: Callable       # (state, ham, hold time) -> exact evolution
    dephase: Callable      # (state, ham) -> time average
    thermalise: Callable   # (state, ham) -> energy-matching thermal state
    eigenbasis: Callable   # state matrix -> its modes, by ascending population
    levels: Callable       # ham -> (coefficient matrix, its EigenSystem)
    hamiltonian: Callable  # EigenSystem -> its Hamiltonian (dense: decomposed on first use)
    listed: Callable       # wrapped Hamiltonians -> ProtocolRecord.hamiltonians


def _gaussian_eigenbasis(gamma: np.ndarray) -> np.ndarray:
    # a correlation matrix's modes are its conjugated eigenvectors
    return np.linalg.eigh(0.5 * (gamma + gamma.conj().T))[1].conj()


def _gaussian_wrap(hs, state) -> list:
    hams = fg._hamiltonians(hs)
    for ham in hams:
        fg._check_dims(state.g, ham)
    return hams


def _dense_thermalise(rho, ham):
    omega, beta = qd._gibbs(rho, ham.es)
    return omega, (beta,)


_BACKENDS = {
    "gaussian": _Backend(
        check=lambda gamma: fg._site(gamma),
        wrap=_gaussian_wrap,
        quench=lambda s, ham: s.quench(ham),
        energy=lambda s, ham: s.energy(ham),
        entropy=lambda s: s.entropy(),
        matrix=lambda s: s.matrix(),
        evolve=lambda s, ham, t: (fg._evolve(s, ham, t), None),
        dephase=lambda s, ham: fg._dephase(s, ham),
        thermalise=lambda s, ham: fg._thermalise(s, ham),
        eigenbasis=_gaussian_eigenbasis,
        levels=lambda ham: (ham.c, ham.eig),
        hamiltonian=lambda es: fg.QuadraticHamiltonian._of(es),
        listed=lambda hams: hams,
    ),
    "dense": _Backend(
        check=lambda rho: qd.check_state(rho),
        wrap=lambda hs, rho: qd._schedule(qd._checked(hs, rho)),
        quench=lambda rho, ham: rho,
        energy=lambda rho, ham: qd._expectation(rho, ham.h),
        entropy=lambda rho: qd._entropy(rho),
        matrix=lambda rho: rho,
        evolve=lambda rho, ham, t: (qd._evolve(rho, ham.es, t), None),
        dephase=lambda rho, ham: (qd._pinch(rho, ham.es, ham.labels), None),
        thermalise=_dense_thermalise,
        eigenbasis=lambda rho: np.linalg.eigh(0.5 * (rho + rho.conj().T))[1],
        levels=lambda ham: (ham.h, ham.es),
        hamiltonian=lambda es: qd._Hamiltonian(_hermitian_part(es.reconstruct())),
        # a copy, not a view that pins the schedule's stacked check: records kept
        # by the caller then fragment the heap less (1.5-2 MB of peak RSS on the
        # dense-small benchmark workload)
        listed=lambda hams: [ham.h.copy() for ham in hams],
    ),
}


def _backend(name: str) -> _Backend:
    try:
        return _BACKENDS[name]
    except (KeyError, TypeError):
        raise ValueError(f"backend must be one of {tuple(_BACKENDS)}, got {name!r}") from None


def _exact_map(model: fg.Exact, backend: _Backend, steps: int):
    if model.hold_min == model.hold_max:    # uniform(t, t) would draw t
        return lambda state, ham: backend.evolve(state, ham, float(model.hold_min))
    # one run's holds, drawn in one call from a fresh PCG64 stream of the
    # seed: the same numbers, in order, as one scalar draw per step
    stream = np.random.Generator(np.random.PCG64(model.seed))
    holds = iter(stream.uniform(model.hold_min, model.hold_max, steps).tolist())
    return lambda state, ham: backend.evolve(state, ham, next(holds))


# The one model dispatch: model type -> (label, build), where
# build(model, backend, steps) gives the map (state, ham) -> (state, duals).
_MODELS = {
    fg.Exact: ("exact", _exact_map),
    fg.TimeAverageGGE: ("ta-gge", lambda model, backend, steps: backend.dephase),
    fg.Gibbs: ("gibbs", lambda model, backend, steps: backend.thermalise),
}


def _model(model) -> tuple[str, Callable]:
    try:
        return _MODELS[type(model)]
    except KeyError:
        raise TypeError(f"unknown equilibration model: {model!r}") from None


# ---------------------------------------------------------------------------
# Protocol runners
# ---------------------------------------------------------------------------

def run_schedule(
    initial_state,
    hamiltonians,
    model,
    *,
    backend: str = "gaussian",
    keep_states: bool = True,
) -> ProtocolRecord:
    """Quench through the explicit Hamiltonian list, equilibrating after
    every quench according to ``model``.

    The back end, the model, the initial state and every Hamiltonian (with
    the common dimension) are validated here, before step 1; the steps then
    run trusted kernels, and a failing step is reported with its index.
    Under :class:`~gge_thermo.fermions.Exact` each step evolves exactly for
    a hold time drawn from the model's own seeded stream; holds and frozen
    quenches keep the spectrum, so every exact record but the last carries
    the step-0 entropy, and the last computes it from the final state, where
    drift would show.  A gaussian state travels in the current modes (on the
    sites at step 0); its matrix is built only for kept and final states."""
    be = _backend(backend)
    state = be.check(initial_state)
    hams = be.wrap(hamiltonians, state)
    return _run(state, be.entropy(state), hams, model, backend, keep_states)


def _run(state, entropy: float, hams, model, backend: str, keep_states: bool) -> ProtocolRecord:
    """The one protocol loop, behind :func:`run_schedule`, the sweep, the four-phase
    builder and the optimal constructions, on a checked ``state``, its step-0 ``entropy``
    and ``hams`` wrapped against it; it checks only the model and a non-empty schedule."""
    if not hams:
        raise ValueError("the schedule must contain at least the initial Hamiltonian")
    be = _BACKENDS[backend]
    equilibrate = _model(model)[1](model, be, len(hams) - 1)

    def record(m: int, state, work: float, duals) -> StepRecord:
        held = m == 0 or (isinstance(model, fg.Exact) and m < len(hams) - 1)
        return StepRecord(step=m, work_extracted=work, energy=be.energy(state, hams[m]),
                          entropy=entropy if held else be.entropy(state), duals=duals,
                          state=be.matrix(state) if keep_states else None)

    steps = [record(0, state, 0.0, None)]
    for m in range(1, len(hams)):
        try:
            state = be.quench(state, hams[m])
            cost = be.energy(state, hams[m]) - steps[-1].energy
            state, duals = equilibrate(state, hams[m])
            steps.append(record(m, state, -cost, duals))
        except Exception as exc:
            raise RuntimeError(f"step {m}: {exc}") from exc
    return ProtocolRecord(
        steps=steps,
        hamiltonians=be.listed(hams),
        model=model,
        backend=backend,
        final_state=be.matrix(state),
    )


def run_protocol(
    initial_state,
    traj: Trajectory,
    n_quenches: int,
    model,
    *,
    backend: str = "gaussian",
    keep_states: bool = True,
) -> ProtocolRecord:
    """Run ``n_quenches`` equidistant quenches along the trajectory, through
    ``traj.schedule(n_quenches)``."""
    return run_schedule(initial_state, traj.schedule(n_quenches), model,
                        backend=backend, keep_states=keep_states)


# ---------------------------------------------------------------------------
# Quasi-static limit
# ---------------------------------------------------------------------------

def _quench_counts(n_list) -> list[int]:
    ns = []
    for r in n_list:
        try:
            n = int(r)
        except (TypeError, ValueError, OverflowError):
            n = 0
        if n != r or n < 1:      # named, not truncated
            raise ValueError(f"quench counts must be positive integers, got {r!r}")
        ns.append(n)
    for a, b in zip(ns, ns[1:]):
        if b <= a:
            raise ValueError(f"quench counts must be strictly increasing, got {b} after {a}")
    return ns


def richardson_limit(ns, ys) -> tuple[float, float | None]:
    """Extrapolate a per-N sequence to N -> infinity: eliminate the 1/N term
    from the last two points, with the spread against the previous pair (or
    against the last value, from two points) as the error.  A sequence of
    one point or one that is not monotone is not extrapolated: the result is
    its last value, with error None.  ``ns`` must be positive integers,
    strictly increasing."""
    ns = np.asarray(_quench_counts(ns), dtype=float)
    ys = np.asarray(ys, dtype=float)
    if not ns.size or ys.shape != ns.shape:
        raise ValueError(f"need one value per N, at least one: {ns.size} N values, "
                         f"values of shape {ys.shape}")
    diffs = np.diff(ys)
    slack = 1e-12 * max(1.0, float(np.max(np.abs(ys))))
    if ys.size < 2 or not (np.all(diffs >= -slack) or np.all(diffs <= slack)):
        return float(ys[-1]), None

    def pair(i, j):
        return (ns[j] * ys[j] - ns[i] * ys[i]) / (ns[j] - ns[i])

    last = pair(-2, -1)
    prev = pair(-3, -2) if ys.size >= 3 else ys[-1]
    return float(last), float(abs(last - prev))


# ---------------------------------------------------------------------------
# Optimal constructions
# ---------------------------------------------------------------------------

def _ergotropy(be: _Backend, state, ham) -> float:
    """Largest work a unitary can extract from the validated state (the
    ergotropy of Allahverdyan, Balian and Nieuwenhuizen): its energy minus
    the anti-ordered pairing of its symmetrised matrix's spectrum with the
    energies of ``ham``."""
    m = be.matrix(state)
    floor = float(_check_spectrum(np.linalg.eigvalsh(0.5 * (m + m.conj().T)))[::-1]
                  @ be.levels(ham)[1].values)
    return be.energy(state, ham) - floor


def optimal_work_bound(gamma0, ham0) -> float:
    """Largest work any quench-and-dephase protocol can extract: the initial
    energy minus the anti-ordered pairing of the correlation spectrum with
    the mode energies."""
    be = _BACKENDS["gaussian"]
    state = be.check(gamma0)
    return _ergotropy(be, state, be.wrap([ham0], state)[0])


def _four_phase(gamma0, ham0) -> Callable:
    """Builder ``n -> [H^(0) .. H^(n + 2)]`` of the cyclic four-phase protocol
    extracting the maximum work from a correlation matrix under the dephasing
    map: n + 2 quenches, two aligning ones plus n rotation steps."""
    return _four_phase_of("gaussian", _BACKENDS["gaussian"].check(gamma0), ham0)


def _four_phase_of(backend: str, state, ham0) -> Callable:
    """:func:`_four_phase` on either ``backend``, for a validated ``state``.

    Two legs, each a quench aligning the modes with the eigenbasis of a
    state matrix (the spectrum of ``ham0`` assigned anti-sorted), then an
    N/2-step eigenbasis rotation back to ``ham0`` (repeated ``ham0`` if the
    quench is a no-op).  ``ham0`` is validated and decomposed, and the first
    leg's :class:`_Rotation` built, once for every N; the second leg starts
    from the final state of :func:`_run` on ``ham0`` and the first leg under
    dephasing (under the cycle gauge its rotation does not follow round-off).
    No Hamiltonian is decomposed twice: a leg decomposes its aligned keyframe
    once and builds its Hamiltonians from the eigensystems its rotation gives
    (a dense one is the reconstructed matrix, decomposed when a step first uses it).
    """
    be = _BACKENDS[backend]
    ham0 = be.wrap([ham0], state)[0]
    h0, es0 = be.levels(ham0)
    e_desc = es0.values[::-1]

    def leg(m: np.ndarray) -> Callable:
        w = be.eigenbasis(m)
        h_from = (w * e_desc) @ w.conj().T
        if np.allclose(h_from, h0, atol=1e-13):
            return lambda half: [ham0] * (half + 1)
        es = _eigh(require_hermitian(h_from))
        rotation, start = _Rotation(es, es0), be.hamiltonian(es)
        return lambda half: ([start] + [be.hamiltonian(rotation.at(j / half))
                                        for j in range(1, half)] + [ham0])

    first = leg(be.matrix(state))

    def schedule(n: int) -> list:
        n = _quench_counts([n])[0]
        if n < 2 or n % 2:
            raise ValueError(f"the number of quenches must be even and at least 2, got {n}")
        hams = [ham0] + first(n // 2)
        return hams + leg(_run(state, 0.0, hams, fg.GGE, backend, False).final_state)(n // 2)

    return schedule


def _optimal_protocol(state, ham0, n_quenches: int, backend: str,
                      keep_states: bool) -> ProtocolRecord:
    """:func:`_four_phase`'s schedule run under dephasing; ``meta['work_bound']`` is its ceiling."""
    be = _backend(backend)
    state = be.check(state)
    entropy = be.entropy(state)     # a spectrum outside [0, 1] raises here, not in the builder
    hams = _four_phase_of(backend, state, ham0)(n_quenches)
    record = _run(state, entropy, hams, fg.GGE, backend, keep_states)
    record.meta["work_bound"] = _ergotropy(be, state, hams[0])
    return record


def optimal_gge_protocol(gamma0, ham0, n_quenches: int, *, keep_states: bool = True) -> ProtocolRecord:
    """Four-phase extraction from a correlation matrix under the dephasing map, in
    ``n_quenches`` + 2 quenches (see :func:`_four_phase`); ``meta['work_bound']``
    is :func:`optimal_work_bound`."""
    return _optimal_protocol(gamma0, ham0, n_quenches, "gaussian", keep_states)


def optimal_ta_protocol(rho0, h0, n_quenches: int, *, keep_states: bool = True) -> ProtocolRecord:
    """Four-phase extraction from a density matrix under the pinching map, in ``n_quenches``
    + 2 quenches; ``meta['work_bound']`` is the passive gap Tr(rho0 H0) - Tr(rearranged H0)."""
    return _optimal_protocol(rho0, h0, n_quenches, "dense", keep_states)


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
    if not k < 0:       # NaN fails this test too
        raise ValueError(f"k must be negative, got {k}")
    n_quenches = _quench_counts([n_quenches])[0]
    rho = qd.check_state(rho0)
    h0 = qd._hamiltonian(h0, rho)
    p, w = np.linalg.eigh(rho)
    if float(p.min()) < 1e-12:
        raise ValueError(f"state is singular (smallest eigenvalue {float(p.min()):.3e}); "
                         "the logarithm quench needs full rank")
    h1 = (w * (k * np.log(p))) @ w.conj().T
    hams = qd._schedule([h0] + Trajectory.linear(h1, h0).schedule(n_quenches))
    record = _run(rho, qd._entropy(rho), hams, fg.GIBBS, "dense", keep_states)
    es = hams[-1].es    # the last Hamiltonian is h0
    beta_star = qd._entropy_matching_beta(es.values, record.steps[0].entropy)
    record.meta["beta_star"] = beta_star
    if beta_star is not None:
        omega_star = (es.vectors * qd._thermal_weights(es.values, beta_star)) @ es.vectors.conj().T
        record.meta["work_limit"] = (
            qd._expectation(rho, h0) - qd._expectation(omega_star, h0)
        )
    return record


# ---------------------------------------------------------------------------
# Scans
# ---------------------------------------------------------------------------

def _max_workers() -> int:
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
    entropy_production: np.ndarray   # likewise
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
    schedule: Callable,
    models,
    n_list,
    seed,
) -> ScanResult:
    """Work and entropy production per (model, N), with a monotonicity verdict per model.

    ``schedule(n)`` builds the Hamiltonians ``H^(0) .. H^(n)`` of N = n
    quenches, e.g. ``traj.schedule`` or ``functools.partial(local_quench_schedule,
    ham0, peak)`` (``_four_phase`` gives n + 3 of them: n + 2 quenches).  At entry,
    ``n_list`` must be strictly increasing positive integers, ``seed`` an int
    >= 0, the models' labels distinct and the initial state a valid correlation
    matrix (the gaussian back end; its entropy is evaluated once here).
    There is one task per N, largest first, on as many workers as
    GGE_THERMO_THREADS asks; each builds and validates its schedule once and
    runs every model on it.
    Failures are recorded and the sweep continues.  The exact model at
    position i draws its hold times from ``SeedSequence(seed, spawn_key=(i,
    N))``, so results do not depend on scheduling."""
    be = _BACKENDS["gaussian"]
    workers = _max_workers()
    if not (isinstance(seed, (int, np.integer)) and seed >= 0):
        raise ValueError(f"seed must be an int >= 0, got {seed!r}")
    models = list(models)
    ns = _quench_counts(n_list)
    if not models or not ns:
        raise ValueError("need at least one model and one N")
    labels = tuple(_model(m)[0] for m in models)
    for label in labels:
        if labels.count(label) > 1:
            raise ValueError(f"models must have distinct labels, got {label!r} more than once")
    state = be.check(initial_state)
    entropy = be.entropy(state)     # a correlation spectrum outside [0, 1] raises here

    def failure(exc) -> tuple:
        return float("nan"), float("nan"), f"{type(exc).__name__}: {exc}"

    def sweep(n) -> list[tuple]:
        try:
            hams = be.wrap(schedule(n), state)
        except Exception as exc:
            return [failure(exc)] * len(models)
        cells = []
        for i, model in enumerate(models):
            if isinstance(model, fg.Exact):
                model = replace(model, seed=np.random.SeedSequence(int(seed), spawn_key=(i, n)))
            try:
                rec = _run(state, entropy, hams, model, "gaussian", keep_states=False)
                cells.append((rec.work, rec.entropy_production, None))
            except Exception as exc:
                cells.append(failure(exc))
        return cells

    per_n = _parallel_map(sweep, ns[::-1], workers)[::-1]
    works, entropy = (np.array([[cells[i][k] for cells in per_n] for i in range(len(models))])
                      for k in (0, 1))
    failures = {(labels[i], n): cells[i][2] for i in range(len(models))
                for n, cells in zip(ns, per_n) if cells[i][2] is not None}
    verdicts = {labels[i]: _monotone_verdict(works[i]) for i in range(len(models))}
    return ScanResult(
        n_values=tuple(ns),
        model_labels=labels,
        works=works,
        entropy_production=entropy,
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
    n_quenches = _quench_counts([n_quenches])[0]
    eps1_init = float(ham0.c[0, 0].real)
    # N = 1 gives the peak alone; otherwise the closing value is eps1_init, so ham0 is appended
    steps = max(n_quenches - 1, 1)
    values = [float(eps1_peak) + j * (eps1_init - float(eps1_peak)) / steps for j in range(steps)]
    hams = [ham0]
    for v in values:
        c = ham0.c.copy()
        c[0, 0] = v
        hams.append(fg.QuadraticHamiltonian(c))
    if n_quenches >= 2:
        hams.append(ham0)
    return hams
