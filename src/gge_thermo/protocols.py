"""Quench schedules, effective evolution under repeated quenches,
entropy-production accounting, the minimum-work sweep, the quasi-static
limit and the optimal work-extraction constructions.

A protocol is a list of Hamiltonians ``H^(0) .. H^(N)``; the state is frozen
across each quench ``H^(m-1) -> H^(m)`` and then equilibrated under
``H^(m)`` according to the chosen model.  Work is recorded with the
extraction sign (positive = work gained), the negation of the quench cost
``Tr(rho (H^(m) - H^(m-1)))``.  A back end is its state type, which validates
the inputs and applies the three maps: ``gaussian`` (``fermions._ModeState``,
n x n correlation matrices) and ``dense`` (``dense._State``, d x d density
matrices), each a subclass of the one eigenbasis state ``hermitian._EigenState``.

:func:`min_work_scan` is the one loop over (model, N): it takes a schedule
builder ``n -> [H^(0) .. H^(N)]`` (``traj.schedule``, a partial of
:func:`local_quench_schedule`, or the four-phase builder ``_four_phase``,
whose one pass yields n + 3 Hamiltonians, n + 2 quenches) and runs all
models of an N in one lockstep pass over its schedule, recording works and
entropy productions, which :func:`richardson_limit` extrapolates to
N -> infinity.  ``optimal_gge_protocol`` and ``optimal_ta_protocol`` run that
four-phase schedule under dephasing, ``optimal_gibbs_protocol`` a thermal
return from k ln rho0.  Each builder hands the state's ``schedule`` trusted records, one at a time.
"""

from __future__ import annotations

import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from itertools import chain, islice, repeat
from threading import Lock
from typing import Callable

import numpy as np

from . import dense as qd
from . import fermions as fg
from .hermitian import EigenSystem, _eigh_all, _expectation, _hermitian_dtype, _require_hermitian_all

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
    trajectory is built; its first interior sample takes one Schur basis of
    the rotation (numpy ``eig`` and QR), and each sample then costs one
    n x n product.  Segment ends return the keyframes exactly.  A builder hands the samples to the
    state's ``schedule`` one at a time as trusted records (:meth:`_records`) with the eigensystems the
    trajectory has; a rotation sample's record forms its matrix when asked.
    """

    keyframes: tuple
    rules: tuple
    _rotations: tuple = field(init=False, repr=False, compare=False)
    _eigensystems: tuple = field(init=False, repr=False, compare=False)     # per keyframe, or None

    def __post_init__(self):
        frames = tuple(_require_hermitian_all(self.keyframes, "keyframe {i}"))
        if len(frames) < 2:
            raise ValueError("a trajectory needs at least two keyframes")
        rules = tuple(self.rules)
        if len(rules) != len(frames) - 1:
            raise ValueError(f"{len(frames)} keyframes need {len(frames) - 1} rules, got {len(rules)}")
        for r in rules:
            if r not in _RULES:
                raise ValueError(f"unknown interpolation rule {r!r}; choose from {_RULES}")
        ends = sorted({j for i, r in enumerate(rules) if r == "eigenvectors" for j in (i, i + 1)})
        es = dict(zip(ends, _eigh_all([frames[j] for j in ends])[0]))
        for e in es.values():   # its keyframes' records share it: a write through one raises
            e.values.flags.writeable = e.vectors.flags.writeable = False
        rotations = tuple(_Rotation(es[i], es[i + 1], f"eigenvector segment {i}")
                          if r == "eigenvectors" else None for i, r in enumerate(rules))
        object.__setattr__(self, "keyframes", frames)
        object.__setattr__(self, "rules", rules)
        object.__setattr__(self, "_rotations", rotations)
        object.__setattr__(self, "_eigensystems", tuple(map(es.get, range(len(frames)))))

    def sample(self, u: float) -> np.ndarray:
        """Hamiltonian at path parameter u."""
        return self._record(u, qd._State._record).h

    def schedule(self, n_quenches: int) -> list:
        """The samples H(m / N) for m = 0..N of ``n_quenches`` equidistant
        quenches."""
        return [ham.h for ham in self._records(n_quenches, qd._State._record)]

    def _records(self, n_quenches: int, record):
        """:meth:`schedule`'s samples as trusted ``record``s, an iterator."""
        n_quenches = _quench_counts([n_quenches])[0]
        return (self._record(m / n_quenches, record) for m in range(n_quenches + 1))

    def _record(self, u: float, record):
        """The trusted ``record`` at path parameter u: a keyframe's copy, with its eigensystem at an
        eigenvector segment's end; a linear sample in the checked dtype, exactly Hermitian as a real
        combination of checked keyframes; else ``record._of`` the rotation's eigensystem."""
        u = float(u)
        if not (-1e-12 <= u <= 1.0 + 1e-12):
            raise ValueError(f"path parameter {u} outside [0, 1]")
        u = min(max(u, 0.0), 1.0)
        x = u * len(self.rules)
        i = min(int(np.floor(x)), len(self.rules) - 1)
        s = x - i
        if s <= 0.0 or s >= 1.0:
            j = i if s <= 0.0 else i + 1
            return record._trusted(self.keyframes[j].copy(), self._eigensystems[j])
        if self.rules[i] == "linear":
            return record._trusted(_hermitian_dtype((1.0 - s) * self.keyframes[i] + s * self.keyframes[i + 1]))
        return record._of(self._rotations[i].at(s))


class _Rotation:
    """The eigenvector rule of :class:`Trajectory` from ``es_a`` to ``es_b``,
    whose sorted spectra must agree (the error is prefixed by ``name``).

    One Schur basis Z of the gauged v = A_b A_a^dag (:func:`_schur`), built at
    the first :meth:`at`, once, under a lock shared by threads, gives
    T = Z^dag v Z, B = Z^dag A_a and U(s) = Z R(s) B: R(s) turns row pairs of
    B by s theta (real form, real eigensystems: the path stays float64) or
    scales rows by e^{i s phi} (complex form, also for an eigenvalue -1)."""

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
                z, k = _schur(v)
                t, b = z.conj().T @ v @ z, z.conj().T @ a
                if np.iscomplexobj(z):  # R(s) B = cos(s angles) B + sin(s angles) turned, row by row
                    angles, turned = np.angle(np.diag(t)), 1j * b
                else:   # a block [[c, -s], [s, c]] at rows k, k + 1 has angle theta
                    theta = np.arctan2(t[k + 1, k] - t[k, k + 1], t[k, k] + t[k + 1, k + 1])
                    angles, partner = np.zeros(len(t)), np.arange(len(t))
                    angles[k], angles[k + 1], partner[k], partner[k + 1] = -theta, theta, k + 1, k
                    turned = b[partner]
                self._form = (z, b, turned, angles[:, None])
        z, b, turned, angles = self._form
        return EigenSystem(self._a.values, z @ (np.cos(s * angles) * b + np.sin(s * angles) * turned))


def _schur(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A Schur basis Z of the unitary ``v`` and the first rows of its real 2x2
    blocks, from one ``eig``: LAPACK returns the eigenvectors in Schur order,
    as Z times a (quasi-)upper-triangular matrix, so their QR factor is Z.  A
    real v enters each conjugate pair (adjacent, positive imaginary part
    first) as its real and imaginary columns, so Z is real; a complex v, or a
    real v with an eigenvalue -1 (no real logarithm), its complex vectors."""
    w, x = np.linalg.eig(v)
    if np.iscomplexobj(v) or np.any((w.imag == 0.0) & (w.real < 0.0)):
        return np.linalg.qr(x.astype(complex))[0], np.zeros(0, dtype=int)
    return np.linalg.qr(np.where(w.imag < 0.0, -x.imag, x.real))[0], np.flatnonzero(w.imag > 0.0)


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
    """Per-step log entry; ``duals`` holds (beta,) for the thermal map, the
    per-mode multipliers log((1-p)/p) of the mode populations for the gaussian
    dephasing map, and None for dense pinching and exact holds."""

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
    def entropy_production(self) -> float:
        return self.steps[-1].entropy - self.steps[0].entropy


# ---------------------------------------------------------------------------
# Back ends and equilibration maps
# ---------------------------------------------------------------------------

_STATES = {"gaussian": fg._ModeState, "dense": qd._State}


def _exact_map(model: fg.Exact, state):
    evolve = type(state).evolve
    if model.hold_min == model.hold_max:    # uniform(t, t) would draw t
        return lambda state, ham: evolve(state, ham, float(model.hold_min))
    # one run's holds, 64 at a time from a fresh PCG64 stream of the seed: in order, those of one draw per step
    stream = np.random.Generator(np.random.PCG64(model.seed))
    holds = chain.from_iterable(iter(lambda: stream.uniform(model.hold_min, model.hold_max, 64).tolist(), None))
    return lambda state, ham: evolve(state, ham, next(holds))


def _gibbs_map(model: fg.Gibbs, state):
    """One run's thermal map: each step's beta is searched from the step before's, the first cold."""
    thermalise, duals = type(state).thermalise, [()]    # the step before's (beta,)

    def equilibrate(state, ham):
        state, duals[0] = thermalise(state, ham, *duals[0])
        return state, duals[0]
    return equilibrate


# The one model dispatch: model type -> (label, build), where build(model,
# state) gives the map (state, ham) -> (state, duals) of state's type.
_MODELS = {
    fg.Exact: ("exact", _exact_map),
    fg.TimeAverageGGE: ("ta-gge", lambda model, state: type(state).dephase),
    fg.Gibbs: ("gibbs", _gibbs_map),
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
    drift would show.  The state travels in the current eigenbasis (as given
    at step 0), a dephased or thermal one as its populations; its matrix is
    built only for kept and final states.  An iterator of Hamiltonians is listed first."""
    state = _state(initial_state, backend)
    return _run(state, state.entropy(), state.schedule(list(hamiltonians)), model, keep_states)


def _state(initial_state, backend: str):     # the checked initial state of the named back end
    if not isinstance(backend, str) or backend not in _STATES:     # names an unhashable one too
        raise ValueError(f"backend must be one of {tuple(_STATES)}, got {backend!r}")
    return _STATES[backend].of(initial_state)


class _Cell:
    """One model's run in :func:`_run`: its map, state, steps and error, and the spectra of its steps not
    held (an exact hold keeps the step-0 entropy; its last step's is the final state's, where drift shows)."""

    def __init__(self, model, state, step0: StepRecord):
        self.model, self.equilibrate, self.held = model, _model(model)[1](model, state), isinstance(model, fg.Exact)
        self.state, self.steps, self.spectra, self.error = state, [step0], {}, None

    def step(self, m: int, ham, o, keep_states: bool) -> bool:
        """Step ``m`` to ``ham`` by the transport ``o``, or an exact run's last spectrum; whether it ran."""
        try:
            if ham is not None:
                state = self.state.quench(ham, o)
                cost = state.energy(ham) - self.steps[-1].energy
                state, duals = self.equilibrate(state, ham)
                entropy = self.steps[0].entropy if self.held else None
                self.steps.append(StepRecord(m, -cost, state.energy(ham), entropy, duals,
                                             state.matrix() if keep_states else None))
                self.state = state
            if ham is None or not self.held:
                self.spectra[m] = self.state.spectrum()
            if len(self.spectra) == 16:     # so the stacked entropies' temporaries stay small
                self.flush()
        except Exception as exc:
            self.error = RuntimeError(f"step {m}: {exc}")
            self.error.__cause__ = exc
        return self.error is None

    def flush(self) -> None:     # the spectra's entropies, in one stacked call
        for m, s in zip(self.spectra, self.state.entropies(np.array([*self.spectra.values()], ndmin=2)).tolist()):
            self.steps[m].entropy = s
        self.spectra.clear()

    def record(self, hamiltonians: list):    # the run's record, or the error that stopped it
        if self.error is None and self.held and len(self.steps) > 1:
            self.step(len(self.steps) - 1, None, None, False)
        if self.error is None:
            self.flush()
        return self.error or ProtocolRecord(self.steps, hamiltonians, self.model, self.state.backend,
                                            self.state.matrix())


def _run(state, entropy: float, hams, model, keep_states: bool):
    """The one protocol loop, behind every runner and the sweep: ``model`` (or a list of models in lockstep)
    from the checked ``state`` (its type is the back end) and its step-0 ``entropy`` over ``hams`` from its
    ``schedule``, read once, each step's transport formed once for all.  A list's records are the
    ``hamiltonians``, an iterator's dropped.  Its record, its error raised (``step m: ...``), or each listed's."""
    models = model if isinstance(model, list) else [model]
    kept = state.listed(hams) if isinstance(hams, list) else []
    hams = iter(hams)
    ham = next(hams, None)
    if ham is None:
        raise ValueError("the schedule must contain at least the initial Hamiltonian")
    energy, matrix = state.energy(ham), state.matrix() if keep_states else None
    live = cells = [_Cell(model, state, StepRecord(0, 0.0, energy, entropy, None, matrix)) for model in models]
    basis, transport = state.ham, type(state).transport
    for m, ham in enumerate(hams, 1):
        o = None if ham is basis else transport(basis, ham)
        live, basis = [cell for cell in live if cell.step(m, ham, o, keep_states)], ham
        if not live:
            break
    records = [cell.record(kept) for cell in cells]
    if models is not model and isinstance(records[0], Exception):
        raise records[0]
    return records if models is model else records[0]


def run_protocol(
    initial_state,
    traj: Trajectory,
    n_quenches: int,
    model,
    *,
    backend: str = "gaussian",
    keep_states: bool = True,
) -> ProtocolRecord:
    """Run ``n_quenches`` equidistant quenches along the trajectory: the samples of
    ``traj.schedule(n_quenches)``, as trusted records; the state's ``schedule`` decomposes the bare ones."""
    state = _state(initial_state, backend)
    hams = state.schedule(list(traj._records(n_quenches, state._record)))
    return _run(state, state.entropy(), hams, model, keep_states)


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

def _ergotropy(state, ham) -> float:
    """Largest work a unitary can extract from the validated state (the
    ergotropy of Allahverdyan, Balian and Nieuwenhuizen): its energy minus
    the anti-ordered pairing of its symmetrised matrix's spectrum with the
    energies of ``ham``."""
    return state.energy(ham) - float(state.spectrum()[::-1] @ ham.es.values)


def optimal_work_bound(gamma0, ham0) -> float:
    """Largest work any quench-and-dephase protocol can extract: the initial
    energy minus the anti-ordered pairing of the correlation spectrum with
    the mode energies."""
    return _ergotropy(*fg._ModeState.prologue(gamma0, ham0))


def _four_phase(gamma0, ham0) -> Callable:
    """Builder ``n -> iter([H^(0) .. H^(n + 2)])`` of the cyclic four-phase protocol
    extracting the maximum work from a correlation matrix under the dephasing
    map: n + 2 quenches, two aligning ones plus n rotation steps."""
    return _four_phase_of(fg._ModeState.of(gamma0), ham0)


def _four_phase_of(state, ham0) -> Callable:
    """:func:`_four_phase` on the back end of the validated ``state``.

    Two legs, each a quench aligning the modes with the eigenbasis of a
    state matrix (the spectrum of ``ham0`` assigned anti-sorted), then an
    N/2-step eigenbasis rotation back to ``ham0`` (repeated ``ham0`` if the
    quench is a no-op).  ``ham0`` is validated and decomposed, and the first
    leg's :class:`_Rotation` built, once for every N.  A schedule is one pass, checked at
    its first read: it dephases its own state at each first-leg record it yields, and the
    second leg starts from there (under the cycle gauge its rotation does not follow round-off).
    Each leg decomposes its aligned keyframe once and its records keep the eigensystems its
    rotation gives (``_of``), so nothing is decomposed twice and the walk forms no matrices.
    """
    ham0 = state.schedule([ham0])[0]
    h0, es0 = ham0.h, ham0.es
    e_desc = es0.values[::-1]

    def leg(m: np.ndarray) -> Callable:
        w = state.eigenbasis(m)
        h_from = (w * e_desc) @ w.conj().T
        if np.allclose(h_from, h0, atol=1e-13):
            return lambda half: repeat(ham0, half + 1)
        es = state.schedule([h_from])[0].es
        rotation, start = _Rotation(es, es0), ham0._of(es)
        return lambda half: chain([start], (ham0._of(rotation.at(j / half)) for j in range(1, half)), [ham0])

    first = leg(state.matrix())

    def schedule(n: int):
        n = _quench_counts([n])[0]
        if n < 2 or n % 2:
            raise ValueError(f"the number of quenches must be even and at least 2, got {n}")
        s = state
        yield ham0
        for ham in first(n // 2):
            s = s.quench(ham).dephase(ham)[0]
            yield ham
        yield from leg(s.matrix())(n // 2)

    return schedule


def _optimal_protocol(state, ham0, n_quenches: int, keep_states: bool) -> ProtocolRecord:
    """:func:`_four_phase`'s schedule run under dephasing from the validated ``state``;
    ``meta['work_bound']`` is its ceiling."""
    entropy = state.entropy()     # the state's error comes before ham0's, which the builder checks
    hams = list(_four_phase_of(state, ham0)(n_quenches))
    record = _run(state, entropy, hams, fg.GGE, keep_states)
    record.meta["work_bound"] = _ergotropy(state, hams[0])
    return record


def optimal_gge_protocol(gamma0, ham0, n_quenches: int, *, keep_states: bool = True) -> ProtocolRecord:
    """Four-phase extraction from a correlation matrix under the dephasing map, in
    ``n_quenches`` + 2 quenches (see :func:`_four_phase`); ``meta['work_bound']``
    is :func:`optimal_work_bound`."""
    return _optimal_protocol(fg._ModeState.of(gamma0), ham0, n_quenches, keep_states)


def optimal_ta_protocol(rho0, h0, n_quenches: int, *, keep_states: bool = True) -> ProtocolRecord:
    """Four-phase extraction from a density matrix under the pinching map, in ``n_quenches``
    + 2 quenches; ``meta['work_bound']`` is the passive gap Tr(rho0 H0) - Tr(rearranged H0)."""
    return _optimal_protocol(qd._State.of(rho0), h0, n_quenches, keep_states)


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
    state, ham0 = qd._State.prologue(rho0, h0)
    p, w = np.linalg.eigh(state.b)
    if float(p.min()) < 1e-12:
        raise ValueError(f"state is singular (smallest eigenvalue {float(p.min()):.3e}); "
                         "the logarithm quench needs full rank")
    h1 = (w * (k * np.log(p))) @ w.conj().T
    hams = state.schedule([ham0, *Trajectory((h1, ham0.h), ("linear",))._records(n_quenches, state._record)])
    record = _run(state, state.entropy(), hams, fg.GIBBS, keep_states)
    beta_star = state.entropy_beta(hams[-1], record.steps[0].entropy)   # the last Hamiltonian is h0
    record.meta["beta_star"] = beta_star
    if beta_star is not None:
        omega_star = state.thermal(hams[-1], beta_star).matrix()
        record.meta["work_limit"] = _expectation(state.b, ham0.h) - _expectation(omega_star, ham0.h)
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
    steps: dict     # label -> the StepRecords (no states) of its largest-N cell, unless that failed

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
    GGE_THERMO_THREADS asks; each is one lockstep pass of all models (:func:`_run`).
    A list schedule is validated in full before step 1, an iterator's records as the
    pass reaches them.  ``steps`` keeps the largest N's steps.
    Failures are recorded and the sweep continues.  The exact model at
    position i draws its hold times from ``SeedSequence(seed, spawn_key=(i,
    N))``, so results do not depend on scheduling."""
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
    state = fg._ModeState.of(initial_state)
    entropy0 = state.entropy()     # a correlation spectrum outside [0, 1] raises here

    def failure(exc) -> tuple:
        return float("nan"), float("nan"), f"{type(exc).__name__}: {exc}", None

    def sweep(n) -> list[tuple]:
        cell = [replace(model, seed=np.random.SeedSequence(int(seed), spawn_key=(i, n)))
                if isinstance(model, fg.Exact) else model for i, model in enumerate(models)]
        try:
            runs = _run(state, entropy0, state.schedule(schedule(n)), cell, keep_states=False)
        except Exception as exc:
            return [failure(exc)] * len(models)
        return [failure(rec) if isinstance(rec, Exception) else
                (rec.work, rec.entropy_production, None, rec.steps if n == ns[-1] else None) for rec in runs]

    per_n = _parallel_map(sweep, ns[::-1], workers)[::-1]
    works, entropy_production = (np.array([[cells[i][k] for cells in per_n] for i in range(len(models))])
                                 for k in (0, 1))
    failures = {(labels[i], n): cells[i][2] for i in range(len(models))
                for n, cells in zip(ns, per_n) if cells[i][2] is not None}
    verdicts = {labels[i]: _monotone_verdict(works[i]) for i in range(len(models))}
    return ScanResult(
        n_values=tuple(ns),
        model_labels=labels,
        works=works,
        entropy_production=entropy_production,
        verdicts=verdicts,
        failures=failures,
        steps={labels[i]: per_n[-1][i][3] for i in range(len(models)) if per_n[-1][i][3] is not None},
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


def local_quench_schedule(ham0, eps1_peak: float, n_quenches: int):
    """A sudden first quench of the site-0 energy to ``eps1_peak``, then the peak path: N-1 equidistant
    quenches along the linear trajectory back to ``ham0``, which itself closes the schedule (cyclic for
    N >= 2); an iterator, whose records between are made as it is read, for the state's ``schedule``."""
    ham0 = fg.as_hamiltonian(ham0)
    n_quenches = _quench_counts([n_quenches])[0]
    peak = ham0.c.copy()
    peak[0, 0] = float(eps1_peak)
    # N = 1 gives the peak alone; otherwise the path's last sample, ham0's matrix, is ham0
    path = Trajectory((peak, ham0.c), ("linear",))._records(max(n_quenches - 1, 1), type(ham0))
    return chain([ham0], islice(path, max(n_quenches - 1, 1)), [ham0] * (n_quenches >= 2))
