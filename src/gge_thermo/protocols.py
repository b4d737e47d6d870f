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
:func:`local_quench_schedule` or of the four-phase ``_optimal_schedule``),
builds each N's schedule once and runs every model on it, recording works and
entropy productions, which :func:`richardson_limit` extrapolates to
N -> infinity.  The ``optimal_*_protocol`` functions run the four-phase
schedule, one builder for both back ends, under the dephasing map.
"""

from __future__ import annotations

import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple

import numpy as np
import scipy.linalg

from . import dense as qd
from . import fermions as fg
from .hermitian import STATE_ATOL, _check_spectrum, _eigh, require_hermitian

__all__ = [
    "Trajectory",
    "StepRecord",
    "ProtocolRecord",
    "model_label",
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

    Sampling is deterministic in u and reproduces the keyframes exactly at
    the segment ends.
    """

    keyframes: tuple
    rules: tuple
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        frames = tuple(
            require_hermitian(k, atol=STATE_ATOL, name=f"keyframe {i}")
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

    def _segment_data(self, i: int):
        if i in self._cache:
            return self._cache[i]
        # keyframes are validated and symmetrised
        es_a, es_b = _eigh(self.keyframes[i]), _eigh(self.keyframes[i + 1])
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
        self._cache[i] = (es_a.values, es_a.vectors, phis, p)
        return self._cache[i]

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
        if self.rules[i] == "linear":
            return (1.0 - s) * self.keyframes[i] + s * self.keyframes[i + 1]
        eps, a_vecs, phis, p = self._segment_data(i)
        rot = (p * np.exp(-1j * s * phis)) @ p.conj().T
        u_s = rot @ a_vecs
        return (u_s * eps) @ u_s.conj().T

    def schedule(self, n_quenches: int) -> list:
        """The samples H(m / N) for m = 0..N of ``n_quenches`` equidistant
        quenches."""
        n_quenches = _quench_counts([n_quenches])[0]
        return [self.sample(m / n_quenches) for m in range(n_quenches + 1)]


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


# ---------------------------------------------------------------------------
# Back ends and equilibration maps
# ---------------------------------------------------------------------------

class _Backend(NamedTuple):
    """How one back end validates its inputs and applies the three maps.

    ``check`` and ``wrap`` validate the initial state and each Hamiltonian
    against it, once per entry point, which hands them to ``_run`` with the
    step-0 ``entropy`` (the check of a correlation spectrum); the other
    entries are kernels that trust their arguments.
    Each map takes the state in the frame of its Hamiltonian (after
    ``quench``) and returns ``(state, duals)``.  Entries call through the
    module (``fg._evolve``, not a bound reference), so a function patched on
    its module is seen here too.
    The gaussian state is a ``fg._ModeState`` from step 0 on, in the site
    basis until the first ``quench`` moves it to the modes; ``matrix``
    expands it.  The dense state is the density matrix itself.
    """

    check: Callable        # state -> validated state
    wrap: Callable         # (Hamiltonian, state) -> validated Hamiltonian
    quench: Callable       # (state, ham) -> state frozen across the quench to ham
    energy: Callable       # (state, ham) -> mean energy
    entropy: Callable      # state -> entropy in nats
    matrix: Callable       # state -> correlation or density matrix
    evolve: Callable       # (state, ham, hold time) -> exact evolution
    dephase: Callable      # (state, ham) -> time average
    thermalise: Callable   # (state, ham) -> energy-matching thermal state
    eigenbasis: Callable   # state matrix -> (ascending populations, their modes)
    levels: Callable       # ham -> (coefficient matrix, ascending energies)


def _gaussian_eigenbasis(gamma: np.ndarray):
    # a correlation matrix's modes are its conjugated eigenvectors
    p, w = np.linalg.eigh(0.5 * (gamma + gamma.conj().T))
    return p, w.conj()


def _gaussian_wrap(h, state) -> fg.QuadraticHamiltonian:
    ham = fg.as_hamiltonian(h)
    fg._check_dims(state.g, ham)
    return ham


def _dense_wrap(h, rho) -> np.ndarray:
    h = require_hermitian(h, atol=STATE_ATOL, name="Hamiltonian")
    if h.shape != rho.shape:
        raise ValueError(f"dimension mismatch: state {rho.shape} vs Hamiltonian {h.shape}")
    return h


def _dense_thermalise(rho, h):
    omega, beta = qd._gibbs(rho, _eigh(h))
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
        levels=lambda ham: (ham.c, ham.energies),
    ),
    "dense": _Backend(
        check=lambda rho: qd.check_state(rho),
        wrap=_dense_wrap,
        quench=lambda rho, h: rho,
        energy=lambda rho, h: qd._expectation(rho, h),
        entropy=lambda rho: qd._entropy(rho),
        matrix=lambda rho: rho,
        evolve=lambda rho, h, t: (qd._evolve(rho, _eigh(h), t), None),
        dephase=lambda rho, h: (qd._pinch(rho, _eigh(h)), None),
        thermalise=_dense_thermalise,
        eigenbasis=np.linalg.eigh,      # check_state has symmetrised the state
        levels=lambda h: (h, np.linalg.eigvalsh(h)),
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


def model_label(model) -> str:
    return _model(model)[0]


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
    hams = [be.wrap(h, state) for h in hamiltonians]
    return _run(state, be.entropy(state), hams, model, backend, keep_states)


def _run(state, entropy: float, hams, model, backend: str, keep_states: bool) -> ProtocolRecord:
    """The one protocol loop, behind :func:`run_schedule`, the sweep and the optimal
    constructions, on a checked ``state``, its step-0 ``entropy`` and ``hams`` wrapped
    against it; it checks only the model and that the schedule is not empty."""
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
        hamiltonians=hams,
        model=model,
        backend=backend,
        meta={"final_state": be.matrix(state)},
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
    ergotropy of Allahverdyan, Balian and Nieuwenhuizen): the energy of its
    symmetrised matrix minus the anti-ordered pairing of its spectrum with
    the energies of ``ham``."""
    m = be.matrix(state)
    m = 0.5 * (m + m.conj().T)
    floor = float(_check_spectrum(np.linalg.eigvalsh(m))[::-1] @ be.levels(ham)[1])
    return be.energy(be.check(m), ham) - floor


def optimal_work_bound(gamma0, ham0) -> float:
    """Largest work any quench-and-dephase protocol can extract: the initial
    energy minus the anti-ordered pairing of the correlation spectrum with
    the mode energies."""
    be = _BACKENDS["gaussian"]
    state = be.check(gamma0)
    return _ergotropy(be, state, be.wrap(ham0, state))


def _optimal_schedule(state, ham0, n_quenches: int, backend: str = "gaussian") -> list:
    """Schedule of the cyclic four-phase protocol extracting the maximum
    work under the dephasing map, on either back end.

    Two legs, each a quench aligning the modes with the state's eigenbasis
    (the spectrum of ``ham0`` assigned anti-sorted), then an N/2-step
    eigenbasis rotation back to ``ham0`` (repeated ``ham0`` if the quench is
    a no-op).  The second leg is rebuilt from the state the first leaves.
    """
    n_quenches = _quench_counts([n_quenches])[0]
    if n_quenches < 2 or n_quenches % 2:
        raise ValueError(f"the number of quenches must be even and at least 2, got {n_quenches}")
    be = _backend(backend)
    state = be.check(state)
    ham0 = be.wrap(ham0, state)
    h0, energies = be.levels(ham0)
    e_desc = energies[::-1]
    half = n_quenches // 2

    def leg(m) -> list:
        _, w = be.eigenbasis(be.matrix(m))
        h_from = (w * e_desc) @ w.conj().T
        if np.allclose(h_from, h0, atol=1e-13):
            return [ham0] * (half + 1)
        seg = Trajectory((h_from, h0), ("eigenvectors",))
        out = [h_from] + [seg.sample(j / half) for j in range(1, half)]
        return [be.wrap(h, m) for h in out] + [ham0]

    hams = [ham0] + leg(state)
    mid = state
    for h in hams[1:]:
        # re-validated (so symmetrised) each step: the second leg rotates by a
        # permutation of ham0's eigenbasis, where the log's branch follows round-off
        mid = be.check(be.matrix(be.dephase(be.quench(mid, h), h)[0]))
    hams += leg(mid)
    return hams


def _optimal_protocol(state, ham0, n_quenches: int, backend: str,
                      keep_states: bool) -> ProtocolRecord:
    """:func:`_optimal_schedule` run under dephasing; ``meta['work_bound']`` is its ceiling."""
    hams = _optimal_schedule(state, ham0, n_quenches, backend)
    be = _backend(backend)
    state = be.check(state)
    record = _run(state, be.entropy(state), hams, fg.GGE, backend, keep_states)
    record.meta["work_bound"] = _ergotropy(be, state, hams[0])
    return record


def optimal_gge_protocol(gamma0, ham0, n_quenches: int, *, keep_states: bool = True) -> ProtocolRecord:
    """Four-phase extraction from a correlation matrix under the dephasing
    map; ``meta['work_bound']`` is :func:`optimal_work_bound`."""
    return _optimal_protocol(gamma0, ham0, n_quenches, "gaussian", keep_states)


def optimal_ta_protocol(rho0, h0, n_quenches: int, *, keep_states: bool = True) -> ProtocolRecord:
    """Four-phase extraction from a density matrix under the pinching map;
    ``meta['work_bound']`` is the passive gap Tr(rho0 H0) - Tr(rearranged H0)."""
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
    h0 = _dense_wrap(h0, rho)
    p, w = np.linalg.eigh(rho)
    if float(p.min()) < 1e-12:
        raise ValueError(f"state is singular (smallest eigenvalue {float(p.min()):.3e}); "
                         "the logarithm quench needs full rank")
    h1 = (w * (k * np.log(p))) @ w.conj().T
    schedule = [h0] + Trajectory.linear(h1, h0).schedule(n_quenches)
    record = _run(rho, qd._entropy(rho), schedule, fg.GIBBS, "dense", keep_states)
    beta_star = qd.entropy_matching_beta(h0, record.steps[0].entropy)
    record.meta["beta_star"] = beta_star
    if beta_star is not None:
        es = _eigh(h0)
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
    *,
    backend: str = "gaussian",
) -> ScanResult:
    """Work and entropy production per (model, N), with a monotonicity verdict per model.

    ``schedule(n)`` builds the Hamiltonians ``H^(0) .. H^(n)`` of N = n
    quenches, e.g. ``traj.schedule`` or
    ``functools.partial(local_quench_schedule, ham0, peak)``.  At entry,
    ``n_list`` must be strictly increasing positive integers, ``seed`` an int
    >= 0 and the initial state valid (its entropy is evaluated once here).
    There is one task per N, largest first, on as many workers as
    GGE_THERMO_THREADS asks; each builds and validates its schedule once and
    runs every model on it.
    Failures are recorded and the sweep continues.  The exact model at
    position i draws its hold times from ``SeedSequence(seed, spawn_key=(i,
    N))``, so results do not depend on scheduling."""
    be = _backend(backend)
    workers = _max_workers()
    if not (isinstance(seed, (int, np.integer)) and seed >= 0):
        raise ValueError(f"seed must be an int >= 0, got {seed!r}")
    models = list(models)
    ns = _quench_counts(n_list)
    if not models or not ns:
        raise ValueError("need at least one model and one N")
    labels = tuple(model_label(m) for m in models)
    state = be.check(initial_state)
    entropy = be.entropy(state)     # a correlation spectrum outside [0, 1] raises here

    def failure(exc) -> tuple:
        return float("nan"), float("nan"), f"{type(exc).__name__}: {exc}"

    def sweep(n) -> list[tuple]:
        try:
            hams = [be.wrap(h, state) for h in schedule(n)]
        except Exception as exc:
            return [failure(exc)] * len(models)
        cells = []
        for i, model in enumerate(models):
            if isinstance(model, fg.Exact):
                model = replace(model, seed=np.random.SeedSequence(int(seed), spawn_key=(i, n)))
            try:
                rec = _run(state, entropy, hams, model, backend, keep_states=False)
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
