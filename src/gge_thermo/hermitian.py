"""Hermitian eigendecomposition with a fixed phase convention, degeneracy
clustering, and the numerical rules shared by both back ends.

Every input matrix passes :func:`require_hermitian` at the one tolerance
``STATE_ATOL`` = 1e-10.  One that is real, or complex with an imaginary part
exactly zero, is kept as float64, so its eigendecomposition and every
product with its eigenvectors run in real arithmetic.  Each eigenvector is
anchored on the first entry whose magnitude is within a relative 1e-8 of its
column's maximum, and that entry is made real and positive: ties between
mirror-image entries (a uniform chain's modes) then resolve to the lower
index whatever the round-off, which makes runs reproducible across BLAS
builds and thread counts.  All routines are pure functions; nothing mutates
its inputs.  A list of matrices (a schedule on either back end, keyframes,
observables) is checked and decomposed in stacked calls, and a stack of spectra
labelled in one: bit for bit as one call per matrix, with the same errors.

Both back ends import this module and not each other, so the rules they
share live here.  :func:`_energy_matching_root` (bracket, then safeguarded
Newton-bisection) is the one root finder: ``fermions.solve_beta`` and
``dense.gibbs_state_dense`` match a mean energy with it, and the kernel
``dense._entropy_matching_beta`` an entropy (beta* of
``protocols.optimal_gibbs_protocol``).  :func:`_check_spectrum` is the
one range rule for a correlation spectrum or mode populations, called by
``fermions._ModeState.entropy``, ``dense.gaussian_to_dense`` and
``protocols._ergotropy``.  :func:`_fermi` and :func:`_xlogx` are the
Fermi-function and entropy kernels; nothing here imports scipy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

STATE_ATOL = 1e-10      # every input: Hermiticity of matrices, a state's trace and spectrum
DEGENERACY_TOL = 1e-9
_LOG_MAX = float(np.log(np.finfo(float).max))   # exp overflows above this
_EPS4 = 4.0 * float(np.finfo(float).eps)
_ANCHOR_RTOL = 1e-8     # an eigenvector's anchor: its first entry this close to the largest
# entries per stacked call.  Stacking saves per-call overhead on small matrices but is no
# faster from about 3,000 entries (complex d = 64, real n = 100), and a complex stack of
# 4,096 entries and each of its temporaries stay at 64 KiB, under glibc's 128 KiB mmap
# threshold (larger dense stacks raised a dense run's peak RSS by about 2 MB)
_BATCH_ENTRIES = 1 << 12

__all__ = [
    "DEGENERACY_TOL",
    "EigenSystem",
    "require_hermitian",
    "eigh",
    "cluster_degenerate",
]


def require_hermitian(matrix, name: str = "matrix") -> np.ndarray:
    """Validate Hermiticity within ``STATE_ATOL`` (the largest entrywise
    magnitude of M - M†) and return the symmetrised copy: float64 when the
    input is real or its imaginary part is exactly zero, complex otherwise."""
    m = _hermitian_dtype(matrix)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {m.shape}")
    mh = m.conj().T
    with np.errstate(invalid="ignore"):     # inf - inf is NaN, classified below
        defect = float(np.abs(m - mh).max()) if m.size else 0.0
    if not defect <= STATE_ATOL:      # NaN fails this test too
        if not np.all(np.isfinite(m)):
            raise ValueError(f"{name} has non-finite entries")
        raise ValueError(
            f"{name} is not Hermitian: max asymmetry {defect:.3e} exceeds tolerance {STATE_ATOL:.1e}"
        )
    return 0.5 * (m + mh)


def _hermitian_dtype(matrix) -> np.ndarray:
    """``matrix`` as float64 when it is real or its imaginary part is exactly zero, else complex."""
    m = np.asarray(matrix)
    if np.iscomplexobj(m) and not m.imag.any():     # a NaN imaginary part stays complex
        m = m.real
    return m.astype(complex if np.iscomplexobj(m) else float, copy=False)


def _stacks(ms: list[np.ndarray]):
    """``(indices, stack)`` of ``ms`` per (shape, dtype), at most ``_BATCH_ENTRIES`` entries or one array."""
    groups: dict = {}
    for i, m in enumerate(ms):
        groups.setdefault((m.shape, m.dtype), []).append(i)
    for idx in groups.values():
        step = max(1, _BATCH_ENTRIES // max(1, ms[idx[0]].size))
        for k in range(0, len(idx), step):
            yield idx[k:k + step], np.array([ms[i] for i in idx[k:k + step]])


def _require_hermitian_all(matrices, name: str = "matrix") -> list[np.ndarray]:
    """:func:`require_hermitian` of each matrix (the i-th named ``name.format(i=i)``) in
    stacked calls; if one fails, the per-matrix calls raise the first error in order."""
    matrices, out = list(matrices), {}
    try:
        for idx, s in _stacks([_hermitian_dtype(m) for m in matrices]):
            sh = s.conj().transpose(0, 2, 1)    # a ValueError unless a stack of matrices
            with np.errstate(invalid="ignore"):     # inf - inf is NaN, which fails
                if sh.shape != s.shape or not np.abs(s - sh).max(initial=0.0) <= STATE_ATOL:
                    raise ValueError
            out.update(zip(idx, 0.5 * (s + sh)))
        return [out[i] for i in range(len(matrices))]
    except (TypeError, ValueError):     # a failing or non-numeric entry: name the first
        pass
    return [require_hermitian(m, name.format(i=i)) for i, m in enumerate(matrices)]


def _hermitian_part(m: np.ndarray) -> np.ndarray:
    """(M + M†) / 2, the symmetrisation of :func:`require_hermitian` without its check."""
    return 0.5 * (m + m.conj().T)


@dataclass(frozen=True)
class EigenSystem:
    """Ascending eigenvalues and the unitary whose k-th column is the
    eigenvector of the k-th eigenvalue."""

    values: np.ndarray
    vectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        """A diag(values) A†."""
        return (self.vectors * self.values) @ self.vectors.conj().T


def _fix_phases(vectors: np.ndarray) -> np.ndarray:
    # Anchor each column on its first entry within a relative _ANCHOR_RTOL of
    # the column's largest magnitude; a real column keeps its dtype (phase +-1).
    mags = np.abs(vectors)
    idx = np.argmax(mags >= (1.0 - _ANCHOR_RTOL) * mags.max(axis=0, initial=0.0), axis=0)
    anchors = vectors[idx, np.arange(vectors.shape[1])]
    mags = mags[idx, np.arange(vectors.shape[1])]
    safe = np.where(mags > 0.0, mags, 1.0)
    phases = np.where(mags > 0.0, anchors / safe, 1.0)
    return vectors * phases.conj()


def eigh(matrix) -> EigenSystem:
    """Eigendecomposition of a Hermitian matrix, phases fixed as above.

    Rejects inputs whose asymmetry exceeds ``STATE_ATOL``, reporting the defect.
    """
    return _eigh(require_hermitian(matrix))


def _eigh(h: np.ndarray) -> EigenSystem:
    """Kernel of :func:`eigh` for a matrix ``require_hermitian`` has already
    validated and symmetrised."""
    values, vectors = np.linalg.eigh(h)
    return EigenSystem(values=values, vectors=_fix_phases(vectors))


def _eigh_all(hs: list[np.ndarray]) -> list[EigenSystem]:
    """:func:`_eigh` of each validated matrix in stacked calls, bit for bit: a stack's
    columns are phase-fixed side by side, each on its own."""
    out = {}
    for idx, s in _stacks(hs):
        values, vectors = np.linalg.eigh(s)
        b, n = vectors.shape[:2]
        vectors = _fix_phases(vectors.transpose(1, 0, 2).reshape(n, b * n)).reshape(n, b, n)
        out.update(zip(idx, map(EigenSystem, values, np.ascontiguousarray(vectors.transpose(1, 0, 2)))))
    return [out[i] for i in range(len(hs))]


def cluster_degenerate(values, tol: float = DEGENERACY_TOL) -> np.ndarray:
    """Degeneracy label per ascending-sorted value: 0 for the first, and one
    more at each gap larger than ``tol``, so level k is ``labels == k``.
    Empty input yields an empty int array."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    v = np.asarray(values, dtype=float)
    if v.ndim != 1:
        raise ValueError("values must be one-dimensional")
    if v.size and np.any(np.diff(v) < 0):
        raise ValueError("values must be sorted in ascending order")
    return _labels(v, tol)


def _labels(values: np.ndarray, tol: float = DEGENERACY_TOL) -> np.ndarray:
    """Kernel of :func:`cluster_degenerate` along the last axis, so a stack of
    validated spectra is labelled in one call, row by row."""
    return np.cumsum(np.diff(values, axis=-1, prepend=values[..., :1]) > tol, axis=-1)


def _check_spectrum(d: np.ndarray) -> np.ndarray:
    """A correlation spectrum or mode populations, checked to lie in
    [-1e-6, 1 + 1e-6] and returned unchanged."""
    if d.size and (d.min() < -1e-6 or d.max() > 1.0 + 1e-6):
        raise ValueError(
            f"correlation spectrum outside [0, 1]: min {d.min():.3e}, max {d.max():.6f}"
        )
    return d


def _fermi(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(x)) elementwise; where exp(x) would overflow it is taken as inf, giving 0."""
    return 1.0 / (1.0 + np.exp(x, out=np.full(x.shape, np.inf), where=x < _LOG_MAX))


def _xlogx(p: np.ndarray) -> np.ndarray:
    """p log p elementwise for p >= 0, with 0 log 0 = 0."""
    return p * np.log(np.where(p > 0.0, p, 1.0))


def _energy_matching_root(fs, lo: float = -64.0, hi: float = 64.0, floor: float = 0.0) -> float:
    """Root of a residual f (a mean energy or an entropy minus its target),
    strictly decreasing on the bracket; ``fs(beta)`` returns ``(f, df/dbeta)``.

    The bracket (``lo``, ``hi``) doubles outwards until the residual changes
    sign (up to |beta| = 1e12; an end at zero stays put).  From its midpoint,
    a Newton step is taken when it stays inside the shrinking bracket and is
    at most half the step before last; otherwise the bracket is bisected.  The
    root is returned once a step falls below 1e-14 + 4 eps |beta|, or once
    |f| is at most ``floor``, the residual's round-off level.

    Raises RuntimeError when no sign change is found or 200 steps do not
    converge (residual reported).
    """
    f_lo, f_hi = fs(lo)[0], fs(hi)[0]  # f decreasing: want f_lo >= 0 >= f_hi
    while f_lo < 0.0 and -1e12 < lo < 0.0:
        lo *= 2.0
        f_lo = fs(lo)[0]
    while f_hi > 0.0 and 0.0 < hi < 1e12:
        hi *= 2.0
        f_hi = fs(hi)[0]
    if f_lo < 0.0 or f_hi > 0.0:
        raise RuntimeError(
            "beta matching found no sign change after bracket expansion; residual "
            f"{min(abs(f_lo), abs(f_hi)):.3e}"
        )
    beta = 0.5 * (lo + hi)
    step = step_old = hi - lo
    for _ in range(200):
        f, s = fs(beta)
        if abs(f) <= floor:
            return beta
        if f > 0.0:
            lo = beta
        else:
            hi = beta
        newton = f / s if s < 0.0 else np.inf
        if lo <= beta - newton <= hi and 2.0 * abs(newton) <= step_old:
            step_old, step = step, abs(newton)
            beta -= newton
        else:
            step_old, step = step, 0.5 * (hi - lo)
            beta = lo + step
        if step <= 1e-14 + _EPS4 * abs(beta):
            return beta
    raise RuntimeError(f"beta matching did not converge: residual {abs(f):.3e} after 200 steps")
