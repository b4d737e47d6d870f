"""Hermitian eigendecomposition with a fixed phase convention, degeneracy
clustering, and the numerical rules shared by both back ends.

Eigenvectors are normalised so that the largest-magnitude component of each
column is real and positive, which makes repeated runs reproducible.  All
routines are pure functions; nothing mutates its inputs.

Both back ends import this module and not each other, so the rules they
share live here.  :func:`_energy_matching_root` (bracket, Brent, Newton
polish) is the one root finder: ``fermions.solve_beta`` and
``dense.gibbs_state_dense`` match a mean energy with it, and
``dense.entropy_matching_beta`` an entropy.  :func:`_check_spectrum` is the
one range rule for a correlation spectrum or mode populations, called by
``fermions._ModeState.entropy``, ``dense.gaussian_to_dense`` and
``protocols._ergotropy``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

HERMITIAN_ATOL = 1e-12
STATE_ATOL = 1e-10      # inputs: states, and the Hamiltonians and observables checked with them
DEGENERACY_TOL = 1e-9

__all__ = [
    "DEGENERACY_TOL",
    "EigenSystem",
    "DegeneracyPartition",
    "require_hermitian",
    "eigh",
    "cluster_degenerate",
]


def require_hermitian(matrix, atol: float = HERMITIAN_ATOL, name: str = "matrix") -> np.ndarray:
    """Validate Hermiticity within ``atol`` (the largest entrywise magnitude
    of M - M†) and return the symmetrised copy."""
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {m.shape}")
    mh = m.conj().T
    with np.errstate(invalid="ignore"):     # inf - inf is NaN, classified below
        defect = float(np.abs(m - mh).max()) if m.size else 0.0
    if not defect <= atol:      # NaN fails this test too
        if not np.all(np.isfinite(m)):
            raise ValueError(f"{name} has non-finite entries")
        raise ValueError(
            f"{name} is not Hermitian: max asymmetry {defect:.3e} exceeds tolerance {atol:.1e}"
        )
    return 0.5 * (m + mh)


@dataclass(frozen=True)
class EigenSystem:
    """Ascending eigenvalues and the unitary whose k-th column is the
    eigenvector of the k-th eigenvalue."""

    values: np.ndarray
    vectors: np.ndarray

    @property
    def dim(self) -> int:
        return int(self.values.shape[0])

    def reconstruct(self) -> np.ndarray:
        """A diag(values) A†."""
        return (self.vectors * self.values) @ self.vectors.conj().T


@dataclass(frozen=True)
class DegeneracyPartition:
    """Index groups of near-degenerate eigenvalues and the tolerance used."""

    groups: tuple[tuple[int, ...], ...]
    tol: float

    def labels(self) -> np.ndarray:
        """Group label per index; handy for building block masks."""
        n = sum(len(g) for g in self.groups)
        out = np.empty(n, dtype=int)
        for label, group in enumerate(self.groups):
            for i in group:
                out[i] = label
        return out


def _fix_phases(vectors: np.ndarray) -> np.ndarray:
    # Anchor each column on its largest-magnitude entry (first one on ties).
    idx = np.argmax(np.abs(vectors), axis=0)
    anchors = vectors[idx, np.arange(vectors.shape[1])]
    mags = np.abs(anchors)
    safe = np.where(mags > 0.0, mags, 1.0)
    phases = np.where(mags > 0.0, anchors / safe, 1.0)
    return vectors * phases.conj()


def eigh(matrix, atol: float = HERMITIAN_ATOL) -> EigenSystem:
    """Eigendecomposition of a Hermitian matrix, phases fixed as above.

    Rejects inputs whose asymmetry exceeds ``atol``, reporting the defect.
    """
    return _eigh(require_hermitian(matrix, atol=atol))


def _eigh(h: np.ndarray) -> EigenSystem:
    """Kernel of :func:`eigh` for a matrix ``require_hermitian`` has already
    validated and symmetrised."""
    values, vectors = np.linalg.eigh(h)
    return EigenSystem(values=values, vectors=_fix_phases(vectors))


def cluster_degenerate(values, tol: float = DEGENERACY_TOL) -> DegeneracyPartition:
    """Group ascending-sorted values; a gap larger than ``tol`` starts a new
    group.  Empty input yields an empty partition."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    v = np.asarray(values, dtype=float)
    if v.ndim != 1:
        raise ValueError("values must be one-dimensional")
    if v.size and np.any(np.diff(v) < 0):
        raise ValueError("values must be sorted in ascending order")
    groups: list[tuple[int, ...]] = []
    start = 0
    for i in range(1, v.size):
        if v[i] - v[i - 1] > tol:
            groups.append(tuple(range(start, i)))
            start = i
    if v.size:
        groups.append(tuple(range(start, v.size)))
    return DegeneracyPartition(groups=tuple(groups), tol=tol)


def _check_spectrum(d: np.ndarray) -> np.ndarray:
    """A correlation spectrum or mode populations, checked to lie in
    [-1e-6, 1 + 1e-6] and returned unchanged."""
    if d.size and (d.min() < -1e-6 or d.max() > 1.0 + 1e-6):
        raise ValueError(
            f"correlation spectrum outside [0, 1]: min {d.min():.3e}, max {d.max():.6f}"
        )
    return d


def _energy_matching_root(f, slope, target: float, lo: float = -64.0, hi: float = 64.0) -> float:
    """Root of the residual ``f(beta)`` (a mean energy or an entropy minus
    ``target``), strictly decreasing on the bracket.

    The bracket (``lo``, ``hi``) doubles outwards until the residual changes
    sign (up to |beta| = 1e12; an end at zero stays put), Brent's method
    finds the root, and up to eight Newton steps ``beta -= f / slope``
    polish it when the residual still exceeds ``1e-10 * max(1, |target|)``.

    Raises RuntimeError when no sign change is found or the polish does not
    reach the tolerance (residual reported).
    """
    b_lo, b_hi = lo, hi
    f_lo, f_hi = f(b_lo), f(b_hi)  # f decreasing: want f_lo >= 0 >= f_hi
    while f_lo < 0.0 and -1e12 < b_lo < 0.0:
        b_lo *= 2.0
        f_lo = f(b_lo)
    while f_hi > 0.0 and 0.0 < b_hi < 1e12:
        b_hi *= 2.0
        f_hi = f(b_hi)
    if f_lo < 0.0 or f_hi > 0.0:
        raise RuntimeError(
            "beta matching found no sign change after bracket expansion; residual "
            f"{min(abs(f_lo), abs(f_hi)):.3e}"
        )
    beta = brentq(f, b_lo, b_hi, xtol=1e-14, rtol=4 * np.finfo(float).eps, maxiter=300)
    tol = 1e-10 * max(1.0, abs(target))
    resid = f(beta)
    if abs(resid) > tol:
        for _ in range(8):
            s = slope(beta)
            if s == 0.0:
                break
            beta -= resid / s
            resid = f(beta)
            if abs(resid) <= tol:
                break
        if abs(resid) > tol:
            raise RuntimeError(
                f"beta matching did not converge: residual {abs(resid):.3e} exceeds {tol:.3e}"
            )
    return beta
