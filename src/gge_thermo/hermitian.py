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
builds and thread counts.  The anchor applies to ``eigh`` results; a rotation
sample keeps its rotation's frame, and a rank-one sample its kernel's.  A record's
eigensystem and degeneracy labels are filled in once, in place, and never changed after; no
routine mutates any other input.  A list of matrices (a schedule on either back end,
keyframes, observables) is checked one matrix at a time by one shape rule:
each has the shape of the state, or of the first keyframe or observable,
else ``dimension mismatch: {label} {shape} vs {name} {its shape}``; the first
bad matrix in list order raises its own error, whatever kind it is.  A
schedule's record either arrives with its eigensystem or is decomposed in stacked ``eigh`` calls,
bit for bit as one call per matrix.

:class:`_Hamiltonian` is the one Hamiltonian record of both back ends (the gaussian
``fermions.QuadraticHamiltonian`` is a subclass): a checked matrix whose eigensystem and
degeneracy labels are given or worked out on first use.  :class:`_EigenState` is the one
state of both (``fermions._ModeState`` and ``dense._State`` are subclasses), with the one
transport, quench, hold and pinching, and the one ``schedule``, which reads a list or an iterator one
record at a time: it checks matrices, adopts the builders' trusted records and decomposes each once.

Both back ends import this module and not each other, so the rules they
share live here.  :func:`_energy_matching_root` (bracket, then safeguarded
Newton-bisection, or warm from a run's last beta) is the one root finder;
``_EigenState.energy_beta`` and ``entropy_beta`` are the one energy and
entropy match, with one edge rule, on each back end's weights (Fermi or
Boltzmann), moments and range, for both thermal maps, ``fermions.solve_beta``,
``dense.gibbs_state_dense`` and ``protocols.optimal_gibbs_protocol``'s beta*.
:func:`_check_spectrum` is
the one range rule for a correlation spectrum or mode populations, called by
``fermions._ModeState.spectrum`` (for its entropy and the ergotropy floor)
and ``dense.gaussian_to_dense``.  :func:`_fermi` and :func:`_xlogx` are the
Fermi-function and entropy kernels, in numpy like the whole package.
A local-quench schedule's samples after its peak are rank-one site-0 updates H0 + rho e_0 e_0^T of
its real H0, built from their site-0 energies by :func:`_site0_updates` ``_RANK_ONE_STACK`` at a time as
the schedule is read: each stack is solved by the secular equation (:func:`_rank_one_eigh`, its roots by
:func:`_secular_roots` after LAPACK's ``dlaed4``), and each record's matrix is formed from its eigensystem
only when read, as a rotation sample's is.  The peak, and each sample of a guarded H0 (complex, fewer than
``_RANK_ONE_MODES`` modes, or a level gap or site-0 mode entry near zero), is H0's matrix with the site-0
entry set, left to ``eigh``.  Each vector keeps the sign the kernel's recomputed site row gives it, the
same on every BLAS build; anchoring them would cost about a twentieth of the kernel (0.24 of 4.3 ms per
stack of 4 at n = 150, 1 BLAS thread).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import NamedTuple

import numpy as np

STATE_ATOL = 1e-10      # every input: Hermiticity of matrices, a state's trace and spectrum
DEGENERACY_TOL = 1e-9
_LOG_MAX = float(np.log(np.finfo(float).max))   # exp overflows above this
_EPS4 = 4.0 * float(np.finfo(float).eps)
_ANCHOR_RTOL = 1e-8     # an eigenvector's anchor: its first entry this close to the largest
# entries per stacked eigh of a schedule.  Stacking saves per-call overhead on small matrices but is no
# faster from about 3,000 entries (complex d = 64, real n = 100), and a complex stack of
# 4,096 entries and each of its temporaries stay at 64 KiB, under glibc's 128 KiB mmap
# threshold (larger dense stacks raised a dense run's peak RSS by about 2 MB)
_BATCH_ENTRIES = 1 << 12
_SECULAR_ITERATIONS = 40     # a root's cap; dlaed4 converges in a few, a plain Newton iteration often not
# rank-one samples solved together.  The kernel's many short numpy calls hold the GIL that the sweep's
# second worker waits on: with two workers, fig3 (n = 100) ran 0.143 s in stacks of 4, 0.101 s in stacks
# of 8 and 0.131 s on eigh
_RANK_ONE_STACK = 8
# the fewest modes whose samples go to the kernel: on one thread it passes eigh between n = 32 (0.13
# against 0.07 ms a sample) and 48 (0.17 against 0.22 ms)
_RANK_ONE_MODES = 64
_RANK_ONE_GUARD = 1e-8       # a site-0 mode entry or level gap, relative, below which eigh decomposes

__all__ = [
    "DEGENERACY_TOL",
    "EigenSystem",
    "require_hermitian",
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
    if m.dtype.kind == "c" and not m.imag.any():     # a NaN imaginary part stays complex
        m = m.real
    return m.astype(complex if m.dtype.kind == "c" else float, copy=False)


def _require_hermitian_all(matrices, name: str = "matrix", shape: tuple | None = None,
                           label: str | None = None) -> list[np.ndarray]:
    """:func:`require_hermitian` of each matrix in order (the i-th named ``name.format(i=i)``), each of
    ``shape``, that of ``label`` (else the first matrix's); the first bad matrix raises its own error,
    a wrong shape ``dimension mismatch: {label} {shape} vs {name} {its}``."""
    checked = []
    for i, m in enumerate(matrices):
        h = require_hermitian(m, name.format(i=i))
        if shape is None:
            shape, label = h.shape, name.format(i=0)
        if h.shape != shape:
            raise ValueError(f"dimension mismatch: {label} {shape} vs {name.format(i=i)} {h.shape}")
        checked.append(h)
    return checked


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


def _eigh(h: np.ndarray) -> EigenSystem:
    """Eigendecomposition, phases fixed as above, of a matrix :func:`require_hermitian`
    has already validated and symmetrised."""
    values, vectors = np.linalg.eigh(h)
    return EigenSystem(values=values, vectors=_fix_phases(vectors))


def _eigh_all(hs: list[np.ndarray]) -> tuple[list[EigenSystem], list[np.ndarray]]:
    """:func:`_eigh` of each validated matrix in one stacked call per (shape, dtype), bit for bit
    (a stack's columns are phase-fixed side by side, each on its own), and each spectrum's labels:
    one array, read-only, for a stack's simple spectra, a cumsum if one is degenerate."""
    es, labels, groups = {}, {}, {}
    for i, h in enumerate(hs):
        groups.setdefault((h.shape, h.dtype), []).append(i)
    for idx in groups.values():
        values, vectors = np.linalg.eigh(np.array([hs[i] for i in idx]))
        b, n = vectors.shape[:2]
        vectors = _fix_phases(vectors.transpose(1, 0, 2).reshape(n, b * n)).reshape(n, b, n)
        es.update(zip(idx, map(EigenSystem, values, np.ascontiguousarray(vectors.transpose(1, 0, 2)))))
        rows = [np.arange(n)] * b   # the labels of a simple spectrum, one array for the stack
        rows[0].flags.writeable = False     # so no record's write changes its siblings'
        if (values[:, 1:] - values[:, :-1] <= DEGENERACY_TOL).any():
            lab = _labels(values)
            for k in np.flatnonzero(lab[:, -1] < n - 1):
                rows[k] = lab[k]
        labels.update(zip(idx, rows))
    return [es[i] for i in range(len(hs))], [labels[i] for i in range(len(hs))]


def _decomposed(hams, size: int):
    """The iterator ``hams``, read one stack of at most ``_BATCH_ENTRIES`` entries of ``size`` ahead: each
    record after the first that lacks an eigensystem is decomposed by ``eigh``, labelled, and keeps it."""
    yield from islice(hams, 1)
    while batch := list(islice(hams, max(1, _BATCH_ENTRIES // max(1, size)))):
        bare = [ham for ham in batch if ham._es is None]
        for ham, es, labels in zip(bare, *_eigh_all([ham.h for ham in bare])):
            ham._es, ham._lab = es, labels
        yield from batch


def _site0_updates(ham0: _Hamiltonian, energies):
    """Trusted records of ham0 with its site-0 entry set to each energy in turn, ham0 + rho e_0 e_0^T for
    rho = energy - ham0.h[0, 0].  The first is that matrix, left to ``eigh``, and so is each one after it
    when ham0 is complex, has fewer than ``_RANK_ONE_MODES`` modes, or a level gap or a site-0 mode entry
    |z_k| within the relative ``_RANK_ONE_GUARD`` of zero (deflation); else the rest are read
    ``_RANK_ONE_STACK`` at a time, each ``_of`` its eigensystem from the stack's one :func:`_rank_one_eigh`
    call, so its matrix is formed only when read."""
    energies, record, h0, es0 = iter(energies), type(ham0), ham0.h, ham0.es
    d, z = es0.values, es0.vectors[0]
    solved = not (np.iscomplexobj(es0.vectors) or len(d) < _RANK_ONE_MODES or np.abs(z).min() <= _RANK_ONE_GUARD
                  or (d[1:] - d[:-1]).min() <= _RANK_ONE_GUARD * max(-d[0], d[-1]))
    for energy in islice(energies, 1 if solved else None):     # the peak, or every energy of a guarded ham0
        h = h0.copy()
        h[0, 0] = energy
        yield record._trusted(h)
    while stack := list(islice(energies, _RANK_ONE_STACK)):
        yield from map(record._of, _rank_one_eigh(es0, [energy - h0[0, 0] for energy in stack]))


def _rank_one_eigh(es0: EigenSystem, rhos) -> list[EigenSystem]:
    """Eigensystems of A diag(d) A^T + rho e_0 e_0^T for each rho of a stack, from the real ``es0`` = (d, A)
    of a simple spectrum: those of D + rho z z^T with z = A[0] (Bunch, Nielsen and Sorensen, Numer. Math.
    31, 31 (1978)), whose roots :func:`_secular_roots` finds.  The vectors are v_k = zh / (d - lambda_k),
    normalised, from Gu and Eisenstat's recomputed zh (SIAM J. Matrix Anal. Appl. 15, 1266 (1994)), which
    keeps them orthogonal, and A V is one product per sample; each keeps the sign zh gives it.  rho < 0 is
    the problem -D + |rho| z z^T mirrored; rho = 0 copies ``es0``.  The caller guards the input: n >= 2, no
    |z_k| and no level gap near zero."""
    d, a = es0.values, es0.vectors
    n, rho = len(d), np.asarray(rhos, dtype=float)
    z2 = float(a[0] @ a[0])
    values = np.empty((len(rho), n))
    vectors = [a.copy() if r == 0.0 else np.empty((n, n)) for r in rho]    # apart: a record frees its own
    values[rho == 0.0] = d
    ks = np.arange(n - 1)[:, None]
    pair = np.where(ks < np.arange(n), ks, ks + 1)      # the pole paired with root k < n - 1 for pole i
    for sign in (1.0, -1.0):
        stack = np.flatnonzero(np.sign(rho) == sign)
        if not stack.size:
            continue
        dm, zm, am = (d, a[0], a) if sign > 0 else (-d[::-1], a[0, ::-1], a[:, ::-1])
        # q[s, k, i] = d_i - lambda_k
        lam, q = _secular_roots(dm, zm / np.sqrt(z2), sign * rho[stack] * z2)
        scale = 1.0 / (dm - dm[pair])
        for i, j in enumerate(stack):
            # zh_i^2 = (lambda_{n-1} - d_i) prod_k (d_i - lambda_k) / (d_i - d_pair), each factor in (0, 1)
            zh = np.copysign(np.sqrt(-q[i, -1] * np.prod(q[i, :-1] * scale, axis=0)), zm)
            v = np.divide(zh, q[i], out=q[i])       # row k: eigenvector k on the poles
            v /= np.sqrt(np.einsum("ki,ki->k", v, v))[:, None]
            np.matmul(am, (v if sign > 0 else v[::-1]).T, out=vectors[j])
        values[stack] = lam if sign > 0 else -lam[:, ::-1]
    return list(map(EigenSystem, values, vectors))


def _secular_roots(d: np.ndarray, z: np.ndarray, rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The roots lambda (stack, n) of f = 1 / rho + sum_j z_j^2 / (d_j - lambda) for each rho > 0 of a stack,
    d ascending, |z| = 1, and the differences q[s, k, i] = d_i - lambda_k, as LAPACK's ``dlaed4`` forms them.

    Root k < n - 1 lies in (d_k, d_k+1), the last in (d_n-1, d_n-1 + rho).  Each is first evaluated at its
    interval's midpoint; the sign of f there picks the nearer pole as its origin, and lambda = d_o + tau is
    kept as tau, with every difference formed as (d_j - d_o) - tau.  The first step solves the two nearest
    poles exactly with the rest of f frozen (``dlaed4``'s first guess); later ones take ``dlaed4``'s middle
    way (each side's poles as one at its nearest pole, matched in value and slope), with the last root's
    left side as one pole placed by value and slope.  Each step is refined by one Newton step on the two
    nearest poles plus the rest of f to first order, kept in the root's bracket by bisection, until |f| is
    within ``dlaed4``'s bound on its round-off.  The whole stack is iterated until half its roots have
    converged, then only the rest.  Raises RuntimeError when ``_SECULAR_ITERATIONS`` steps leave a root
    unconverged."""
    n, s = len(d), len(rho)
    k = np.tile(np.arange(n), s)
    p, last = np.minimum(k, n - 2), k == n - 1         # the two nearest poles are p and p + 1
    rinv = np.repeat(1.0 / rho, n)
    width = np.where(last, np.repeat(rho, n), np.tile(np.append(np.diff(d), 0.0), s))
    o, tau, lo, hi = k, 0.5 * width, np.zeros(s * n), width.copy()
    left = np.arange(n) <= np.minimum(np.arange(n), n - 2)[:, None]     # row k: the poles j <= p
    zleft, left = z * left, left.astype(float)
    zs2, zp2, zq2 = z * z, z[p] ** 2, z[p + 1] ** 2
    zj, ones = np.stack([z, z * np.arange(n)], axis=1), np.ones(n)
    poles, q = d - d[o][:, None], np.empty((s * n, n))     # d_j - d_o per root, and the differences
    lam, idx = np.empty(s * n), None                    # idx: the roots iterated, once not all
    w = q       # the work rows: the terms, then their slopes; q's own until half the roots converge

    def masked(x, m):      # sum_{j <= p} x_j m_j per root: m per root k of the stack, or per root iterated
        if idx is None:
            return np.einsum("skj,kj->sk", x.reshape(s, n, n), m).ravel()
        return np.einsum("ij,ij->i", x, m)

    for it in range(_SECULAR_ITERATIONS):
        np.subtract(poles, tau[:, None], out=w)
        np.divide(z, w, out=w)
        zt, part = (w @ zj).T                           # sum_j z_j^2 / (d_j - lambda), and weighted by j
        psi = masked(w, zleft)
        np.multiply(w, w, out=w)
        df, dpsi = w @ ones, masked(w, left)
        f = rinv + zt
        # dlaed4's bound: 8 sum_{j != o} |terms|, their partial sums, 2 / rho, 3 |origin term|, |tau| f'
        bound = (8.0 * np.where(last, -zt, zt - 2.0 * psi) - 5.0 * zs2[o] / np.abs(tau) + (part - o * zt)
                 + 2.0 * rinv + np.abs(tau) * df)
        done = np.abs(f) <= _EPS4 / 4.0 * bound
        if done.all():
            break
        if it == 0:     # origin p + 1 for a middle root right of its midpoint
            shift = (f < 0.0) & ~last & ~done
        neg = f < 0.0
        np.copyto(lo, tau, where=neg)
        np.copyto(hi, tau, where=~neg)
        dp, dq = (d[p] - d[o]) - tau, (d[p + 1] - d[o]) - tau
        near, dnear = zp2 / dp + zq2 / dq, zp2 / (dp * dp) + zq2 / (dq * dq)
        with np.errstate(divide="ignore", invalid="ignore"):
            if it == 0:
                c = f - near
                a, b = c * (dp + dq) + zp2 + zq2, c * dp * dq + zp2 * dq + zq2 * dp
            else:
                x = np.where(last, psi / dpsi, dp)
                c = f - x * dpsi - dq * (df - dpsi)
                np.abs(c, out=c, where=last)
                a, b = (x + dq) * f - x * dq * df, x * dq * f
            # c eta^2 - a eta + b = 0: the root between the model's poles, or right of both for the last
            r = 0.5 * (a + np.copysign(np.sqrt(np.abs(a * a - 4.0 * b * c)), a))
            eta = np.where((a > 0.0) != last, b / r, r / c)
            eta = np.where(f * eta < 0.0, eta, -f / df)         # a step the wrong way is Newton's
            ep, eq = dp - eta, dq - eta
            g = f - near + (df - dnear) * eta + zp2 / ep + zq2 / eq
            refined = tau + eta - g / (df - dnear + zp2 / (ep * ep) + zq2 / (eq * eq))
        new = np.where((lo < refined) & (refined < hi), refined, tau + eta)
        new = np.where((lo < new) & (new < hi), new, 0.5 * (tau + np.where(neg, hi, lo)))
        tau = np.where(done, tau, new)
        if it == 0:
            moved = np.where(shift, width, 0.0)
            tau, lo, hi, o = tau - moved, lo - moved, hi - moved, o + shift
            np.subtract(d, d[o][:, None], out=poles)
        if 2 * done.sum() >= len(tau):     # on with the rest alone
            keep = ~done
            if idx is None:
                np.subtract(poles, tau[:, None], out=q)
                lam[:] = d[o] + tau
                idx, zleft, left = np.flatnonzero(keep), zleft[k[keep]], left[k[keep]]
            else:
                q[idx[done]], lam[idx[done]] = poles[done] - tau[done, None], d[o[done]] + tau[done]
                idx, zleft, left = idx[keep], zleft[keep], left[keep]
            tau, lo, hi, o, p, last, rinv, poles, zp2, zq2, k = (
                x[keep] for x in (tau, lo, hi, o, p, last, rinv, poles, zp2, zq2, k))
            w = np.empty((len(idx), n))
    else:
        raise RuntimeError(f"secular equation did not converge: residual {np.abs(f[~done]).max():.3e} "
                           f"after {_SECULAR_ITERATIONS} steps")
    rows = slice(None) if idx is None else idx
    q[rows], lam[rows] = poles - tau[:, None], d[o] + tau
    return lam.reshape(s, n), q.reshape(s, n, n)


def cluster_degenerate(values, tol: float = DEGENERACY_TOL) -> np.ndarray:
    """Degeneracy label per ascending-sorted value: 0 for the first, and one
    more at each gap larger than ``tol``, so level k is ``labels == k``.
    Empty input yields an empty int array."""
    if not tol > 0:      # NaN fails this test too
        raise ValueError(f"tol must be positive, got {tol!r}")
    v = np.asarray(values, dtype=float)
    if v.ndim != 1:
        raise ValueError("values must be one-dimensional")
    if v.size and np.any(np.diff(v) < 0):
        raise ValueError("values must be sorted in ascending order")
    return _labels(v, tol)


def _labels(values: np.ndarray, tol: float = DEGENERACY_TOL) -> np.ndarray:
    """Kernel of :func:`cluster_degenerate` for validated values, row by row along the last axis."""
    labels = np.zeros(values.shape, dtype=np.intp)
    np.cumsum(values[..., 1:] - values[..., :-1] > tol, axis=-1, out=labels[..., 1:])
    return labels


class _Hamiltonian:
    """A checked Hermitian matrix ``h`` carrying its eigensystem ``es`` and the degeneracy ``labels`` of
    its spectrum, each given or worked out on first use (``h`` from ``es``; threads that race there work
    out the same arrays, and one is kept).  Its class is its back end's: a state's ``schedule`` adopts it."""

    __slots__ = ("_h", "_es", "_lab")

    def __init__(self, h: np.ndarray | None, es: EigenSystem | None = None):
        self._h, self._es, self._lab = h, es, None

    @property
    def h(self) -> np.ndarray:      # from es: U diag(eps) U^dag in the checked dtype, symmetrised
        if self._h is None:
            self._h = _hermitian_part(_hermitian_dtype(self._es.reconstruct()))
        return self._h

    shape = property(lambda self: (self._es.vectors if self._h is None else self._h).shape)   # without forming h

    @property
    def es(self) -> EigenSystem:
        if self._es is None:
            self._es = _eigh(self.h)
        return self._es

    @property
    def labels(self) -> np.ndarray:
        if self._lab is None:
            self._lab = _labels(self.es.values)
        return self._lab

    @classmethod
    def _trusted(cls, h: np.ndarray | None, es: EigenSystem | None = None):
        """A ``cls`` record of the checked ``h``, past a subclass's checking constructor."""
        ham = cls.__new__(cls)
        _Hamiltonian.__init__(ham, h, es)
        return ham

    @classmethod
    def _of(cls, es: EigenSystem):
        """Trusted, from an eigensystem (a rotation's), with U as it is; ``h`` is formed on first use.
        U needs no anchor: the anchor fixes the phases ``eigh`` leaves free, and U(s) = v^s A_a starts
        at an anchored keyframe, whatever phases v's basis has."""
        return cls._trusted(None, es)


def _expectation(rho: np.ndarray, obs: np.ndarray) -> float:     # Re Tr(obs rho)
    return float(np.einsum("ij,ji->", obs, rho).real)


class _EigenState(NamedTuple):
    """A state V b V^dag in the eigenbasis V of ``ham`` (its eigenvectors, or their
    conjugate when ``_conjugate`` is set: a gaussian state in the modes A is this state
    in the basis A^*, whose holds turn the other way), with b its matrix there or its
    populations p; or, when ``ham`` is None, the checked input matrix b and the
    ``eigenvalues`` its check computed, if any.  A back end subclasses it with ``of``
    (and :meth:`schedule` checks Hamiltonians against it; the other methods trust them),
    its record type, the spectrum and the thermal ``_weights``, ``_moments`` and ``_range``;
    each map takes the state after :meth:`quench` to its Hamiltonian and returns ``(state, duals)``."""

    ham: _Hamiltonian | None
    b: np.ndarray
    eigenvalues: np.ndarray | None = None
    _conjugate = False
    _record = _Hamiltonian      # the back end's Hamiltonian record type
    _name, _label = "Hamiltonian", "state"      # a schedule's matrices and the state, in errors

    @classmethod
    def prologue(cls, state, hamiltonian) -> tuple["_EigenState", _Hamiltonian]:
        """The checked state and its Hamiltonian's record: every public map's checks."""
        state = cls.of(state)
        return state, state.schedule([hamiltonian])[0]

    def schedule(self, hs):
        """Records of ``hs``, one at a time: this back end's ``_record`` of this state's size passes; anything
        else (a matrix, named ``_name``, or a record of another size) takes the one shape rule of
        :func:`_require_hermitian_all` and the 0 x 0 rule (only a correlation matrix can be empty) and becomes
        a trusted ``_record``; each record after step 0 is :func:`_decomposed`.  A list gives that stream listed."""
        shape, size, record = self.b.shape, self.b.size, self._record

        def adopt(h):
            if type(h) is record and h.shape == shape and size:
                return h
            h = _require_hermitian_all([h.h if type(h) is record else h], self._name, shape, self._label)[0]
            if not size:
                raise ValueError(f"{self._name} has shape (0, 0): a Hamiltonian needs at least one mode")
            return record._trusted(h)
        stream = _decomposed(map(adopt, hs), size)
        return stream if iter(hs) is hs else list(stream)

    @property
    def p(self) -> np.ndarray:
        return self.b if self.b.ndim == 1 else self.b.diagonal().real

    def matrix(self) -> np.ndarray:
        if self.ham is None:
            return self.b
        v = self.ham.es.vectors.conj() if self._conjugate else self.ham.es.vectors
        return (v * self.b) @ v.conj().T if self.b.ndim == 1 else v @ self.b @ v.conj().T

    @classmethod
    def eigenbasis(cls, m: np.ndarray) -> np.ndarray:
        """The state matrix ``m``'s eigenbasis V, by ascending population."""
        v = np.linalg.eigh(0.5 * (m + m.conj().T))[1]
        return v.conj() if cls._conjugate else v

    def entropy(self) -> float:
        return float(self.entropies(self.spectrum()))

    def energy(self, ham: _Hamiltonian) -> float:
        """Mean energy: the input matrix's :meth:`_site_energy`, else eps . p in the eigenbasis of ``ham``."""
        if self.ham is None:
            return self._site_energy(ham)
        return float(ham.es.values @ (self if ham is self.ham else self.quench(ham)).p)

    def _site_energy(self, ham: _Hamiltonian) -> float:     # Tr(H b)
        return _expectation(self.b, ham.h)

    @classmethod
    def transport(cls, old: _Hamiltonian | None, new: _Hamiltonian) -> np.ndarray:
        """O = V'^dag V from the eigenbasis V of ``old`` (V'^dag from the sites) to V' of ``new``."""
        o = new.es.vectors.conj().T if old is None else new.es.vectors.conj().T @ old.es.vectors
        return o.conj() if cls._conjugate else o    # (A'^dag A)^* = A'^T A^*; free when real

    def quench(self, ham: _Hamiltonian, o: np.ndarray | None = None) -> "_EigenState":
        """Frozen across the quench to ``ham`` (itself under its own), by the :meth:`transport` O, formed here
        unless given: a matrix goes to O b O^dag (a real O takes both parts of a complex b in real products),
        populations to |O|^2 p when every level of ``ham`` is a singleton, else to the matrix O diag(p) O^dag."""
        if ham is self.ham:
            return self
        if o is None:
            o = self.transport(self.ham, ham)
        if self.b.ndim == 2:
            if np.isrealobj(o) and np.iscomplexobj(self.b):
                # two real products on the interleaved float view instead of two complex ones
                h = (o @ np.ascontiguousarray(self.b).view(float)).view(complex)
                return type(self)(ham, (o @ np.ascontiguousarray(h.T).view(float)).view(complex).T)
            return type(self)(ham, o @ self.b @ o.conj().T)
        if ham.labels[-1] == len(self.b) - 1:
            o2 = o * o if np.isrealobj(o) else o.real * o.real + o.imag * o.imag
            return type(self)(ham, o2 @ self.b)
        return type(self)(ham, (o * self.b) @ o.conj().T)

    def evolve(self, ham: _Hamiltonian, t: float):
        """Hold of a matrix state in the eigenbasis of ``ham``: b[k, l] picks up
        exp(-i t (eps_k - eps_l)), or exp(+i t (eps_k - eps_l)) in a conjugate basis."""
        phase = np.exp((1j if self._conjugate else -1j) * float(t) * ham.es.values)
        return type(self)(ham, self.b * np.outer(phase, phase.conj())), None

    def dephase(self, ham: _Hamiltonian):
        """Pinching in the eigenbasis of ``ham``: populations as they are; a matrix's
        diagonal, or its blocks within the levels when one is degenerate."""
        if self.b.ndim == 2:
            labels = ham.labels
            if labels[-1] < len(labels) - 1:
                return type(self)(ham, self.b * (labels[:, None] == labels[None, :])), None
        return type(self)(ham, self.p), None

    def thermalise(self, ham: _Hamiltonian, start: float | None = None):
        """Thermal state of ``ham`` at this state's energy, beta sought from ``start`` if given; dual beta."""
        beta = self.energy_beta(ham, self.energy(ham), start)
        return self.thermal(ham, beta), (beta,)

    @classmethod
    def thermal(cls, ham: _Hamiltonian, beta: float) -> "_EigenState":
        return cls(ham, cls._weights(ham.es.values, beta))

    @classmethod
    def energy_beta(cls, ham: _Hamiltonian, target: float, start: float | None = None) -> float:
        """Beta whose thermal state of ``ham`` has mean energy ``target``, sought from ``start`` if
        given.  The edge rule, with floor = 4 eps (scale + |target|) on the back end's ``_range``:
        a range at most 2 floor wide is flat and matches at beta = 0; else a target outside
        (lo + floor, hi - floor) raises ValueError."""
        eps, t = ham.es.values, float(target)
        lo, hi, scale = cls._range(eps)
        floor = _EPS4 * (scale + abs(t))
        if hi - lo <= 2.0 * floor:
            return 0.0
        if not lo + floor < t < hi - floor:
            raise ValueError(f"target energy {t:.12g} outside the attainable open interval ({lo:.12g}, "
                             f"{hi:.12g}) or within round-off ({floor:.3g}) of its spectral edges")

        def fs(beta: float) -> tuple[float, float]:
            mean, var = cls._moments(eps, cls._weights(eps, beta))
            return mean - t, -var
        return float(_energy_matching_root(fs, floor=floor, start=start))

    @classmethod
    def entropy_beta(cls, ham: _Hamiltonian, entropy: float) -> float | None:
        """Beta >= 0 whose thermal state of ``ham`` has the given entropy; None above beta = 0's or at
        or below the floor beta -> inf leaves (the ground level's, or ln 2 per zero mode; probed at
        beta = 1e8).  The entropy falls with slope -beta Var; the root is bracketed from [0, 1]."""
        s0, eps = float(entropy), ham.es.values
        if not np.isfinite(s0):
            raise ValueError(f"entropy must be finite, got {entropy!r}")

        def fs(beta: float) -> tuple[float, float]:
            p = cls._weights(eps, beta)
            return float(cls.entropies(p)) - s0, -beta * cls._moments(eps, p)[1]
        f0 = fs(0.0)[0]
        if f0 == 0.0:
            return 0.0
        if f0 < 0.0 or fs(1e8)[0] >= 0.0:
            return None
        return float(_energy_matching_root(fs, lo=0.0, hi=1.0))


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
    return 1.0 / (1.0 + np.exp(np.where(x < _LOG_MAX, x, np.inf)))


def _xlogx(p: np.ndarray) -> np.ndarray:
    """p log p elementwise for p >= 0, with 0 log 0 = 0."""
    return p * np.log(np.where(p > 0.0, p, 1.0))


def _energy_matching_root(fs, lo: float = -64.0, hi: float = 64.0, floor: float = 0.0, start=None) -> float:
    """Root of a residual f (a mean energy or an entropy minus its target),
    strictly decreasing on the bracket; ``fs(beta)`` returns ``(f, df/dbeta)``.

    Cold, the bracket (``lo``, ``hi``) doubles outwards until the residual
    changes sign (up to |beta| = 1e12; an end at zero stays put), and the
    search starts at its midpoint; warm, it starts at ``start`` (if below 1e12
    in size, so not at NaN or +-inf) with both sides open.  A Newton step is
    taken when it stays inside the bracket and is at most half the step before
    last; else a closed bracket is bisected, and an open one grows from the
    point towards the root by twice the last step (first max(1, |start|)).
    The root is returned once a step falls below 1e-14 + 4 eps |beta|, or once
    |f| is at most ``floor``, the residual's round-off level.  A warm search
    not done after 8 evaluations falls back to the cold one.

    Raises RuntimeError when no sign change is found or 200 steps do not
    converge (residual reported).
    """
    for warm in (True, False) if start is not None and abs(start) < 1e12 else (False,):
        a, b, beta = -np.inf, np.inf, start
        if not warm:
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
            a, b, beta = lo, hi, 0.5 * (lo + hi)
        step = step_old = max(1.0, abs(start)) if warm else hi - lo
        for _ in range(8 if warm else 200):
            f, s = fs(beta)
            if abs(f) <= floor:
                return beta
            if f > 0.0:
                a = beta
            else:
                b = beta
            newton = f / s if s < 0.0 else np.inf
            if a <= beta - newton <= b and 2.0 * abs(newton) <= step_old:
                step_old, step = step, abs(newton)
                beta -= newton
            elif b - a < np.inf:
                step_old, step = step, 0.5 * (b - a)
                beta = a + step
            else:
                step_old, step = step, 2.0 * step
                beta += step if f > 0.0 else -step
            if step <= 1e-14 + _EPS4 * abs(beta):
                return beta
    raise RuntimeError(f"beta matching did not converge: residual {abs(f):.3e} after 200 steps")
