"""Shared random-instance builders and call counters for the test suite."""

import time

import numpy as np


def make_rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


def random_hermitian(n, rng, scale=1.0):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return scale * 0.5 * (z + z.conj().T)


def random_unitary(n, rng):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_density(d, rng, floor=1e-3):
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = z @ z.conj().T + floor * np.eye(d)
    return rho / np.trace(rho).real


def random_correlation(n, rng, lo=0.0, hi=1.0):
    w = random_unitary(n, rng)
    p = rng.uniform(lo, hi, n)
    return (w * p) @ w.conj().T


def record_roots(monkeypatch, module):
    """Wrap ``module._energy_matching_root``: each call appends a record of its
    residual callback ``fs``, its bracket and round-off floor, its root and how
    often it called ``fs``."""
    finder = module._energy_matching_root
    records = []

    def recording(fs, lo=-64.0, hi=64.0, floor=0.0):
        calls = [0]

        def counted(beta):
            calls[0] += 1
            return fs(beta)

        beta = finder(counted, lo, hi, floor)
        records.append({"fs": fs, "lo": lo, "hi": hi, "floor": floor, "beta": beta,
                        "calls": calls[0]})
        return beta

    monkeypatch.setattr(module, "_energy_matching_root", recording)
    return records


def brentq_root(fs, lo, hi):
    """Reference root of ``fs(beta)[0]``: the finder's bracket doubling, then
    scipy's Brent method at xtol 1e-14, rtol 4 eps.  Returns the root and the
    number of residual evaluations."""
    from scipy.optimize import brentq

    calls = [0]

    def f(beta):
        calls[0] += 1
        return fs(beta)[0]

    f_lo, f_hi = f(lo), f(hi)
    while f_lo < 0.0 and -1e12 < lo < 0.0:
        lo *= 2.0
        f_lo = f(lo)
    while f_hi > 0.0 and 0.0 < hi < 1e12:
        hi *= 2.0
        f_hi = f(hi)
    root = brentq(f, lo, hi, xtol=1e-14, rtol=4 * np.finfo(float).eps, maxiter=300)
    return root, calls[0]


def count_schur(monkeypatch, delay=0.0):
    """Record the ``output`` form ("real", scipy's default, or "complex") of
    each ``scipy.linalg.schur`` call, which ``protocols._Rotation`` looks up
    on the module, so the patch is seen there; ``delay`` seconds of sleep
    inside each call release the interpreter lock."""
    import scipy.linalg

    calls, schur = [], scipy.linalg.schur

    def counted(a, *args, **kwargs):
        calls.append(kwargs.get("output", args[0] if args else "real"))
        time.sleep(delay)
        return schur(a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "schur", counted)
    return calls


def count_eigh(monkeypatch):
    """Record the dtype of each matrix the Hamiltonian kernels decompose, one by
    one (``hermitian._eigh``) or in a stack (``hermitian._eigh_all``, one entry
    per matrix), wrapped where ``hermitian``, ``fermions``, ``dense`` and
    ``protocols`` look them up."""
    from gge_thermo import dense, fermions, hermitian, protocols

    dtypes, kernel, stacked = [], hermitian._eigh, hermitian._eigh_all

    def counted(h):
        dtypes.append(h.dtype)
        return kernel(h)

    def counted_all(hs):
        dtypes.extend(h.dtype for h in hs)
        return stacked(hs)

    for module in (hermitian, fermions, dense, protocols):
        monkeypatch.setattr(module, "_eigh", counted)
    for module in (hermitian, fermions, dense, protocols):
        monkeypatch.setattr(module, "_eigh_all", counted_all)
    return dtypes


def step_equilibration_length(p, e, x):
    """Large-N limit of the work deficit times N of N quench-and-dephase steps
    along a rotation exp(sX), s in [0, 1], at frozen spectrum:
    2 sum_{j<k} |p_j - p_k| |e_j - e_k| |X_jk|^2, with p the populations, e the
    energies and X the generator in the modes of the first keyframe (the
    step-equilibration form of thermodynamic length)."""
    p, e = np.asarray(p, dtype=float), np.asarray(e, dtype=float)
    w = np.abs(p[:, None] - p) * np.abs(e[:, None] - e) * np.abs(np.asarray(x)) ** 2
    return float(np.sum(np.triu(w, 1))) * 2.0
