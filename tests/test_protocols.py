import functools
import itertools
import math
import re
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

import gge_thermo as gt
from gge_thermo import cli, dense, fermions, hermitian
from gge_thermo import protocols as pr
from _helpers import (brentq_root, count_checks, count_eigh, count_schur, make_rng, path_sample, path_schedule,
                      random_correlation, random_density, random_hermitian, random_unitary, record_roots)

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def _column(rec, name):
    """One ``StepRecord`` field over a record's steps, as an array."""
    return np.array([getattr(step, name) for step in rec.steps])


def rotated_two_level(theta):
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    u = np.array([[c, -s], [s, c]], dtype=complex)
    return u @ np.diag([0.0, 1.0]).astype(complex) @ u.conj().T


# ---------------------------------------------------------------------------
# Trajectories
# ---------------------------------------------------------------------------

def test_trajectory_endpoints_exact():
    rng = make_rng(0)
    h0 = random_hermitian(4, rng)
    h1 = random_hermitian(4, rng)
    traj = gt.Trajectory((h0, h1), ("linear",))
    assert np.max(np.abs(path_sample(traj, 0.0) - h0)) < 1e-12
    assert np.max(np.abs(path_sample(traj, 1.0) - h1)) < 1e-12
    mid = path_sample(traj, 0.5)
    assert np.max(np.abs(mid - 0.5 * (h0 + h1))) < 1e-12


def test_trajectory_schedule_samples_equidistant_quenches():
    traj = gt.Trajectory((SIGMA_Z, SIGMA_X), ("linear",))
    hams = path_schedule(traj, 4)
    assert len(hams) == 5
    for m, h in enumerate(hams):
        np.testing.assert_array_equal(h, path_sample(traj, m / 4))
    with pytest.raises(ValueError, match="positive integers, got 0$"):
        traj._records(0, hermitian._Hamiltonian)


def test_eigenvector_segment_does_not_revalidate_keyframes(monkeypatch):
    # keyframes are validated and symmetrised once, when the trajectory is built
    rng = make_rng(3)
    h0 = random_hermitian(4, rng)
    u = random_unitary(4, rng)
    traj = gt.Trajectory((h0, u @ h0 @ u.conj().T), ("eigenvectors",))
    checks = []

    def counting(*args, **kwargs):
        checks.append(1)
        return require(*args, **kwargs)

    require = hermitian.require_hermitian
    monkeypatch.setattr(hermitian, "require_hermitian", counting)
    path_sample(traj, 0.5)
    assert not checks


def test_trajectory_eigenvector_rule_geodesic():
    h0 = np.diag([0.0, 1.0]).astype(complex)
    h1 = rotated_two_level(0.8)
    traj = gt.Trajectory((h0, h1), ("eigenvectors",))
    for u in (0.0, 0.25, 0.5, 1.0):
        h_u = path_sample(traj, u)
        assert np.max(np.abs(np.linalg.eigvalsh(h_u) - [0.0, 1.0])) < 1e-10
    assert np.max(np.abs(path_sample(traj, 1.0) - h1)) < 1e-12


def _fig2_first_leg(n, seed):
    # the fig2 state's first four-phase leg: keyframes whose eigenbases differ
    # by a signed permutation of modes
    ham0, gamma0 = cli.fig2_initial_state(
        cli.parse_config(["fig2", "--n", str(n), "--seed", str(seed)]))
    w = fermions._ModeState.eigenbasis(gamma0)
    return (w * ham0.energies[::-1]) @ w.conj().T, ham0.c


def test_eigenvector_path_does_not_follow_round_off():
    # at n = 8, seed 1 the leg's permutation has an even cycle of sign product
    # +1, so without the cycle gauge its rotation has eigenvalue -1 and a
    # 1e-15 nudge of a keyframe moves the samples by up to 0.6; with it the
    # log is unique
    h_from, h0 = _fig2_first_leg(8, 1)
    traj = gt.Trajectory((h_from, h0), ("eigenvectors",))
    points = (0.25, 0.5, 0.75)
    rng = make_rng(9)
    for _ in range(6):
        e = 1e-15 * rng.normal(size=h0.shape)
        nudged = gt.Trajectory((h_from + e + e.T, h0), ("eigenvectors",))
        for u in points:
            assert np.max(np.abs(path_sample(nudged, u) - path_sample(traj, u))) <= 1e-10, u


def _pi_rotation():
    # real keyframes related by a rotation by pi about a generic axis
    axis = np.array([1.0, 2.0, 2.0]) / 3.0
    q, _ = np.linalg.qr(make_rng(9).normal(size=(3, 3)))
    h_a = (q * [0.0, 1.0, 3.0]) @ q.T
    r = 2.0 * np.outer(axis, axis) - np.eye(3)
    return gt.Trajectory((h_a, r @ h_a @ r.T), ("eigenvectors",))


def _complex_pair():
    rng = make_rng(21)
    h0, u = random_hermitian(5, rng), random_unitary(5, rng)
    return gt.Trajectory((h0, u @ h0 @ u.conj().T), ("eigenvectors",))


def test_real_keyframes_give_a_real_path_only_without_eigenvalue_minus_one():
    # real keyframes rotated by a signed permutation sample float64 matrices;
    # a real rotation by pi about a generic axis is no phase permutation, has
    # a doubly degenerate eigenvalue -1 and no real principal log, so its path
    # stays complex and still reaches its end keyframe
    h_from, h0 = _fig2_first_leg(8, 1)
    traj = gt.Trajectory((h_from, h0), ("eigenvectors",))
    assert all(path_sample(traj, u).dtype == np.float64 for u in (0.3, 0.6))
    traj = _pi_rotation()
    assert np.iscomplexobj(path_sample(traj, 0.5))
    assert np.max(np.abs(path_sample(traj, 1.0 - 1e-9) - traj.keyframes[1])) <= 1e-8
    assert np.max(np.abs(np.linalg.eigvalsh(path_sample(traj, 0.5)) - [0.0, 1.0, 3.0])) <= 1e-12


@pytest.mark.parametrize("build, form", [
    (lambda: gt.Trajectory(_fig2_first_leg(8, 1), ("eigenvectors",)), "real"),
    (_complex_pair, "complex"),
    (_pi_rotation, "complex"),
], ids=["fig2-leg", "complex-pair", "pi-rotation"])
def test_sampled_eigensystem_is_the_sample(monkeypatch, build, form):
    # one Schur basis per segment, real for real keyframes (with an eigenvalue
    # -1, one complex basis from the complex eigenvectors), gives each
    # interior sample its eigensystem: the sample is the Hermitian part of its
    # reconstruction, its record keeps it as it is, unchecked, its values are
    # the keyframe spectrum and its vectors, phase-fixed, are those eigh finds
    # in the sample; building the trajectory takes no Schur basis
    calls = count_schur(monkeypatch)
    traj = build()
    assert not calls
    checks = count_checks(monkeypatch)
    spectrum = hermitian._eigh(hermitian.require_hermitian(traj.keyframes[0])).values
    for u in (0.3, 0.7):
        es, sample = traj._rotations[0].at(u), path_sample(traj, u)
        np.testing.assert_array_equal(hermitian._hermitian_part(hermitian._hermitian_dtype(es.reconstruct())),
                                      sample)
        np.testing.assert_array_equal(es.values, spectrum)
        checks.clear()
        record = traj._record(u, dense._State._record)
        assert not checks
        np.testing.assert_array_equal(record.h, sample)
        np.testing.assert_array_equal(record.es.vectors, es.vectors)
        vectors = hermitian._eigh(hermitian.require_hermitian(sample)).vectors
        assert np.max(np.abs(hermitian._fix_phases(es.vectors) - vectors)) <= 1e-12, u
    assert np.max(np.abs(path_sample(traj, 1.0 - 1e-9) - traj.keyframes[1])) <= 1e-8
    assert calls == [form]


def _scipy_schur_path(a, v, s):
    # reference sample U(s) a of the rotation v: scipy's real Schur form for
    # real v, converted to the complex form when it has an eigenvalue -1
    import scipy.linalg

    t, z = scipy.linalg.schur(v, output="real" if np.isrealobj(v) else "complex")
    k = np.flatnonzero(np.diag(t, -1))
    if np.isrealobj(t) and np.any(np.delete(np.diag(t), np.r_[k, k + 1]) < 0.0):
        t, z = scipy.linalg.rsf2csf(t, z)
    b = z.conj().T @ a
    if np.iscomplexobj(t):
        angles, turned = np.angle(np.diag(t)), 1j * b
    else:
        theta = np.arctan2(t[k + 1, k] - t[k, k + 1], t[k, k] + t[k + 1, k + 1])
        angles, partner = np.zeros(len(t)), np.arange(len(t))
        angles[k], angles[k + 1], partner[k], partner[k + 1] = -theta, theta, k + 1, k
        turned = b[partner]
    return z @ (np.cos(s * angles[:, None]) * b + np.sin(s * angles[:, None]) * turned)


def _orthogonal(n, rng):
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diag(r))


def _plane_rotation(n, angles, rng, blocks=()):
    # a random real rotation by the given plane angles (the rest fixed), with
    # the exact 2x2 blocks ``blocks`` on the planes after them
    d = np.eye(n)
    for i, block in enumerate([[[math.cos(x), -math.sin(x)], [math.sin(x), math.cos(x)]]
                               for x in angles] + list(blocks)):
        d[2 * i:2 * i + 2, 2 * i:2 * i + 2] = block
    q = _orthogonal(n, rng)
    return q @ d @ q.T


def _rotation_keyframes(n, rng):
    # every family of the Schur-basis oracle at dimension n: the eigenvectors
    # a, b of two keyframes, b = v a for a real or complex unitary v, and a
    # fig2-like leg, b a signed permutation of a's columns (gauged by cycles)
    m, angles = n // 2, rng.uniform(0.0, 3.0, n // 2)
    w, phases = random_unitary(n, rng), rng.uniform(-3.0, 3.0, n)
    near_pi = np.r_[math.pi - 1e-6, phases[1:-1], 1e-10 - math.pi][:n]
    rotations = {
        "real generic": _plane_rotation(n, angles, rng),
        "real repeated": _plane_rotation(n, np.full(m, angles[0]), rng),
        "real tiny": _plane_rotation(n, np.r_[1e-9, angles[1:]], rng),
        "real near pi 1e-6": _plane_rotation(n, np.r_[angles[1:], math.pi - 1e-6], rng),
        "real near pi 1e-10": _plane_rotation(n, np.r_[angles[1:], math.pi - 1e-10], rng),
        "real one plane": _plane_rotation(n, angles[:1], rng),
        "real two planes": _plane_rotation(n, angles[:2], rng),
        "complex generic": (w * np.exp(1j * phases)) @ w.conj().T,
        "complex repeated": (w * np.exp(1j * rng.choice(phases[:2], n))) @ w.conj().T,
        "complex near pi": (w * np.exp(1j * near_pi)) @ w.conj().T,
    }
    for family, v in rotations.items():
        a = _orthogonal(n, rng) if np.isrealobj(v) else random_unitary(n, rng)
        yield family, a, v @ a
    a = _orthogonal(n, rng)
    yield "fig2 leg", a, a[:, rng.permutation(n)] * rng.choice([-1.0, 1.0], n)


def test_schur_basis_samples_match_scipy_schur_path():
    # the eig + QR Schur basis gives the samples of scipy's Schur form, in the
    # same dtype, on generic, degenerate, near-identity and near-pi rotations
    # and on fig2-like legs; real eig output pairs each conjugate eigenpair
    # adjacently, positive imaginary part first
    worst = {}
    for n in range(2, 40):
        rng = make_rng(2800 + n)
        for family, a, b in _rotation_keyframes(n, rng):
            v = pr._cycle_gauge(a, b) @ a.conj().T
            if np.isrealobj(v):
                w, x = np.linalg.eig(v)
                k = np.flatnonzero(w.imag > 0.0)
                assert np.count_nonzero(w.imag) == 2 * k.size, family
                np.testing.assert_array_equal(w[k + 1], w[k].conj())
                np.testing.assert_array_equal(x[:, k + 1], x[:, k].conj())
            values = np.sort(rng.normal(size=n))
            rotation = pr._Rotation(hermitian.EigenSystem(values, a),
                                    hermitian.EigenSystem(values, b))
            for s in (0.1, 0.3, 0.5, 0.77, 0.99):
                got, want = rotation.at(s).vectors, _scipy_schur_path(a, v, s)
                assert got.dtype == want.dtype, (family, n)
                worst[family] = max(worst.get(family, 0.0), float(np.max(np.abs(got - want))))
    assert len(worst) == 11
    assert max(worst.values()) <= 1e-12, worst


def test_schur_basis_with_an_exact_eigenvalue_minus_one():
    # a real rotation with an exact eigenvalue -1 has no real logarithm: with
    # determinant -1 its path is complex; an exact pi plane is complex too
    # unless round-off splits it into a pair at pi - 1e-16, where the path
    # takes scipy's form; either way the path reaches its end keyframe and
    # keeps the spectrum (which of +-pi it turns by follows round-off, so the
    # samples are not compared with scipy's); at n = 2 the pi plane is -1,
    # which the cycle gauge turns into the identity
    forms = []
    for n in range(2, 40):
        rng = make_rng(2900 + n)
        q = _orthogonal(n, rng)
        flipped = q * np.r_[-np.sign(np.linalg.det(q)), np.ones(n - 1)]
        pi_plane = _plane_rotation(n, rng.uniform(0.0, 3.0, n // 2 - 1), rng, [-np.eye(2)])
        for v in (flipped, pi_plane)[:1 if n == 2 else 2]:
            a, values = _orthogonal(n, rng), np.sort(rng.normal(size=n))
            rotation = pr._Rotation(hermitian.EigenSystem(values, a),
                                    hermitian.EigenSystem(values, v @ a))
            es = rotation.at(0.5)
            gauged = pr._cycle_gauge(a, v @ a) @ a.T
            assert es.vectors.dtype == _scipy_schur_path(a, gauged, 0.5).dtype, n
            assert np.iscomplexobj(es.vectors) or v is pi_plane, n
            forms.append(es.vectors.dtype)
            assert np.max(np.abs(np.linalg.eigvalsh(es.reconstruct()) - values)) <= 1e-12, n
            end = rotation.at(1.0 - 1e-9).reconstruct()
            assert np.max(np.abs(end - ((v @ a) * values) @ (v @ a).T)) <= 1e-8, n
    assert forms.count(np.complex128) >= 70


def test_trajectory_rejects_malformed_keyframes_and_rules():
    h = np.diag([0.0, 1.0])
    cases = {
        "^a trajectory needs at least two keyframes$": ((h,), ()),
        r"^dimension mismatch: keyframe 0 \(2, 2\) vs keyframe 1 \(3, 3\)$": ((h, np.eye(3)), ("linear",)),
        "^2 keyframes need 1 rules, got 2$": ((h, h), ("linear", "linear")),
        "^unknown interpolation rule 'cubic'": ((h, h), ("cubic",)),
    }
    for message, (frames, rules) in cases.items():
        with pytest.raises(ValueError, match=message):
            gt.Trajectory(frames, rules)


def test_trajectory_keyframe_errors_name_the_first_bad_keyframe():
    # the keyframes are checked in stacked calls, each against the shape of
    # keyframe 0; a failing list is checked again one keyframe at a time, so
    # the first bad one in order is named, whatever its fault
    h = np.diag([0.0, 1.0])
    asym, nan = h + [[0.0, 1e-3], [0.0, 0.0]], h + [[np.nan, 0.0], [0.0, 0.0]]
    cases = {
        "keyframe 2 is not Hermitian: max asymmetry 1.000e-03 exceeds tolerance 1.0e-10": (h, h, asym),
        "keyframe 1 has non-finite entries": (h, nan, asym),
        "keyframe 0 must be a square matrix, got shape (2,)": (np.ones(2), h, nan),
        "keyframe 0 is not Hermitian: max asymmetry 1.000e-03 exceeds tolerance 1.0e-10": (asym, "x", h),
        "dimension mismatch: keyframe 0 (2, 2) vs keyframe 1 (3, 3)": (h, np.eye(3), asym),
        "keyframe 1 is not Hermitian: max asymmetry 1.000e-03 exceeds tolerance 1.0e-10": (h, asym, np.eye(3)),
    }
    for message, frames in cases.items():
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as info:
            gt.Trajectory(frames, ("linear",) * (len(frames) - 1))
        assert info.value.__context__ is None     # raised as one check alone raises it


def test_trajectory_decomposes_each_keyframe_once(monkeypatch):
    # two eigenvector segments share keyframe 1: three decompositions, not
    # four, and the samples are those of rotations built from one-by-one
    # eigensystems, bit for bit
    rng = make_rng(41)
    h0 = np.diag([0.0, 1.0, 2.5])
    q1, q2 = (np.linalg.qr(rng.normal(size=(3, 3)))[0] for _ in range(2))
    frames = (h0, q1 @ h0 @ q1.T, q2 @ h0 @ q2.T)
    dtypes, checks = count_eigh(monkeypatch), count_checks(monkeypatch)
    traj = gt.Trajectory(frames, ("eigenvectors", "eigenvectors"))
    assert len(dtypes) == 3
    assert checks == ["keyframe 0", "keyframe 1", "keyframe 2"]
    monkeypatch.undo()
    alone = [pr._Rotation(hermitian._eigh(hermitian.require_hermitian(frames[i])), hermitian._eigh(hermitian.require_hermitian(frames[i + 1]))) for i in (0, 1)]
    for u in (0.1, 0.25, 0.4, 0.6, 0.75, 0.9):
        i = int(u * 2)
        sample = hermitian._hermitian_part(hermitian._hermitian_dtype(alone[i].at(u * 2 - i).reconstruct()))
        assert np.array_equal(path_sample(traj, u), sample), u


def test_trajectory_eigenvector_rule_requires_equal_spectra():
    # checked when the trajectory is built, not at its first interior sample;
    # the error names the segment
    h = np.diag([0.0, 1.0])
    with pytest.raises(ValueError, match="^eigenvector segment 1: keyframes must share their spectra"):
        gt.Trajectory((h, h, np.diag([0.0, 2.0])), ("linear", "eigenvectors"))


def _random_trajectory(d, rng):
    """A trajectory of 1-3 segments on d x d keyframes: linear segments to a real or
    complex keyframe, and eigenvector segments that rotate the last keyframe's
    spectrum by a real orthogonal or a complex unitary matrix."""
    frames, rules = [random_hermitian(d, rng).real], []
    for _ in range(int(rng.integers(1, 4))):
        real = rng.random() < 0.5
        if rng.random() < 0.5:
            rules.append("linear")
            frames.append(random_hermitian(d, rng).real if real else random_hermitian(d, rng))
        else:
            rules.append("eigenvectors")
            u = np.linalg.qr(rng.normal(size=(d, d)))[0] if real else random_unitary(d, rng)
            frames.append(u @ frames[-1] @ u.conj().T)
    return gt.Trajectory(frames, rules)


def _rotation_samples(traj, n):
    """Whether each sample of ``path_schedule(traj, n)`` lies inside an eigenvector segment."""
    inside = []
    for m in range(n + 1):
        x = m / n * len(traj.rules)
        i = min(int(np.floor(x)), len(traj.rules) - 1)
        inside.append(traj.rules[i] == "eigenvectors" and 0.0 < x - i < 1.0)
    return inside


@pytest.mark.parametrize("backend", ["gaussian", "dense"])
def test_trusted_samples_are_the_checked_records(monkeypatch, backend):
    # a trajectory's records, trusted and unchecked, are the records the state's
    # schedule makes of its checked samples, bit for bit in h (values and dtype),
    # eigensystem and labels, on linear, mixed real/complex and eigenvector
    # segments.  A rotation sample keeps its rotation's eigensystem: its values,
    # the keyframe spectrum, match the checked record's to round-off, and its
    # vectors match them up to one unit phase per column
    rng = make_rng(36)
    state_type = pr._STATES[backend]
    checks = count_checks(monkeypatch)

    def same(trusted, checked, rotated):
        assert len(trusted) == len(checked) == len(rotated)
        for a, b, rotation in zip(trusted, checked, rotated):
            assert type(a) is type(b) is state_type._record
            for x, y in ((a.h, b.h), (a.labels, b.labels)):
                assert x.dtype == y.dtype and np.array_equal(x, y)
            assert a.es.values.dtype == b.es.values.dtype and a.es.vectors.dtype == b.es.vectors.dtype
            if not rotation:
                assert np.array_equal(a.es.values, b.es.values) and np.array_equal(a.es.vectors, b.es.vectors)
                continue
            assert np.max(np.abs(a.es.values - b.es.values)) <= 1e-12
            x, y = a.es.vectors, b.es.vectors
            phases = np.sum(y.conj() * x, axis=0)
            assert np.max(np.abs(np.abs(phases) - 1.0)) <= 1e-12
            assert np.max(np.abs(x - y * phases)) <= 1e-12

    for _ in range(40):
        d = int(rng.integers(1, 9))
        traj, n = _random_trajectory(d, rng), int(rng.integers(1, 10))
        state = state_type.of(np.eye(d) / d)
        checks.clear()
        trusted = list(state.schedule(traj._records(n, state._record)))
        assert not checks
        checked = state.schedule(path_schedule(traj, n))
        assert checks == [state_type._name] * (n + 1)
        same(trusted, checked, _rotation_samples(traj, n))
    # X + iY -> X' - iY: the midpoint of the keyframes is complex with an exactly
    # zero imaginary part, so its sample and its record, as the check leaves it,
    # are float64
    x0, x1, y = random_hermitian(3, rng).real, random_hermitian(3, rng).real, random_hermitian(3, rng).imag
    traj = gt.Trajectory((x0 + 1j * y, x1 - 1j * y), ("linear",))
    mid = 0.5 * traj.keyframes[0] + 0.5 * traj.keyframes[1]
    assert mid.dtype == complex and not mid.imag.any()
    assert path_schedule(traj, 2)[1].dtype == float and np.array_equal(path_schedule(traj, 2)[1], mid.real)
    state = state_type.of(np.eye(3) / 3)
    trusted = list(state.schedule(traj._records(2, state._record)))
    assert [ham.h.dtype for ham in trusted] == [complex, float, complex]
    same(trusted, state.schedule(path_schedule(traj, 2)), [False] * 3)


def test_protocol_builders_check_no_sample_and_decompose_each_hamiltonian_once(monkeypatch):
    # run_protocol and optimal_gibbs_protocol check their keyframes and their inputs,
    # but no sample, and the sweep on local_quench_schedule, which has no keyframes,
    # checks nothing: the samples reach the state's schedule as trusted records,
    # which it decomposes once, after step 0
    rng = make_rng(37)
    ham0, ham1 = gt.build_chain(4, [0.1, 1.0, 1.0, 1.0], 0.5), gt.build_chain(4, [1.0, 0.5, 1.5, 1.0], 0.3)
    gamma0 = random_correlation(4, rng, lo=0.05, hi=0.95)
    h0, h1, rho0 = random_hermitian(3, rng), random_hermitian(3, rng), random_density(3, rng)
    checked, stacked = [], hermitian._require_hermitian_all

    def counting(matrices, name="matrix", *rule):
        matrices = list(matrices)
        checked.append((name, len(matrices)))
        return stacked(matrices, name, *rule)

    for module in (hermitian, pr):
        monkeypatch.setattr(module, "_require_hermitian_all", counting)
    dtypes = count_eigh(monkeypatch)
    sweep = functools.partial(gt.local_quench_schedule, ham0, 3.0)
    keyframes = ("keyframe {i}", 2)
    # label: (run, eigen-solves, the checks of non-empty lists, in order)
    runs = {
        "gaussian run_protocol": (
            lambda: gt.run_protocol(gamma0, gt.Trajectory((ham0.c, ham1.c), ("linear",)), 6, gt.GGE),
            6, [keyframes]),
        "dense run_protocol": (
            lambda: gt.run_protocol(rho0, gt.Trajectory((h0, h1), ("linear",)), 5, gt.GIBBS, backend="dense"),
            5, [keyframes]),
        # N = 1 builds the peak, N = 2 and 4 the N - 1 steps before ham0
        "local-quench sweep": (
            lambda: gt.min_work_scan(gamma0, sweep, [gt.GGE, gt.GIBBS], (1, 2, 4), seed=0),
            1 + 1 + 3, []),
        # its Hamiltonian is user input; the quench to k ln rho0, then 6 steps back
        "optimal_gibbs_protocol": (
            lambda: gt.optimal_gibbs_protocol(rho0, h0, -0.7, 6),
            1 + 6, [("Hamiltonian", 1), keyframes]),
    }
    for label, (run, solves, inputs) in runs.items():
        checked.clear()
        dtypes.clear()
        run()
        assert [entry for entry in checked if entry[1]] == inputs, label
        assert len(dtypes) == solves, label


@pytest.mark.parametrize("backend", ["gaussian", "dense"])
def test_eigenvector_runs_decompose_nothing_after_the_trajectory(monkeypatch, backend):
    # the trajectory decomposes its keyframes once, for its rotations; its keyframe
    # records keep those eigensystems and its rotation samples their own, so a run
    # on it solves no eigenproblem (8 at d = 2, N = 8 when every sample after step
    # 0 was decomposed again).  Only a rotation sample is symmetrised: a keyframe
    # is checked, and a linear sample of checked keyframes is exactly Hermitian.
    # A rotation sample forms its matrix when asked: the dense record lists it,
    # a gaussian run does not, until its kept records are read
    rng = make_rng(39)
    h0, q = random_hermitian(2, rng).real, _orthogonal(2, rng)
    rotated = q @ h0 @ q.T
    state = random_correlation(2, rng, lo=0.05, hi=0.95) if backend == "gaussian" else random_density(2, rng)
    symmetrised, part = [], hermitian._hermitian_part
    monkeypatch.setattr(hermitian, "_hermitian_part", lambda m: symmetrised.append(m.shape) or part(m))
    dtypes = count_eigh(monkeypatch)
    # label: (trajectory, eigen-solves of the run, symmetrised samples)
    cases = {
        "eigenvectors": (gt.Trajectory((h0, rotated), ("eigenvectors",)), 0, 7),
        "two eigenvector segments": (gt.Trajectory((h0, rotated, h0), ("eigenvectors",) * 2), 0, 6),
        "linear": (gt.Trajectory((h0, random_hermitian(2, rng)), ("linear",)), 8, 0),
    }
    for label, (traj, solves, parts) in cases.items():
        symmetrised.clear()
        for model in (gt.GGE, gt.GIBBS, gt.Exact(1.0)):
            dtypes.clear()
            count = len(symmetrised)
            rec = gt.run_protocol(state, traj, 8, model, backend=backend)
            assert len(dtypes) == solves, (label, model)
            if backend == "gaussian":   # read twice: each matrix is formed once
                assert len(symmetrised) == count, (label, model)
                for _ in range(2):
                    assert all(ham.c.shape == (2, 2) for ham in rec.hamiltonians)
        assert len(symmetrised) == 3 * parts, label


def test_keyframe_eigensystems_shared_with_records_are_read_only():
    # a keyframe's record shares the eigensystem its trajectory's rotation reads at
    # every sample, so a write through the record raises instead of moving the path
    rng = make_rng(41)
    h0, u = random_hermitian(3, rng), random_unitary(3, rng)
    traj = gt.Trajectory((h0, u @ h0 @ u.conj().T), ("eigenvectors",))
    sample = path_sample(traj, 0.5)
    rec = gt.run_protocol(random_correlation(3, rng, lo=0.1, hi=0.9), traj, 4, gt.GGE)
    for ham in (rec.hamiltonians[0], rec.hamiltonians[-1]):
        for array in (ham.energies, ham.modes):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0
    assert np.array_equal(path_sample(traj, 0.5), sample)


@pytest.mark.parametrize("backend", ["gaussian", "dense"])
def test_rotation_records_need_no_phase_anchor(monkeypatch, backend):
    # a rotation sample keeps its rotation's frame.  Anchoring its columns as
    # eigh's are flips the signs of real columns, which is exact: on real
    # four-phase and real eigenvector runs, works, energies and entropies are
    # bit-identical; on complex paths they agree to round-off
    rng = make_rng(40)

    def anchored(cls, es):
        return cls._trusted(hermitian._hermitian_part(hermitian._hermitian_dtype(es.reconstruct())),
                            hermitian.EigenSystem(es.values, hermitian._fix_phases(es.vectors)))

    def state(d, real):     # the real part of a state is a state
        gaussian = backend == "gaussian"
        start = random_correlation(d, rng, lo=0.05, hi=0.95) if gaussian else random_density(d, rng)
        return start.real if real else start

    def four_phase(real):
        # the real instances of test_real_four_phase_schedules_stay_float64
        if backend == "gaussian":
            ham0, gamma0 = cli.fig2_initial_state(cli.parse_config(["fig2", "--n", "8", "--seed", "1"]))
            gamma0 = gamma0 if real else random_correlation(8, rng, lo=0.05, hi=0.95)
            return lambda: gt.optimal_gge_protocol(gamma0, ham0, 8)
        z = make_rng(19).normal(size=(4, 4))
        rho0 = z @ z.T + 0.1 * np.eye(4)
        if not real:
            rho0, z = state(4, False), random_hermitian(4, rng)
        return lambda: gt.optimal_ta_protocol(rho0 / np.trace(rho0).real, (z + z.conj().T) / 2, 6)

    def anchor_moves(traj):
        samples = [traj._rotations[0].at(m / 7).vectors for m in range(1, 7)]
        return any(not np.array_equal(hermitian._fix_phases(v), v) for v in samples)

    def eigenvectors(real, model):
        # drawn again until the anchor flips a column of a sample, and while real
        # keyframes give a complex path (their rotation has an eigenvalue -1)
        traj = None
        while traj is None or np.isrealobj(path_sample(traj, 0.5)) != real or not anchor_moves(traj):
            h0 = random_hermitian(4, rng)
            h0 = h0.real if real else h0
            u = _orthogonal(4, rng) if real else random_unitary(4, rng)
            traj = gt.Trajectory((h0, u @ h0 @ u.conj().T), ("eigenvectors",))
        start = state(4, real)
        return lambda: gt.run_protocol(start, traj, 7, model, backend=backend)

    runs = [(real, four_phase(real)) for real in (True, False)]
    runs += [(real, eigenvectors(real, model)) for real in (True, False)
             for model in (gt.GGE, gt.GIBBS, gt.Exact(0.5, 3.0, 7))]
    for real, run in runs:
        kept = run()
        assert all(np.isrealobj(getattr(h, "h", h)) for h in kept.hamiltonians) == real
        with monkeypatch.context() as patch:
            patch.setattr(hermitian._Hamiltonian, "_of", classmethod(anchored))
            fixed = run()
        for name in ("work_extracted", "energy", "entropy"):
            a, b = _column(kept, name), _column(fixed, name)
            if real:
                assert np.array_equal(a, b), name
            else:
                assert np.max(np.abs(a - b)) <= 1e-12, name


# ---------------------------------------------------------------------------
# Protocol runners and records
# ---------------------------------------------------------------------------

def test_run_protocol_constant_trajectory_zero_work():
    ham = gt.build_chain(3, [0.5, 1.0, 1.5], 0.3)
    gamma0 = random_correlation(3, make_rng(2))
    traj = gt.Trajectory((ham.c, ham.c), ("linear",))
    rec = gt.run_protocol(gamma0, traj, 5, gt.GGE)
    assert rec.work == pytest.approx(0.0, abs=1e-12)
    first = rec.steps[1].state
    for s in rec.steps[2:]:
        assert np.max(np.abs(s.state - first)) < 1e-12


def test_record_totals_match_step_accumulation():
    rng = make_rng(3)
    ham0 = gt.build_chain(4, rng.uniform(0, 2, 4), 0.4)
    ham1 = gt.build_chain(4, rng.uniform(0, 2, 4), 0.6)
    gamma0 = random_correlation(4, rng)
    rec = gt.run_protocol(gamma0, gt.Trajectory((ham0.c, ham1.c), ("linear",)), 7, gt.GGE)
    assert rec.work == sum(s.work_extracted for s in rec.steps)
    assert len(rec.steps) == 8
    assert rec.entropy_production == rec.steps[-1].entropy - rec.steps[0].entropy


def test_entropy_monotone_along_effective_runs():
    rng = make_rng(4)
    ham0 = gt.build_chain(4, rng.uniform(0, 2, 4), 0.4)
    ham1 = gt.build_chain(4, rng.uniform(0, 2, 4), 0.7)
    gamma0 = random_correlation(4, rng, lo=0.05, hi=0.95)
    for model in (gt.GGE, gt.GIBBS):
        rec = gt.run_protocol(gamma0, gt.Trajectory((ham0.c, ham1.c), ("linear",)), 9, model)
        assert np.all(np.diff(_column(rec, "entropy")) >= -1e-9)


def test_gibbs_telescoping_identity():
    rng = make_rng(5)
    ham0 = gt.build_chain(5, rng.uniform(0, 2, 5), 0.5)
    ham1 = gt.build_chain(5, rng.uniform(0, 2, 5), 0.2)
    gamma0 = random_correlation(5, rng, lo=0.1, hi=0.9)
    rec = gt.run_protocol(gamma0, gt.Trajectory((ham0.c, ham1.c), ("linear",)), 11, gt.GIBBS)
    assert rec.work == pytest.approx(rec.steps[0].energy - rec.steps[-1].energy, abs=1e-9)


def test_exact_records_keep_spectrum_and_are_seeded():
    rng = make_rng(6)
    ham0 = gt.build_chain(4, rng.uniform(0, 2, 4), 0.4)
    ham1 = gt.build_chain(4, rng.uniform(0, 2, 4), 0.8)
    gamma0 = random_correlation(4, rng)
    traj = gt.Trajectory((ham0.c, ham1.c), ("linear",))
    rec_a = gt.run_protocol(gamma0, traj, 6, gt.Exact(1.0, 5.0, 42))
    rec_b = gt.run_protocol(gamma0, traj, 6, gt.Exact(1.0, 5.0, 42))
    rec_c = gt.run_protocol(gamma0, traj, 6, gt.Exact(1.0, 5.0, 43))
    assert rec_a.work == rec_b.work
    assert rec_a.work != rec_c.work
    base = np.sort(np.linalg.eigvalsh(gamma0))
    for s in rec_a.steps:
        assert np.max(np.abs(np.sort(np.linalg.eigvalsh(s.state)) - base)) < 1e-10


def _mode_frame_exact_loop(gamma0, hams, holds):
    # the runner's exact recurrence through public names: step 0 is gamma0
    # on the sites, each quench moves the state to the new modes (the first
    # by to_mode_basis, then O g O^dag with O = A'^T A^*), a hold multiplies
    # g by the phase outer product and the energy is eps . Re diag(g)
    works, energies, g = [0.0], [gt.energy(gamma0, hams[0])], None
    for m in range(1, len(hams)):
        if g is None:
            g = gt.to_mode_basis(gamma0, hams[m])
        elif hams[m] is not hams[m - 1]:
            o = hams[m].modes.T @ hams[m - 1].modes.conj()
            g = o @ g @ o.conj().T
        cost = float(hams[m].energies @ g.diagonal().real) - energies[-1]
        phase = np.exp(1j * float(holds[m - 1]) * hams[m].energies)
        g = g * np.outer(phase, phase.conj())
        works.append(-cost)
        energies.append(float(hams[m].energies @ g.diagonal().real))
    return works, energies, gt.from_mode_basis(g, hams[-1])


def _evolve_exact_loop(gamma0, hams, holds):
    # the same run as a site-basis loop of the public maps
    state = np.asarray(gamma0, dtype=complex)
    works, energies = [0.0], [gt.energy(state, hams[0])]
    for m in range(1, len(hams)):
        cost = gt.energy(state, hams[m]) - gt.energy(state, hams[m - 1])
        state = gt.evolve_exact(state, hams[m], holds[m - 1])
        works.append(-cost)
        energies.append(gt.energy(state, hams[m]))
    return works, energies, state


def test_exact_dynamics_draw_contract():
    # one hold per step from a fresh PCG64 stream of the model's seed, in
    # step order; the same model object gives the same run every time
    rng = make_rng(61)
    ham0 = gt.build_chain(4, rng.uniform(0, 2, 4), 0.4)
    ham1 = gt.build_chain(4, rng.uniform(0, 2, 4), 0.8)
    gamma0 = random_correlation(4, rng)
    traj = gt.Trajectory((ham0.c, ham1.c), ("linear",))
    for seed in (7, np.random.SeedSequence(7, spawn_key=(2, 6))):
        model = gt.Exact(1.0, 5.0, seed)
        rec = gt.run_protocol(gamma0, traj, 6, model)
        draws = np.random.Generator(np.random.PCG64(
            seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)))
        holds = [float(draws.uniform(1.0, 5.0)) for _ in range(6)]
        hams = [gt.QuadraticHamiltonian(path_sample(traj, m / 6)) for m in range(7)]
        works, energies, state = _mode_frame_exact_loop(gamma0, hams, holds)
        assert np.array_equal(_column(rec, "work_extracted"), works)
        assert np.array_equal(_column(rec, "energy"), energies)
        assert np.array_equal(rec.final_state, state)
        works, energies, state = _evolve_exact_loop(gamma0, hams, holds)
        assert np.max(np.abs(_column(rec, "work_extracted") - works)) <= 1e-12
        assert np.max(np.abs(_column(rec, "energy") - energies)) <= 1e-12
        assert np.max(np.abs(rec.final_state - state)) <= 1e-12
        assert gt.run_protocol(gamma0, traj, 6, model).work == rec.work


def test_run_exact_zero_hold_is_pure_quench_accounting():
    # zero hold times leave the state frozen, so the work telescopes to the
    # energy difference of the frozen state under the end Hamiltonians
    rng = make_rng(60)
    ham0 = gt.build_chain(3, rng.uniform(0, 2, 3), 0.3)
    ham1 = gt.build_chain(3, rng.uniform(0, 2, 3), 0.7)
    gamma0 = random_correlation(3, rng)
    traj = gt.Trajectory((ham0.c, ham1.c), ("linear",))
    rec = gt.run_protocol(gamma0, traj, 5, gt.Exact(0.0, 0.0, 1))
    expected = gt.energy(gamma0, ham0) - gt.energy(gamma0, ham1)
    assert rec.work == pytest.approx(expected, abs=1e-12)
    assert np.max(np.abs(rec.final_state - gamma0)) < 1e-12


def test_min_work_scan_flags_population_inverted_violation():
    # the population-inverted bath rewards fast driving: once the state has
    # equilibrated at the raised site energy, stepping back down slowly
    # extracts less, and the scan flags the violation
    n, K, g = 20, 4, 0.5
    ham0 = gt.build_chain(n, [0.1] + [1.0] * (n - 1), g)
    gamma0 = gt.build_population_inverted_bath(n, K, g=g, system_occupation=0.1)
    peak = ham0.c.copy()
    peak[0, 0] = 1.6
    gamma1 = gt.dephase_gge(gamma0, gt.QuadraticHamiltonian(peak))
    traj = gt.Trajectory((peak, ham0.c), ("linear",))
    scan = gt.min_work_scan(gamma1, functools.partial(path_schedule, traj), [gt.GGE], [2, 4, 8, 16, 32], seed=0)
    assert scan.verdicts["ta-gge"] == "violated"


def test_gge_transport_matches_old_state_populations():
    rng = make_rng(7)
    ham0 = gt.build_chain(4, rng.uniform(0, 2, 4), 0.5)
    ham1 = gt.build_chain(4, rng.uniform(0, 2, 4), 0.1)
    gamma0 = random_correlation(4, rng)
    rec = gt.run_protocol(gamma0, gt.Trajectory((ham0.c, ham1.c), ("linear",)), 5, gt.GGE)
    for m in range(1, len(rec.steps)):
        ham_m = rec.hamiltonians[m]
        before = np.diag(gt.to_mode_basis(rec.steps[m - 1].state, ham_m)).real
        after = np.diag(gt.to_mode_basis(rec.steps[m].state, ham_m)).real
        assert np.max(np.abs(before - after)) < 1e-12


def test_fixed_hold_exact_ignores_seed_and_matches_hand_loop():
    # Exact(t) draws uniform(t, t) == t, so every seed gives the same run,
    # bit for bit the mode-frame loop with hold t
    rng = make_rng(62)
    ham0 = gt.build_chain(4, rng.uniform(0, 2, 4), 0.4)
    ham1 = gt.build_chain(4, rng.uniform(0, 2, 4), 0.8)
    gamma0 = random_correlation(4, rng)
    traj = gt.Trajectory((ham0.c, ham1.c), ("linear",))
    t = 2.7
    rec = gt.run_protocol(gamma0, traj, 6, gt.Exact(t))
    hams = [gt.QuadraticHamiltonian(path_sample(traj, m / 6)) for m in range(7)]
    works, energies, state = _mode_frame_exact_loop(gamma0, hams, [t] * 6)
    assert np.array_equal(_column(rec, "work_extracted"), works)
    assert np.array_equal(_column(rec, "energy"), energies)
    assert np.array_equal(rec.final_state, state)
    works, energies, state = _evolve_exact_loop(gamma0, hams, [t] * 6)
    assert np.max(np.abs(_column(rec, "work_extracted") - works)) <= 1e-12
    assert np.max(np.abs(_column(rec, "energy") - energies)) <= 1e-12
    assert np.max(np.abs(rec.final_state - state)) <= 1e-12
    seeds = [0, 2**64 - 1, *(int(s) for s in make_rng(63).integers(0, 2**63, 6))]
    seeds += [np.random.SeedSequence(s) for s in (0, 12345, 2**32 - 1)]
    for seed in seeds:
        other = gt.run_protocol(gamma0, traj, 6, gt.Exact(t, t, seed))
        assert np.array_equal(_column(other, "work_extracted"), _column(rec, "work_extracted"))
        assert np.array_equal(_column(other, "energy"), _column(rec, "energy"))
        assert np.array_equal(other.final_state, rec.final_state)
    with pytest.raises(ValueError, match="hold_min"):
        gt.Exact(2.0, 1.0)


def test_run_schedule_rejects_unknown_backend_and_model_at_entry():
    ham = gt.build_chain(2, [0.5, 1.0], 0.3)
    gamma = random_correlation(2, make_rng(70))
    for backend in ("sparse", ["dense"], None):
        with pytest.raises(ValueError, match=re.escape(
                f"backend must be one of ('gaussian', 'dense'), got {backend!r}")):
            gt.run_schedule(gamma, [ham, ham], gt.GGE, backend=backend)
    with pytest.raises(TypeError, match="unknown equilibration model"):
        gt.run_schedule(gamma, [ham, ham], "gibbs")
    with pytest.raises(TypeError, match="unknown equilibration model"):
        gt.run_schedule(0.5 * np.eye(2), [np.eye(2), np.eye(2)], object(), backend="dense")


def test_protocol_record_names_its_back_end_at_every_entry_point():
    # ProtocolRecord.backend is the public name of the state type that ran it
    rng = make_rng(71)
    ham = gt.build_chain(2, [0.5, 1.0], 0.3)
    gamma = random_correlation(2, rng, lo=0.05, hi=0.95)
    rho, h = random_density(4, rng), random_hermitian(4, rng)
    records = {
        "gaussian": [gt.run_schedule(gamma, [ham, ham], gt.GGE),
                     gt.run_schedule(gamma, [ham, ham], gt.GIBBS, backend="gaussian"),
                     gt.run_protocol(gamma, gt.Trajectory((ham.c, 2.0 * ham.c), ("linear",)), 2, gt.Exact(1.0)),
                     gt.optimal_gge_protocol(gamma, ham, 2)],
        "dense": [gt.run_schedule(rho, [h, h], gt.GGE, backend="dense"),
                  gt.run_protocol(rho, gt.Trajectory((h, 2.0 * h), ("linear",)), 2, gt.GIBBS, backend="dense"),
                  gt.optimal_ta_protocol(rho, h, 2),
                  gt.optimal_gibbs_protocol(rho, h, -1.0, 2)],
    }
    for name, recs in records.items():
        assert [rec.backend for rec in recs] == [name] * len(recs)


def test_dense_run_schedule_validates_schedule_and_state_at_entry():
    h2 = np.diag([0.0, 1.0]).astype(complex)
    h3 = np.diag([0.0, 1.0, 2.0]).astype(complex)
    rho = np.diag([0.7, 0.3]).astype(complex)
    # the odd Hamiltonian comes last, yet the error is raised before step 1
    with pytest.raises(ValueError, match="dimension mismatch"):
        gt.run_schedule(rho, [h2, h2, h2, h3], gt.GGE, backend="dense")
    # a gaussian record is not a dense Hamiltonian, even of the state's size
    with pytest.raises(TypeError, match="QuadraticHamiltonian"):
        gt.run_schedule(rho, [h2, gt.build_chain(2, [0.0, 1.0], 0.0)], gt.GGE, backend="dense")
    bad_states = {
        "trace": np.diag([1.4, 0.6]),
        "negative eigenvalue": np.diag([1.2, -0.2]),
        "not Hermitian": np.array([[0.5, 0.1], [0.0, 0.5]]),
    }
    for message, state in bad_states.items():
        for model in (gt.GGE, gt.GIBBS, gt.Exact(1.0)):
            with pytest.raises(ValueError, match=message):
                gt.run_schedule(state, [h2, h2], model, backend="dense")


def test_dense_schedule_errors_are_the_one_by_one_checks_in_order():
    # the dense schedule is checked one matrix at a time: a failing matrix is
    # named by the one shape rule on that matrix alone, with its own text,
    # and the first failure in schedule order wins, whatever its kind, the
    # same for a list and for an iterator, whose checks run as it is read
    rho = np.eye(2) / 2
    ok, big = np.diag([0.0, 1.0]), np.eye(3)
    asym = np.array([[0.0, 0.1], [0.0, 1.0]])
    nan = np.array([[0.0, np.nan], [np.nan, 1.0]])
    texts = {"asym": r"^Hamiltonian is not Hermitian: max asymmetry 1\.000e-01 exceeds tolerance 1\.0e-10",
             "big": r"^dimension mismatch: state \(2, 2\) vs Hamiltonian \(3, 3\)$",
             "nan": r"^Hamiltonian has non-finite entries$"}
    bad = {"asym": asym, "big": big, "nan": nan, None: ok}
    for first, second in itertools.permutations(bad, 2):
        for k in range(3) if first else ():
            hams = [ok] * 4
            hams[k], hams[k + 1] = bad[first], bad[second]
            with pytest.raises(ValueError, match=texts[first]) as stacked:
                dense._State(None, rho).schedule(hams)
            with pytest.raises(ValueError) as streamed:
                list(dense._State(None, rho).schedule(iter(hams)))
            with pytest.raises(ValueError) as alone:
                [_check_one(h, rho) for h in hams]
            assert str(stacked.value) == str(streamed.value) == str(alone.value)
            for model in (gt.GGE, gt.GIBBS, gt.Exact(1.0)):
                with pytest.raises(ValueError, match=texts[first]):
                    gt.run_schedule(rho, hams, model, backend="dense")
    # a 0 x 0 state (only a correlation matrix can be one) names its empty
    # Hamiltonian, for a list and for an iterator alike
    empty = fermions._ModeState(None, np.zeros((0, 0)))
    for hams in ([np.zeros((0, 0))] * 2, iter([np.zeros((0, 0))] * 2)):
        with pytest.raises(ValueError, match=r"^coefficient matrix has shape \(0, 0\): a Hamiltonian needs"):
            list(empty.schedule(hams))


def test_gaussian_run_schedule_validates_state_at_entry():
    # the runner's entropy kernel does not re-check Hermiticity, so the
    # initial correlation matrix is checked at entry
    ham = gt.build_chain(2, [0.5, 1.0], 0.3)
    bad_states = {
        "not Hermitian": np.array([[0.5, 0.1], [0.0, 0.5]]),
        r"outside \[0, 1\]": np.diag([1.2, 0.3]),
    }
    for message, state in bad_states.items():
        for model in (gt.GGE, gt.GIBBS, gt.Exact(1.0)):
            with pytest.raises(ValueError, match=message):
                gt.run_schedule(state, [ham, ham], model)


@pytest.mark.parametrize("kind", ["ta-gge", "gibbs", "exact"])
@pytest.mark.parametrize("d", range(1, 9))
def test_dense_runner_steps_equal_public_maps(d, kind):
    # the runner's trusted kernels agree with the validating public maps
    rng = make_rng(80 + d)
    n_q = int(rng.integers(1, 5))
    h0, h1 = random_hermitian(d, rng), random_hermitian(d, rng)
    rho0 = random_density(d, rng)
    t = float(rng.uniform(0.5, 5.0))
    model = {"ta-gge": gt.GGE, "gibbs": gt.GIBBS, "exact": gt.Exact(t)}[kind]
    traj = gt.Trajectory((h0, h1, h0), ("linear", "linear"))
    rec = gt.run_protocol(rho0, traj, n_q, model, backend="dense")
    for m in range(1, len(rec.steps)):
        prev, ham = rec.steps[m - 1].state, rec.hamiltonians[m]
        if kind == "ta-gge":
            expected = gt.ta_state(prev, ham)
        elif kind == "gibbs":
            expected, beta = gt.gibbs_state_dense(prev, ham)
            assert abs(rec.steps[m].duals[0] - beta) <= 1e-12 * max(1.0, abs(beta))
        else:   # V e^{-iEt} V^dag from numpy's own eigh, not the runner's kernel
            e, v = np.linalg.eigh(ham)
            u = (v * np.exp(-1j * t * e)) @ v.conj().T
            expected = u @ prev @ u.conj().T
        assert np.max(np.abs(rec.steps[m].state - expected)) <= 1e-12
        assert rec.steps[m].entropy == pytest.approx(gt.vn_entropy(rec.steps[m].state), abs=1e-12)


class _Fresh(hermitian._Hamiltonian):
    """The reference record: it decomposes its matrix afresh, one by one, on
    every use, and labels the spectrum with the public ``cluster_degenerate``;
    one built from a rotation (by ``_of``) keeps the rotation's eigensystem."""

    __slots__ = ()

    @property
    def es(self):
        return hermitian._eigh(hermitian.require_hermitian(self.h)) if self._es is None else self._es

    @property
    def labels(self):
        return hermitian.cluster_degenerate(self.es.values)


class _Redecomposed(_Fresh):
    """:class:`_Fresh`, with a rotation's samples decomposed again from their
    reconstructed matrices, as the dense four-phase builder once did."""

    __slots__ = ()

    @classmethod
    def _of(cls, es):
        return cls(hermitian._hermitian_part(es.reconstruct()))


def _one_by_one_dense(record=_Fresh):
    """The dense ``schedule`` checking each Hamiltonian on its own, by the one shape
    rule, into a ``record``: the reference for the stacked records."""
    return lambda state, hs: [record(_check_one(h, state.b)) for h in hs]


def _check_one(h, rho):
    """The one shape rule on the dense Hamiltonian ``h`` alone, against the state ``rho``."""
    return hermitian._require_hermitian_all([h], "Hamiltonian", rho.shape, "state")[0]


def _assert_same_record(got, want):
    assert len(got.steps) == len(want.steps)
    for a, b in zip(got.steps, want.steps):
        assert (a.step, a.work_extracted, a.energy, a.entropy, a.duals) == \
            (b.step, b.work_extracted, b.energy, b.entropy, b.duals)
        assert (a.state is None) == (b.state is None)
        assert a.state is None or (a.state.dtype == b.state.dtype and np.array_equal(a.state, b.state))
    assert np.array_equal(got.final_state, want.final_state)
    for a, b in zip(got.hamiltonians, want.hamiltonians, strict=True):
        assert isinstance(a, np.ndarray) and a.dtype == b.dtype and np.array_equal(a, b)
    assert got.meta == want.meta


def test_dense_stacked_runs_equal_one_by_one_reference(monkeypatch):
    # dense._State.schedule checks and decomposes a schedule in stacked calls and
    # carries each eigensystem and its pinching labels with its Hamiltonian;
    # every record equals the one-by-one reference bit for bit: all three
    # models, kept states or not, real and complex schedules with degenerate
    # and slightly asymmetric entries, and the two dense optimal constructions
    rng = make_rng(86)
    u = random_unitary(4, rng)
    degenerate = (u * [0.0, 1.0, 1.0, 2.0]) @ u.conj().T
    q = np.linalg.qr(rng.normal(size=(4, 4)))[0]
    schedules = {
        "complex": [random_hermitian(4, rng), degenerate, random_hermitian(4, rng),
                    degenerate + 1e-13 * rng.normal(size=(4, 4)), random_hermitian(4, rng)],
        "real": [(lambda z: z + z.T)(rng.normal(size=(4, 4))) for _ in range(3)]
                + [(q * [0.0, 0.5, 0.5, 1.0]) @ q.T],
        "one matrix": [random_hermitian(4, rng)],
    }
    rho0 = random_density(4, rng)
    real_rho = (lambda z: z @ z.T + 0.1 * np.eye(4))(rng.normal(size=(4, 4)))
    real_rho /= np.trace(real_rho)
    models = (gt.GGE, gt.GIBBS, gt.Exact(1.0, 5.0, seed=3))
    runs = [(lambda rho=rho, hams=hams, model=model, keep=keep:
             gt.run_schedule(rho, hams, model, backend="dense", keep_states=keep))
            for label, hams in schedules.items()
            for rho in ((real_rho, rho0) if label == "real" else (rho0,))
            for model in models for keep in (True, False)]
    h0 = schedules["real"][0]
    runs += [(lambda rho=rho, n=n, keep=keep, h0=h0: gt.optimal_ta_protocol(rho, h0, n, keep_states=keep))
             for rho in (real_rho, rho0) for n in (2, 6) for keep in (True, False)]
    stacked = [run() for run in runs]
    with monkeypatch.context() as patch:
        patch.setattr(dense._State, "schedule", _one_by_one_dense())
        for run, got in zip(runs, stacked):
            _assert_same_record(got, run())
    # optimal_gibbs_protocol: the reference runs its schedule one by one and
    # decomposes h0 once more for beta*
    h0 = schedules["complex"][0]
    for rho, k, n in ((rho0, -1.0, 4), (rho0, -0.3, 9), (real_rho, -2.0, 16)):
        for keep in (True, False):
            got = gt.optimal_gibbs_protocol(rho, h0, k, n, keep_states=keep)
            r = dense.check_state(rho)
            h = _check_one(h0, r)
            p, w = np.linalg.eigh(r)
            schedule = [h] + path_schedule(gt.Trajectory(((w * (k * np.log(p))) @ w.conj().T, h), ("linear",)), n)
            with monkeypatch.context() as patch:
                patch.setattr(dense._State, "schedule", _one_by_one_dense())
                state = dense._State(None, r)
                want = pr._run(state, state.entropy(), [_Fresh(h) for h in schedule], gt.GIBBS, keep)
            es = hermitian._eigh(hermitian.require_hermitian(h))
            beta_star = dense._State.entropy_beta(hermitian._Hamiltonian(h, es), want.steps[0].entropy)
            want.meta["beta_star"] = beta_star
            if beta_star is not None:
                omega = (es.vectors * dense._State._weights(es.values, beta_star)) @ es.vectors.conj().T
                want.meta["work_limit"] = dense._expectation(r, h) - dense._expectation(omega, h)
            _assert_same_record(got, want)


def test_dense_four_phase_samples_keep_their_rotation_eigensystems(monkeypatch):
    # the dense four-phase samples carry the eigensystems their rotation gives;
    # decomposing them again from their reconstructed matrices moves every
    # record by round-off only
    rng = make_rng(88)
    worst = 0.0
    for d in range(2, 9):
        for n in (2, 8, 32):
            rho, h0 = random_density(d, rng), random_hermitian(d, rng)
            got = gt.optimal_ta_protocol(rho, h0, n)
            with monkeypatch.context() as patch:
                patch.setattr(dense._State, "schedule", _one_by_one_dense(_Redecomposed))
                want = gt.optimal_ta_protocol(rho, h0, n)
            assert len(got.steps) == len(want.steps) == n + 3
            for a, b in zip(got.steps, want.steps):
                worst = max(worst, abs(a.work_extracted - b.work_extracted), abs(a.energy - b.energy),
                            abs(a.entropy - b.entropy), float(np.max(np.abs(a.state - b.state))))
            worst = max(worst, abs(got.work - want.work), abs(got.meta["work_bound"] - want.meta["work_bound"]),
                        float(np.max(np.abs(got.final_state - want.final_state))))
    assert worst <= 1e-12


def test_dense_four_phase_decomposes_only_h0_and_its_leg_starts(monkeypatch):
    # a dense four-phase run at d = 6 decomposes h0 and each leg's aligned
    # start (the second leg of N = 32 is a no-op); every sample carries its
    # rotation's eigensystem (decomposing the samples again took 5, 11, 18)
    rng = make_rng(5)
    dtypes, counts = count_eigh(monkeypatch), []
    for n in (2, 8, 32):
        rho, h0 = random_density(6, rng), random_hermitian(6, rng)
        dtypes.clear()
        gt.optimal_ta_protocol(rho, h0, n, keep_states=False)
        counts.append(len(dtypes))
    assert counts == [3, 3, 2]


def test_dense_run_decomposes_each_equilibrated_matrix_once(monkeypatch):
    # N quenches along a linear trajectory: N + 1 matrices, the N equilibrated
    # ones decomposed once, in a stack; step 0 is never equilibrated.  No step,
    # and no thermal or passivity map, rebuilds H from its eigensystem
    rng = make_rng(87)
    h0, h1 = random_hermitian(5, rng), random_hermitian(5, rng)
    rho0 = random_density(5, rng)
    traj = gt.Trajectory((h0, h1, h0), ("linear", "linear"))
    dtypes, rebuilt = count_eigh(monkeypatch), []
    reconstruct = hermitian.EigenSystem.reconstruct
    monkeypatch.setattr(hermitian.EigenSystem, "reconstruct", lambda es: rebuilt.append(1) or reconstruct(es))
    for model in (gt.GGE, gt.GIBBS, gt.Exact(2.0)):
        for n_q in (1, 7, 20):
            dtypes.clear()
            gt.run_protocol(rho0, traj, n_q, model, backend="dense", keep_states=False)
            assert len(dtypes) == n_q, (model, n_q)
    gt.gibbs_state_dense(rho0, h0)
    gt.gge_state_dense(rho0, h0, gt.ConservedSet((), ()))
    assert not gt.is_passive(rho0, h0)
    assert not rebuilt


def _matrix_path_reference(rho0, hs, model):
    """Works, energies, entropies, duals and states of a dense run by the matrix
    path, from numpy's own ``eigh``: pinching is V (V^dag r V o mask) V^dag with the
    levels split at gaps above ``DEGENERACY_TOL``, the thermal state V diag(w) V^dag
    at the energy-matching beta, a hold U r U^dag; every entropy is from ``eigvalsh``
    and every energy an ``einsum``."""
    def entropy(r):
        p = np.clip(np.linalg.eigvalsh(r), 0.0, 1.0)
        return float(-np.sum(p * np.log(np.where(p > 0.0, p, 1.0))))

    def energy(h, r):
        return float(np.einsum("ij,ji->", h, r).real)

    if isinstance(model, gt.Exact):
        holds = np.random.Generator(np.random.PCG64(model.seed)).uniform(
            model.hold_min, model.hold_max, len(hs) - 1)
    r, out = rho0, {"work": [0.0], "energy": [energy(hs[0], rho0)], "entropy": [entropy(rho0)],
                    "duals": [None], "state": [rho0]}
    for m in range(1, len(hs)):
        h = hs[m]
        e, v = np.linalg.eigh(h)
        cost, duals = energy(h, r) - energy(hs[m - 1], r), None
        if isinstance(model, gt.TimeAverageGGE):
            labels = np.r_[0, np.cumsum(np.diff(e) > hermitian.DEGENERACY_TOL)]
            r = v @ ((v.conj().T @ r @ v) * (labels[:, None] == labels[None, :])) @ v.conj().T
        elif isinstance(model, gt.Gibbs):
            target = energy(h, r)

            def fs(beta):
                w = np.exp(-beta * (e - e[0]) if beta >= 0 else -beta * (e - e[-1]))
                w /= w.sum()
                return float(w @ e) - target, -float(w @ (e - w @ e) ** 2)

            beta, _ = brentq_root(fs, -64.0, 64.0)
            w = np.exp(-beta * (e - e[0]) if beta >= 0 else -beta * (e - e[-1]))
            r, duals = (v * (w / w.sum())) @ v.conj().T, (beta,)
        else:
            u = (v * np.exp(-1j * holds[m - 1] * e)) @ v.conj().T
            r = u @ r @ u.conj().T
        for key, value in (("work", -cost), ("energy", energy(h, r)), ("entropy", entropy(r)),
                           ("duals", duals), ("state", r)):
            out[key].append(value)
    return out


@pytest.mark.parametrize("keep_states", [True, False])
@pytest.mark.parametrize("kind", ["ta-gge", "gibbs", "exact"])
def test_dense_runner_matches_matrix_path_reference(kind, keep_states):
    # the runner carries pinched and thermal states as level populations, or as
    # blocks inside degenerate levels; every record matches the matrix path to
    # 1e-12: complex and real schedules, exactly degenerate levels, splittings
    # of 1e-12 (one level) and 1e-6 (two levels) around DEGENERACY_TOL, and the
    # Jordan-Wigner image of a chain, whose many-body spectrum is degenerate
    rng = make_rng(404)
    u, q = random_unitary(4, rng), np.linalg.qr(rng.normal(size=(4, 4)))[0]

    def levels(w, *eps):
        return (w * np.array(eps)) @ w.conj().T

    def real_symmetric():
        z = rng.normal(size=(4, 4))
        return z + z.T

    def jordan_wigner(eps, g):
        return gt.quadratic_to_dense(gt.build_chain(3, eps, g).c)

    real_rho = (lambda z: z @ z.T + 0.1 * np.eye(4))(rng.normal(size=(4, 4)))
    cases = {
        "complex": (random_density(4, rng),
                    [random_hermitian(4, rng), random_hermitian(4, rng), levels(u, 0.0, 1.0, 1.0, 2.0),
                     random_hermitian(4, rng), levels(random_unitary(4, rng), -1.0, -1.0, 0.5, 0.5),
                     levels(u, 0.0, 1.0, 1.0, 2.0)]),
        "real": (real_rho / np.trace(real_rho),
                 [real_symmetric(), real_symmetric(), levels(q, 0.0, 0.5, 0.5, 1.0), real_symmetric()]),
        "split 1e-12": (random_density(4, rng),
                        [random_hermitian(4, rng), random_hermitian(4, rng),
                         levels(u, 0.0, 1.0, 1.0 + 1e-12, 2.0), random_hermitian(4, rng)]),
        "split 1e-6": (random_density(4, rng),
                       [random_hermitian(4, rng), random_hermitian(4, rng),
                        levels(u, 0.0, 1.0, 1.0 + 1e-6, 2.0), random_hermitian(4, rng)]),
        "Jordan-Wigner": (random_density(8, rng),
                          [jordan_wigner([0.3, 0.9, -0.4], 0.6), jordan_wigner([0.5, -0.2, 1.1], 0.4),
                           jordan_wigner([0.0, 0.0, 0.0], 0.5), jordan_wigner([0.7, 0.1, -0.6], 0.8),
                           jordan_wigner([0.2, 0.2, 0.2], 1.0)]),
    }
    model = {"ta-gge": gt.GGE, "gibbs": gt.GIBBS, "exact": gt.Exact(1.0, 5.0, seed=3)}[kind]
    for label, (rho0, hs) in cases.items():
        rec = gt.run_schedule(rho0, hs, model, backend="dense", keep_states=keep_states)
        want = _matrix_path_reference(dense.check_state(rho0), rec.hamiltonians, model)
        for m, step in enumerate(rec.steps):
            for key in ("work", "energy", "entropy"):
                got = {"work": step.work_extracted, "energy": step.energy, "entropy": step.entropy}[key]
                assert abs(got - want[key][m]) <= 1e-12, (label, m, key)
            if want["duals"][m] is None:
                assert step.duals is None
            else:
                assert abs(step.duals[0] - want["duals"][m][0]) <= 1e-12, (label, m)
            if keep_states:
                assert np.max(np.abs(step.state - want["state"][m])) <= 1e-12, (label, m)
            else:
                assert step.state is None
        assert np.max(np.abs(rec.final_state - want["state"][-1])) <= 1e-12, label


def test_dense_runner_diagonalises_only_where_needed(monkeypatch):
    # pinched and thermal states travel as populations, so their entropies and
    # energies need no diagonalisation: on a nondegenerate schedule, eigvalsh
    # and eigh run only before step 1 (one eigvalsh for the state's check, whose
    # spectrum gives the step-0 entropy, and the schedule's stacked
    # decomposition); an exact run adds one eigvalsh, for its last record.  No
    # step rebuilds a matrix from an eigensystem unless states are kept
    rng = make_rng(403)
    n_q = 20
    hams = [random_hermitian(6, rng) for _ in range(n_q + 1)]
    rho0 = random_density(6, rng)
    calls, rebuilt = [], []

    def counting(name):
        kernel = getattr(np.linalg, name)
        return lambda *args, **kwargs: calls.append(name) or kernel(*args, **kwargs)

    for name in ("eigvalsh", "eigh"):
        monkeypatch.setattr(np.linalg, name, counting(name))
    quench = dense._State.quench
    monkeypatch.setattr(dense._State, "quench", lambda state, *args: calls.append("quench") or quench(state, *args))
    reconstruct = hermitian.EigenSystem.reconstruct
    monkeypatch.setattr(hermitian.EigenSystem, "reconstruct", lambda es: rebuilt.append(1) or reconstruct(es))
    for model, after in ((gt.GGE, []), (gt.GIBBS, []), (gt.Exact(0.5, 4.0, 1), ["eigvalsh"])):
        for keep in (False, True):
            calls.clear()
            rebuilt.clear()
            gt.run_schedule(rho0, hams, model, backend="dense", keep_states=keep)
            first = calls.index("quench")
            assert calls[:first].count("eigvalsh") == 1 and "eigh" in calls[:first], model
            assert [c for c in calls[first:] if c != "quench"] == after, (model, keep)
            if not keep:
                assert not rebuilt, model


def test_failure_reports_step_index():
    # a fully occupied mode pins the energy to the spectral edge, which the
    # thermal map cannot match; the failure names the step
    ham0 = gt.build_chain(1, [1.0], 0.0)
    ham1 = gt.build_chain(1, [2.0], 0.0)
    gamma0 = np.array([[1.0]], dtype=complex)
    with pytest.raises(RuntimeError, match="step 1"):
        gt.run_schedule(gamma0, [ham0, ham1], gt.GIBBS)


def test_fixed_hold_exact_still_rejects_invalid_seeds():
    # a fixed hold builds no random stream, so the seed is checked by the
    # model itself, for fixed and drawn holds alike; so are the holds, which
    # must be finite real numbers
    for holds in ((1.0,), (1.0, 1.0), (1.0, 2.0)):
        for seed in (-1, "x", 1.5, None):
            with pytest.raises(ValueError, match=re.escape(repr(seed))):
                gt.Exact(*holds, seed=seed)
    for holds in ((math.nan,), (1.0, math.nan), (math.inf,), (-math.inf, 1.0), (1.0, math.inf)):
        bad = next(h for h in holds if not math.isfinite(h))
        with pytest.raises(ValueError, match=f"finite, got .*{bad!r}"):
            gt.Exact(*holds)
    for holds in (("1.0",), (None,), ([1.0],), ([1.0], [2.0]), (1.0, "2"), (1j,)):
        with pytest.raises(ValueError, match=re.escape(f"real numbers, got {holds[0]!r}")):
            gt.Exact(*holds)
    gt.Exact(1.0, seed=np.int64(3))
    gt.Exact(1.0, seed=np.random.SeedSequence(3))


def _random_chain_schedule(n, n_quenches, rng, pool=3):
    # open chains with complex hopping (so the modes are complex), drawn
    # from a small pool, so a schedule repeats Hamiltonian objects as well
    # as changing them
    def chain():
        hop = rng.uniform(0.1, 1.0, n - 1) * np.exp(1j * rng.uniform(-np.pi, np.pi, n - 1))
        c = np.diag(rng.uniform(-1, 2, n)).astype(complex) + np.diag(hop, 1)
        return gt.QuadraticHamiltonian(c + np.triu(c, 1).conj().T)

    chains = [chain() for _ in range(pool)]
    return [chains[int(i)] for i in rng.integers(0, pool, n_quenches + 1)]


def _ring_schedule(n, eps, t):
    """The open chain, the periodic ring (levels degenerate in pairs), their midpoint,
    the ring and the chain again, as coefficient matrices."""
    chain = gt.build_chain(n, [eps] * n, t).c
    ring = chain.copy()
    ring[0, -1] = ring[-1, 0] = t
    return [chain, ring, 0.5 * (chain + ring), ring, chain]


def _degenerate_schedules(n, rng):
    """Schedules at n modes whose single-particle levels are exactly degenerate or
    cross: c proportional to I on blocks (U diag(eps) U^dag with repeated eps, and a
    multiple of I), the ring schedule, and a straight line between two Hamiltonians
    of one eigenbasis with their levels in opposite orders, so that the levels cross
    and meet in pairs at the midpoint."""
    pool = [(u * rng.choice(rng.uniform(-1.0, 2.0, 2), n)) @ u.conj().T
            for u in (random_unitary(n, rng) for _ in range(2))] + [float(rng.uniform(0.5, 1.5)) * np.eye(n)]
    u, e = random_unitary(n, rng), np.sort(rng.uniform(-1.0, 2.0, n))
    return [[pool[int(i)] for i in rng.integers(0, 3, 6)],
            _ring_schedule(n, float(rng.uniform(-0.5, 0.5)), float(rng.uniform(0.3, 1.0))),
            path_schedule(gt.Trajectory(((u * e) @ u.conj().T, (u * e[::-1]) @ u.conj().T), ("linear",)), 6)]


@pytest.mark.parametrize("kind", ["exact", "ta-gge", "gibbs"])
def test_jordan_wigner_oracle_runs_whole_schedules(kind):
    # one schedule on both back ends: the dense runner on the Jordan-Wigner
    # images is the independent check of the population transport, on random
    # chains (as Hamiltonian objects, some repeated) and on schedules whose
    # levels are degenerate or cross (as matrices), where dephasing keeps each
    # degenerate block on both back ends.  Only exact and thermal states stay
    # Gaussian; the pinched dense state has the dephased correlation matrix,
    # whose Gaussian state has the most entropy, so its entropy is at most the
    # gaussian back end's, at every step.
    rng = make_rng(900 + ["exact", "ta-gge", "gibbs"].index(kind))
    cases = []
    for case in range(12):
        n, n_q = int(rng.integers(2, 6)), int(rng.integers(1, 7))
        hams = _random_chain_schedule(n, n_q, rng, pool=n_q + 1)
        cases.append((hams, random_correlation(n, rng, lo=0.05, hi=0.95)))
    rng = make_rng(910 + ["exact", "ta-gge", "gibbs"].index(kind))
    for n in range(3, 7):
        cases += [(hams, random_correlation(n, rng, lo=0.05, hi=0.95)) for hams in _degenerate_schedules(n, rng)]
    for case, (hams, gamma0) in enumerate(cases):
        model = {"exact": gt.Exact(0.5, 4.0, case), "ta-gge": gt.GGE, "gibbs": gt.GIBBS}[kind]
        fermionic = gt.run_schedule(gamma0, hams, model)
        dense = gt.run_schedule(gt.gaussian_to_dense(gamma0),
                                [gt.quadratic_to_dense(getattr(h, "c", h)) for h in hams], model, backend="dense")
        assert np.max(np.abs(_column(fermionic, "work_extracted") - _column(dense, "work_extracted"))) <= 1e-10
        assert np.max(np.abs(_column(fermionic, "energy") - _column(dense, "energy"))) <= 1e-10
        assert np.max(np.abs(gt.correlation_of_dense(dense.final_state) - fermionic.final_state)) <= 1e-10
        if kind != "ta-gge":
            assert np.max(np.abs(_column(fermionic, "entropy") - _column(dense, "entropy"))) <= 1e-10
        else:
            assert np.all(_column(dense, "entropy") <= _column(fermionic, "entropy") + 1e-10)


def test_ta_gge_entropies_differ_on_a_nondegenerate_spectrum():
    # after one quench from a state not diagonal in the new modes, the pinched
    # many-body state is not Gaussian: its entropy (dense back end, 1.78478)
    # is below the Gaussian maximum of the same correlation matrix (gaussian
    # back end, 1.94987) although no many-body level is degenerate (smallest
    # gap 0.204); the works agree
    rng = make_rng(1)
    h0, h1 = random_hermitian(3, rng), random_hermitian(3, rng)
    gamma0 = random_correlation(3, rng)
    fermionic = gt.run_schedule(gamma0, [h0, h1], gt.GGE)
    dense = gt.run_schedule(gt.gaussian_to_dense(gamma0), [gt.quadratic_to_dense(h) for h in (h0, h1)], gt.GGE,
                            backend="dense")
    assert np.max(np.abs(_column(fermionic, "work_extracted") - _column(dense, "work_extracted"))) <= 1e-12
    assert np.max(np.abs(gt.correlation_of_dense(dense.final_state) - fermionic.final_state)) <= 1e-12
    levels = np.linalg.eigvalsh(gt.quadratic_to_dense(h1))
    assert np.diff(levels).min() >= 0.2
    assert fermionic.steps[1].entropy == pytest.approx(1.94987, abs=1e-5)
    assert dense.steps[1].entropy == pytest.approx(1.78478, abs=1e-5)


def test_dephasing_keeps_degenerate_blocks_on_both_back_ends():
    # the time average keeps the coherences inside a degenerate level: at c = I
    # dephasing leaves any correlation matrix and its entropy as they are, and on
    # the ring schedule from the open chain's thermal state the gaussian and dense
    # dephasing runs agree
    w = random_unitary(3, make_rng(0))
    gamma = (w * [0.2, 0.5, 0.9]) @ w.conj().T
    out = gt.dephase_gge(gamma, np.eye(3))
    assert np.max(np.abs(out - gamma)) <= 1e-14
    assert abs(gt.entropy_gaussian(out) - gt.entropy_gaussian(gamma)) <= 1e-14
    cs = _ring_schedule(6, 0.0, 1.0)
    gamma0 = gt.gibbs_correlation(gt.QuadraticHamiltonian(cs[0]), 0.7)
    fermionic = gt.run_schedule(gamma0, cs, gt.GGE)
    dense = gt.run_schedule(gt.gaussian_to_dense(gamma0), [gt.quadratic_to_dense(c) for c in cs], gt.GGE,
                            backend="dense")
    assert np.max(np.abs(_column(fermionic, "work_extracted") - _column(dense, "work_extracted"))) <= 1e-12
    assert np.max(np.abs(gt.correlation_of_dense(dense.final_state) - fermionic.final_state)) <= 1e-12
    # a degenerate dephased block travels as a matrix; its duals are those of its diagonal
    duals = np.array(fermionic.steps[1].duals)
    p = np.diag(gt.to_mode_basis(fermionic.steps[1].state, gt.QuadraticHamiltonian(cs[1]))).real
    assert np.max(np.abs(duals - np.log((1.0 - p) / p))) <= 1e-12


@pytest.mark.parametrize("keep_states", [True, False])
@pytest.mark.parametrize("kind", ["ta-gge", "gibbs", "exact"])
def test_gaussian_runner_matches_public_map_loop(kind, keep_states):
    # the runner carries dephased and thermal states as mode populations and
    # exact ones as their mode-basis matrix; every recorded number and matrix
    # matches the matrix loop of the public maps
    for n in range(1, 13):
        rng = make_rng(300 + n)
        n_q = int(rng.integers(1, 11))
        hams = _random_chain_schedule(n, n_q, rng)
        gamma0 = random_correlation(n, rng, lo=0.05, hi=0.95)
        model = {"ta-gge": gt.GGE, "gibbs": gt.GIBBS,
                 "exact": (gt.Exact(2.7), gt.Exact(0.5, 4.0, n), gt.Exact(0.0))[n % 3]}[kind]
        rec = gt.run_schedule(gamma0, hams, model, keep_states=keep_states)
        # step 0 is the initial matrix as given, on the sites
        assert rec.steps[0].energy == gt.energy(gamma0, hams[0])
        assert rec.steps[0].entropy == gt.entropy_gaussian(gamma0)
        if keep_states:
            assert np.array_equal(rec.steps[0].state, gamma0)
        if kind == "exact":
            holds = np.random.Generator(np.random.PCG64(model.seed)).uniform(
                model.hold_min, model.hold_max, n_q)
        state = gamma0
        for m in range(1, n_q + 1):
            cost = gt.energy(state, hams[m]) - gt.energy(state, hams[m - 1])
            if kind == "ta-gge":
                state = gt.dephase_gge(state, hams[m])
                p = np.diag(gt.to_mode_basis(state, hams[m])).real
                duals = np.log((1.0 - p) / p)
            elif kind == "gibbs":
                beta, _ = gt.solve_beta(hams[m], gt.energy(state, hams[m]))
                state = gt.gibbs_correlation(hams[m], beta)
                duals = np.array([beta])
            else:
                state = gt.evolve_exact(state, hams[m], holds[m - 1])
                duals = None
            step = rec.steps[m]
            assert abs(step.work_extracted + cost) <= 1e-12
            assert abs(step.energy - gt.energy(state, hams[m])) <= 1e-12
            assert abs(step.entropy - gt.entropy_gaussian(state)) <= 1e-12
            if duals is None:
                assert step.duals is None
                if m < n_q:     # unitary steps keep the step-0 entropy
                    assert step.entropy == rec.steps[0].entropy
            else:
                assert np.max(np.abs(np.array(step.duals) - duals)) <= 1e-12
            if keep_states:
                assert np.max(np.abs(step.state - state)) <= 1e-12
            else:
                assert step.state is None
        assert isinstance(rec.final_state, np.ndarray)
        assert np.max(np.abs(rec.final_state - state)) <= 1e-12


def test_gaussian_runner_diagonalises_only_where_needed(monkeypatch):
    # dephased and thermal entropies come from the populations: one eigvalsh
    # (the initial state's entropy) per run; an exact run adds one for its
    # last record, whose entropy is computed from the final state
    rng = make_rng(400)
    n_q = 20
    hams = _random_chain_schedule(6, n_q, rng)
    gamma0 = random_correlation(6, rng, lo=0.05, hi=0.95)
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting(*args, **kwargs):
        calls.append(1)
        return eigvalsh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    for model, expected in ((gt.GGE, 1), (gt.GIBBS, 1), (gt.Exact(0.5, 4.0, 1), 2)):
        calls.clear()
        gt.run_schedule(gamma0, hams, model, keep_states=False)
        assert len(calls) == expected, model
    # the sweep validates the state and takes its entropy once for all its
    # cells; each exact cell adds the entropy of its final state
    checks = []

    def counting_check(matrix, *args, **kwargs):
        checks.append(kwargs.get("name"))
        return hermitian.require_hermitian(matrix, *args, **kwargs)

    monkeypatch.setattr(fermions, "require_hermitian", counting_check)
    calls.clear()
    ns = (4, 10, 20)
    scan = gt.min_work_scan(gamma0, lambda n: hams[:n + 1],
                            [gt.GGE, gt.GIBBS, gt.Exact(0.5, 4.0)], ns, seed=3)
    assert not scan.failures
    assert len(calls) == 1 + len(ns)
    assert checks.count("correlation matrix") == 1


@pytest.mark.parametrize("n_q", [2, 4, 8])
def test_optimal_ta_protocol_checks_the_state_once_per_built_step(monkeypatch, n_q):
    # the state is checked once: the builder, its first-leg walk, the run and
    # the work bound all take the validated state
    rng = make_rng(402)
    rho0, h0 = random_density(4, rng), random_hermitian(4, rng)
    checks = []
    of = dense._State.of

    def counting(cls, rho):
        checks.append(1)
        return of(rho)

    monkeypatch.setattr(dense._State, "of", classmethod(counting))
    gt.optimal_ta_protocol(rho0, h0, n_q, keep_states=False)
    assert len(checks) == 1


def test_exact_last_entropy_shows_drift(monkeypatch):
    # the last exact record's entropy is computed from the final state, so a
    # hold that is not unitary moves it even though the records before it
    # carry the step-0 value
    rng = make_rng(401)
    hams = _random_chain_schedule(6, 12, rng)
    gamma0 = random_correlation(6, rng, lo=0.05, hi=0.95)
    model = gt.Exact(0.5, 4.0, 1)
    clean = gt.run_schedule(gamma0, hams, model, keep_states=False)
    assert abs(clean.steps[-1].entropy - clean.steps[0].entropy) <= 1e-12
    evolve = fermions._ModeState.evolve

    def leaky(state, ham, t):
        held, duals = evolve(state, ham, t)
        return held._replace(b=held.b * (1.0 + 1e-6)), duals

    monkeypatch.setattr(fermions._ModeState, "evolve", leaky)
    drifted = gt.run_schedule(gamma0, hams, model, keep_states=False)
    assert drifted.steps[-2].entropy == clean.steps[0].entropy
    assert abs(drifted.steps[-1].entropy - clean.steps[-1].entropy) > 1e-9


def _returned_entropies(monkeypatch, cls, names):
    """Wrap the maps ``names`` of the state class ``cls``: each call appends the
    ``entropy()`` of the state it returns and whether that state is a matrix."""
    seen = []
    for name in names:
        def returned(state, *args, _map=getattr(cls, name)):
            out, duals = _map(state, *args)
            seen.append((out.entropy(), out[1].ndim == 2))
            return out, duals

        monkeypatch.setattr(cls, name, returned)
    return seen


def test_step_entropies_are_each_state_entropy_bit_for_bit(monkeypatch):
    # a run takes its steps' entropies in one stacked call; each is the entropy()
    # of the state its step's map returned, bit for bit: gaussian ta-gge, Gibbs
    # and the exact last step, and dense pinching and Gibbs on a schedule with a
    # degenerate level every other step, where pinched states are matrices
    rng = make_rng(77)
    gamma0 = random_correlation(6, rng, lo=0.05, hi=0.95)
    hams = _random_chain_schedule(6, 12, rng)
    seen = _returned_entropies(monkeypatch, fermions._ModeState, ("dephase", "thermalise", "evolve"))
    for model in (gt.GGE, gt.GIBBS, gt.Exact(0.5, 4.0, 1)):
        seen.clear()
        steps = gt.run_schedule(gamma0, hams, model, keep_states=False).steps
        assert len(seen) == 12
        held = 11 if isinstance(model, gt.Exact) else 0
        assert [s.entropy for s in steps[1 + held:]] == [e for e, _ in seen[held:]], model

    rho0 = random_density(4, rng)
    us = [random_unitary(4, rng) for _ in range(11)]
    hs = [random_hermitian(4, rng) if m % 2 else (u * [0.0, 1.0, 1.0, 2.5]) @ u.conj().T for m, u in enumerate(us)]
    seen = _returned_entropies(monkeypatch, dense._State, ("dephase", "thermalise"))
    for model in (gt.GGE, gt.GIBBS):
        seen.clear()
        steps = gt.run_schedule(rho0, hs, model, backend="dense", keep_states=False).steps
        assert [s.entropy for s in steps[1:]] == [e for e, _ in seen], model
        assert {matrix for _, matrix in seen} == ({False, True} if model is gt.GGE else {False})


def test_population_drift_is_named_at_its_step_before_later_failures(monkeypatch):
    # populations pushed out of [0, 1] at step 3 raise, named with that step,
    # even though the map fails outright at step 5: the spectrum is checked as
    # each step runs, and only the entropies wait for the stacked call
    rng = make_rng(78)
    gamma0 = random_correlation(5, rng, lo=0.05, hi=0.95)
    hams = _random_chain_schedule(5, 8, rng)
    dephase, calls = fermions._ModeState.dephase, []

    def drifting(state, ham):
        calls.append(ham)
        if len(calls) == 5:
            raise ValueError("a later failure")
        out, duals = dephase(state, ham)
        return (out._replace(b=out.b + 1.0) if len(calls) == 3 else out), duals

    monkeypatch.setattr(fermions._ModeState, "dephase", drifting)
    with pytest.raises(RuntimeError, match=r"^step 3: correlation spectrum outside \[0, 1\]: min 1\.\d+e\+00"):
        gt.run_schedule(gamma0, hams, gt.GGE, keep_states=False)


def test_gibbs_run_matches_each_energy_from_the_last_beta(monkeypatch):
    # fig3 at its defaults (n = 100, N = 64): the first thermal step matches its
    # energy cold and each later one starts from the step before's beta, so a
    # match averages at most 3.5 residual evaluations (7.02 with every one cold)
    roots = record_roots(monkeypatch)
    config = cli.parse_config(["fig3"])
    ham0, gamma0 = cli.fig3_initial_state(config)
    hams = pr.local_quench_schedule(ham0, config.eps1_peak, 64)
    steps = gt.run_schedule(gamma0, hams, gt.GIBBS, keep_states=False).steps
    assert len(roots) == 64
    assert [r["start"] for r in roots] == [None] + [s.duals[0] for s in steps[1:-1]]
    assert [r["beta"] for r in roots] == [s.duals[0] for s in steps[1:]]
    assert np.mean([r["calls"] for r in roots]) <= 3.5


# ---------------------------------------------------------------------------
# Quasi-static limits
# ---------------------------------------------------------------------------

def test_quasi_static_smooth_dense_ta_entropy_vanishes():
    h0 = np.diag([0.0, 1.0]).astype(complex)
    h1 = rotated_two_level(1.0)
    traj = gt.Trajectory((h0, h1), ("eigenvectors",))
    w = np.exp(-np.array([0.0, 1.0]))
    w /= w.sum()
    rho0 = np.diag(w).astype(complex)
    ns = (8, 16, 32, 64)
    ds = np.array([gt.run_protocol(rho0, traj, n, gt.GGE, backend="dense",
                                   keep_states=False).entropy_production for n in ns])
    assert np.all(ds > 0)
    # one extra quench halves the produced entropy: O(1/N)
    assert ds[-1] < ds[0] / 4.0
    assert gt.richardson_limit(ns, ds)[0] == pytest.approx(0.0, abs=5e-4)


def test_quasi_static_kinked_path_produces_log2():
    plus = 0.5 * np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
    traj = gt.Trajectory((SIGMA_X, np.zeros((2, 2)), SIGMA_Z), ("linear", "linear"))
    for n in (4, 16, 64):
        rec = gt.run_protocol(plus, traj, n, gt.GGE, backend="dense")
        assert rec.entropy_production == pytest.approx(math.log(2), abs=1e-9)


def test_quasi_static_gibbs_entropy_constant_without_degeneracy_growth():
    def productions(energies0, energies1, ns):
        h0, h1 = np.diag(energies0).astype(complex), np.diag(energies1).astype(complex)
        w = np.exp(-np.array(energies0))
        rho0 = np.diag(w / w.sum()).astype(complex)
        return np.array([gt.run_protocol(rho0, gt.Trajectory((h0, h1), ("linear",)), n, gt.GIBBS,
                                         backend="dense", keep_states=False).entropy_production
                         for n in ns])

    ns = (8, 16, 32, 64)
    # two levels: the thermal map at matched energy keeps the populations,
    # so no step produces entropy; the values are 0 up to round-off
    assert np.max(np.abs(productions([0.0, 1.0], [0.0, 2.0], ns))) < 1e-12
    # three levels: each step produces entropy, halving with N (4.98e-3 at
    # N = 8, 6.26e-4 at N = 64), and the limit is 0
    ds = productions([0.0, 1.0, 3.0], [0.0, 2.0, 3.0], ns)
    assert np.all(ds > 1e-4)
    assert np.all(ds[1:] < 0.6 * ds[:-1])
    assert gt.richardson_limit(ns, ds)[0] == pytest.approx(0.0, abs=1e-5)


def test_quasi_static_validates_schedule():
    # the limit and the sweep both name the first count out of order
    traj = gt.Trajectory((SIGMA_Z, SIGMA_Z), ("linear",))
    for ns, bad in (((4, 2, 8), "got 2 after 4"), ((4, 4, 8), "got 4 after 4")):
        with pytest.raises(ValueError, match=f"strictly increasing, {bad}$"):
            gt.richardson_limit(ns, [0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match=f"strictly increasing, {bad}$"):
            gt.min_work_scan(0.5 * np.eye(2), functools.partial(path_schedule, traj), [gt.GGE], ns, seed=0)
    # a count that is not an integer is named, not truncated
    with pytest.raises(ValueError, match=r"integers, got 4\.5$"):
        gt.richardson_limit((2, 4.5, 8), [0.0, 0.0, 0.0])
    with pytest.raises(ValueError, match=r"integers, got 1\.5$"):
        gt.min_work_scan(0.5 * np.eye(2), functools.partial(path_schedule, traj), [gt.GGE], (1.5, 2), seed=0)
    # and so is one that is not a number at all
    for ns, bad in (((math.nan, 2), "nan"), (("x", 2), "'x'"), ((None, 2), "None"),
                    ((math.inf, 2), "inf"), (("2", 4), "'2'")):
        with pytest.raises(ValueError, match=f"positive integers, got {bad}$"):
            gt.richardson_limit(ns, [1.0, 2.0])
        with pytest.raises(ValueError, match=f"positive integers, got {bad}$"):
            gt.min_work_scan(0.5 * np.eye(2), functools.partial(path_schedule, traj), [gt.GGE], ns, seed=0)
    # so is a count below 1, at entry
    for ns, bad in (((0, 1), "0"), ((-2, 4), "-2")):
        with pytest.raises(ValueError, match=f"positive integers, got {bad}$"):
            gt.richardson_limit(ns, [1.0, 2.0])
        with pytest.raises(ValueError, match=f"positive integers, got {bad}$"):
            gt.min_work_scan(0.5 * np.eye(2), functools.partial(path_schedule, traj), [gt.GGE], ns, seed=0)
    assert gt.richardson_limit(np.array([2, 4]), [1.0, 2.0]) == (3.0, 1.0)
    with pytest.raises(ValueError, match="one value per N"):
        gt.richardson_limit((2, 4), [0.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="one value per N"):
        gt.richardson_limit((), [])


def test_single_count_entry_points_share_the_count_rule():
    # an integral float runs as its integer; any other count is named by the
    # sweep's rule instead of surfacing as a raw TypeError
    ham = gt.build_chain(3, [0.5, 1.0, 1.5], 0.3)
    gamma = random_correlation(3, make_rng(12), lo=0.1, hi=0.9)
    traj = gt.Trajectory((ham.c, gt.build_chain(3, [1.5, 1.0, 0.5], 0.3).c), ("linear",))
    h = np.diag([0.0, 1.0, 2.0]).astype(complex)
    rho = np.diag([0.2, 0.3, 0.5]).astype(complex)
    entries = [
        lambda n: gt.run_protocol(gamma, traj, n, gt.GGE).work,
        lambda n: len(list(gt.local_quench_schedule(ham, 4.3, n))),
        lambda n: gt.optimal_gge_protocol(gamma, ham, n).work,
        lambda n: gt.optimal_gibbs_protocol(rho, h, -0.5, n).work,
    ]
    for entry in entries:
        assert entry(4.0) == entry(4)
        for bad in (2.5, "3", None, math.nan, 0, -2):
            with pytest.raises(ValueError, match=f"positive integers, got {bad!r}$"):
                entry(bad)


def test_richardson_limit_cancels_the_one_over_n_term():
    ns = (4, 8, 16, 32)
    limit, error = gt.richardson_limit(ns, [1.5 - 2.0 / n for n in ns])
    assert limit == pytest.approx(1.5, abs=1e-14)
    assert error == pytest.approx(0.0, abs=1e-14)
    # a 1/N^2 term is left over and shows in the error estimate
    limit, error = gt.richardson_limit(ns, [1.5 - 2.0 / n + 4.0 / n**2 for n in ns])
    assert abs(limit - 1.5) < error
    # two points extrapolate; the error is the distance to the last value
    assert gt.richardson_limit((2, 4), [1.0, 2.0]) == (3.0, 1.0)
    # one point or a non-monotone sequence is reported raw, without error
    assert gt.richardson_limit((8,), [0.25]) == (0.25, None)
    assert gt.richardson_limit((2, 4, 8), [1.0, 3.0, 2.0]) == (2.0, None)


# ---------------------------------------------------------------------------
# Optimal constructions
# ---------------------------------------------------------------------------

def test_optimal_work_bound_examples():
    ham = gt.build_chain(2, [1.0, 2.0], 0.0)
    gamma_sorted = np.diag([0.9, 0.1]).astype(complex)
    assert gt.optimal_work_bound(gamma_sorted, ham) == pytest.approx(0.0, abs=1e-12)
    gamma_swapped = np.diag([0.1, 0.9]).astype(complex)
    # optimal final energy 0.9*1 + 0.1*2 = 1.1
    assert gt.optimal_work_bound(gamma_swapped, ham) == pytest.approx((0.1 + 1.8) - 1.1)


def test_optimal_work_bound_matches_permutation_brute_force():
    rng = make_rng(8)
    ham = gt.build_chain(5, rng.uniform(0, 2, 5), 0.5)
    gamma = random_correlation(5, rng)
    d = np.linalg.eigvalsh(gamma)
    floor = min(float(np.dot(ham.energies, p)) for p in itertools.permutations(d))
    assert gt.optimal_work_bound(gamma, ham) == pytest.approx(
        gt.energy(gamma, ham) - floor, abs=1e-12)


def test_optimal_work_bound_rejects_spectrum_outside_unit_interval():
    # the runner's range rule, applied to the spectrum the bound pairs
    gamma = np.diag([1.5, 0.2, -0.4]).astype(complex)
    ham = gt.build_chain(3, [0.0, 1.0, 2.0], 0.3)
    message = r"correlation spectrum outside \[0, 1\]: min -4\.000e-01, max 1\.500000"
    with pytest.raises(ValueError, match=message):
        gt.optimal_work_bound(gamma, ham)
    with pytest.raises(ValueError, match=message):
        gt.optimal_gge_protocol(gamma, ham, 2)


def test_optimal_gge_protocol_sorted_state_idles():
    ham = gt.build_chain(2, [1.0, 2.0], 0.0)
    gamma = np.diag([0.9, 0.1]).astype(complex)
    for n in (2, 4, 10):
        rec = gt.optimal_gge_protocol(gamma, ham, n)
        assert rec.work == pytest.approx(0.0, abs=1e-10)


def test_optimal_gge_protocol_two_mode_swap_converges():
    ham = gt.build_chain(2, [1.0, 2.0], 0.0)
    gamma = np.diag([0.1, 0.9]).astype(complex)
    target = (0.9 - 0.1) * (2.0 - 1.0)
    works = {n: gt.optimal_gge_protocol(gamma, ham, n).work for n in (64, 256, 1024)}
    assert works[64] < works[256] < works[1024] <= target + 1e-9
    # Richardson extrapolation of the 1/N tail hits the closed form
    w_inf = (1024 * works[1024] - 256 * works[256]) / (1024 - 256)
    assert w_inf == pytest.approx(target, abs=2e-3)


def test_optimal_gge_protocol_respects_bound_and_is_cyclic():
    rng = make_rng(9)
    ham = gt.build_chain(6, rng.uniform(0, 2, 6), 0.6)
    gamma = random_correlation(6, rng)
    bound = gt.optimal_work_bound(gamma, ham)
    for n in (2, 8, 32):
        rec = gt.optimal_gge_protocol(gamma, ham, n)
        assert rec.meta["work_bound"] == bound
        assert rec.work <= bound + 1e-9
        assert np.max(np.abs(rec.hamiltonians[-1].c - ham.c)) < 1e-12
    with pytest.raises(ValueError, match="even and at least 2, got 3"):
        gt.optimal_gge_protocol(gamma, ham, 3)


def test_four_phase_builder_shares_its_first_leg(monkeypatch):
    # one builder serves every N: its schedules equal a fresh builder's bit for
    # bit, N = 2 samples no rotation, and once N = 4 has built the first leg's
    # Schur basis every larger N builds at most its second leg's.  A schedule is
    # one pass that never enters the protocol loop: each rotating leg's N/2 - 1
    # samples are made once, the first leg's not again for the walk (from
    # N = 8 this state's second leg is a no-op, repeated ham0)
    rng = make_rng(17)
    ham0 = gt.build_chain(5, rng.uniform(0, 2, 5), 0.4)
    gamma0 = random_correlation(5, rng)
    calls = count_schur(monkeypatch)
    gt.optimal_gge_protocol(gamma0, ham0, 2)
    assert not calls
    samples, runs, at, run = [], [], pr._Rotation.at, pr._run
    monkeypatch.setattr(pr._Rotation, "at", lambda self, s: samples.append(s) or at(self, s))
    monkeypatch.setattr(pr, "_run", lambda *args, **kwargs: runs.append(args) or run(*args, **kwargs))
    build, shared, fresh, rotating = pr._four_phase(gamma0, ham0), [], [], []
    for n in (2, 4, 8, 16):
        before, samples[:] = len(calls), []
        hams = list(build(n))
        rotating.append((hams[1] is not hams[0]) + (hams[n // 2 + 2] is not hams[0]))
        assert len(samples) == rotating[-1] * (n // 2 - 1) and not runs
        shared.append(len(calls) - before)
        alone = list(pr._four_phase(gamma0, ham0)(n))
        fresh.append(len(calls) - before - shared[-1])
        assert all(np.array_equal(a.c, b.c) for a, b in zip(hams, alone, strict=True))
    assert shared[:2] == fresh[:2] == [0, 2]
    assert [f - s for s, f in zip(shared[2:], fresh[2:])] == [1, 1]
    assert rotating == [2, 2, 1, 1]


def test_real_four_phase_schedules_stay_float64():
    # a real chain and state keep every Hamiltonian, mode set and state real
    # on both back ends
    ham0, gamma0 = cli.fig2_initial_state(cli.parse_config(["fig2", "--n", "8", "--seed", "1"]))
    rec = gt.optimal_gge_protocol(gamma0, ham0, 8)
    assert all(h.c.dtype == h.modes.dtype == np.float64 for h in rec.hamiltonians)
    assert all(s.state.dtype == np.float64 for s in rec.steps)
    rng = make_rng(19)
    z = rng.normal(size=(4, 4))
    rho0 = z @ z.T + 0.1 * np.eye(4)
    rec = gt.optimal_ta_protocol(rho0 / np.trace(rho0), (z + z.T) / 2, 6)
    assert all(h.dtype == np.float64 for h in rec.hamiltonians)
    assert all(s.state.dtype == np.float64 for s in rec.steps)


def test_real_dense_four_phase_runs_when_its_first_leg_turns_complex():
    # at d = 3 the first leg's real rotation often has determinant -1, hence
    # an eigenvalue -1 and complex samples; the second leg then turns a
    # complex keyframe onto the real h0 by a permutation of modes, whose
    # gauged columns must take the complex dtype (seeds 0, 1, 3 and 11 raised
    # a casting error when they kept the real one)
    for seed in range(12):
        rng = make_rng(seed)
        z = rng.normal(size=(3, 3))
        rho = z @ z.T + 0.1 * np.eye(3)
        rec = gt.optimal_ta_protocol(rho / np.trace(rho), (z + z.T) / 2, 4, keep_states=False)
        assert rec.work <= rec.meta["work_bound"] + 1e-9, seed


def test_trajectory_builds_each_segment_once_across_threads(monkeypatch):
    # more sampling threads than cores, frequent switches and a Schur basis that
    # yields: a segment built outside the lock would be built more than once
    rng = make_rng(18)
    h0 = random_hermitian(4, rng)
    u = random_unitary(4, rng)
    traj = gt.Trajectory((h0, u @ h0 @ u.conj().T), ("eigenvectors",))
    calls, points = count_schur(monkeypatch, delay=0.01), np.linspace(0.05, 0.95, 16)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            samples = list(pool.map(functools.partial(path_sample, traj), points, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert len(calls) == 1
    assert all(np.array_equal(h, path_sample(traj, x)) for h, x in zip(samples, points))


def test_optimal_ta_protocol_passive_state_idles():
    h = np.diag([0.0, 1.0, 2.0]).astype(complex)
    rho = np.diag([0.5, 0.3, 0.2]).astype(complex)
    for n in (2, 6):
        rec = gt.optimal_ta_protocol(rho, h, n)
        assert rec.work == pytest.approx(0.0, abs=1e-10)


def test_optimal_ta_protocol_two_level_inversion():
    h = np.diag([0.0, 1.0]).astype(complex)
    rho = np.diag([0.2, 0.8]).astype(complex)
    works = {n: gt.optimal_ta_protocol(rho, h, n).work for n in (256, 1024)}
    assert works[256] < works[1024] <= 0.6 + 1e-9
    # the 1/N tail extrapolates to the closed form: population gap x level gap
    w_inf = (1024 * works[1024] - 256 * works[256]) / (1024 - 256)
    assert w_inf == pytest.approx(0.6, abs=2e-3)
    rec = gt.optimal_ta_protocol(rho, h, 256)
    assert rec.meta["work_bound"] == pytest.approx(0.6, abs=1e-12)
    assert rec.work <= rec.meta["work_bound"] + 1e-9
    # final spectrum drifts from the initial one only at O(1/N)
    final = np.sort(np.linalg.eigvalsh(rec.final_state))
    assert np.max(np.abs(final - [0.2, 0.8])) < 0.02


@pytest.mark.parametrize("backend", ["gaussian", "dense"])
def test_optimal_second_leg_orders_the_state_the_runner_reached(backend):
    # the second leg is built from the state the first leg leaves; the state
    # the runner reaches there commutes with the ordering Hamiltonian, which
    # pairs its spectrum anti-sorted with the energies of ham0.  The dense
    # ceiling is the passive gap, also for a degenerate ham0.
    rng = make_rng(16)
    for dim in range(2, 7):
        for n in (2, 4, 8):
            half = n // 2
            if backend == "gaussian":
                ham0 = gt.build_chain(dim, rng.uniform(0, 2, dim), float(rng.uniform(0.1, 1.0)))
                rec = gt.optimal_gge_protocol(random_correlation(dim, rng), ham0, n)
                energies = ham0.energies
                state, h = rec.steps[half + 1].state.T, rec.hamiltonians[half + 2].c
            else:
                energies = np.sort(rng.uniform(0, 2, dim))
                if dim > 2:
                    energies[2] = energies[1]       # a degenerate ham0
                u = random_unitary(dim, rng)
                h0, rho0 = (u * energies) @ u.conj().T, random_density(dim, rng)
                rec = gt.optimal_ta_protocol(rho0, h0, n)
                passive = gt.passive_rearrangement(rho0, h0)
                gap = np.trace(rho0 @ h0).real - np.trace(passive @ h0).real
                assert rec.meta["work_bound"] == pytest.approx(gap, abs=1e-12)
                state, h = rec.steps[half + 1].state, rec.hamiltonians[half + 2]
            assert np.max(np.abs(state @ h - h @ state)) < 1e-10
            assert np.allclose(np.linalg.eigvalsh(h), energies, atol=1e-10)
            pairing = np.linalg.eigvalsh(state) @ energies[::-1]
            assert np.trace(state @ h).real == pytest.approx(pairing, abs=1e-10)


def test_optimal_gibbs_protocol_fixed_point():
    rng = make_rng(10)
    h = random_hermitian(3, rng)
    vals, vecs = np.linalg.eigh(h)
    w = np.exp(-0.9 * vals)
    w /= w.sum()
    rho = (vecs * w) @ vecs.conj().T
    rec = gt.optimal_gibbs_protocol(rho, h, -1.0, 16)
    assert rec.work == pytest.approx(0.0, abs=1e-8)
    assert np.max(np.abs(rec.final_state - rho)) < 1e-7


def test_optimal_gibbs_protocol_inverted_population(monkeypatch):
    # two levels: the thermal map at matched energy keeps the populations,
    # so the state never moves and the exact work is 0 for every N
    h = np.diag([0.0, 1.0]).astype(complex)
    rho = np.diag([0.25, 0.75]).astype(complex)
    for n in (16, 64, 256):
        rec = gt.optimal_gibbs_protocol(rho, h, -0.5, n)
        assert rec.steps[1].duals[0] == pytest.approx(2.0, abs=1e-9)  # beta = -1/k
        assert rec.work == pytest.approx(0.0, abs=1e-12)
    # three levels: the return extracts work, growing with N (0.31, 0.38
    # and 0.52) towards the entropy-matched limit 0.6006
    h = np.diag([0.0, 1.0, 2.0]).astype(complex)
    rho = np.diag([0.2, 0.3, 0.5]).astype(complex)
    works = []
    for n in (16, 64, 256):
        rec = gt.optimal_gibbs_protocol(rho, h, -0.5, n)
        assert rec.steps[1].duals[0] == pytest.approx(2.0, abs=1e-9)
        assert rec.meta["beta_star"] is not None
        assert rec.work <= rec.meta["work_limit"] + 1e-9
        works.append(rec.work)
    assert works[0] > 0.25 and np.all(np.diff(works) > 0.05)
    assert rec.meta["work_limit"] == pytest.approx(0.6006, abs=1e-4)
    with pytest.raises(ValueError, match="negative"):
        gt.optimal_gibbs_protocol(rho, h, 0.5, 8)
    with pytest.raises(ValueError, match="negative, got nan$"):
        gt.optimal_gibbs_protocol(rho, h, math.nan, 8)
    with pytest.raises(ValueError, match="singular"):
        gt.optimal_gibbs_protocol(np.diag([1.0, 0.0, 0.0]).astype(complex), h, -1.0, 8)
    # the 9 thermal steps decompose their Hamiltonians, in one stack; the last
    # one is h0, whose eigensystem beta* and the state it matches reuse
    dtypes = count_eigh(monkeypatch)
    gt.optimal_gibbs_protocol(rho, h, -0.5, 8, keep_states=False)
    assert len(dtypes) == 9


def test_min_work_scan_verdicts():
    ham = gt.build_chain(3, [0.5, 1.0, 1.5], 0.3)
    gamma0 = random_correlation(3, make_rng(12), lo=0.1, hi=0.9)
    traj = gt.Trajectory((ham.c, gt.build_chain(3, [1.5, 1.0, 0.5], 0.3).c), ("linear",))
    single = gt.min_work_scan(gamma0, functools.partial(path_schedule, traj), [gt.GGE], [4], seed=1)
    assert single.verdicts["ta-gge"] == "insufficient data"
    scan = gt.min_work_scan(gamma0, functools.partial(path_schedule, traj), [gt.GGE, gt.GIBBS, gt.Exact(5.0, 20.0)],
                            [1, 2, 4, 8, 16], seed=1)
    assert set(scan.verdicts) == {"ta-gge", "gibbs", "exact"}
    assert scan.works.shape == (3, 5)
    assert not scan.failures
    header, rows = scan.table()
    assert header[0] == "N" and len(rows) == 5


def test_min_work_scan_is_thread_independent(monkeypatch):
    ham = gt.build_chain(3, [0.5, 1.0, 1.5], 0.3)
    gamma0 = random_correlation(3, make_rng(12), lo=0.1, hi=0.9)
    traj = gt.Trajectory((ham.c, gt.build_chain(3, [1.5, 1.0, 0.5], 0.3).c), ("linear",))
    models = [gt.GGE, gt.GIBBS, gt.Exact(5.0, 20.0)]
    monkeypatch.setenv("GGE_THERMO_THREADS", "1")
    serial = gt.min_work_scan(gamma0, functools.partial(path_schedule, traj), models, [1, 2, 4, 8, 16], seed=1)
    monkeypatch.setenv("GGE_THERMO_THREADS", "2")
    threaded = gt.min_work_scan(gamma0, functools.partial(path_schedule, traj), models, [1, 2, 4, 8, 16], seed=1)
    np.testing.assert_array_equal(serial.works, threaded.works)
    np.testing.assert_array_equal(serial.entropy_production, threaded.entropy_production)
    assert serial.failures == threaded.failures


def test_max_workers_warns_on_invalid_environment(monkeypatch):
    for value in ("two", "0", "-3"):
        monkeypatch.setenv("GGE_THERMO_THREADS", value)
        with pytest.warns(RuntimeWarning, match=repr(value)):
            assert pr._max_workers() == 1
    monkeypatch.setenv("GGE_THERMO_THREADS", "3")
    assert pr._max_workers() == 3


def test_min_work_scan_builds_each_schedule_once(monkeypatch):
    # one schedule per N, largest first, shared by all three models; each
    # cell equals its own run, the exact one seeded by (model index, N)
    ham = gt.build_chain(3, [0.5, 1.0, 1.5], 0.3)
    gamma0 = random_correlation(3, make_rng(12), lo=0.1, hi=0.9)
    traj = gt.Trajectory((ham.c, gt.build_chain(3, [1.5, 1.0, 0.5], 0.3).c), ("linear",))
    built = []

    def schedule(n):
        built.append(n)
        return path_schedule(traj, n)

    models = [gt.GGE, gt.Exact(5.0, 20.0), gt.GIBBS]
    ns = [1, 2, 4, 8]
    monkeypatch.setenv("GGE_THERMO_THREADS", "1")
    scan = gt.min_work_scan(gamma0, schedule, models, ns, seed=7)
    assert built == [8, 4, 2, 1]
    assert scan.entropy_production.shape == scan.works.shape == (3, 4)
    for i, model in enumerate(models):
        for j, n in enumerate(ns):
            if isinstance(model, gt.Exact):
                model = replace(model, seed=np.random.SeedSequence(7, spawn_key=(i, n)))
            rec = gt.run_protocol(gamma0, traj, n, model)
            assert scan.works[i, j] == rec.work
            assert scan.entropy_production[i, j] == rec.entropy_production


def _chain(n, rng, complex_hopping):
    """A random open chain of n sites, its hoppings complex on request."""
    c = np.diag(rng.uniform(0.0, 2.0, n)).astype(complex if complex_hopping else float)
    hop = rng.uniform(0.1, 1.0, n - 1) * (np.exp(1j * rng.uniform(0, 2 * np.pi, n - 1)) if complex_hopping else 1.0)
    c[np.arange(n - 1), np.arange(1, n)] = hop
    c[np.arange(1, n), np.arange(n - 1)] = np.conj(hop)
    return c


def test_lockstep_cell_equals_separate_runs(monkeypatch):
    # one sweep cell runs exact, ta-gge and gibbs in lockstep over one pass of
    # its schedule, decomposing each Hamiltonian once and forming one transport
    # per step for all three.  Each model's steps (works, energies, entropies and
    # duals) equal, bit for bit, a run_schedule of that model alone on the
    # materialised schedule: random chains at n = 2-12, real and complex, every
    # third through a Hamiltonian proportional to the identity (one degenerate
    # block), whose ta-gge step keeps the whole matrix and so its entropy
    rng = make_rng(38)
    models = [gt.Exact(1.0, 30.0), gt.GGE, gt.GIBBS]
    transports, transport = [], fermions._ModeState.transport.__func__
    monkeypatch.setattr(fermions._ModeState, "transport",
                        classmethod(lambda cls, old, new: transports.append(1) or transport(cls, old, new)))
    dtypes = count_eigh(monkeypatch)
    for case in range(24):
        n, n_q, seed = int(rng.integers(2, 13)), 3 * int(rng.integers(1, 5)), int(rng.integers(100))
        keyframes = [_chain(n, rng, case % 2 == 1) for _ in range(2)]
        if case % 3 == 0:   # sampled at step N / 3
            keyframes.insert(1, float(rng.uniform(0.5, 1.5)) * np.eye(n))
        traj = gt.Trajectory(keyframes + keyframes[:1], ("linear",) * len(keyframes))
        gamma0 = random_correlation(n, rng, lo=0.05, hi=0.95)

        def build(n_quenches):
            return traj._records(n_quenches, fermions.QuadraticHamiltonian)

        dtypes.clear()
        transports.clear()
        scan = gt.min_work_scan(gamma0, build, models, [n_q], seed=seed)
        assert len(dtypes) == len(transports) == n_q, case
        for i, model in enumerate(models):
            if isinstance(model, gt.Exact):
                model = replace(model, seed=np.random.SeedSequence(seed, spawn_key=(i, n_q)))
            label = scan.model_labels[i]
            try:
                alone = gt.run_schedule(gamma0, list(build(n_q)), model, keep_states=False)
            except RuntimeError as exc:
                assert scan.failures[(label, n_q)] == f"RuntimeError: {exc}", (case, label)
                continue
            assert (label, n_q) not in scan.failures
            assert [(s.step, s.work_extracted, s.energy, s.entropy, s.duals, s.state) for s in scan.steps[label]] == \
                [(s.step, s.work_extracted, s.energy, s.entropy, s.duals, s.state) for s in alone.steps], (case, label)
            assert (scan.works[i, 0], scan.entropy_production[i, 0]) == (alone.work, alone.entropy_production)
        if case % 3 == 0:
            before, at = scan.steps["ta-gge"][n_q // 3 - 1:n_q // 3 + 1]
            assert abs(at.entropy - before.entropy) <= 1e-12, case


@pytest.mark.parametrize("kind", ["local quench", "four-phase"])
def test_sweep_memory_does_not_grow_with_the_quench_count(monkeypatch, kind):
    # a sweep cell streams its schedule: each record is made, decomposed, used by
    # every model for one step and dropped.  So at n = 40 the working set of a
    # sweep to N = 128 (its tracemalloc peak beyond what the result keeps, the
    # largest N's steps) stays within 6 records (h and its eigenvectors, 25.6 kB)
    # of the same sweep to N = 8; what grows is the step log of the cell in
    # flight (n dephasing duals a step).  Keeping each N's decomposed schedule
    # for the cell added about 140 records
    monkeypatch.setenv("GGE_THERMO_THREADS", "1")
    n, record = 40, 2 * 40 * 40 * 8
    if kind == "local quench":
        ham0 = gt.build_chain(n, [0.1] + [1.0] * (n - 1), 0.5)
        gamma0 = gt.thermal_bath_initial_state(n, 0.5, g=0.5)
        build = functools.partial(gt.local_quench_schedule, ham0, 4.3)
        models, ns = [gt.Exact(40.0, 200.0), gt.GGE, gt.GIBBS], [2 ** k for k in range(8)]
    else:
        ham0 = gt.build_chain(n, [1.0] * n, 0.8)
        gamma0 = gt.from_mode_basis(np.diag(make_rng(40).uniform(0.0, 1.0, n).astype(complex)), ham0)
        build = pr._four_phase(gamma0, ham0)
        models, ns = [gt.GGE, gt.Exact(40.0, 200.0)], [2 ** k for k in range(1, 8)]

    def working_set(n_list) -> int:
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            scan = gt.min_work_scan(gamma0, build, models, n_list, seed=1)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not scan.failures and set(scan.steps) == set(scan.model_labels)
        return peak - kept

    working_set(ns[:2])     # the first leg's Schur basis, built once for every N
    small, large = working_set([n_q for n_q in ns if n_q <= 8]), working_set(ns)
    assert large - small <= 6 * record, (large - small) / record


def test_min_work_scan_local_quench_sweep_is_thread_independent(monkeypatch):
    n = 8
    ham0 = gt.build_chain(n, [0.1] + [1.0] * (n - 1), 0.5)
    gamma0 = gt.thermal_bath_initial_state(n, 0.5, g=0.5)
    schedule = functools.partial(gt.local_quench_schedule, ham0, 4.3)
    models = [gt.Exact(40.0, 200.0), gt.GGE, gt.GIBBS]
    monkeypatch.setenv("GGE_THERMO_THREADS", "1")
    serial = gt.min_work_scan(gamma0, schedule, models, [1, 2, 4, 8, 16], seed=3)
    monkeypatch.setenv("GGE_THERMO_THREADS", "2")
    threaded = gt.min_work_scan(gamma0, schedule, models, [1, 2, 4, 8, 16], seed=3)
    assert np.all(np.isfinite(serial.works))
    np.testing.assert_array_equal(serial.works, threaded.works)
    np.testing.assert_array_equal(serial.entropy_production, threaded.entropy_production)
    assert serial.failures == threaded.failures


def test_min_work_scan_validates_seed():
    # the exact model's rule: an int >= 0, named when it is broken
    ham = gt.build_chain(2, [0.5, 1.0], 0.3)
    gamma0 = random_correlation(2, make_rng(13), lo=0.1, hi=0.9)
    traj = gt.Trajectory((ham.c, gt.build_chain(2, [1.0, 0.5], 0.3).c), ("linear",))
    models = [gt.GGE, gt.Exact(1.0, 2.0)]
    for bad in (None, -1, 1.5, "3"):
        with pytest.raises(ValueError, match=re.escape(f"got {bad!r}")):
            gt.min_work_scan(gamma0, functools.partial(path_schedule, traj), models, [1, 2], seed=bad)
    plain = gt.min_work_scan(gamma0, functools.partial(path_schedule, traj), models, [1, 2], seed=3)
    numpy_int = gt.min_work_scan(gamma0, functools.partial(path_schedule, traj), models, [1, 2], seed=np.int64(3))
    np.testing.assert_array_equal(plain.works, numpy_int.works)


def test_min_work_scan_rejects_invalid_initial_state(monkeypatch):
    # raised at entry, before any cell runs, not recorded as NaN cells
    ham = gt.build_chain(3, [0.0, 1.0, 2.0], 0.3)
    traj = gt.Trajectory((ham.c, gt.build_chain(3, [2.0, 1.0, 0.0], 0.3).c), ("linear",))
    built = []

    def schedule(n):
        built.append(n)
        return path_schedule(traj, n)

    gamma = np.diag([1.5, 0.2, -0.4]).astype(complex)
    with pytest.raises(ValueError, match=r"correlation spectrum outside \[0, 1\]"):
        gt.min_work_scan(gamma, schedule, [gt.GGE, gt.GIBBS], [1, 2], seed=0)
    assert built == []


def test_min_work_scan_survives_cell_failures():
    # a Gibbs cell with an unattainable target energy fails without killing
    # the scan: a filled mode's energy is the upper edge at every step
    gamma0 = np.array([[1.0]], dtype=complex)
    traj = gt.Trajectory(([[1.0]], [[2.0]]), ("linear",))
    scan = gt.min_work_scan(gamma0, functools.partial(path_schedule, traj), [gt.GGE, gt.GIBBS], [2, 4], seed=0)
    assert scan.failures
    assert np.all(np.isfinite(scan.works[0]))
    assert np.all(np.isnan(scan.works[1]))
    assert np.all(np.isfinite(scan.entropy_production[0]))
    assert np.all(np.isnan(scan.entropy_production[1]))


def test_min_work_scan_records_a_schedule_that_fails_at_one_n():
    # every model fails at that N with the builder's error; the other N run
    ham = gt.build_chain(2, [0.5, 1.0], 0.3)
    traj = gt.Trajectory((ham.c, gt.build_chain(2, [1.0, 0.5], 0.3).c), ("linear",))
    gamma0 = random_correlation(2, make_rng(14), lo=0.1, hi=0.9)

    def schedule(n):
        if n == 2:
            raise RuntimeError("no schedule at N = 2")
        return path_schedule(traj, n)

    scan = gt.min_work_scan(gamma0, schedule, [gt.GGE, gt.GIBBS], [1, 2, 4], seed=0)
    assert scan.failures == {(label, 2): "RuntimeError: no schedule at N = 2"
                             for label in ("ta-gge", "gibbs")}
    assert np.all(np.isnan(scan.works[:, 1])) and np.all(np.isnan(scan.entropy_production[:, 1]))
    assert np.all(np.isfinite(scan.works[:, [0, 2]]))


def test_min_work_scan_rejects_models_that_share_a_label():
    # one verdict per label and failures keyed by (label, N): two models with
    # one label would overwrite each other
    ham = gt.build_chain(2, [0.5, 1.0], 0.3)
    traj = gt.Trajectory((ham.c, gt.build_chain(2, [1.0, 0.5], 0.3).c), ("linear",))
    gamma0 = random_correlation(2, make_rng(16), lo=0.1, hi=0.9)
    for models, label in (([gt.Exact(1.0), gt.Exact(50.0, 60.0)], "exact"),
                          ([gt.GGE, gt.GIBBS, gt.GGE], "ta-gge")):
        with pytest.raises(ValueError, match=f"^models must have distinct labels, got '{label}'"):
            gt.min_work_scan(gamma0, functools.partial(path_schedule, traj), models, [1, 2, 4], seed=0)


def test_empty_schedules_and_scans_are_rejected():
    ham = gt.build_chain(2, [0.5, 1.0], 0.3)
    gamma0 = random_correlation(2, make_rng(15))
    with pytest.raises(ValueError, match="^the schedule must contain at least the initial Hamiltonian$"):
        gt.run_schedule(gamma0, [], gt.GGE)
    traj = gt.Trajectory((ham.c, ham.c), ("linear",))
    for models, ns in (([], [1, 2]), ([gt.GGE], [])):
        with pytest.raises(ValueError, match="^need at least one model and one N$"):
            gt.min_work_scan(gamma0, functools.partial(path_schedule, traj), models, ns, seed=0)


def test_gaussian_schedule_errors_keep_their_text_and_come_before_step_1(monkeypatch):
    # the gaussian schedule is checked in stacked calls; bad entries last
    # in a 30-element schedule still raise the one-by-one text of the first
    # before any step runs, a record of the wrong size included, and the
    # sweep records that text for every N
    c = gt.build_chain(4, [0.5, 1.0, 1.5, 2.0], 0.3).c
    gamma0 = np.diag([0.2, 0.4, 0.6, 0.8])
    asym, nan = c.copy(), c.copy()
    asym[0, 1] += 1e-3
    nan[2, 2] = np.nan
    record = gt.build_chain(3, [0.5, 1.0, 1.5], 0.3)
    cases = {
        "coefficient matrix is not Hermitian: max asymmetry 1.000e-03 exceeds tolerance 1.0e-10": (asym, record),
        "coefficient matrix has non-finite entries": (nan,),
        "coefficient matrix must be a square matrix, got shape (2, 3)": (np.ones((2, 3)),),
        "dimension mismatch: correlation matrix (4, 4) vs coefficient matrix (5, 5)": (np.eye(5),),
        "dimension mismatch: correlation matrix (4, 4) vs coefficient matrix (3, 3)": (record, asym),
    }
    good = [c + 0.01 * j * np.eye(4) for j in range(29)]
    runs, run = [], pr._run
    monkeypatch.setattr(pr, "_run", lambda *args, **kwargs: runs.append(1) or run(*args, **kwargs))
    for message, bad in cases.items():
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            gt.run_schedule(gamma0, good + list(bad), gt.GGE)
        assert not runs
        scan = gt.min_work_scan(gamma0, lambda n: good[:n] + list(bad), [gt.GGE, gt.GIBBS], [2, 4], seed=0)
        assert scan.failures == {(label, n): f"ValueError: {message}"
                                 for label in ("ta-gge", "gibbs") for n in (2, 4)}
        assert not runs


def test_gaussian_run_decomposes_each_schedule_matrix_once(monkeypatch):
    # N quenches along a linear trajectory: N + 1 matrices, the N equilibrated
    # ones decomposed once, in a stack; step 0 is never equilibrated
    c0 = gt.build_chain(4, [0.1, 0.5, 1.0, 1.5], 0.3).c
    c1 = gt.build_chain(4, [1.5, 1.0, 0.5, 0.1], 0.6).c
    traj = gt.Trajectory((c0, c1, c0), ("linear", "linear"))
    dtypes = count_eigh(monkeypatch)
    for n_q in (1, 7, 20):
        dtypes.clear()
        gt.run_protocol(np.diag([0.2, 0.4, 0.6, 0.8]), traj, n_q, gt.GGE, keep_states=False)
        assert len(dtypes) == n_q


def test_build_population_inverted_bath():
    gamma = gt.build_population_inverted_bath(6, 0, g=0.4)
    assert np.trace(gamma).real == pytest.approx(0.1)  # only the system site
    gamma = gt.build_population_inverted_bath(6, 5, g=0.4)
    assert np.trace(gamma).real == pytest.approx(5.1)  # all bath modes filled
    gamma = gt.build_population_inverted_bath(150, 32, g=0.5)
    assert gamma.shape == (150, 150)
    assert np.trace(gamma).real == pytest.approx(32.1)
    bath = gt.build_chain(149, [1.0] * 149, 0.5)
    pops = np.sort(np.diag(gt.to_mode_basis(gamma[1:, 1:], bath)).real)
    assert np.allclose(pops[:-32], 0.0, atol=1e-10)
    assert np.allclose(pops[-32:], 1.0, atol=1e-10)
    with pytest.raises(ValueError, match="K"):
        gt.build_population_inverted_bath(6, 6)
    for build in (lambda: gt.build_population_inverted_bath(1, 0),
                  lambda: gt.thermal_bath_initial_state(1, 0.5, g=0.4)):
        with pytest.raises(ValueError, match="^need at least two sites$"):
            build()


def test_local_quench_schedule_shape(monkeypatch):
    ham0 = gt.build_chain(4, [0.1, 1.0, 1.0, 1.0], 0.5)
    gamma0 = random_correlation(4, make_rng(16))
    # the closing Hamiltonian is ham0 itself: only the N - 1 others are built,
    # and the state's schedule decomposes exactly those
    dtypes = count_eigh(monkeypatch)
    hams = list(gt.local_quench_schedule(ham0, 4.3, 5))
    assert not dtypes
    fermions._ModeState.of(gamma0).schedule(hams)
    assert len(dtypes) == 4 and all(ham._es is not None for ham in hams[1:-1])
    assert len(hams) == 6  # N quenches need N + 1 Hamiltonians
    assert hams[1].c[0, 0].real == pytest.approx(4.3)
    assert hams[-1] is ham0
    single = list(gt.local_quench_schedule(ham0, 4.3, 1))
    assert len(single) == 2 and single[-1].c[0, 0].real == pytest.approx(4.3)


def test_local_quench_samples_after_the_peak_are_solved_in_stacks(monkeypatch):
    # the samples after the peak are rank-one updates of ham0, solved by the secular equation in stacks of
    # _RANK_ONE_STACK as the schedule is read, and not again by the state's schedule; the peak and the closing
    # ham0 keep their path; a non-finite peak raises when the schedule is built (6 modes routed here)
    monkeypatch.setattr(hermitian, "_RANK_ONE_MODES", 2)
    ham0 = gt.build_chain(6, [0.1, 1.0, 1.0, 1.0, 1.0, 1.0], 0.5)
    sizes, kernel = [], hermitian._rank_one_eigh
    monkeypatch.setattr(hermitian, "_rank_one_eigh", lambda es0, rhos: sizes.append(len(rhos)) or kernel(es0, rhos))
    stack = hermitian._RANK_ONE_STACK
    for n_q in (1, 2, 3, 8, 16):
        sizes.clear()
        hams = list(gt.local_quench_schedule(ham0, 4.3, n_q))
        samples = max(n_q - 2, 0)
        assert [ham._es is not None for ham in hams[1:2 + samples]] == [False] + [True] * samples, n_q
        fermions._ModeState.of(np.diag(np.linspace(0.1, 0.6, 6))).schedule(hams)
        assert sizes == [min(stack, samples - i) for i in range(0, samples, stack)], n_q
    for peak in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=f"^eps1_peak must be finite, got {peak!r}$"):
            gt.local_quench_schedule(ham0, peak, 4)


def test_local_quench_samples_are_ham0_with_the_site0_energy_set(monkeypatch):
    # each record after ham0 is ham0 + rho e_0 e_0^T, its site-0 energy on the straight line from the peak
    # back to ham0's: a guarded sample (8 modes, under _RANK_ONE_MODES) is exactly that matrix, ham0's away
    # from the site-0 entry (a blend of the peak's and ham0's matrices differs from ham0 off that entry, by
    # round-off, in 2 of these 6 samples at hopping 0.3), and a kernel sample holds no matrix until it is read
    ham0 = gt.build_chain(8, [0.1] + [1.0] * 7, 0.3)
    expected = [ham0.c.copy() for _ in range(7)]
    for j, h in enumerate(expected):
        h[0, 0] = (1.0 - j / 7) * 2.5 + j / 7 * ham0.c[0, 0]
    hams = list(gt.local_quench_schedule(ham0, 2.5, 8))
    assert all(ham._h is not None and np.array_equal(ham.h, h) for ham, h in zip(hams[1:-1], expected, strict=True))
    monkeypatch.setattr(hermitian, "_RANK_ONE_MODES", 2)
    hams = list(gt.local_quench_schedule(ham0, 2.5, 8))
    assert np.array_equal(hams[1].h, expected[0])
    assert all(ham._h is None for ham in hams[2:-1])
    for ham, h in zip(hams[2:-1], expected[1:], strict=True):
        assert np.abs(ham.h - h).max() <= 1e-12


@pytest.mark.parametrize("peak", [4.3, 1.6])
def test_local_quench_runs_match_the_eigh_path_at_n_300(monkeypatch, peak):
    # fig3's and fig4's local quenches at n = 300: the ta-gge and gibbs sweeps on the secular-equation
    # samples match those with every sample decomposed by eigh
    n = 300
    ham0 = gt.build_chain(n, [0.1] + [1.0] * (n - 1), 0.5)
    gamma0 = gt.thermal_bath_initial_state(n, 0.5, g=0.5)
    build = functools.partial(gt.local_quench_schedule, ham0, peak)
    kernel = gt.min_work_scan(gamma0, build, [gt.GGE, gt.GIBBS], [64], seed=0)
    monkeypatch.setattr(hermitian, "_RANK_ONE_GUARD", np.inf)     # no chain passes: eigh throughout
    plain = gt.min_work_scan(gamma0, build, [gt.GGE, gt.GIBBS], [64], seed=0)
    assert not kernel.failures and not plain.failures
    assert np.abs(kernel.works - plain.works).max() <= 1e-10
    assert np.abs(kernel.entropy_production - plain.entropy_production).max() <= 1e-10


def test_universal_bound_random_protocols():
    rng = make_rng(13)
    for _ in range(60):
        n = int(rng.integers(2, 7))
        ham0 = gt.build_chain(n, rng.uniform(0, 2, n), float(rng.uniform(0.1, 1.0)))
        ham1 = gt.build_chain(n, rng.uniform(0, 2, n), float(rng.uniform(0.1, 1.0)))
        gamma0 = random_correlation(n, rng, lo=0.05, hi=0.95)
        bound = gt.optimal_work_bound(gamma0, ham0)
        traj = gt.Trajectory((ham0.c, ham1.c, ham0.c), ("linear", "linear"))
        model = (gt.GGE, gt.Exact(float(rng.uniform(1, 30))))[int(rng.integers(2))]
        rec = gt.run_protocol(gamma0, traj, int(rng.integers(2, 12)), model)
        assert rec.work <= bound + 1e-9


def test_reversibility_of_converged_gge_runs():
    # forward then reversed quasi-static dephasing runs return the state,
    # with the residual shrinking as the quench count grows
    ham0 = gt.build_chain(3, [0.4, 1.0, 1.6], 0.3)
    ham1 = gt.build_chain(3, [1.0, 1.2, 2.0], 0.5)
    gamma0 = gt.dephase_gge(random_correlation(3, make_rng(14), lo=0.1, hi=0.9), ham0)
    traj, back_traj = gt.Trajectory((ham0.c, ham1.c), ("linear",)), gt.Trajectory((ham1.c, ham0.c), ("linear",))
    residuals = []
    for n in (8, 64):
        fwd = gt.run_protocol(gamma0, traj, n, gt.GGE, keep_states=False)
        back = gt.run_protocol(fwd.final_state, back_traj, n, gt.GGE, keep_states=False)
        residuals.append(float(np.max(np.abs(back.final_state - gamma0))))
    assert residuals[1] < residuals[0] / 2.0
    assert residuals[1] < 5e-3


def test_quasi_static_final_passive_beats_finite_n_dense():
    # when the slow limit ends passive, no faster realisation of the same
    # trajectory extracts more work
    rng = make_rng(15)
    h0 = random_hermitian(3, rng)
    vals, vecs = np.linalg.eigh(h0)
    w = np.exp(-1.1 * vals)
    w /= w.sum()
    rho0 = (vecs * w) @ vecs.conj().T
    h1 = (vecs * (vals + np.array([0.0, 0.4, 1.0]))) @ vecs.conj().T  # no level crossing
    traj = gt.Trajectory((h0, h1, h0), ("linear", "linear"))
    slow = gt.run_protocol(rho0, traj, 512, gt.GGE, backend="dense", keep_states=False)
    assert gt.is_passive(slow.final_state, h0, tol=1e-7)
    for n in (1, 2, 5, 9):
        fast = gt.run_protocol(rho0, traj, n, gt.GGE, backend="dense", keep_states=False)
        assert fast.work <= slow.work + 1e-9
    # through an exact level crossing the slow linear path does not end
    # passive: it strands the large population on the upper level
    h0, h1 = np.diag([0.0, 1.0]).astype(complex), np.diag([1.0, 0.0]).astype(complex)
    naive = gt.run_protocol(np.diag([0.7, 0.3]).astype(complex), gt.Trajectory((h0, h1), ("linear",)),
                            512, gt.GGE, backend="dense")
    assert np.trace(naive.final_state @ h1).real == pytest.approx(0.7, abs=1e-9)
    assert not gt.is_passive(naive.final_state, h1, tol=1e-6)
