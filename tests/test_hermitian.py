import math
import warnings

import numpy as np
import pytest

import gge_thermo as gt
from gge_thermo import dense, fermions, hermitian
from gge_thermo.hermitian import (
    _eigh,
    _energy_matching_root,
    _fermi,
    _xlogx,
    cluster_degenerate,
    require_hermitian,
)
from _helpers import make_rng, random_density, random_hermitian, random_unitary, record_roots


def test_eigh_identity():
    es = _eigh(require_hermitian(np.eye(2)))
    assert np.allclose(es.values, [1.0, 1.0])
    assert np.max(np.abs(es.vectors.conj().T @ es.vectors - np.eye(2))) < 1e-12


def test_eigh_pauli_x():
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    es = _eigh(require_hermitian(x))
    assert np.allclose(es.values, [-1.0, 1.0])
    s = 1.0 / np.sqrt(2.0)
    assert np.allclose(es.vectors[:, 0], [s, -s])
    assert np.allclose(es.vectors[:, 1], [s, s])


def test_eigh_two_site_chain():
    # 2x2 closed form: eps +- g
    c = np.array([[1.0, 0.1], [0.1, 1.0]])
    es = _eigh(require_hermitian(c))
    assert np.allclose(es.values, [0.9, 1.1])


def test_eigh_phase_convention_real_positive_anchor():
    rng = make_rng(3)
    m = random_hermitian(6, rng)
    es = _eigh(require_hermitian(m))
    for k in range(6):
        col = es.vectors[:, k]
        anchor = col[np.argmax(np.abs(col))]
        assert abs(anchor.imag) < 1e-12
        assert anchor.real > 0


def test_phase_anchor_ignores_mirror_ties():
    # a uniform chain's modes have mirror-image entries of equal magnitude; the
    # anchor is the first entry within 1e-8 of the largest, so a 1e-15 nudge
    # picks the same one and the vectors do not flip sign
    c = gt.build_chain(8, [1.0] * 8, 0.5).c
    base = _eigh(require_hermitian(c)).vectors
    rng = make_rng(8)
    for _ in range(10):
        e = 1e-15 * rng.normal(size=(8, 8))
        assert np.max(np.abs(_eigh(require_hermitian(c + e + e.T)).vectors - base)) <= 1e-12


def test_real_input_stays_real():
    # real input, or complex input with an exactly zero imaginary part, is
    # kept as float64 and decomposed in real arithmetic; any imaginary part
    # keeps it complex
    m = np.array([[1.0, 0.25], [0.25, 2.0]])
    for given in (m, m.astype(complex), m.astype(int)):
        assert require_hermitian(given).dtype == np.float64
    es = _eigh(require_hermitian(m.astype(complex)))
    assert es.vectors.dtype == np.float64
    assert np.array_equal(es.vectors, _eigh(require_hermitian(m)).vectors)
    assert require_hermitian(m + 1e-300j * np.array([[0, 1], [-1, 0]])).dtype == np.complex128
    assert gt.build_chain(3, [0.0, 1.0, 2.0], 0.3).modes.dtype == np.float64


def test_eigh_deterministic():
    rng = make_rng(4)
    m = random_hermitian(8, rng)
    a = _eigh(require_hermitian(m))
    b = _eigh(require_hermitian(m.copy()))
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.vectors, b.vectors)


def test_eigh_rejects_non_hermitian():
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="asymmetry"):
        _eigh(require_hermitian(m))


def test_hermiticity_defect():
    # the defect is the largest entrywise magnitude of M - M^dag, held to the
    # one input tolerance 1e-10
    m = np.array([[0.0, 1.0], [1.0 + 2e-10, 0.0]])
    with pytest.raises(ValueError, match="max asymmetry 2.000e-10 exceeds tolerance 1.0e-10"):
        require_hermitian(m)
    m = np.array([[0.0, 1.0], [1.0 + 5e-11, 0.0]])
    assert np.array_equal(require_hermitian(m), [[0.0, 1.0 + 2.5e-11], [1.0 + 2.5e-11, 0.0]])
    assert require_hermitian(np.zeros((0, 0))).shape == (0, 0)


def test_inputs_share_one_hermiticity_tolerance():
    # a coefficient matrix and a require_hermitian input are symmetrised and accepted at
    # 5e-11 asymmetry, as a state is, and rejected above 1e-10
    c = np.array([[0.5, 0.3], [0.3 + 5e-11, 1.0]])
    ham = gt.QuadraticHamiltonian(c)
    assert np.array_equal(ham.c, 0.5 * (c + c.T))
    assert np.array_equal(_eigh(require_hermitian(c)).values, ham.energies)
    c[1, 0] = 0.3 + 2e-10
    for call in (gt.QuadraticHamiltonian, require_hermitian):
        with pytest.raises(ValueError, match="max asymmetry 2.000e-10"):
            call(c)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["diagonal", "off-diagonal", "one-sided"])
def test_non_finite_matrices_are_rejected_by_name(value, where):
    # NaN fails every comparison and inf - inf is NaN, so the defect test
    # alone let these through; no RuntimeWarning may escape either
    m = np.diag([0.25, 0.5]).astype(complex)
    if where == "diagonal":
        m[0, 0] = value
    else:
        m[0, 1] = value
        if where == "off-diagonal":
            m[1, 0] = value
    ham = gt.build_chain(2, [0.5, 1.0], 0.3)
    entries = [
        ("matrix", lambda: require_hermitian(m)),
        ("coefficient matrix", lambda: gt.QuadraticHamiltonian(m)),
        ("state", lambda: gt.check_state(m)),
        ("mode-basis correlation matrix", lambda: gt.from_mode_basis(m, ham)),
    ] + [("correlation matrix", view) for view in _correlation_views(m)]
    # every map checks the state before the Hamiltonian, which here has no mode
    entries += [("correlation matrix", view)
                for view in _correlation_views(np.full((2, 2), value), np.zeros((0, 0)))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name, call in entries:
            with pytest.raises(ValueError, match=f"^{name} has non-finite entries$"):
                call()


def _correlation_views(gamma, ham=None):
    # every public fermions map that takes a correlation matrix, with ham or a chain
    ham = gt.build_chain(2, [0.5, 1.0], 0.3) if ham is None else ham
    return [
        lambda: gt.entropy_gaussian(gamma),
        lambda: gt.energy(gamma, ham),
        lambda: gt.dephase_gge(gamma, ham),
        lambda: gt.to_mode_basis(gamma, ham),
        lambda: gt.evolve_exact(gamma, ham, 1.0),
        lambda: gt.work_of_quench(gamma, ham, ham),
    ]


def test_non_hermitian_correlation_matrices_are_rejected_by_name():
    # an asymmetry of 1e-9 is above the 1e-10 input tolerance
    m = np.array([[0.25, 1e-9], [0.0, 0.5]], dtype=complex)
    for call in _correlation_views(m):
        with pytest.raises(ValueError, match="^correlation matrix is not Hermitian: "):
            call()


def test_from_mode_basis_rejects_a_non_hermitian_matrix_by_name():
    ham = gt.build_chain(2, [0.5, 1.0], 0.3)
    with pytest.raises(ValueError, match="^mode-basis correlation matrix is not Hermitian: "):
        gt.from_mode_basis(np.array([[0.25, 1.0], [0.0, 0.5]]), ham)
    # within the input tolerance the matrix is used as given, not symmetrised
    g = np.array([[0.25, 1e-11], [0.0, 0.5]], dtype=complex)
    a = ham.modes
    assert np.array_equal(gt.from_mode_basis(g, ham), a.conj() @ g @ a.T)


def test_fermi_and_xlogx_kernels_match_scipy_without_warnings():
    from scipy.special import expit, xlogy

    rng = make_rng(4)
    eps = np.array([-2.0, -1e-3, 0.0, 1e-3, 2.0])
    x = np.concatenate([1e12 * eps, -1e12 * eps, rng.normal(0.0, 30.0, 1000)])
    p = np.concatenate([[0.0, 5e-324, 1.0], rng.uniform(0.0, 1.0, 1000)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fermi, xlogx = _fermi(x), _xlogx(p)
    np.testing.assert_allclose(fermi, expit(-x), rtol=5e-16, atol=0.0)
    np.testing.assert_allclose(xlogx, xlogy(p, p), rtol=5e-16, atol=0.0)
    # where exp would overflow (from _LOG_MAX up, +inf and NaN) the occupation is
    # +0.0, bit for bit, and just below _LOG_MAX it is the bare formula's
    lm = hermitian._LOG_MAX
    below = float(np.nextafter(lm, -np.inf))
    edge = np.array([math.nan, math.inf, -math.inf, lm, np.nextafter(lm, np.inf), below, -lm])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _fermi(edge)
    assert np.array_equal(got, [0.0, 0.0, 1.0, 0.0, 0.0, 1.0 / (1.0 + math.exp(below)), 1.0])
    assert not np.signbit(got).any() and got[5] > 0.0


def test_pure_state_entropy_is_positive_zero():
    # -0.0 would print as "-0" in a CSV cell
    for s in (gt.entropy_gaussian(np.diag([1.0, 0.0])), gt.vn_entropy(np.diag([1.0, 0.0]))):
        assert s == 0.0 and math.copysign(1.0, s) == 1.0


def test_reconstruction_random():
    rng = make_rng(0)
    for n in (2, 7, 33, 64):
        m = random_hermitian(n, rng)
        es = _eigh(require_hermitian(m))
        err = np.linalg.norm(es.reconstruct() - m)
        assert err <= 1e-9 * np.linalg.norm(m)


def test_eigh_idempotent_under_rediagonalisation():
    rng = make_rng(1)
    m = random_hermitian(12, rng)
    es = _eigh(require_hermitian(m))
    again = _eigh(require_hermitian(es.reconstruct()))
    assert np.max(np.abs(again.values - es.values)) < 1e-10


def test_cluster_degenerate_examples():
    assert cluster_degenerate([1.0, 1.0, 2.0], 1e-9).tolist() == [0, 0, 1]
    assert cluster_degenerate([0.9, 1.1], 1e-9).tolist() == [0, 1]
    assert cluster_degenerate([1.0, 1.0 + 1e-12, 2.0], 1e-9).tolist() == [0, 0, 1]
    assert cluster_degenerate([], 1e-9).tolist() == []
    assert cluster_degenerate([], 1e-9).dtype.kind == "i"


def test_cluster_degenerate_covers_everything():
    rng = make_rng(2)
    vals = np.sort(rng.normal(size=20))
    labels = cluster_degenerate(vals, 0.1)
    assert labels.shape == (20,) and labels[0] == 0
    assert np.array_equal(np.diff(labels), np.diff(vals) > 0.1)


@pytest.mark.parametrize("split", [1e-6, 1e-9, 1e-12])
def test_schedule_labels_every_record_in_its_stack(split):
    # a schedule's records carry the degeneracy labels of their spectra, worked out
    # per stack as the schedule is decomposed: each equals cluster_degenerate of its
    # record's values, on real and complex stacks of two sizes whose spectra hold a
    # pair, or a triple, of levels ``split`` apart.  Step 0 and a record built on its
    # own work theirs out on first use
    rng = make_rng(31)
    hs = []
    for k in range(24):
        n = (3, 5)[k % 2]
        e = np.sort(rng.uniform(-1.0, 1.0, n))
        j = int(rng.integers(0, n - 2))
        e[j + 1:j + 1 + k % 3] = e[j] + split * np.arange(1, 1 + k % 3)     # k % 3 levels above e[j]
        u = random_unitary(n, rng) if k % 4 < 2 else np.linalg.qr(rng.normal(size=(n, n)))[0]
        hs.append((u * e) @ u.conj().T)
    # a schedule has one shape: the 3 x 3 matrices are one state's schedule, and the
    # 5 x 5 ones another's behind a step 0 that repeats the first of them, so that
    # hs[1:] are all records of steps 1..N, stacked per shape and dtype as before
    hams = [None] * len(hs)
    hams[0::2] = dense._State(None, np.eye(3) / 3).schedule(hs[0::2])
    hams[1::2] = dense._State(None, np.eye(5) / 5).schedule([hs[1]] + hs[1::2])[1:]
    assert hams[0]._lab is None and hams[0]._es is None
    simple = 0
    for ham in hams[1:]:
        assert ham._lab is not None
        assert ham._lab.dtype.kind == "i"
        assert np.array_equal(ham._lab, cluster_degenerate(ham.es.values))
        simple += ham._lab[-1] == len(ham._lab) - 1
    if split != 1e-9:   # at the tolerance itself, round-off picks the side
        assert simple == (23 if split > hermitian.DEGENERACY_TOL else 7)
    for ham in (hams[0], hermitian._Hamiltonian(hams[1].h)):
        assert np.array_equal(ham.labels, cluster_degenerate(ham.es.values))


def test_shared_labels_of_a_stack_are_read_only():
    # the records of a stack's simple spectra share one label array: a write through
    # one record would change its siblings' degeneracy, so their quench and pinching
    gamma = np.diag([0.2, 0.5, 0.7])
    rec = gt.run_schedule(gamma, [np.diag([0.0, 1.0, 2.0]), np.diag([0.0, 1.5, 2.0]),
                                  np.diag([0.0, 1.2, 2.0])], gt.GGE)
    one, other = rec.hamiltonians[1], rec.hamiltonians[2]
    assert one.labels is other.labels and not one.labels.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        one.labels[1] = 0
    assert one.labels.tolist() == other.labels.tolist() == [0, 1, 2]
    again = gt.run_schedule(gamma, rec.hamiltonians, gt.GGE)
    assert again.final_state.tobytes() == rec.final_state.tobytes()


def test_cluster_degenerate_rejects_unsorted():
    with pytest.raises(ValueError, match="ascending"):
        cluster_degenerate([2.0, 1.0], 1e-9)
    with pytest.raises(ValueError, match="^values must be one-dimensional$"):
        cluster_degenerate(np.zeros((2, 2)))
    for tol in (0.0, -1.0, float("nan")):    # NaN fails the positivity test too
        with pytest.raises(ValueError, match="^tol must be positive"):
            cluster_degenerate([0.0, 1.0, 2.0], tol)


def test_require_hermitian_symmetrises():
    m = np.array([[1.0, 0.1 + 1e-14j], [0.1 - 2e-14j, 2.0]])
    out = require_hermitian(m)
    assert np.array_equal(out, out.conj().T)


def _warm_and_cold(monkeypatch, rng, count):
    """Cold and warm energy matches, as ``(cold, warm)`` root records of the finder,
    on ``count`` random gaussian spectra (chains, through ``fermions._ModeState.energy_beta``)
    and as many dense ones (through ``dense._State.thermalise``), each warm one from
    a start drawn around the cold root: off by 1e-4..10 either way."""
    pairs = []
    roots = record_roots(monkeypatch)
    for module in (fermions, dense):
        for _ in range(count):
            if module is fermions:
                n = int(rng.integers(2, 61))
                ham = gt.build_chain(n, rng.uniform(-1.0, 2.0, n), float(rng.uniform(0.0, 1.0)))
                lo, hi = fermions._ModeState._range(ham.energies)[:2]
                target = float(rng.uniform(lo + 1e-3 * (hi - lo), hi - 1e-3 * (hi - lo)))

                def solve(start):
                    fermions._ModeState.energy_beta(ham, target, start)
            else:
                d = int(rng.integers(2, 17))
                state = dense._State.of(random_density(d, rng))
                ham = state.schedule([random_hermitian(d, rng)])[0]

                def solve(start):
                    state.thermalise(ham, start)
            solve(None)
            solve(roots[-1]["beta"] + float(rng.choice([-1.0, 1.0])) * 10.0 ** rng.uniform(-4.0, 1.0))
            pairs.append((roots[-2], roots[-1]))
    return pairs


def test_thermal_edge_rule_is_one_on_both_back_ends():
    # a flat range matches at beta = 0 and a target within round-off of an
    # edge raises one error, on a chain and on its Jordan-Wigner image alike
    sites = [gt.build_chain(1, [e], 0.0) for e in (1.0, 0.0, -1.0)]
    gamma0 = np.array([[0.3]])
    for run in (gt.run_schedule(gamma0, sites, gt.GIBBS),
                gt.run_schedule(gt.gaussian_to_dense(gamma0), [gt.quadratic_to_dense(h.c) for h in sites],
                                gt.GIBBS, backend="dense")):
        assert [s.duals for s in run.steps[1:]] == [(0.0,), (0.0,)]
        np.testing.assert_allclose([s.work_extracted for s in run.steps], [0.0, 0.3, 0.5], atol=1e-14)
    # the Fermi sea rethermalised under its own Hamiltonian sits on the lower edge
    ham = gt.build_chain(4, [-1.0, -0.5, 0.5, 1.0], 0.3)
    sea, h = gt.gibbs_correlation(ham, math.inf), gt.quadratic_to_dense(ham.c)
    for run in (lambda: gt.run_schedule(sea, [ham, ham], gt.GIBBS),
                lambda: gt.run_schedule(gt.gaussian_to_dense(sea), [h, h], gt.GIBBS, backend="dense")):
        with pytest.raises(RuntimeError, match=r"^step 1: target energy -1\.59250458827 outside the "
                                               r"attainable open interval \(.*\) or within round-off "
                                               r"\(.*\) of its spectral edges$"):
            run()
    assert gt.solve_beta(np.zeros((3, 3)), 0.0) == (0.0, False)


def test_entropy_match_is_one_on_both_back_ends():
    # the Fermi match on a chain's modes and the Boltzmann match on its
    # Jordan-Wigner spectrum find one beta; neither exists above n ln 2, nor at
    # or below the ln 2 per zero mode that no beta empties or fills
    rng = make_rng(33)
    for _ in range(30):
        n = int(rng.integers(2, 7))
        c = random_hermitian(n, rng)
        ham = gt.QuadraticHamiltonian(c)
        dense_ham = hermitian._Hamiltonian(gt.quadratic_to_dense(c))
        s = float(fermions._ModeState.entropies(_fermi(float(rng.uniform(0.05, 5.0)) * ham.energies)))
        beta = fermions._ModeState.entropy_beta(ham, s)
        assert abs(beta - dense._State.entropy_beta(dense_ham, s)) <= 1e-10 * max(1.0, beta)
        for over in (n * math.log(2) + 1e-9, n * math.log(2) + 0.1):
            assert fermions._ModeState.entropy_beta(ham, over) is None
            assert dense._State.entropy_beta(dense_ham, over) is None
    c = np.diag([0.0, -1.0, 1.0])
    for state, h in ((fermions._ModeState, gt.QuadraticHamiltonian(c)),
                     (dense._State, hermitian._Hamiltonian(gt.quadratic_to_dense(c)))):
        assert state.entropy_beta(h, math.log(2) + 1e-3) > 5.0
        for s in (math.log(2), math.log(2) - 1e-3, 0.0):
            assert state.entropy_beta(h, s) is None


def test_warm_energy_match_agrees_with_cold(monkeypatch):
    # a warm start on either side of the root lands on the cold root: the two
    # residuals agree within the finder's round-off floor, the roots within
    # 1e-12 relative; far fewer evaluations are needed from close starts
    pairs = _warm_and_cold(monkeypatch, make_rng(31), 300)
    assert len(pairs) == 600
    sides = set()
    for cold, warm in pairs:
        assert cold["start"] is None and warm["start"] is not None
        sides.add(warm["start"] > cold["beta"])
        f_cold, f_warm = cold["fs"](cold["beta"])[0], warm["fs"](warm["beta"])[0]
        assert abs(f_warm - f_cold) <= 2.0 * cold["floor"], (cold, warm)
        assert abs(warm["beta"] - cold["beta"]) <= 1e-12 * max(1.0, abs(cold["beta"]))
    assert sides == {False, True}
    near = [warm["calls"] for cold, warm in pairs if abs(warm["start"] - cold["beta"]) < 1e-2]
    assert near and np.mean(near) <= 4.0


def test_warm_energy_match_from_a_far_start():
    # at |beta| = 1e3 every weight saturates and dE/dbeta underflows to 0, so
    # no Newton step exists there: the bracket grows outwards from the start
    # and the search still lands on the cold root, within its budget of 8
    # evaluations before the cold search would take over
    eps = np.array([-1.5, -0.8, 0.9, 2.0])
    target = -0.7
    calls = []

    def fs(beta):
        calls.append(beta)
        p = _fermi(beta * eps)
        return float(eps @ p) - target, -float((eps * eps) @ (p * (1.0 - p)))

    floor = 4.0 * np.finfo(float).eps * (np.abs(eps).sum() + abs(target))
    cold = _energy_matching_root(fs, floor=floor)
    n_cold = len(calls)
    for start in (1e3, -1e3):
        assert fs(start)[1] == 0.0
        calls.clear()
        beta = _energy_matching_root(fs, floor=floor, start=start)
        assert abs(beta - cold) <= 1e-12 * abs(cold)
        assert abs(fs(beta)[0]) <= floor
        assert len(calls) - 1 <= 8 + n_cold


def test_warm_energy_match_falls_back_cold_after_8_evaluations():
    # with no slope to step on, the warm search only brackets and bisects; not
    # done after 8 evaluations, it hands over to the cold search, whose root
    # and evaluations are those of a cold call
    calls = []

    def fs(beta):
        calls.append(beta)
        return math.tanh(0.55 - beta), 0.0

    cold = _energy_matching_root(fs)
    cold_calls = list(calls)
    calls.clear()
    assert _energy_matching_root(fs, start=0.3) == cold
    assert len(calls) == 8 + len(cold_calls) and calls[8:] == cold_calls


def test_warm_energy_match_ignores_non_finite_starts():
    # NaN and +-inf are no start: the search runs cold, evaluation for evaluation
    eps = np.array([-0.5, 0.1, 0.9])
    calls = []

    def fs(beta):
        calls.append(beta)
        p = _fermi(beta * eps)
        return float(eps @ p) - 0.2, -float((eps * eps) @ (p * (1.0 - p)))

    cold = _energy_matching_root(fs)
    cold_calls = list(calls)
    for start in (math.nan, math.inf, -math.inf):
        calls.clear()
        assert _energy_matching_root(fs, start=start) == cold
        assert calls == cold_calls


def test_warm_energy_match_keeps_the_no_sign_change_error():
    # a residual that never changes sign exhausts the warm budget, then raises
    # the cold search's error, text unchanged
    for start in (None, 0.5, -3.0):
        with pytest.raises(RuntimeError, match=r"^beta matching found no sign change after bracket "
                                               r"expansion; residual 1\.000e\+00$"):
            _energy_matching_root(lambda beta: (1.0, 0.0), start=start)
