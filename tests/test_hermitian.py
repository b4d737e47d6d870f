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


def _rank_one_errors(es0, rhos):
    """Per rho: the kernel's eigenvalue gap to ``eigvalsh`` over max |eps|, and its reconstruction and
    orthogonality defects, against A diag(d) A^T + rho e_0 e_0^T."""
    h0 = es0.reconstruct()
    errors = []
    for rho, es in zip(rhos, hermitian._rank_one_eigh(es0, rhos)):
        h = h0.copy()
        h[0, 0] += rho
        a, n = es.vectors, len(es.values)
        exact = np.linalg.eigvalsh(h)
        assert es.values.dtype == a.dtype == np.float64
        errors.append((np.abs(es.values - exact).max() / np.abs(exact).max(),
                       np.abs((a * es.values) @ a.T - h).max(), np.abs(a.T @ a - np.eye(n)).max()))
    return np.array(errors)


@pytest.mark.parametrize("n", [2, 3, 4, 7, 20, 61, 150, 300])
def test_rank_one_kernel_matches_eigh_on_random_updates(n):
    # random real spectra and site rows, stacks mixing both signs of rho and rho = 0 (which keeps ham0)
    rng = make_rng(n)
    for _ in range(2):
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        es0 = hermitian._eigh(hermitian._hermitian_part((q * rng.uniform(-2.0, 2.0, n)) @ q.T))
        rhos = [float(rng.uniform(0.05, 5.0)), -float(rng.uniform(0.05, 5.0)), 0.0, float(rng.normal())]
        errors = _rank_one_errors(es0, rhos)
        assert errors[:, 0].max() <= 1e-13 and errors[:, 1:].max() <= 1e-12, errors.max(axis=0)
        kept = hermitian._rank_one_eigh(es0, [0.0])[0]
        assert np.array_equal(kept.values, es0.values) and np.array_equal(kept.vectors, es0.vectors)


@pytest.mark.parametrize("n", [100, 150, 300])
def test_rank_one_kernel_matches_eigh_on_the_local_quench_chains(n):
    # fig3's and fig4's chains (site 0 at 0.1 in a bulk at 1.0, hopping 0.5), quenched along their peak
    # paths to 4.3 and to 1.6, and below the site energy
    es0 = gt.build_chain(n, [0.1] + [1.0] * (n - 1), 0.5).es
    for peak in (4.3, 1.6, -3.0):
        rhos = [(1.0 - m / 16.0) * (peak - 0.1) for m in range(16)]
        errors = _rank_one_errors(es0, rhos)
        assert errors[:, 0].max() <= 1e-13 and errors[:, 1:].max() <= 1e-12, (peak, errors.max(axis=0))


def test_rank_one_kernel_near_poles_and_close_levels():
    # a site row with components down to 1e-7 and levels 1e-7 apart: the roots sit close to their poles
    n = 12
    rng = make_rng(5)
    d = np.sort(rng.uniform(-1.0, 1.0, n))
    d[5] = d[4] + 1e-7
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    q[0, 3] = 1e-7
    q, _ = np.linalg.qr(q)
    es0 = hermitian._eigh(hermitian._hermitian_part((q * d) @ q.T))
    errors = _rank_one_errors(es0, [0.3, -0.7, 4.0, -1e-3])
    assert errors[:, 0].max() <= 1e-13 and errors[:, 1:].max() <= 1e-12, errors.max(axis=0)


def _site0_es(d, z) -> hermitian.EigenSystem:
    """The eigensystem (d, A) whose site-0 row A[0] is the unit vector z: A is the Householder
    reflection taking e_0 to z, symmetric, so its first row is its first column."""
    w = np.eye(len(d))[0] - z
    return hermitian.EigenSystem(np.asarray(d, dtype=float), np.eye(len(d)) - 2.0 * np.outer(w, w) / (w @ w))


@pytest.mark.parametrize("rho", [5.0, -5.0])
def test_rank_one_kernel_keeps_a_root_found_at_its_midpoint(rho):
    # d = (0, 1, 3) with z^2 = (1/4, 1/4, 1/2): at rho = -5 the mirrored middle root is its interval's
    # midpoint, where the first evaluation already converges; it stays measured from its own origin
    es0 = _site0_es([0.0, 1.0, 3.0], np.sqrt([0.25, 0.25, 0.5]))
    errors = _rank_one_errors(es0, [rho])
    assert errors[:, 0].max() <= 1e-13 and errors[:, 1:].max() <= 1e-12, errors.max(axis=0)


def test_rank_one_kernel_raises_when_a_root_does_not_converge(monkeypatch):
    # a root the step cap leaves unconverged is an error, as LAPACK's dlaed4 reports it, not an eigenvalue
    monkeypatch.setattr(hermitian, "_SECULAR_ITERATIONS", 1)
    with pytest.raises(RuntimeError, match=r"^secular equation did not converge: residual \S+ after 1 steps$"):
        hermitian._rank_one_eigh(gt.build_chain(20, [0.1] + [1.0] * 19, 0.5).es, [2.0])


@pytest.mark.parametrize("kind", ["site entry", "level gap"])
@pytest.mark.parametrize("factor", [2.0, 0.5])
def test_rank_one_guard_on_site_entries_and_level_gaps(monkeypatch, kind, factor):
    # a site-0 mode entry |z_k| or a level gap (over max |eps|) at twice the guard goes to the kernel,
    # which matches eigh there on ham0 + rho e_0 e_0^T, built here from the path's site-0 energies; at half
    # the guard the samples are left to eigh (8 modes routed here)
    monkeypatch.setattr(hermitian, "_RANK_ONE_MODES", 2)
    guard, rng = hermitian._RANK_ONE_GUARD, make_rng(41)
    d, z = np.linspace(-1.0, 1.0, 8), rng.uniform(0.2, 1.0, 8)
    if kind == "site entry":
        z[3] = factor * guard
    else:
        d[4] = d[3] + factor * guard
    ham0 = gt.QuadraticHamiltonian(_site0_es(d, z / np.linalg.norm(z)).reconstruct())
    hams = list(gt.local_quench_schedule(ham0, 2.5, 8))
    assert [ham._es is not None for ham in hams[2:-1]] == [factor > 1.0] * 6
    fermions._ModeState.of(np.diag(np.linspace(0.1, 0.9, 8))).schedule(hams)
    for j, ham in enumerate(hams[2:-1], start=1):
        h = ham0.c.copy()
        h[0, 0] = (1.0 - j / 7) * 2.5 + j / 7 * ham0.c[0, 0]
        exact = np.linalg.eigvalsh(h)
        a = ham.es.vectors
        assert np.abs(ham.es.values - exact).max() <= 1e-13 * np.abs(exact).max()
        assert np.abs((a * ham.es.values) @ a.T - h).max() <= 1e-12
        assert np.abs(a.T @ a - np.eye(8)).max() <= 1e-12


def test_rank_one_guard_leaves_degenerate_decoupled_complex_and_single_site_chains_to_eigh(monkeypatch):
    # an exact degeneracy, a mode without weight on site 0, a complex chain and n = 1, with chains of any
    # size routed, and a real chain of fewer than _RANK_ONE_MODES modes as it stands: the samples keep the
    # eigh path, decomposed bit for bit as one eigh call each
    small = gt.build_chain(hermitian._RANK_ONE_MODES - 1, [0.1] + [1.0] * (hermitian._RANK_ONE_MODES - 2), 0.5).c
    monkeypatch.setattr(hermitian, "_RANK_ONE_MODES", 2)
    degenerate = np.diag([0.5, 0.5, 1.0, 1.5])
    degenerate[2, 3] = degenerate[3, 2] = 0.2
    decoupled = gt.build_chain(4, [0.1, 1.0, 1.0, 1.0], 0.5).c
    decoupled[2, 3] = decoupled[3, 2] = 0.0
    complex_chain = gt.build_chain(4, [0.1, 1.0, 1.0, 1.0], 0.5).c.astype(complex)
    complex_chain[1, 2], complex_chain[2, 1] = 0.5j, -0.5j
    for c in (degenerate, decoupled, complex_chain, np.array([[0.3]]), small):
        if c is small:
            monkeypatch.undo()
        n = len(c)
        hams = list(gt.local_quench_schedule(gt.QuadraticHamiltonian(c), 2.5, 8))
        assert all(ham._es is None for ham in hams[1:-1])
        fermions._ModeState.of(np.diag(np.linspace(0.1, 0.9, n))).schedule(hams)
        for ham in hams[1:-1]:
            plain = _eigh(ham.h)
            assert np.array_equal(ham.es.values, plain.values) and np.array_equal(ham.es.vectors, plain.vectors)
