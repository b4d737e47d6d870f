import math

import numpy as np
import pytest

import gge_thermo as gt
from gge_thermo import fermions as fg
from gge_thermo import hermitian
from _helpers import brentq_root, make_rng, random_correlation, random_hermitian, record_roots


def two_site(g=0.1):
    return gt.build_chain(2, [1.0, 1.0], g)


def test_stacked_hamiltonians_match_one_by_one_construction(monkeypatch):
    # fermions._hamiltonians checks and decomposes a list's matrices in
    # stacked calls; QuadraticHamiltonian(m), one matrix at a time, is the
    # reference, bit for bit, and objects in the list pass through as they are
    rng = make_rng(31)

    def real(n):
        z = rng.normal(size=(n, n))
        return z + z.T

    chain, other = gt.build_chain(3, [0.5, 1.0, 1.5], 0.3), fg.QuadraticHamiltonian(random_hermitian(4, rng))
    cases = {
        "real": [real(5) for _ in range(7)],
        "complex": [random_hermitian(5, rng) for _ in range(7)],
        "zero imaginary part": [real(5).astype(complex) for _ in range(7)],
        "mixed dtypes": [real(3), random_hermitian(3, rng), real(3).astype(complex), real(4),
                         random_hermitian(3, rng), real(3) + 1e-12 * rng.normal(size=(3, 3))],
        "with objects": [random_hermitian(4, rng), chain, real(3), other, chain],
        "n = 30, two chunks": [real(30) for _ in range(6)],
        "n = 100, one matrix a chunk": [real(100) for _ in range(3)],
    }
    assert [len(idx) for idx, _ in hermitian._stacks(cases["n = 30, two chunks"])] == [4, 2]
    assert [len(idx) for idx, _ in hermitian._stacks(cases["n = 100, one matrix a chunk"])] == [1, 1, 1]
    checks, require = [], hermitian.require_hermitian
    monkeypatch.setattr(hermitian, "require_hermitian", lambda *a, **k: checks.append(1) or require(*a, **k))
    for label, ms in cases.items():
        copies = [m.copy() if isinstance(m, np.ndarray) else m for m in ms]
        hams = fg._hamiltonians(ms)
        assert not checks, label     # the stacked path, not the per-matrix one
        for m, copy, ham in zip(ms, copies, hams, strict=True):
            if isinstance(m, fg.QuadraticHamiltonian):
                assert ham is m, label
                continue
            ref = fg.QuadraticHamiltonian(m)
            for got, want in ((ham.c, ref.c), (ham.energies, ref.energies), (ham.modes, ref.modes)):
                assert got.dtype == want.dtype and np.array_equal(got, want), label
            assert np.array_equal(m, copy), label
        if label == "zero imaginary part":
            assert all(ham.c.dtype == ham.modes.dtype == np.float64 for ham in hams)
    assert fg._hamiltonians([]) == []


def test_empty_coefficient_matrix_is_named():
    # a 0 x 0 matrix passes require_hermitian, but a Hamiltonian needs a mode:
    # both gaussian entry points name it instead of failing inside argmax
    text = r"^coefficient matrix has shape \(0, 0\): a Hamiltonian needs at least one mode$"
    with pytest.raises(ValueError, match=text):
        fg.QuadraticHamiltonian(np.zeros((0, 0)))
    with pytest.raises(ValueError, match=text):
        fg._hamiltonians([np.eye(2), np.zeros((0, 0))])
    with pytest.raises(ValueError, match=text):
        gt.run_schedule(np.zeros((0, 0)), [np.zeros((0, 0))] * 3, gt.GGE)


def test_build_chain_examples():
    ham = two_site()
    assert np.allclose(ham.c, [[1.0, 0.1], [0.1, 1.0]])
    decoupled = gt.build_chain(3, [1.0, 2.0, 3.0], 0.0)
    assert np.allclose(decoupled.c, np.diag([1.0, 2.0, 3.0]))
    fig1 = gt.build_chain(100, [1.0] * 100, 0.1)
    assert fig1.n == 100
    assert fig1.c[0, 1] == 0.1
    with pytest.raises(ValueError, match="length"):
        gt.build_chain(2, [1.0], 0.1)


def test_gibbs_correlation_single_mode():
    ham = gt.build_chain(1, [1.0], 0.0)
    assert gt.gibbs_correlation(ham, 0.0)[0, 0].real == pytest.approx(0.5)
    assert gt.gibbs_correlation(ham, 1e4)[0, 0].real == pytest.approx(0.0, abs=1e-12)


def test_gibbs_correlation_two_site_closed_form():
    gamma = gt.gibbs_correlation(two_site(), 2.0)
    pops = np.sort(np.diag(gt.to_mode_basis(gamma, two_site())).real)[::-1]
    assert pops[0] == pytest.approx(1.0 / (1.0 + math.exp(1.8)), rel=1e-12)
    assert pops[1] == pytest.approx(1.0 / (1.0 + math.exp(2.2)), rel=1e-12)


def test_gibbs_correlation_rejects_nan_beta_and_keeps_infinite_limits():
    # a NaN beta used to give the vacuum, as did a thermal bath built from
    # it; +inf fills the negative-energy modes and -inf the positive ones,
    # and a zero-energy mode stays half filled (inf * 0 used to empty it,
    # with a RuntimeWarning)
    ham = gt.build_chain(4, [-1.0, -0.5, 0.5, 1.0], 0.2)
    for call in (lambda: gt.gibbs_correlation(ham, math.nan),
                 lambda: gt.thermal_bath_initial_state(4, math.nan, g=0.3)):
        with pytest.raises(ValueError, match="^beta must be a real number, got nan$"):
            call()
    for chain in (ham, gt.build_chain(3, [-1.0, 0.0, 1.0], 0.0)):
        for beta in (math.inf, -math.inf):
            pops = np.diag(gt.to_mode_basis(gt.gibbs_correlation(chain, beta), chain)).real
            expected = 0.5 - 0.5 * np.sign(beta) * np.sign(chain.energies)
            np.testing.assert_allclose(pops, expected, atol=1e-14)


def test_solve_beta_examples():
    single = gt.build_chain(1, [1.0], 0.0)
    beta, flag = gt.solve_beta(single, 0.5)
    assert beta == pytest.approx(0.0, abs=1e-12)
    assert not flag
    beta, flag = gt.solve_beta(single, 1.0 / (1.0 + math.exp(2.0)))
    assert beta == pytest.approx(2.0, rel=1e-10)
    assert not flag
    # population inversion trips the flag
    beta, flag = gt.solve_beta(single, 0.9)
    assert flag and beta < 0


def test_solve_beta_rejects_unattainable():
    ham = two_site()
    with pytest.raises(ValueError, match="attainable"):
        gt.solve_beta(ham, 2.5)
    with pytest.raises(ValueError, match="attainable"):
        gt.solve_beta(ham, -0.1)


def test_solve_beta_residuals_random(monkeypatch):
    # the Newton-bisection finder against scipy's brentq on the same residual:
    # targets mid-range and within 1e-7..1e-3 of either edge of the range
    roots = record_roots(monkeypatch, fg)
    rng = make_rng(11)
    calls, brent_calls = [], []
    for i in range(2000):
        n = int(rng.integers(2, 61))
        ham = gt.build_chain(n, rng.uniform(-1.0, 2.0, n), float(rng.uniform(0.0, 1.0)))
        lo, hi = gt.attainable_energy_range(ham)
        edge = 10.0 ** rng.uniform(-7.0, -3.0) * (hi - lo)
        mid = float(rng.uniform(lo + 1e-3 * (hi - lo), hi - 1e-3 * (hi - lo)))
        target = (mid, lo + edge, hi - edge)[i % 3]
        beta, _ = gt.solve_beta(ham, target)
        resid = abs(gt.energy(gt.gibbs_correlation(ham, beta), ham) - target)
        assert resid <= 1e-10 * max(1.0, abs(target))
        rec = roots[-1]
        ref, ref_calls = brentq_root(rec["fs"], rec["lo"], rec["hi"])
        calls.append(rec["calls"])
        brent_calls.append(ref_calls)
        # near an edge the root is ill-conditioned: both finders leave a zero
        # residual yet differ by a few 1e-10 relative, so only mid-range roots
        # compare; an edge root stops once its residual is at round-off
        if i % 3 == 0:
            assert abs(beta - ref) <= 1e-12 * max(1.0, abs(beta))
        else:
            assert rec["calls"] <= 20, (i, rec["calls"])
    assert np.mean(calls) < np.mean(brent_calls)


def test_evolve_exact_identity_and_stationarity():
    ham = two_site()
    gamma = gt.gibbs_correlation(ham, 1.3)
    assert np.allclose(gt.evolve_exact(gamma, ham, 0.0), gamma)
    # mode-diagonal states are stationary
    assert np.max(np.abs(gt.evolve_exact(gamma, ham, 7.31) - gamma)) < 1e-12


def test_evolve_exact_rabi_oscillation():
    # two degenerate sites with hopping g: n0(t) = cos^2(g t)
    g = 0.37
    ham = gt.build_chain(2, [1.0, 1.0], g)
    gamma0 = np.diag([1.0, 0.0]).astype(complex)
    for t in (0.3, 1.1, 2.9):
        n0 = gt.evolve_exact(gamma0, ham, t)[0, 0].real
        assert n0 == pytest.approx(math.cos(g * t) ** 2, abs=1e-12)


def test_evolve_exact_preserves_spectrum():
    rng = make_rng(12)
    ham = gt.build_chain(5, rng.uniform(0, 2, 5), 0.4)
    gamma = random_correlation(5, rng)
    out = gt.evolve_exact(gamma, ham, 11.7)
    assert np.max(np.abs(np.linalg.eigvalsh(out) - np.linalg.eigvalsh(gamma))) < 1e-10


def test_dephase_gge_fixed_point_and_idempotence():
    ham = two_site()
    gamma = gt.gibbs_correlation(ham, 2.0)
    assert np.max(np.abs(gt.dephase_gge(gamma, ham) - gamma)) < 1e-12
    rng = make_rng(13)
    gamma = random_correlation(2, rng)
    once = gt.dephase_gge(gamma, ham)
    twice = gt.dephase_gge(once, ham)
    assert np.max(np.abs(once - twice)) < 1e-13


def test_dephase_gge_two_site_energy_and_populations():
    ham = two_site()
    rng = make_rng(14)
    gamma = random_correlation(2, rng)
    out = gt.dephase_gge(gamma, ham)
    g_eta = gt.to_mode_basis(out, ham)
    assert abs(g_eta[0, 1]) < 1e-14
    assert gt.energy(out, ham) == pytest.approx(gt.energy(gamma, ham), abs=1e-12)
    assert np.allclose(np.diag(g_eta).real, np.diag(gt.to_mode_basis(gamma, ham)).real, atol=1e-14)


def test_dephase_majorization():
    # dephased spectrum is a doubly stochastic mixture of the input spectrum
    rng = make_rng(15)
    for _ in range(25):
        n = int(rng.integers(2, 7))
        ham = gt.build_chain(n, rng.uniform(0, 2, n), float(rng.uniform(0.1, 1.0)))
        gamma = random_correlation(n, rng)
        before = np.sort(np.linalg.eigvalsh(gamma))[::-1]
        after = np.sort(np.linalg.eigvalsh(gt.dephase_gge(gamma, ham)))[::-1]
        assert abs(before.sum() - after.sum()) < 1e-10
        assert np.all(np.cumsum(after) <= np.cumsum(before) + 1e-10)


def equilibrate(gamma, ham, model):
    """One equilibration step under ``ham`` through the protocol runner's
    single model dispatch (a no-op quench ham -> ham, then the map)."""
    return gt.run_schedule(gamma, [ham, ham], model).final_state


def test_equilibrate_dispatch_and_fixed_points():
    ham = two_site()
    gamma = gt.gibbs_correlation(ham, 2.0)
    out = equilibrate(gamma, ham, gt.GIBBS)
    assert np.max(np.abs(out - gamma)) < 1e-10
    rng = make_rng(16)
    gamma = random_correlation(2, rng)
    assert np.allclose(equilibrate(gamma, ham, gt.GGE), gt.dephase_gge(gamma, ham))
    assert np.allclose(equilibrate(gamma, ham, gt.Exact(1.5)),
                       gt.evolve_exact(gamma, ham, 1.5))
    with pytest.raises(TypeError):
        equilibrate(gamma, ham, "gibbs")


def test_equilibrate_energy_conservation():
    rng = make_rng(17)
    for model in (gt.GGE, gt.GIBBS, gt.Exact(3.3)):
        for _ in range(10):
            n = int(rng.integers(2, 7))
            ham = gt.build_chain(n, rng.uniform(0, 2, n), float(rng.uniform(0.1, 1.0)))
            gamma = random_correlation(n, rng, lo=0.05, hi=0.95)
            e0 = gt.energy(gamma, ham)
            e1 = gt.energy(equilibrate(gamma, ham, model), ham)
            assert abs(e1 - e0) <= 1e-9 * max(1.0, abs(e0))


def test_equilibrate_entropy_never_decreases():
    rng = make_rng(18)
    for model in (gt.GGE, gt.GIBBS):
        for _ in range(10):
            n = int(rng.integers(2, 7))
            ham = gt.build_chain(n, rng.uniform(0, 2, n), float(rng.uniform(0.1, 1.0)))
            gamma = random_correlation(n, rng, lo=0.05, hi=0.95)
            s0 = gt.entropy_gaussian(gamma)
            s1 = gt.entropy_gaussian(equilibrate(gamma, ham, model))
            assert s1 >= s0 - 1e-10


def test_equilibrate_local_quench_models_disagree():
    # thermal-vs-dephasing site occupations differ measurably after a strong
    # local quench of the controllable site
    n, g = 100, 0.5
    ham0 = gt.build_chain(n, [0.1] + [1.0] * (n - 1), g)
    gamma0 = gt.thermal_bath_initial_state(n, 0.5, g=g, system_occupation=0.1)
    c1 = ham0.c.copy()
    c1[0, 0] = 4.3
    ham1 = gt.QuadraticHamiltonian(c1)
    n0_gge = equilibrate(gamma0, ham1, gt.GGE)[0, 0].real
    n0_gibbs = equilibrate(gamma0, ham1, gt.GIBBS)[0, 0].real
    assert abs(n0_gge - n0_gibbs) > 2e-3


def test_energy_examples():
    ham = two_site()
    assert gt.energy(np.zeros((2, 2)), ham) == 0.0
    assert gt.energy(np.eye(2), ham) == pytest.approx(ham.energies.sum())
    assert gt.energy(np.diag([1.0, 0.0]), ham) == pytest.approx(1.0)
    with pytest.raises(ValueError, match="dimension"):
        gt.energy(np.eye(3), ham)


def test_fermi_monotonicity():
    ham = gt.build_chain(4, [0.5, 1.0, 1.5, 2.0], 0.3)
    betas = np.linspace(-3, 3, 13)
    energies = [gt.energy(gt.gibbs_correlation(ham, b), ham) for b in betas]
    assert np.all(np.diff(energies) < 0)


def test_entropy_gaussian_examples():
    assert gt.entropy_gaussian(0.5 * np.eye(3)) == pytest.approx(3 * math.log(2))
    assert gt.entropy_gaussian(np.diag([1.0, 0.0, 1.0])) == pytest.approx(0.0, abs=1e-12)
    expected = -0.4 * math.log(0.4) - 0.6 * math.log(0.6)
    assert gt.entropy_gaussian(np.array([[0.4]])) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(0.67301, abs=5e-6)
    with pytest.raises(ValueError, match="spectrum"):
        gt.entropy_gaussian(np.diag([1.5, 0.0]))


def test_work_of_quench_examples():
    ham = two_site()
    gamma = random_correlation(2, make_rng(19))
    assert gt.work_of_quench(gamma, ham, ham) == 0.0
    # single mode, population p, eps -> eps + delta costs p * delta
    single = gt.build_chain(1, [1.0], 0.0)
    single2 = gt.build_chain(1, [1.4], 0.0)
    gamma1 = np.array([[0.3]], dtype=complex)
    assert gt.work_of_quench(gamma1, single, single2) == pytest.approx(0.3 * 0.4)
    # the energies name a Hamiltonian of the wrong size, either one
    for pair in ((ham, single), (single, ham)):
        with pytest.raises(ValueError, match="dimension mismatch"):
            gt.work_of_quench(gamma, *pair)


def test_work_of_quench_local_site_cost():
    # raising the empty-ish controllable site from 0.1 to 4.3 costs 0.42
    # on a product state with site occupation 0.1 (diagonal quench, no
    # coherence contribution)
    n, g = 100, 0.5
    ham0 = gt.build_chain(n, [0.1] + [1.0] * (n - 1), g)
    gamma0 = gt.thermal_bath_initial_state(n, 0.5, g=g, system_occupation=0.1)
    c1 = ham0.c.copy()
    c1[0, 0] = 4.3
    ham1 = gt.QuadraticHamiltonian(c1)
    assert gt.work_of_quench(gamma0, ham0, ham1) == pytest.approx(0.42, abs=1e-12)


def test_gaussian_oracle_agreement_small():
    # n <= 3: correlation-matrix results match the 2^n dense realisation
    rng = make_rng(20)
    for n in (2, 3):
        ham = gt.build_chain(n, rng.uniform(0.5, 1.5, n), float(rng.uniform(0.2, 0.8)))
        gamma = random_correlation(n, rng, lo=0.05, hi=0.95)
        rho = gt.gaussian_to_dense(gamma)
        hd = gt.quadratic_to_dense(ham.c)
        assert gt.energy(gamma, ham) == pytest.approx(np.trace(hd @ rho).real, abs=1e-9)
        assert gt.entropy_gaussian(gamma) == pytest.approx(gt.vn_entropy(rho), abs=1e-9)
        gamma_d = gt.dephase_gge(gamma, ham)
        conserved = gt.ConservedSet.from_state(rho, gt.mode_number_operators(ham.modes))
        omega, _ = gt.gge_state_dense(rho, hd, conserved)
        assert np.max(np.abs(gt.correlation_of_dense(omega) - gamma_d)) < 1e-9


def test_mode_basis_roundtrip():
    rng = make_rng(21)
    ham = gt.build_chain(6, rng.uniform(0, 2, 6), 0.5)
    gamma = random_correlation(6, rng)
    back = gt.from_mode_basis(gt.to_mode_basis(gamma, ham), ham)
    assert np.max(np.abs(back - gamma)) < 1e-12
    # real modes take a complex state's real and imaginary parts in real products
    a = ham.modes
    assert np.max(np.abs(gt.to_mode_basis(gamma, ham) - a.T @ gamma @ a.conj())) < 1e-14
