import itertools
import math

import numpy as np
import pytest

import gge_thermo as gt
from gge_thermo import protocols as pr
from _helpers import make_rng, random_correlation, random_density, random_hermitian

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


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
    traj = gt.Trajectory.linear(h0, h1)
    assert np.max(np.abs(traj.sample(0.0) - h0)) < 1e-12
    assert np.max(np.abs(traj.sample(1.0) - h1)) < 1e-12
    mid = traj.sample(0.5)
    assert np.max(np.abs(mid - 0.5 * (h0 + h1))) < 1e-12
    with pytest.raises(ValueError, match="outside"):
        traj.sample(1.5)


def test_trajectory_eigenvector_rule_geodesic():
    h0 = np.diag([0.0, 1.0]).astype(complex)
    h1 = rotated_two_level(0.8)
    traj = gt.Trajectory((h0, h1), ("eigenvectors",))
    for u in (0.0, 0.25, 0.5, 1.0):
        h_u = traj.sample(u)
        assert np.max(np.abs(np.linalg.eigvalsh(h_u) - [0.0, 1.0])) < 1e-10
    assert np.max(np.abs(traj.sample(1.0) - h1)) < 1e-12


def test_trajectory_eigenvector_rule_requires_equal_spectra():
    with pytest.raises(ValueError, match="spectra"):
        gt.Trajectory((np.diag([0.0, 1.0]), np.diag([0.0, 2.0])), ("eigenvectors",)).sample(0.5)


def test_trajectory_eigenvalue_rule_requires_commuting():
    with pytest.raises(ValueError, match="commute"):
        gt.Trajectory((SIGMA_Z, SIGMA_X), ("eigenvalues",)).sample(0.5)


def test_trajectory_reversed():
    rng = make_rng(1)
    h0, h1 = random_hermitian(3, rng), random_hermitian(3, rng)
    traj = gt.Trajectory.linear(h0, h1)
    rev = traj.reversed()
    assert np.max(np.abs(rev.sample(0.3) - traj.sample(0.7))) < 1e-12


# ---------------------------------------------------------------------------
# Protocol runners and records
# ---------------------------------------------------------------------------

def test_run_protocol_constant_trajectory_zero_work():
    ham = gt.build_chain(3, [0.5, 1.0, 1.5], 0.3)
    gamma0 = random_correlation(3, make_rng(2))
    traj = gt.Trajectory.linear(ham.c, ham.c)
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
    rec = gt.run_protocol(gamma0, gt.Trajectory.linear(ham0.c, ham1.c), 7, gt.GGE)
    assert rec.work == sum(s.work_extracted for s in rec.steps)
    assert len(rec.steps) == 8
    assert rec.entropy_production == rec.steps[-1].entropy - rec.steps[0].entropy


def test_entropy_monotone_along_effective_runs():
    rng = make_rng(4)
    ham0 = gt.build_chain(4, rng.uniform(0, 2, 4), 0.4)
    ham1 = gt.build_chain(4, rng.uniform(0, 2, 4), 0.7)
    gamma0 = random_correlation(4, rng, lo=0.05, hi=0.95)
    for model in (gt.GGE, gt.GIBBS):
        rec = gt.run_protocol(gamma0, gt.Trajectory.linear(ham0.c, ham1.c), 9, model)
        assert np.all(np.diff(rec.entropies) >= -1e-9)


def test_gibbs_telescoping_identity():
    rng = make_rng(5)
    ham0 = gt.build_chain(5, rng.uniform(0, 2, 5), 0.5)
    ham1 = gt.build_chain(5, rng.uniform(0, 2, 5), 0.2)
    gamma0 = random_correlation(5, rng, lo=0.1, hi=0.9)
    rec = gt.run_protocol(gamma0, gt.Trajectory.linear(ham0.c, ham1.c), 11, gt.GIBBS)
    assert rec.work == pytest.approx(rec.steps[0].energy - rec.steps[-1].energy, abs=1e-9)


def test_exact_records_keep_spectrum_and_are_seeded():
    rng = make_rng(6)
    ham0 = gt.build_chain(4, rng.uniform(0, 2, 4), 0.4)
    ham1 = gt.build_chain(4, rng.uniform(0, 2, 4), 0.8)
    gamma0 = random_correlation(4, rng)
    traj = gt.Trajectory.linear(ham0.c, ham1.c)
    rec_a = gt.run_protocol(gamma0, traj, 6, gt.ExactDynamics(1.0, 5.0, 42))
    rec_b = gt.run_protocol(gamma0, traj, 6, gt.ExactDynamics(1.0, 5.0, 42))
    rec_c = gt.run_protocol(gamma0, traj, 6, gt.ExactDynamics(1.0, 5.0, 43))
    assert rec_a.work == rec_b.work
    assert rec_a.work != rec_c.work
    base = np.sort(np.linalg.eigvalsh(gamma0))
    for s in rec_a.steps:
        assert np.max(np.abs(np.sort(np.linalg.eigvalsh(s.state)) - base)) < 1e-10


def test_exact_dynamics_draw_contract():
    # one hold per step from a fresh PCG64 stream of the model's seed, in
    # step order; the same model object gives the same run every time
    rng = make_rng(61)
    ham0 = gt.build_chain(4, rng.uniform(0, 2, 4), 0.4)
    ham1 = gt.build_chain(4, rng.uniform(0, 2, 4), 0.8)
    gamma0 = random_correlation(4, rng)
    traj = gt.Trajectory.linear(ham0.c, ham1.c)
    for seed in (7, np.random.SeedSequence(7, spawn_key=(2, 6))):
        model = gt.ExactDynamics(1.0, 5.0, seed)
        rec = gt.run_protocol(gamma0, traj, 6, model)
        draws = np.random.Generator(np.random.PCG64(
            seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)))
        hams = [gt.QuadraticHamiltonian(h) for h in gt.hamiltonian_schedule(traj, 6)]
        state = np.asarray(gamma0, dtype=complex)
        works, energies = [0.0], [gt.energy(state, hams[0])]
        for m in range(1, len(hams)):
            cost = gt.energy(state, hams[m]) - gt.energy(state, hams[m - 1])
            state = gt.evolve_exact(state, hams[m], float(draws.uniform(1.0, 5.0)))
            works.append(-cost)
            energies.append(gt.energy(state, hams[m]))
        assert np.array_equal(rec.works, works)
        assert np.array_equal(rec.energies, energies)
        assert np.array_equal(rec.final_state, state)
        assert gt.run_protocol(gamma0, traj, 6, model).work == rec.work


def test_run_exact_zero_hold_is_pure_quench_accounting():
    # zero hold times leave the state frozen, so the work telescopes to the
    # energy difference of the frozen state under the end Hamiltonians
    rng = make_rng(60)
    ham0 = gt.build_chain(3, rng.uniform(0, 2, 3), 0.3)
    ham1 = gt.build_chain(3, rng.uniform(0, 2, 3), 0.7)
    gamma0 = random_correlation(3, rng)
    traj = gt.Trajectory.linear(ham0.c, ham1.c)
    rec = gt.run_protocol(gamma0, traj, 5, gt.ExactDynamics(0.0, 0.0, 1))
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
    traj = gt.Trajectory.linear(peak, ham0.c)
    scan = gt.min_work_scan(gamma1, traj, [gt.GGE], [2, 4, 8, 16, 32], seed=0)
    assert scan.verdicts["ta-gge"] == "violated"


def test_gge_transport_matches_old_state_populations():
    rng = make_rng(7)
    ham0 = gt.build_chain(4, rng.uniform(0, 2, 4), 0.5)
    ham1 = gt.build_chain(4, rng.uniform(0, 2, 4), 0.1)
    gamma0 = random_correlation(4, rng)
    rec = gt.run_protocol(gamma0, gt.Trajectory.linear(ham0.c, ham1.c), 5, gt.GGE)
    for m in range(1, len(rec.steps)):
        ham_m = rec.hamiltonians[m]
        before = gt.mode_populations(rec.steps[m - 1].state, ham_m)
        after = gt.mode_populations(rec.steps[m].state, ham_m)
        assert np.max(np.abs(before - after)) < 1e-12


def test_failure_reports_step_index():
    # a fully occupied mode pins the energy to the spectral edge, which the
    # thermal map cannot match; the failure names the step
    ham0 = gt.build_chain(1, [1.0], 0.0)
    ham1 = gt.build_chain(1, [2.0], 0.0)
    gamma0 = np.array([[1.0]], dtype=complex)
    with pytest.raises(RuntimeError, match="step 1"):
        gt.run_schedule(gamma0, [ham0, ham1], gt.GIBBS)


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
    res = gt.quasi_static(rho0, traj, gt.GGE, (8, 16, 32, 64), backend="dense")
    ds = res.entropy_productions
    assert np.all(ds > 0)
    # one extra quench halves the produced entropy: O(1/N)
    assert ds[-1] < ds[0] / 4.0
    assert res.entropy_limit == pytest.approx(0.0, abs=5e-4)


def test_quasi_static_kinked_path_produces_log2():
    plus = 0.5 * np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
    traj = gt.Trajectory((SIGMA_X, np.zeros((2, 2)), SIGMA_Z), ("linear", "linear"))
    for n in (4, 16, 64):
        rec = gt.run_protocol(plus, traj, n, gt.GGE, backend="dense")
        assert rec.entropy_production == pytest.approx(math.log(2), abs=1e-9)


def test_quasi_static_gibbs_entropy_constant_without_degeneracy_growth():
    h0 = np.diag([0.0, 1.0]).astype(complex)
    h1 = np.diag([0.0, 2.0]).astype(complex)
    w = np.exp(-1.0 * np.array([0.0, 1.0]))
    w /= w.sum()
    rho0 = np.diag(w).astype(complex)
    res = gt.quasi_static(rho0, gt.Trajectory.linear(h0, h1), gt.GIBBS, (8, 16, 32, 64),
                          backend="dense")
    assert res.entropy_limit == pytest.approx(0.0, abs=1e-4)
    assert res.entropy_productions[-1] < res.entropy_productions[0]


def test_quasi_static_validates_schedule():
    traj = gt.Trajectory.linear(SIGMA_Z, SIGMA_Z)
    with pytest.raises(ValueError, match="three"):
        gt.quasi_static(0.5 * np.eye(2), traj, gt.GGE, (2, 4), backend="dense")
    with pytest.raises(ValueError, match="increasing"):
        gt.quasi_static(0.5 * np.eye(2), traj, gt.GGE, (4, 2, 8), backend="dense")


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
        assert rec.work <= bound + 1e-9
        assert np.max(np.abs(rec.hamiltonians[-1].c - ham.c)) < 1e-12
    with pytest.raises(ValueError, match="even"):
        gt.optimal_gge_protocol(gamma, ham, 3)


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
    assert rec.work <= rec.meta["work_bound"] + 1e-9
    # final spectrum drifts from the initial one only at O(1/N)
    final = np.sort(np.linalg.eigvalsh(rec.final_state))
    assert np.max(np.abs(final - [0.2, 0.8])) < 0.02


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


def test_optimal_gibbs_protocol_inverted_population():
    h = np.diag([0.0, 1.0]).astype(complex)
    rho = np.diag([0.25, 0.75]).astype(complex)
    rec = gt.optimal_gibbs_protocol(rho, h, -0.5, 64)
    assert rec.steps[1].duals[0] == pytest.approx(2.0, abs=1e-9)  # beta = -1/k
    assert rec.work > 0
    assert rec.meta["beta_star"] is not None
    assert rec.work <= rec.meta["work_limit"] + 1e-9
    with pytest.raises(ValueError, match="negative"):
        gt.optimal_gibbs_protocol(rho, h, 0.5, 8)
    with pytest.raises(ValueError, match="singular"):
        gt.optimal_gibbs_protocol(np.diag([1.0, 0.0]).astype(complex), h, -1.0, 8)


def test_restricted_first_quench_examples():
    rng = make_rng(11)
    h0 = random_hermitian(3, rng)
    rho = random_density(3, rng)
    assert gt.restricted_first_quench(rho, [h0]) is h0
    # the log quench is the entropy-minimising member of any family holding it
    p, w = np.linalg.eigh(rho)
    h_log = (w * (-0.7 * np.log(p))) @ w.conj().T
    family = [h0, h_log, random_hermitian(3, rng)]
    chosen = gt.restricted_first_quench(rho, family)
    assert chosen is h_log
    with pytest.raises(ValueError, match="empty"):
        gt.restricted_first_quench(rho, [])


def test_restricted_first_quench_scan_interval():
    # 1-d site-energy family on a fermion chain: the scan brackets the
    # minimiser and refinement improves on the best grid point
    n, g = 12, 0.5
    ham0 = gt.build_chain(n, [0.1] + [1.0] * (n - 1), g)
    gamma0 = gt.thermal_bath_initial_state(n, 0.5, g=g, system_occupation=0.1)

    def builder(x):
        c = ham0.c.copy()
        c[0, 0] = x
        return gt.QuadraticHamiltonian(c)

    def entropy_after(h):
        beta, _ = gt.solve_beta(h, gt.energy(gamma0, h))
        return gt.entropy_gaussian(gt.gibbs_correlation(h, beta))

    chosen = gt.restricted_first_quench(gamma0, (builder, 0.1, 6.0), backend="gaussian")
    x_star = float(chosen.c[0, 0].real)
    assert 0.1 <= x_star <= 6.0
    grid = np.linspace(0.1, 6.0, 33)
    best_grid = min(entropy_after(builder(x)) for x in grid)
    assert entropy_after(chosen) <= best_grid + 1e-12


def test_passive_trajectory_identity_case():
    h = np.diag([0.0, 1.0]).astype(complex)
    traj = gt.passive_trajectory(h, h)
    for u in (0.0, 0.3, 0.8, 1.0):
        assert np.max(np.abs(traj.sample(u) - h)) < 1e-10


def test_passive_trajectory_level_crossing_case():
    # the level order swaps between the endpoints; the naive linear path has
    # an exact crossing and strands the large population on the high level,
    # while the constructed path ends passive
    h0 = np.diag([0.0, 1.0]).astype(complex)
    h1 = np.diag([1.0, 0.0]).astype(complex)
    rho0 = np.diag([0.7, 0.3]).astype(complex)
    traj = gt.passive_trajectory(h0, h1, populations=[0.7, 0.3])
    assert np.max(np.abs(np.sort(np.linalg.eigvalsh(traj.sample(1.0)))
                         - np.sort(np.linalg.eigvalsh(h1)))) < 1e-10
    rec = gt.run_protocol(rho0, traj, 512, gt.GGE, backend="dense")
    assert gt.is_passive(rec.final_state, h1, tol=1e-6)
    assert np.trace(rec.final_state @ h1).real < 0.35
    naive = gt.run_protocol(rho0, gt.Trajectory.linear(h0, h1), 512, gt.GGE, backend="dense")
    assert np.trace(naive.final_state @ h1).real == pytest.approx(0.7, abs=1e-9)
    assert not gt.is_passive(naive.final_state, h1, tol=1e-6)


def test_min_work_scan_verdicts():
    ham = gt.build_chain(3, [0.5, 1.0, 1.5], 0.3)
    gamma0 = random_correlation(3, make_rng(12), lo=0.1, hi=0.9)
    traj = gt.Trajectory.linear(ham.c, gt.build_chain(3, [1.5, 1.0, 0.5], 0.3).c)
    single = gt.min_work_scan(gamma0, traj, [gt.GGE], [4], seed=1)
    assert single.verdicts["ta-gge"] == "insufficient data"
    scan = gt.min_work_scan(gamma0, traj, [gt.GGE, gt.GIBBS, pr.ExactDynamics(5.0, 20.0)],
                            [1, 2, 4, 8, 16], seed=1)
    assert set(scan.verdicts) == {"ta-gge", "gibbs", "exact"}
    assert scan.works.shape == (3, 5)
    assert not scan.failures
    header, rows = scan.table()
    assert header[0] == "N" and len(rows) == 5


def test_min_work_scan_is_thread_independent():
    ham = gt.build_chain(3, [0.5, 1.0, 1.5], 0.3)
    gamma0 = random_correlation(3, make_rng(12), lo=0.1, hi=0.9)
    traj = gt.Trajectory.linear(ham.c, gt.build_chain(3, [1.5, 1.0, 0.5], 0.3).c)
    models = [gt.GGE, gt.GIBBS, pr.ExactDynamics(5.0, 20.0)]
    serial = gt.min_work_scan(gamma0, traj, models, [1, 2, 4, 8, 16], seed=1, threads=1)
    threaded = gt.min_work_scan(gamma0, traj, models, [1, 2, 4, 8, 16], seed=1, threads=2)
    np.testing.assert_array_equal(serial.works, threaded.works)
    assert serial.failures == threaded.failures


def test_max_workers_warns_on_invalid_environment(monkeypatch):
    for value in ("two", "0", "-3"):
        monkeypatch.setenv("GGE_THERMO_THREADS", value)
        with pytest.warns(RuntimeWarning, match=repr(value)):
            assert pr._max_workers() == 1
    monkeypatch.setenv("GGE_THERMO_THREADS", "3")
    assert pr._max_workers() == 3


def test_min_work_scan_survives_cell_failures():
    # a Gibbs cell with an unattainable target energy fails without killing
    # the scan
    ham0 = gt.build_chain(1, [1.0], 0.0)
    ham1 = gt.build_chain(1, [-1.0], 0.0)
    gamma0 = np.array([[0.9]], dtype=complex)
    traj = gt.Trajectory.linear(ham0.c, ham1.c)
    scan = gt.min_work_scan(gamma0, traj, [gt.GGE, gt.GIBBS], [2, 4], seed=0)
    assert scan.failures
    assert np.all(np.isfinite(scan.works[0]))
    assert np.all(np.isnan(scan.works[1]))


def test_build_population_inverted_bath():
    gamma = gt.build_population_inverted_bath(6, 0, g=0.4)
    assert np.trace(gamma).real == pytest.approx(0.1)  # only the system site
    gamma = gt.build_population_inverted_bath(6, 5, g=0.4)
    assert np.trace(gamma).real == pytest.approx(5.1)  # all bath modes filled
    gamma = gt.build_population_inverted_bath(150, 32, g=0.5)
    assert gamma.shape == (150, 150)
    assert np.trace(gamma).real == pytest.approx(32.1)
    bath = gt.build_chain(149, [1.0] * 149, 0.5)
    pops = np.sort(gt.mode_populations(gamma[1:, 1:], bath))
    assert np.allclose(pops[:-32], 0.0, atol=1e-10)
    assert np.allclose(pops[-32:], 1.0, atol=1e-10)
    with pytest.raises(ValueError, match="K"):
        gt.build_population_inverted_bath(6, 6)


def test_local_quench_schedule_shape():
    ham0 = gt.build_chain(4, [0.1, 1.0, 1.0, 1.0], 0.5)
    hams = gt.local_quench_schedule(ham0, 4.3, 5)
    assert len(hams) == 6  # N quenches need N + 1 Hamiltonians
    assert hams[1].c[0, 0].real == pytest.approx(4.3)
    assert hams[-1] is ham0
    single = gt.local_quench_schedule(ham0, 4.3, 1)
    assert len(single) == 2 and single[-1].c[0, 0].real == pytest.approx(4.3)


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
    traj = gt.Trajectory.linear(ham0.c, ham1.c)
    residuals = []
    for n in (8, 64):
        fwd = gt.run_protocol(gamma0, traj, n, gt.GGE, keep_states=False)
        back = gt.run_protocol(fwd.final_state, traj.reversed(), n, gt.GGE, keep_states=False)
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
    traj = gt.Trajectory((h0, h1, h0), ("eigenvalues", "eigenvalues"))
    slow = gt.run_protocol(rho0, traj, 512, gt.GGE, backend="dense", keep_states=False)
    assert gt.is_passive(slow.final_state, h0, tol=1e-7)
    for n in (1, 2, 5, 9):
        fast = gt.run_protocol(rho0, traj, n, gt.GGE, backend="dense", keep_states=False)
        assert fast.work <= slow.work + 1e-9


def test_dual_jump_flags():
    # the kinked path produces a dephasing basis jump that the dual-variable
    # heuristic flags
    plus = 0.5 * np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
    traj = gt.Trajectory((SIGMA_X, np.zeros((2, 2)), SIGMA_Z), ("linear", "linear"))
    ham = gt.build_chain(2, [1.0, 1.0], 0.3)
    gamma = np.diag([0.95, 0.05]).astype(complex)
    rec = gt.run_protocol(gamma, gt.Trajectory.linear(ham.c, ham.c), 4, gt.GGE)
    assert rec.dual_jumps(threshold=1e6) == []
