import itertools
import math

import numpy as np
import pytest

import gge_thermo as gt
from gge_thermo import dense as qd
from gge_thermo import hermitian
from _helpers import (brentq_root, make_rng, random_correlation, random_density, random_hermitian,
                      random_unitary, record_roots)

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PLUS = 0.5 * np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)


def expectation(rho, obs):
    return float(np.trace(obs @ rho).real)


def test_ta_state_diagonal_fixed_point():
    h = np.diag([0.0, 1.0, 2.0]).astype(complex)
    rho = np.diag([0.5, 0.3, 0.2]).astype(complex)
    assert np.max(np.abs(gt.ta_state(rho, h) - rho)) < 1e-14


def test_ta_state_plus_state_dephases_to_maximally_mixed():
    out = gt.ta_state(PLUS, SIGMA_Z)
    assert np.max(np.abs(out - 0.5 * np.eye(2))) < 1e-14
    assert gt.vn_entropy(out) == pytest.approx(math.log(2), rel=1e-12)


def test_ta_state_fully_degenerate_is_identity_map():
    rho = random_density(4, make_rng(0))
    assert np.max(np.abs(gt.ta_state(rho, np.zeros((4, 4))) - rho)) < 1e-14


def test_ta_state_preserves_functions_of_h_and_commutes():
    rng = make_rng(1)
    h = random_hermitian(6, rng)
    rho = random_density(6, rng)
    out = gt.ta_state(rho, h)
    assert abs(np.trace(out).real - 1.0) < 1e-12
    for power in (1, 2, 3):
        hp = np.linalg.matrix_power(h, power)
        assert expectation(out, hp) == pytest.approx(expectation(rho, hp), abs=1e-10)
    assert np.linalg.norm(out @ h - h @ out) < 1e-10
    # idempotent
    assert np.max(np.abs(gt.ta_state(out, h) - out)) < 1e-12


def test_gibbs_state_dense_maximally_mixed():
    rng = make_rng(2)
    h = random_hermitian(4, rng)
    omega, beta = gt.gibbs_state_dense(np.eye(4) / 4.0, h)
    assert beta == pytest.approx(0.0, abs=1e-10)
    assert np.max(np.abs(omega - np.eye(4) / 4.0)) < 1e-10


def test_gibbs_state_dense_fixed_point():
    rng = make_rng(3)
    h = random_hermitian(5, rng)
    vals, vecs = np.linalg.eigh(h)
    w = np.exp(-0.7 * vals)
    w /= w.sum()
    rho = (vecs * w) @ vecs.conj().T
    omega, beta = gt.gibbs_state_dense(rho, h)
    assert beta == pytest.approx(0.7, abs=1e-9)
    assert np.max(np.abs(omega - rho)) < 1e-9


def test_gibbs_state_dense_two_level_quasi_static_family():
    # H(u) = E (1 - u) |1><1| with energy matching keeps the state frozen and
    # scales the inverse temperature as beta(u) = beta0 / (1 - u)
    e_level, beta0 = 1.0, 0.8
    h0 = np.diag([0.0, e_level]).astype(complex)
    w = np.exp(-beta0 * np.diag(h0).real)
    w /= w.sum()
    rho = np.diag(w).astype(complex)
    for u in (0.1, 0.5, 0.9):
        h_u = np.diag([0.0, e_level * (1.0 - u)]).astype(complex)
        omega, beta = gt.gibbs_state_dense(rho, h_u)
        assert beta == pytest.approx(beta0 / (1.0 - u), rel=1e-9)
        assert np.max(np.abs(omega - rho)) < 1e-9


def test_gibbs_state_dense_rejects_edge_energy():
    h = np.diag([0.0, 1.0]).astype(complex)
    ground = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(ValueError, match="spectral edges"):
        gt.gibbs_state_dense(ground, h)


def test_gge_empty_set_reduces_to_gibbs():
    rng = make_rng(4)
    h = random_hermitian(4, rng)
    rho = random_density(4, rng)
    omega_g, beta_g = gt.gibbs_state_dense(rho, h)
    omega, dual = gt.gge_state_dense(rho, h, gt.ConservedSet((), ()))
    assert dual.lambdas == ()
    assert dual.beta == pytest.approx(beta_g, abs=1e-12)
    assert np.max(np.abs(omega - omega_g)) < 1e-12


def test_gge_full_projector_set_equals_ta_state():
    rng = make_rng(5)
    h = random_hermitian(4, rng)
    rho = random_density(4, rng)
    vals, vecs = np.linalg.eigh(h)
    projectors = [np.outer(vecs[:, k], vecs[:, k].conj()) for k in range(4)]
    conserved = gt.ConservedSet.from_state(rho, projectors)
    omega, _ = gt.gge_state_dense(rho, h, conserved)
    assert np.max(np.abs(omega - gt.ta_state(rho, h))) < 1e-8


def test_gge_constraint_residuals_commuting_and_not():
    rng = make_rng(6)
    for kind in ("commuting", "noncommuting"):
        for _ in range(5):
            d = int(rng.integers(3, 9))
            h = random_hermitian(d, rng)
            rho = random_density(d, rng)
            if kind == "commuting":
                _, vecs = np.linalg.eigh(h)
                qs = [(vecs * rng.normal(size=d)) @ vecs.conj().T for _ in range(2)]
            else:
                qs = [random_hermitian(d, rng) for _ in range(2)]
            conserved = gt.ConservedSet.from_state(rho, qs)
            omega, dual = gt.gge_state_dense(rho, h, conserved)
            assert np.max(np.abs(conserved.residuals(omega))) <= 1e-8
            assert abs(expectation(omega, h) - expectation(rho, h)) <= 1e-8
            assert len(dual.lambdas) == 2


def test_gge_oracle_matches_mode_dephasing():
    rng = make_rng(7)
    ham = gt.build_chain(2, [1.0, 1.3], 0.4)
    gamma = np.array([[0.62, 0.21 - 0.05j], [0.21 + 0.05j, 0.33]])
    rho = gt.gaussian_to_dense(gamma)
    hd = gt.quadratic_to_dense(ham.c)
    conserved = gt.ConservedSet.from_state(rho, gt.mode_number_operators(ham.modes))
    omega, _ = gt.gge_state_dense(rho, hd, conserved)
    assert np.max(np.abs(gt.correlation_of_dense(omega) - gt.dephase_gge(gamma, ham))) < 1e-9


def test_gge_divergence_guard_reports_boundary():
    h = np.diag([0.0, 1.0]).astype(complex)
    rho = np.diag([0.9, 0.1]).astype(complex)
    # a pure-state target is on the boundary of the attainable set
    conserved = gt.ConservedSet((SIGMA_Z,), (1.0,))
    with pytest.raises((ValueError, RuntimeError)):
        gt.gge_state_dense(rho, h, conserved)


def test_conserved_set_from_state_names_a_malformed_observable():
    # each observable is checked against the state before its target is taken
    rho = np.eye(2) / 2
    with pytest.raises(ValueError, match=r"^dimension mismatch: state \(2, 2\) vs observable 0 \(3, 3\)$"):
        gt.ConservedSet.from_state(rho, [np.eye(3)])
    with pytest.raises(ValueError, match=r"^observable 0 must be a square matrix, got shape \(3,\)$"):
        gt.ConservedSet.from_state(rho, [np.ones(3)])
    with pytest.raises(ValueError, match="^observable 1 is not Hermitian: max asymmetry 1.000e-01"):
        gt.ConservedSet.from_state(rho, [SIGMA_Z, np.array([[0.0, 0.1], [0.0, 1.0]])])
    with pytest.raises(ValueError, match=r"^dimension mismatch: state \(2, 2\) vs observable 1 \(3, 3\)$"):
        gt.ConservedSet.from_state(rho, [SIGMA_Z, np.eye(3), np.array([[0.0, 0.1], [0.0, 1.0]])])


def test_conserved_set_from_state_checks_each_observable_once(monkeypatch):
    # one stacked check of the observables, none one by one, and the same
    # observables and targets as the checked constructor, bit for bit
    rng = make_rng(9)
    rho, qs = random_density(4, rng), [random_hermitian(4, rng) + 1e-12j * rng.normal(size=(4, 4))
                                       for _ in range(3)]
    stacked, single = [], []
    monkeypatch.setattr(qd, "_require_hermitian_all",
                        lambda ms, name: stacked.append(name) or hermitian._require_hermitian_all(ms, name))
    monkeypatch.setattr(qd, "require_hermitian",
                        lambda m, name="matrix": single.append(name) or hermitian.require_hermitian(m, name))
    conserved = gt.ConservedSet.from_state(rho, qs)
    assert stacked == ["observable {i}"] and single == ["state"]
    monkeypatch.undo()
    obs = [hermitian.require_hermitian(q) for q in qs]
    r = qd.check_state(rho)
    want = gt.ConservedSet(obs, [np.einsum("ij,ji->", q, r).real for q in obs])
    assert all(np.array_equal(a, b) for a, b in zip(conserved.observables, want.observables, strict=True))
    assert conserved.targets == want.targets


def test_entropy_ordering_hierarchy():
    # with commuting conserved quantities: S(TA) <= S(GGE) <= S(Gibbs)
    rng = make_rng(8)
    for _ in range(10):
        d = int(rng.integers(3, 7))
        h = random_hermitian(d, rng)
        rho = random_density(d, rng)
        _, vecs = np.linalg.eigh(h)
        qs = [(vecs * rng.normal(size=d)) @ vecs.conj().T]
        conserved = gt.ConservedSet.from_state(rho, qs)
        s_ta = gt.vn_entropy(gt.ta_state(rho, h))
        s_gge = gt.vn_entropy(gt.gge_state_dense(rho, h, conserved)[0])
        s_gibbs = gt.vn_entropy(gt.gibbs_state_dense(rho, h)[0])
        assert s_ta <= s_gge + 1e-9
        assert s_gge <= s_gibbs + 1e-9


def test_vn_entropy_examples():
    pure = np.diag([1.0, 0.0]).astype(complex)
    assert gt.vn_entropy(pure) == pytest.approx(0.0, abs=1e-12)
    assert gt.vn_entropy(np.eye(4) / 4.0) == pytest.approx(math.log(4), rel=1e-12)
    expected = -0.4 * math.log(0.4) - 0.6 * math.log(0.6)
    assert gt.vn_entropy(np.diag([0.4, 0.6])) == pytest.approx(expected, rel=1e-12)
    with pytest.raises(ValueError):
        gt.vn_entropy(np.diag([0.7, 0.7]))


def test_kl_gap_examples():
    rng = make_rng(9)
    h = random_hermitian(4, rng)
    rho = random_density(4, rng)
    vals, vecs = np.linalg.eigh(h)
    projectors = [np.outer(vecs[:, k], vecs[:, k].conj()) for k in range(4)]
    full = gt.ConservedSet.from_state(rho, projectors)
    assert gt.kl_gap(rho, h, full) == pytest.approx(0.0, abs=1e-7)
    nothing = gt.ConservedSet((), ())
    gap = gt.kl_gap(rho, h, nothing)
    assert gap >= -1e-9
    direct = gt.vn_entropy(gt.gibbs_state_dense(rho, h)[0]) - gt.vn_entropy(gt.ta_state(rho, h))
    assert gap == pytest.approx(direct, abs=1e-9)


def test_is_passive_examples():
    rng = make_rng(10)
    h = random_hermitian(4, rng)
    vals, vecs = np.linalg.eigh(h)
    w = np.exp(-0.9 * vals)
    w /= w.sum()
    omega = (vecs * w) @ vecs.conj().T
    assert gt.is_passive(omega, h)
    assert gt.is_passive(np.eye(4) / 4.0, h)
    # three-fermion mode-sorted state on the 8-dim space is not passive
    ham = gt.build_chain(3, [1.0, 2.0, 2.5], 0.0)
    gamma = np.diag([0.4, 0.3, 0.1]).astype(complex)
    rho = gt.gaussian_to_dense(gamma)
    hd = gt.quadratic_to_dense(ham.c)
    assert not gt.is_passive(rho, hd)
    # non-commuting state is not passive either
    assert not gt.is_passive(PLUS, SIGMA_Z)


def test_is_passive_ranks_a_coherent_degenerate_level_by_its_block_eigenvalues():
    # h = diag(0, 1, 1): the upper level's populations are d +- o, the
    # eigenvalues of its block [[d, o], [o, d]], not its diagonal d
    h = np.diag([0.0, 1.0, 1.0])

    def rho(g, d, o):
        return np.array([[g, 0.0, 0.0], [0.0, d, o], [0.0, o, d]])

    assert not gt.is_passive(rho(0.35, 0.325, 0.1), h)     # 0.425 > 0.35 > 0.325
    assert gt.is_passive(rho(0.45, 0.275, 0.1), h)
    assert gt.is_passive(rho(0.35, 0.325, 0.0), h)


def test_passive_rearrangement_examples():
    h = np.diag([0.0, 1.0]).astype(complex)
    excited = np.diag([0.0, 1.0]).astype(complex)
    out = gt.passive_rearrangement(excited, h)
    assert np.max(np.abs(out - np.diag([1.0, 0.0]))) < 1e-12
    passive = np.diag([0.8, 0.2]).astype(complex)
    assert np.max(np.abs(gt.passive_rearrangement(passive, h) - passive)) < 1e-12


def test_passive_rearrangement_beats_all_permutations():
    rng = make_rng(11)
    h = random_hermitian(4, rng)
    rho = random_density(4, rng)
    out = gt.passive_rearrangement(rho, h)
    assert gt.is_passive(out, h, tol=1e-8)
    energies = np.linalg.eigvalsh(h)
    pops = np.linalg.eigvalsh(rho)
    best = min(
        float(np.dot(energies, perm))
        for perm in itertools.permutations(pops)
    )
    assert expectation(out, h) == pytest.approx(best, abs=1e-10)


def test_passive_minimal_in_unitary_orbit():
    rng = make_rng(12)
    for d in (3, 5):
        h = random_hermitian(d, rng)
        rho = random_density(d, rng)
        out = gt.passive_rearrangement(rho, h)
        e_passive = expectation(out, h)
        for _ in range(1000):
            u = random_unitary(d, rng)
            assert expectation(u @ rho @ u.conj().T, h) >= e_passive - 1e-9


def test_vacuum_oracle_equivalence():
    gamma = np.zeros((2, 2), dtype=complex)
    rho = gt.gaussian_to_dense(gamma)
    ham = gt.build_chain(2, [1.0, 2.0], 0.3)
    hd = gt.quadratic_to_dense(ham.c)
    assert gt.energy(gamma, ham) == 0.0
    assert expectation(rho, hd) == pytest.approx(0.0, abs=1e-14)
    assert gt.entropy_gaussian(gamma) == 0.0
    assert gt.vn_entropy(rho) == pytest.approx(0.0, abs=1e-12)
    assert np.max(np.abs(gt.correlation_of_dense(rho))) < 1e-14


def test_gaussian_to_dense_examples():
    vac = gt.gaussian_to_dense(np.zeros((1, 1)))
    assert np.max(np.abs(vac - np.diag([1.0, 0.0]))) < 1e-14
    gamma = np.diag([0.4, 0.3, 0.1]).astype(complex)
    rho = gt.gaussian_to_dense(gamma)
    weights = np.sort(np.diag(rho).real)[::-1]
    assert weights[0] == pytest.approx(0.6 * 0.7 * 0.9, rel=1e-12)  # = 0.378
    assert np.trace(rho).real == pytest.approx(1.0, rel=1e-12)
    # round trip through an entangling basis
    rng = make_rng(13)
    w = random_unitary(3, rng)
    gamma = (w * [0.2, 0.5, 0.9]) @ w.conj().T
    rho = gt.gaussian_to_dense(gamma)
    assert np.max(np.abs(gt.correlation_of_dense(rho) - gamma)) < 1e-10


def test_quadratic_to_dense_spectrum_is_subset_sums():
    # a dense complex c hops between every pair of sites, so each
    # Jordan-Wigner sign (the parity strictly between i and j) is exercised
    rng = make_rng(21)
    for n in range(1, 7):
        c = random_hermitian(n, rng)
        eps = np.linalg.eigvalsh(c)
        sums = np.sort([sum(eps[k] for k in range(n) if b >> k & 1) for b in range(2**n)])
        h = gt.quadratic_to_dense(c)
        assert np.array_equal(h, h.conj().T)
        assert np.max(np.abs(np.linalg.eigvalsh(h) - sums)) < 1e-10


def test_mode_number_operators_are_projectors_summing_to_particle_number():
    rng = make_rng(22)
    for n in (1, 3, 5):
        numbers = gt.mode_number_operators(random_unitary(n, rng))
        for p in numbers:
            assert np.max(np.abs(p @ p - p)) < 1e-12
            assert np.max(np.abs(p - p.conj().T)) < 1e-14
        popcount = np.diag([bin(b).count("1") for b in range(2**n)]).astype(complex)
        assert np.max(np.abs(sum(numbers) - popcount)) < 1e-12


def test_correlation_round_trip_through_gaussian_state():
    rng = make_rng(23)
    for n in range(1, 7):
        gamma = random_correlation(n, rng)
        rho = gt.gaussian_to_dense(gamma)
        assert np.max(np.abs(gt.correlation_of_dense(rho) - gamma)) < 1e-10


def test_gaussian_to_dense_rejects_large_n():
    with pytest.raises(ValueError, match="too large"):
        gt.gaussian_to_dense(np.eye(13) * 0.5)


def test_check_state_rejections():
    with pytest.raises(ValueError, match="trace"):
        gt.check_state(np.eye(2))
    with pytest.raises(ValueError, match="negative eigenvalue"):
        gt.check_state(np.diag([1.5, -0.5]))


def test_dense_beta_matching_agrees_with_brentq(monkeypatch):
    # energy matching (gibbs_state_dense) and entropy matching on the
    # Newton-bisection finder against scipy's brentq on the same residual
    roots = record_roots(monkeypatch, qd)
    rng = make_rng(15)
    for _ in range(200):
        d = int(rng.integers(2, 17))
        h = random_hermitian(d, rng)
        gt.gibbs_state_dense(random_density(d, rng), h)
        vals = np.linalg.eigvalsh(h)
        w = np.exp(-float(rng.uniform(0.05, 5.0)) * (vals - vals[0]))
        w /= w.sum()
        qd._entropy_matching_beta(gt.eigh(h).values, float(-(w * np.log(w)).sum()))
    assert len(roots) == 400
    for rec in roots:
        ref, _ = brentq_root(rec["fs"], rec["lo"], rec["hi"])
        assert abs(rec["beta"] - ref) <= 1e-12 * max(1.0, abs(ref))


def test_thermal_energy_residual_is_at_the_mean_energy_round_off():
    # the weights sum to 1, so the thermal mean energy is off by about
    # eps max |eps_k|, not eps sum |eps_k|: at d = 64 the matched state's
    # energy stays within a few eps (max |eps_k| + |E|) of the target
    rng = make_rng(64)
    worst = 0.0
    for _ in range(40):
        rho, h = random_density(64, rng), random_hermitian(64, rng)
        omega, _ = gt.gibbs_state_dense(rho, h)
        target = float(np.trace(rho @ h).real)
        scale = np.finfo(float).eps * (np.abs(np.linalg.eigvalsh(h)).max() + abs(target))
        worst = max(worst, abs(float(np.trace(omega @ h).real) - target) / scale)
    assert worst <= 8.0


def test_entropy_matching_beta():
    rng = make_rng(14)
    h = random_hermitian(5, rng)
    vals, vecs = np.linalg.eigh(h)
    w = np.exp(-1.3 * vals)
    w /= w.sum()
    s_target = float(-(w * np.log(w)).sum())
    eps = gt.eigh(h).values
    beta = qd._entropy_matching_beta(eps, s_target)
    assert beta == pytest.approx(1.3, rel=1e-9)
    # entropy below the pure-state floor of a gapped spectrum is available,
    # but entropy above log(d) is not
    assert qd._entropy_matching_beta(eps, math.log(5) + 0.1) is None
    assert qd._entropy_matching_beta(eps, 0.0) is None     # the pure ground state
    # the uniform state's entropy is matched at beta = 0; a doubly degenerate
    # ground level puts the floor at log 2, which only beta -> infinity
    # reaches, so the floor and what lies below it have no beta
    uniform = np.full(5, 0.2)
    assert qd._entropy_matching_beta(eps, float(-np.sum(uniform * np.log(uniform)))) == 0.0
    eps_deg = gt.eigh(np.diag([0.0, 0.0, 1.0, 2.0])).values
    assert qd._entropy_matching_beta(eps_deg, math.log(2) + 1e-3) > 5.0
    for s in (math.log(2), math.log(2) - 1e-3, 0.0):
        assert qd._entropy_matching_beta(eps_deg, s) is None
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match=f"entropy must be finite, got {bad!r}"):
            qd._entropy_matching_beta(eps, bad)


def test_evolve_dense_unitary_invariants():
    rng = make_rng(15)
    h = random_hermitian(4, rng)
    rho = random_density(4, rng)
    def evolve(t):
        return gt.run_schedule(rho, [h, h], gt.Exact(t), backend="dense").final_state

    out = evolve(2.4)
    assert np.max(np.abs(np.linalg.eigvalsh(out) - np.linalg.eigvalsh(rho))) < 1e-10
    assert expectation(out, h) == pytest.approx(expectation(rho, h), abs=1e-10)
    assert np.max(np.abs(evolve(0.0) - rho)) < 1e-12


def _pinned_instances():
    """The 150 (rho, h, observables) of the benchmark's pinned dense-small
    set, in its draw order: even indices commute with h, odd ones do not."""
    rng = make_rng(np.random.SeedSequence(12345, spawn_key=(9,)))
    for k in range(150):
        d, q = int(rng.integers(4, 33)), int(rng.integers(1, 5))
        h, rho = random_hermitian(d, rng), random_density(d, rng)
        if k % 2:
            qs = [random_hermitian(d, rng) for _ in range(q)]
        else:
            vecs = np.linalg.eigh(h)[1]
            qs = [(vecs * rng.normal(size=d)) @ vecs.conj().T for _ in range(q)]
        yield rho, h, qs


def _fresh_instances():
    """200 non-commuting instances, d in 4..32 and 1..4 observables."""
    rng = make_rng(np.random.SeedSequence(777, spawn_key=(3,)))
    for _ in range(200):
        d, q = int(rng.integers(4, 33)), int(rng.integers(1, 5))
        h, rho = random_hermitian(d, rng), random_density(d, rng)
        yield rho, h, [random_hermitian(d, rng) for _ in range(q)]


def _worst_gge_residual(rho, h, qs):
    conserved = gt.ConservedSet.from_state(rho, qs)
    omega, _ = gt.gge_state_dense(rho, h, conserved)
    return max(float(np.max(np.abs(conserved.residuals(omega)))),
               abs(expectation(omega, h) - expectation(rho, h)))


def test_gge_duals_are_canonical_on_a_dependent_set():
    # P0 + P1 is also an observable and the projectors with h span I, so ln Z
    # is flat along two directions; 1e-16 nudges of rho moved the duals by
    # 5.5e-4 when the ridge step drifted along them
    rng = make_rng(0)
    h = np.diag([0.0, 0.7, 1.3, 2.0])
    projectors = [np.diag(np.eye(4)[k]) for k in range(3)]
    qs = projectors + [projectors[0] + projectors[1]]
    rho = random_density(4, rng)
    duals = []
    for nudge in [0.0] + [1e-16] * 3:
        r = rho + nudge * random_hermitian(4, rng)
        conserved = gt.ConservedSet.from_state(r, qs)
        omega, dual = gt.gge_state_dense(r, h, conserved)
        assert np.max(np.abs(conserved.residuals(omega))) <= 1e-12
        duals.append(np.array([dual.beta, *dual.lambdas]))
    assert max(float(np.max(np.abs(x - duals[0]))) for x in duals) <= 1e-10


def test_gge_line_search_halves_the_newton_step():
    # a near-pure state of a diagonal d = 3 instance: the full Newton step
    # overshoots, and with alpha fixed at 1 the solve stops at residual 0.22
    rng = np.random.default_rng(1)
    h = np.diag(np.sort(rng.normal(size=3)))
    qs = [np.diag(rng.normal(size=3)) for _ in range(4)]
    p = rng.dirichlet(0.1 * np.ones(3)) + 1e-7
    assert _worst_gge_residual(np.diag(p / p.sum()), h, qs) <= 1e-12


@pytest.mark.parametrize("route", ["ta_state", "gibbs_state_dense", "gge_state_dense",
                                   "run_schedule", "optimal_gibbs_protocol"])
def test_dense_hamiltonian_is_checked_by_one_rule(route):
    call = {
        "ta_state": gt.ta_state,
        "gibbs_state_dense": gt.gibbs_state_dense,
        "gge_state_dense": lambda rho, h: gt.gge_state_dense(rho, h, gt.ConservedSet((), ())),
        "run_schedule": lambda rho, h: gt.run_schedule(rho, [h, h], gt.GGE, backend="dense"),
        "optimal_gibbs_protocol": lambda rho, h: gt.optimal_gibbs_protocol(rho, h, -1.0, 2),
    }[route]
    rho = np.diag([0.7, 0.3])
    bad = {
        "^Hamiltonian has non-finite entries$": np.diag([0.0, np.nan]),
        "^Hamiltonian is not Hermitian: max asymmetry 1.000e-01": np.array([[0.0, 0.1], [0.0, 1.0]]),
        r"^Hamiltonian must be a square matrix, got shape \(2, 3\)$": np.ones((2, 3)),
    }
    for message, h in bad.items():
        with pytest.raises(ValueError, match=message):
            call(rho, h)
    with pytest.raises(ValueError, match=r"^dimension mismatch: state \(2, 2\) vs Hamiltonian \(3, 3\)$"):
        call(rho, np.eye(3))
    with pytest.raises(ValueError, match="^state trace"):    # the state is checked first
        call(2.0 * rho, np.eye(3))


def test_gge_fresh_instance_38_meets_the_residual_contract():
    # near the optimum the Armijo decrease falls below the round-off of ln Z;
    # the solver then froze this instance at a worst residual of 1.2e-8
    rho, h, qs = next(itertools.islice(_fresh_instances(), 38, None))
    assert _worst_gge_residual(rho, h, qs) <= 1e-9


def test_gge_pinned_stall_121_converges():
    # the same stall ran 300 iterations and ended at 9.8e-9
    rho, h, qs = next(itertools.islice(_pinned_instances(), 121, None))
    assert _worst_gge_residual(rho, h, qs) <= 1e-9


def test_gge_dual_evaluations_per_solve_are_bounded(monkeypatch):
    # a stalled line search shows up as thousands of dual evaluations
    calls = []
    dual_stats = qd._dual_stats

    def counting(*args):
        calls.append(1)
        return dual_stats(*args)

    monkeypatch.setattr(qd, "_dual_stats", counting)
    for rho, h, qs in itertools.chain(_pinned_instances(), _fresh_instances()):
        calls.clear()
        assert _worst_gge_residual(rho, h, qs) <= 1e-8
        assert len(calls) <= 25
