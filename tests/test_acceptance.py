"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line
per sub-check at its pinned tolerance before asserting.

Run with `pytest -s tests/test_acceptance.py` to see the report lines.
"""

import math

import numpy as np
import pytest

import gge_thermo as gt
from gge_thermo import cli, fermions
from _helpers import make_rng, random_correlation, random_density, random_hermitian

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def _check(lines, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    lines.append((bool(ok), f"[{status}] {name}{suffix}"))
    return bool(ok)


def _finish(lines):
    for _, line in lines:
        print(line)
    failed = [line for ok, line in lines if not ok]
    assert not failed, "; ".join(failed)


@pytest.fixture(scope="module")
def fig1_table():
    cfg = cli.parse_config(["fig1"])
    header, rows, _ = cli.cmd_fig1(cfg)
    return np.array(rows, dtype=float)


@pytest.fixture(scope="module")
def fig2_table():
    cfg = cli.parse_config(["fig2"])
    _, rows, _ = cli.cmd_fig2(cfg)
    return np.array(rows, dtype=float)


@pytest.fixture(scope="module")
def fig3_table():
    cfg = cli.parse_config(["fig3"])
    _, rows, _ = cli.cmd_fig3(cfg)
    return np.array(rows, dtype=float)


@pytest.fixture(scope="module")
def fig4_result():
    cfg = cli.parse_config(["fig4"])
    _, rows, diagnostics = cli.cmd_fig4(cfg)
    verdict = diagnostics[0].removeprefix("positive-temperature condition: ")
    assert verdict in ("satisfied", "violated"), diagnostics[0]
    return np.array(rows, dtype=float), verdict == "satisfied"


def test_criterion_01_single_quench_equilibration(fig1_table):
    lines = []
    t = fig1_table[:, 0]
    window = t >= t[-1] * 0.75
    avg = float(fig1_table[window, 1].mean())
    n1_gge = float(fig1_table[0, 2])
    n1_gibbs = float(fig1_table[0, 3])
    _check(lines, "criterion 1a: long-time average matches the dephasing value within 0.005",
           abs(avg - n1_gge) <= 0.005, f"|{avg:.6f} - {n1_gge:.6f}| = {abs(avg - n1_gge):.2e}")
    _check(lines, "criterion 1b: thermal and dephasing predictions differ by > 0.01",
           abs(n1_gge - n1_gibbs) > 0.01, f"gap = {abs(n1_gge - n1_gibbs):.6f}")
    _finish(lines)


def test_criterion_02_unrestricted_extraction(fig2_table):
    lines = []
    n_vals = fig2_table[:, 0]
    w_gge = fig2_table[:, 2]
    bound = float(fig2_table[0, 3])
    slack = 1e-9 * max(1.0, float(np.max(np.abs(w_gge))))
    _check(lines, "criterion 2a: extracted work non-decreasing in N",
           bool(np.all(np.diff(w_gge) >= -slack)),
           "W = " + ", ".join(f"{w:.3f}" for w in w_gge))
    idx100 = int(np.where(n_vals == 100)[0][0])
    _check(lines, "criterion 2b: W(100) reaches 99% of the majorization bound",
           w_gge[idx100] >= 0.99 * bound,
           f"W(100)/bound = {w_gge[idx100] / bound:.4f}")
    s2 = float(fig2_table[0, 4])
    s100 = float(fig2_table[idx100, 4])
    _check(lines, "criterion 2c: entropy production at N=100 within 5% of its N=2 value",
           s100 <= 0.05 * s2, f"S(2) = {s2:.6f}, S(100) = {s100:.6f}")
    _finish(lines)


def test_criterion_03_thermal_bath_extraction(fig3_table):
    lines = []
    w_exact, w_gge, w_gibbs = fig3_table[:, 1], fig3_table[:, 2], fig3_table[:, 3]
    rel = np.abs(w_exact - w_gge) / np.abs(w_gge)
    _check(lines, "criterion 3a: exact and dephasing work agree within 2% at every N",
           bool(np.all(rel <= 0.02)), f"max rel gap = {rel.max():.4f}")
    ratio = np.abs(w_gibbs - w_exact) / np.maximum(np.abs(w_exact - w_gge), 1e-30)
    _check(lines, "criterion 3b: thermal work deviates by at least 3x the exact-dephasing gap",
           bool(np.all(ratio >= 3.0)), f"min ratio = {ratio.min():.1f}")
    slack = 1e-9 * max(1.0, float(np.max(np.abs(w_gge))))
    _check(lines, "criterion 3c: W(N) non-decreasing (minimum work principle holds)",
           bool(np.all(np.diff(w_gge) >= -slack)),
           "W = " + ", ".join(f"{w:.3f}" for w in w_gge))
    _finish(lines)


def test_criterion_04_population_inverted_bath(fig4_result):
    table, positive_temp = fig4_result
    lines = []
    n_vals = table[:, 0]
    w_gge = table[:, 2]
    tail = w_gge[n_vals >= 4]
    _check(lines, "criterion 4a: extracted work strictly decreasing for N >= 4",
           bool(np.all(np.diff(tail) < 0)),
           "W = " + ", ".join(f"{w:.4f}" for w in tail))
    _check(lines, "criterion 4b: positive-temperature condition reported satisfied",
           positive_temp)
    _finish(lines)


def test_criterion_05_oracle_equivalence():
    lines = []
    for n in (2, 3):
        cfg = cli.parse_config(["oracle-check", "--n", str(n)])
        _, rows, _ = cli.cmd_oracle_check(cfg)
        worst = max(r[3] for r in rows)
        _check(lines, f"criterion 5: n={n} correlation and dense pipelines agree within 1e-9",
               worst <= 1e-9, f"worst diff = {worst:.2e}")
    _finish(lines)


def test_criterion_06_majorization_bound():
    lines = []
    rng = make_rng(606)
    labels = ("ta-gge", "gibbs", "exact")
    worst = {label: -np.inf for label in labels}
    for trial in range(1000):
        n = int(rng.integers(2, 9))
        n_quenches = int(rng.integers(1, 21))
        ham0 = gt.build_chain(n, rng.uniform(0.0, 2.0, n), float(rng.uniform(0.1, 1.0)))
        ham1 = gt.build_chain(n, rng.uniform(0.0, 2.0, n), float(rng.uniform(0.1, 1.0)))
        gamma0 = random_correlation(n, rng, lo=0.02, hi=0.98)
        traj = gt.Trajectory((ham0.c, ham1.c, ham0.c), ("linear", "linear"))
        model = (gt.GGE, gt.GIBBS, gt.Exact(float(rng.uniform(1.0, 40.0))))[trial % 3]
        rec = gt.run_protocol(gamma0, traj, n_quenches, model, keep_states=False)
        excess = rec.work - gt.optimal_work_bound(gamma0, ham0)
        label = labels[trial % 3]
        worst[label] = max(worst[label], excess)
    for label in labels:
        _check(lines,
               f"criterion 6: random cyclic {label} protocols never beat the bound by > 1e-9",
               worst[label] <= 1e-9, f"worst excess = {worst[label]:.2e}")
    _finish(lines)


def test_criterion_06_gibbs_entropy_ceiling():
    # the thermal model's own ceiling, on criterion 6's instance stream (its
    # Gibbs trials): quenches keep the entropy, the thermal map never lowers
    # it, and a Gibbs state at beta >= 0 has the least energy at its entropy,
    # so W <= E(gamma0, H0) - E_beta*(H0) with S(beta*) = S(gamma0)
    lines = []
    rng = make_rng(606)
    worst, trials = -np.inf, 0
    for trial in range(1000):
        n = int(rng.integers(2, 9))
        n_quenches = int(rng.integers(1, 21))
        ham0 = gt.build_chain(n, rng.uniform(0.0, 2.0, n), float(rng.uniform(0.1, 1.0)))
        ham1 = gt.build_chain(n, rng.uniform(0.0, 2.0, n), float(rng.uniform(0.1, 1.0)))
        gamma0 = random_correlation(n, rng, lo=0.02, hi=0.98)
        rng.uniform(1.0, 40.0)      # criterion 6's hold time, drawn on every trial
        if trial % 3 != 1:
            continue
        traj = gt.Trajectory((ham0.c, ham1.c, ham0.c), ("linear", "linear"))
        rec = gt.run_protocol(gamma0, traj, n_quenches, gt.GIBBS, keep_states=False)
        beta_star = fermions._ModeState.entropy_beta(ham0, gt.entropy_gaussian(gamma0))
        ceiling = -np.inf if beta_star is None else (    # no beta*: the gate fails
            gt.energy(gamma0, ham0) - gt.energy(gt.gibbs_correlation(ham0, beta_star), ham0))
        worst, trials = max(worst, rec.work - ceiling), trials + 1
    _check(lines, f"criterion 6: {trials} random cyclic gibbs runs never beat the entropy ceiling by > 1e-9",
           trials == 333 and worst <= 1e-9, f"worst excess = {worst:.2e}")
    _finish(lines)


def test_criterion_07_entropy_production_scaling():
    lines = []
    n_values = [2 ** k for k in range(4, 13)]
    # smooth two-level path: eigenbasis rotation at frozen spectrum
    theta = 1.0
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    u = np.array([[c, -s], [s, c]], dtype=complex)
    h0 = np.diag([0.0, 1.0]).astype(complex)
    h1 = u @ h0 @ u.conj().T
    traj = gt.Trajectory((h0, h1), ("eigenvectors",))
    w = np.exp(-np.array([0.0, 1.0]))
    w /= w.sum()
    rho0 = np.diag(w).astype(complex)
    ds = np.array([
        gt.run_protocol(rho0, traj, n, gt.GGE, backend="dense", keep_states=False).entropy_production
        for n in n_values
    ])
    scaled = ds * np.array(n_values, dtype=float)
    geo = math.sqrt(scaled.max() * scaled.min())
    ok = bool(np.all(ds > 0)) and scaled.max() <= 2.0 * geo and scaled.min() >= geo / 2.0
    _check(lines, "criterion 7a: smooth-path entropy production fits C/N within a factor 2",
           ok, f"N*dS in [{scaled.min():.4f}, {scaled.max():.4f}]")
    # kinked path: sigma_x ramp down, sigma_z ramp up, from a sigma_x eigenstate
    plus = 0.5 * np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
    kinked = gt.Trajectory((SIGMA_X, np.zeros((2, 2)), SIGMA_Z), ("linear", "linear"))
    worst = 0.0
    for n in n_values:
        rec = gt.run_protocol(plus, kinked, n, gt.GGE, backend="dense", keep_states=False)
        worst = max(worst, abs(rec.entropy_production - math.log(2)))
    _check(lines, "criterion 7b: kinked path produces exactly log 2 at every N",
           worst <= 1e-9, f"worst |dS - log 2| = {worst:.2e}")
    _finish(lines)


def test_criterion_08_thermal_identities():
    lines = []
    rng = make_rng(808)
    worst = 0.0
    for trial in range(100):
        if trial % 2 == 0:
            n = int(rng.integers(2, 9))
            ham0 = gt.build_chain(n, rng.uniform(0.0, 2.0, n), float(rng.uniform(0.1, 1.0)))
            ham1 = gt.build_chain(n, rng.uniform(0.0, 2.0, n), float(rng.uniform(0.1, 1.0)))
            state = random_correlation(n, rng, lo=0.05, hi=0.95)
            traj = gt.Trajectory((ham0.c, ham1.c), ("linear",))
            rec = gt.run_protocol(state, traj, int(rng.integers(1, 9)), gt.GIBBS,
                                  keep_states=False)
        else:
            d = int(rng.integers(2, 6))
            h0, h1 = random_hermitian(d, rng), random_hermitian(d, rng)
            state = random_density(d, rng)
            rec = gt.run_protocol(state, gt.Trajectory((h0, h1), ("linear",)),
                                  int(rng.integers(1, 7)), gt.GIBBS,
                                  backend="dense", keep_states=False)
        resid = abs(rec.work - (rec.steps[0].energy - rec.steps[-1].energy))
        worst = max(worst, resid)
    _check(lines, "criterion 8a: telescoping work identity holds to 1e-9 on 100 thermal runs",
           worst <= 1e-9, f"worst residual = {worst:.2e}")
    # shrinking two-level splitting: beta(u) = beta(0) / (1 - u)
    e_level, beta0 = 1.0, 0.8
    weights = np.exp(-beta0 * np.array([0.0, e_level]))
    weights /= weights.sum()
    state = np.diag(weights).astype(complex)
    worst = 0.0
    for u in (0.0, 0.2, 0.5, 0.75, 0.9, 0.97):
        h_u = np.diag([0.0, e_level * (1.0 - u)]).astype(complex)
        state, beta = gt.gibbs_state_dense(state, h_u)
        worst = max(worst, abs(beta - beta0 / (1.0 - u)) / (beta0 / (1.0 - u)))
    _check(lines, "criterion 8b: recovered beta(u) = beta(0)/(1-u) within 1e-8 relative",
           worst <= 1e-8, f"worst rel error = {worst:.2e}")
    _finish(lines)


def test_criterion_09_solver_contracts():
    lines = []
    rng = make_rng(909)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 11))
        ham = gt.build_chain(n, rng.uniform(-1.0, 2.0, n), float(rng.uniform(0.0, 1.0)))
        lo, hi = fermions._ModeState._range(ham.energies)[:2]
        target = float(rng.uniform(lo + 1e-4 * (hi - lo), hi - 1e-4 * (hi - lo)))
        beta, _ = gt.solve_beta(ham, target)
        resid = abs(gt.energy(gt.gibbs_correlation(ham, beta), ham) - target)
        worst = max(worst, resid / max(1.0, abs(target)))
    _check(lines, "criterion 9a: energy-matching residual <= 1e-10 over 1000 instances",
           worst <= 1e-10, f"worst = {worst:.2e}")
    worst = 0.0
    for kind in ("commuting", "noncommuting"):
        for _ in range(20):
            d = int(rng.integers(4, 17))
            q = int(rng.integers(1, 5))
            h = random_hermitian(d, rng)
            rho = random_density(d, rng)
            if kind == "commuting":
                _, vecs = np.linalg.eigh(h)
                qs = [(vecs * rng.normal(size=d)) @ vecs.conj().T for _ in range(q)]
            else:
                qs = [random_hermitian(d, rng) for _ in range(q)]
            conserved = gt.ConservedSet.from_state(rho, qs)
            omega, _ = gt.gge_state_dense(rho, h, conserved)
            resid = float(np.max(np.abs(conserved.residuals(omega))))
            resid = max(resid, abs(np.trace(h @ omega).real - np.trace(h @ rho).real))
            worst = max(worst, resid)
    _check(lines, "criterion 9b: constrained max-entropy residuals <= 1e-8 (d <= 16, q <= 4)",
           worst <= 1e-8, f"worst = {worst:.2e}")
    _finish(lines)


def test_criterion_10_passivity():
    lines = []
    ham = gt.build_chain(3, [1.0, 2.0, 2.5], 0.0)
    rho = gt.gaussian_to_dense(np.diag([0.4, 0.3, 0.1]).astype(complex))
    hd = gt.quadratic_to_dense(ham.c)
    _check(lines, "criterion 10a: mode-sorted three-fermion state is not passive",
           not gt.is_passive(rho, hd))
    rng = make_rng(1010)
    ok = True
    for _ in range(20):
        d = int(rng.integers(2, 7))
        h = random_hermitian(d, rng)
        vals, vecs = np.linalg.eigh(h)
        w = np.exp(-float(rng.uniform(0.1, 3.0)) * vals)
        w /= w.sum()
        ok = ok and gt.is_passive((vecs * w) @ vecs.conj().T, h)
    _check(lines, "criterion 10b: thermal states at positive beta are passive", ok)
    import itertools
    worst = 0.0
    for _ in range(20):
        d = int(rng.integers(2, 6))
        h = random_hermitian(d, rng)
        rho = random_density(d, rng)
        out = gt.passive_rearrangement(rho, h)
        energies = np.linalg.eigvalsh(h)
        pops = np.linalg.eigvalsh(rho)
        best = min(float(np.dot(energies, p)) for p in itertools.permutations(pops))
        worst = max(worst, abs(np.trace(out @ h).real - best))
    _check(lines, "criterion 10c: rearrangement matches the permutation brute force (d <= 5)",
           worst <= 1e-10, f"worst gap = {worst:.2e}")
    _finish(lines)
