"""The analytical reasons behind the acceptance gates that are red by
analysis (see the README), pinned so that the gates stay red for the stated
reason and not for a new one.  The gates themselves live, unchanged, in
``test_acceptance.py``."""

import math

import numpy as np

import gge_thermo as gt
from gge_thermo import cli
from gge_thermo import fermions as fg
from gge_thermo import protocols as pr
from _helpers import make_rng, random_correlation, step_equilibration_length


def test_fig1_gap_is_below_the_criterion_1b_threshold():
    # criterion 1b asks the thermal and dephasing predictions of site 0 to
    # differ by more than 0.01; at the fig1 defaults they differ by 0.0076,
    # while the exact long-time average matches the dephasing value
    _, rows, _ = cli.cmd_fig1(cli.parse_config(["fig1"]))
    table = np.array(rows, dtype=float)
    n1_gge, n1_gibbs = table[0, 2], table[0, 3]
    assert 0.0075 <= abs(n1_gge - n1_gibbs) <= 0.0077
    window = table[:, 0] >= table[-1, 0] * 0.75
    assert abs(table[window, 1].mean() - n1_gge) <= 1e-4


def test_fig2_extraction_sits_near_94_percent_of_the_ceiling():
    # criterion 2b asks W(100) >= 0.99 of the majorization ceiling; the
    # four-phase protocol at the fig2 defaults reaches 0.9362 on any BLAS
    # thread count (its legs rotate by signed permutations of modes, whose
    # principal logarithm the cycle gauge makes unique): each of the N
    # dephasing steps loses a quadratic-in-angle fraction of the transported
    # populations, so the deficit falls only like 1/N (see the two-mode swap
    # below).  Criterion 2c compares against the N = 2 entropy production,
    # which is zero for this mode-diagonal initial state.
    ham0, gamma0 = cli.fig2_initial_state(cli.parse_config(["fig2"]))
    rec = pr.optimal_gge_protocol(gamma0, ham0, 100, keep_states=False)
    assert 0.9355 <= rec.work / rec.meta["work_bound"] <= 0.937
    two = pr.optimal_gge_protocol(gamma0, ham0, 2, keep_states=False)
    assert abs(two.entropy_production) <= 1e-12


def test_fig2_deficit_approaches_its_step_equilibration_length():
    # the fig2 deficit (criterion 2b) is the thermodynamic length of its first
    # leg: with X the leg's generator, read from its segment's Schur basis, in
    # the modes of its first keyframe, 2 sum |p_j - p_k| |e_j - e_k| |X_jk|^2
    # is 6.68 per unit of ceiling, and deficit x N approaches it from below
    # at O(1/N) (6.38 and 6.53 at N = 100 and 200; the remainder times N
    # reads 30.1 and 30.8); 2b's 0.99 at N = 100 would need a length of at most 1.0.
    ham0, gamma0 = cli.fig2_initial_state(cli.parse_config(["fig2"]))
    w = fg._ModeState.eigenbasis(gamma0)
    h_from = (w * ham0.energies[::-1]) @ w.conj().T
    traj = pr.Trajectory((h_from, ham0.c), ("eigenvectors",))
    rotation = traj._rotations[0]
    energies = rotation.at(0.5).values      # the keyframe spectrum; builds the Schur basis
    _, b, turned, angles = rotation._form
    x = b.conj().T @ (angles * turned)      # d/ds of R(s) B at s = 0, in the modes
    assert np.max(np.abs(x + x.conj().T)) <= 1e-12
    populations = np.diag(fg.to_mode_basis(gamma0, fg.QuadraticHamiltonian(traj.keyframes[0]))).real
    ceiling = pr.optimal_work_bound(gamma0, ham0)
    length = step_equilibration_length(populations, energies, x) / ceiling
    assert 6.675 <= length <= 6.69
    for n in (100, 200):
        rec = pr.optimal_gge_protocol(gamma0, ham0, n, keep_states=False)
        deficit = (1.0 - rec.work / rec.meta["work_bound"]) * n
        assert 25.0 <= (length - deficit) * n <= 35.0, n


def test_fig2_extraction_crosses_99_percent_between_660_and_680_quenches():
    # criterion 2b's 99% is out of reach at N = 100, but not only for N in the
    # thousands: at the fig2 defaults W/bound reads 0.98995 at N = 660 and
    # 0.99024 at N = 680, as a step-equilibration length of 6.68 puts it
    ham0, gamma0 = cli.fig2_initial_state(cli.parse_config(["fig2"]))
    ratios = [rec.work / rec.meta["work_bound"]
              for rec in (pr.optimal_gge_protocol(gamma0, ham0, n, keep_states=False) for n in (660, 680))]
    assert 0.9899 <= ratios[0] < 0.99 < ratios[1] <= 0.9903


def test_two_mode_swap_deficit_scales_like_one_over_n():
    # each dephasing step loses a quadratic-in-angle fraction of the
    # transported populations, so even a two-mode swap caps near 95% of its
    # ceiling at N = 100 and the deficit times N stays flat out to N = 1024
    ham = fg.build_chain(2, [1.0, 2.0], 0.0)
    gamma = np.diag([0.1, 0.9]).astype(complex)
    ceiling = (0.9 - 0.1) * (2.0 - 1.0)
    ratios = {n: pr.optimal_gge_protocol(gamma, ham, n, keep_states=False).work / ceiling
              for n in (100, 256, 1024)}
    assert ratios[100] <= 0.96
    for n, ratio in ratios.items():
        assert 4.6 <= (1.0 - ratio) * n <= 5.0, n
        # the step-equilibration form of thermodynamic length predicts
        # deficit x N -> 2 |p_0 - p_1| |e_0 - e_1| |X_01|^2 per unit of ceiling,
        # pi^2 / 2 for a rotation by pi / 2, approached from below at O(1/N)
        # (the remainder times N reads 23.3, 23.9 and 24.2)
        assert 0.0 <= (math.pi ** 2 / 2 - (1.0 - ratio) * n) * n <= 30.0, n


def test_two_mode_gibbs_run_beats_the_fixed_spectrum_floor():
    # criterion 6 holds the thermal model to the majorization ceiling, which
    # binds only spectrum-preserving or doubly stochastic transport: a thermal
    # state minimises energy at fixed entropy, not at fixed spectrum.  This
    # seeded cyclic two-mode run (criterion 6's instance distribution) ends at
    # positive temperature with grown entropy, yet extracts more work than
    # the ceiling (beta 0.57, entropy produced 0.49, excess 0.29)
    rng = make_rng(1192)
    n_quenches = int(rng.integers(2, 6))
    ham0 = gt.build_chain(2, rng.uniform(0.0, 2.0, 2), float(rng.uniform(0.1, 1.0)))
    ham1 = gt.build_chain(2, rng.uniform(0.0, 2.0, 2), float(rng.uniform(0.1, 1.0)))
    gamma0 = random_correlation(2, rng, lo=0.02, hi=0.98)
    traj = gt.Trajectory((ham0.c, ham1.c, ham0.c), ("linear", "linear"))
    rec = gt.run_protocol(gamma0, traj, n_quenches, gt.GIBBS, keep_states=False)
    assert rec.steps[-1].duals[0] >= 0.5
    assert rec.entropy_production >= 0.4
    assert rec.work - gt.optimal_work_bound(gamma0, ham0) >= 0.25
