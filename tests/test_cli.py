import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gge_thermo as gt
from gge_thermo import cli
from _helpers import count_eigh, count_schur


def test_parse_config_defaults_per_experiment():
    fig1 = cli.parse_config(["fig1"])
    assert (fig1.n, fig1.g, fig1.beta0, fig1.delta) == (100, 0.1, 2.0, 0.15)
    fig2 = cli.parse_config(["fig2"])
    assert (fig2.n, fig2.g) == (100, 0.8)
    assert fig2.N_list[-1] == 100
    fig3 = cli.parse_config(["fig3"])
    assert (fig3.n, fig3.g, fig3.beta0, fig3.eps1, fig3.eps1_peak) == (100, 0.5, 0.5, 0.1, 4.3)
    assert fig3.n1_system == 0.1
    fig4 = cli.parse_config(["fig4"])
    assert (fig4.n, fig4.K, fig4.eps1_peak) == (150, 32, 1.6)
    # hold times default to [20/g, 100/g]
    lo, hi = fig2.resolved_holds()
    assert lo == pytest.approx(20.0 / 0.8) and hi == pytest.approx(100.0 / 0.8)


def test_parse_config_flag_overrides():
    cfg = cli.parse_config(["scan", "--quenches", "1,2,4,8", "--n", "20",
                            "--seed", "7", "--models", "ta-gge,gibbs"])
    assert cfg.N_list == (1, 2, 4, 8)
    assert cfg.n == 20 and cfg.seed == 7
    assert cfg.models == ("ta-gge", "gibbs")


def test_parse_config_rejections():
    with pytest.raises(SystemExit):
        cli.parse_config(["not-an-experiment"])
    with pytest.raises(ValueError, match="K"):
        cli.parse_config(["fig4", "--K", "200", "--n", "150"])
    with pytest.raises(SystemExit):  # argparse reports the offending flag
        cli.parse_config(["fig3", "--models", "boltzmann"])
    with pytest.raises(ValueError, match="at least 2"):
        cli.parse_config(["fig1", "--n", "1"])
    with pytest.raises(ValueError, match="positive integers, got 0$"):
        cli.parse_config(["fig3", "--quenches", "0,2"])
    with pytest.raises(ValueError, match="need at least one quench count$"):
        cli.parse_config(["fig3", "--quenches", ","])
    with pytest.raises(SystemExit):  # argparse reports the flag the list parser rejects
        cli.parse_config(["fig3", "--quenches", "2,x"])
    with pytest.raises(ValueError, match="^hold_min 5.0 exceeds hold_max 1.0$"):
        cli.parse_config(["fig3", "--hold-min", "5", "--hold-max", "1"])
    with pytest.raises(ValueError, match="^models must be non-empty$"):
        cli.parse_config(["scan", "--models", ""])
    # a negative seed is named for every experiment, not only the sweeps
    for experiment in ("fig2", "fig3", "oracle-check"):
        with pytest.raises(ValueError, match="seed must be an int >= 0, got -1$"):
            cli.parse_config([experiment, "--seed", "-1"])
    # a non-finite float is named by its key
    for flag, key, value in (("--beta0", "beta0", "nan"), ("--eps1-peak", "eps1_peak", "inf")):
        with pytest.raises(ValueError, match=f"{key} must be finite, got {value}$"):
            cli.parse_config(["fig3", flag, value])
    # g is named before the default holds 20/g and 100/g divide by it,
    # also for oracle-check, which does not use it
    for experiment, g, shown in (("fig3", "0", "0.0"), ("oracle-check", "0", "0.0"),
                                 ("fig3", "-0.5", "-0.5"), ("fig1", "-0.1", "-0.1"),
                                 ("fig2", "nan", "nan")):
        with pytest.raises(ValueError, match=f"g must be positive, got {shown}$"):
            cli.parse_config([experiment, "--g", g])
    # fig2's four-phase protocol needs even counts >= 2, named before any run
    for counts, bad in (("2,3", "3"), ("1,4", "1")):
        with pytest.raises(ValueError, match=f"even and at least 2, got {bad}$"):
            cli.parse_config(["fig2", "--quenches", counts])


def test_parse_config_rejects_unordered_quenches(tmp_path, capsys):
    # every experiment names the first count out of order, before any run
    for experiment in cli.EXPERIMENTS:
        for counts, bad in (("8,4,2", "got 4 after 8"), ("4,4,8", "got 4 after 4")):
            with pytest.raises(ValueError, match=f"strictly increasing, {bad}$"):
                cli.parse_config([experiment, "--quenches", counts])
    assert cli.main(["scan", "--n", "8", "--quenches", "8,4,2",
                     "--out", str(tmp_path / "scan.csv")]) == 1
    assert "got 4 after 8" in capsys.readouterr().err
    assert not (tmp_path / "scan.csv").exists()


def test_local_experiments_raise_the_first_failed_cell(tmp_path, capsys, monkeypatch):
    # a failed cell stops fig3 with its model and N instead of writing NaN
    def no_beta(*args, **kwargs):
        raise ValueError("no temperature")

    monkeypatch.setattr(gt.fermions._ModeState, "thermalise", no_beta)
    out = tmp_path / "f3.csv"
    assert cli.main(["fig3", "--n", "8", "--quenches", "2,4", "--out", str(out)]) == 1
    assert "gibbs at N = 2: RuntimeError: step 1: no temperature" in capsys.readouterr().err
    assert not out.exists()

    # and so does fig2, which runs on the same sweep
    def no_hold(*args, **kwargs):
        raise ValueError("no hold")

    monkeypatch.setattr(gt.fermions._ModeState, "evolve", no_hold)
    out = tmp_path / "f2.csv"
    assert cli.main(["fig2", "--n", "8", "--quenches", "2,4", "--out", str(out)]) == 1
    assert "exact at N = 2: RuntimeError: step 1: no hold" in capsys.readouterr().err
    assert not out.exists()


def test_parse_config_file_layering(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("# comment line\nn = 24\ng = 0.4  # trailing comment\nseed = 99\n")
    cfg = cli.parse_config(["fig3", "--config", str(cfg_file), "--seed", "7"])
    assert cfg.n == 24
    assert cfg.g == 0.4
    assert cfg.seed == 7  # flags beat file values
    bad = tmp_path / "bad.cfg"
    bad.write_text("volume = 11\n")
    with pytest.raises(ValueError, match="unknown configuration key"):
        cli.parse_config(["fig3", "--config", str(bad)])
    # a value its parser rejects is named with its file, line and key
    for text, message in (("n = 2.5", "invalid literal for int() with base 10: '2.5'"),
                          ("g = abc", "could not convert string to float: 'abc'")):
        bad.write_text(f"# comment\n{text}\n")
        with pytest.raises(ValueError) as info:
            cli.parse_config(["fig3", "--config", str(bad)])
        assert str(info.value) == f"{bad}:2: {text.split()[0]}: {message}"
    bad.write_text("N_list = 2,x\n")
    with pytest.raises(ValueError) as info:
        cli.parse_config(["fig3", "--config", str(bad)])
    assert str(info.value) == f"{bad}:1: N_list: expected a comma-separated integer list, got '2,x'"
    bad.write_text("n = 8\nseed 7\n")
    with pytest.raises(ValueError) as info:
        cli.parse_config(["fig3", "--config", str(bad)])
    assert str(info.value) == f"{bad}:2: expected 'key = value', got 'seed 7'"


def test_write_csv_roundtrip_and_atomicity(tmp_path, monkeypatch):
    path = tmp_path / "table.csv"
    rows = [[1, 0.1 + 1e-17, -3.0, "gibbs"], [2, 2.0 / 3.0, 1e-300, "ta-gge"]]
    cli.write_csv(str(path), ["a", "b", "c", "label"], rows)
    text = path.read_text()
    assert "\r" not in text
    lines = text.strip().split("\n")
    assert lines[0] == "a,b,c,label"
    for row, line in zip(rows, lines[1:]):
        parsed = line.split(",")
        assert int(parsed[0]) == row[0]
        assert float(parsed[1]) == row[1]  # lossless round trip
        assert float(parsed[2]) == row[2]
        assert parsed[3] == row[3]      # a label as it is, like oracle-check's
    assert not list(tmp_path.glob("*.tmp"))
    with pytest.raises(ValueError, match="arity"):
        cli.write_csv(str(path), ["a"], [[1, 2]])

    # a failed rename leaves the old file as it was and no temp file behind
    def failing(src, dst):
        raise OSError("rename refused")
    monkeypatch.setattr(os, "replace", failing)
    with pytest.raises(OSError, match="rename refused"):
        cli.write_csv(str(path), ["a"], [[3]])
    assert path.read_text() == text
    assert not list(tmp_path.glob("*.tmp"))


def test_write_csv_names_a_missing_directory(tmp_path, capsys):
    out = tmp_path / "missing" / "x.csv"
    assert cli.main(["oracle-check", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"cannot write {out}: no directory {out.parent}" in err
    assert ".tmp" not in err
    assert not list(tmp_path.iterdir())


def test_cmd_fig1_time_zero_matches_prequench_occupation():
    cfg = cli.parse_config(["fig1", "--n", "16"])
    header, rows, _ = cli.cmd_fig1(cfg)
    assert header == ["t", "n1_exact", "n1_gge", "n1_gibbs"]
    ham0 = gt.build_chain(16, [1.0] * 16, cfg.g)
    gamma0 = gt.gibbs_correlation(ham0, cfg.beta0)
    assert rows[0][0] == 0.0
    assert rows[0][1] == pytest.approx(gamma0[0, 0].real, abs=1e-12)
    # the effective predictions are constants
    assert rows[0][2] == rows[-1][2]
    assert rows[0][3] == rows[-1][3]


def test_cmd_fig1_exact_occupation_matches_a_per_time_reference():
    # n1(t) = v(t)^dag g_eta v(t), v_k(t) = A_0k exp(-i eps_k t), one time at a time
    cfg = cli.parse_config(["fig1", "--n", "16"])
    _, rows, _ = cli.cmd_fig1(cfg)
    ham0 = gt.build_chain(16, [1.0] * 16, cfg.g)
    c1 = ham0.c.copy()
    c1[0, 0] += cfg.delta
    ham1 = gt.QuadraticHamiltonian(c1)
    g_eta = gt.to_mode_basis(gt.gibbs_correlation(ham0, cfg.beta0), ham1)
    for t, n1 in ((row[0], row[1]) for row in rows):
        v = ham1.modes[0, :] * np.exp(-1j * t * ham1.energies)
        assert abs(n1 - (v.conj() @ g_eta @ v).real) <= 1e-15, t


def test_cmd_fig2_rows_respect_bound():
    cfg = cli.parse_config(["fig2", "--n", "10", "--quenches", "2,4,8,16"])
    _, rows, _ = cli.cmd_fig2(cfg)
    for row in rows:
        assert row[2] <= row[3] + 1e-9  # W_gge <= W_bound on every row


def test_cmd_fig2_matches_the_four_phase_protocol_and_its_exact_run():
    # each row is the four-phase record under dephasing and, on its schedule,
    # the exact run whose holds draw from SeedSequence(seed, spawn_key=(1, N))
    cfg = cli.parse_config(["fig2", "--n", "12", "--quenches", "2,4,8", "--seed", "3"])
    header, rows, _ = cli.cmd_fig2(cfg)
    assert header == ["N", "W_exact", "W_gge", "W_bound", "S_produced_gge"]
    ham0, gamma0 = cli.fig2_initial_state(cfg)
    holds = cfg.resolved_holds()
    for row, n_q in zip(rows, cfg.N_list):
        rec = gt.optimal_gge_protocol(gamma0, ham0, n_q, keep_states=False)
        exact = gt.Exact(*holds, np.random.SeedSequence(3, spawn_key=(1, n_q)))
        w_exact = gt.run_schedule(gamma0, rec.hamiltonians, exact, keep_states=False).work
        assert row == [n_q, w_exact, rec.work, rec.meta["work_bound"], rec.entropy_production]


def test_cmd_fig2_builds_the_first_leg_once_across_workers(monkeypatch):
    # the sweep's two workers share the four-phase builder: one Schur basis
    # for the first leg, one per N >= 4 for its second leg (N = 2 samples no
    # rotation), on every run
    calls = count_schur(monkeypatch)
    monkeypatch.setenv("GGE_THERMO_THREADS", "2")
    cfg = cli.parse_config(["fig2", "--n", "12", "--quenches", "2,4,8", "--seed", "3"])
    counts = []
    for _ in range(3):
        calls.clear()
        cli.cmd_fig2(cfg)
        counts.append(len(calls))
    assert counts == [1 + 2] * 3


def test_cmd_fig2_decomposes_no_four_phase_sample(monkeypatch):
    # the chain is decomposed once, and each leg's start once (the first leg
    # and the second legs of N = 2, 4 and 8); each segment takes the
    # eigensystems of its start and of ham0, and the 8 interior samples carry
    # their own
    dtypes = count_eigh(monkeypatch)
    cli.cmd_fig2(cli.parse_config(["fig2", "--n", "10", "--quenches", "2,4,8"]))
    assert len(dtypes) == 1 + 4


@pytest.mark.parametrize("experiment", ["fig2", "fig3", "fig4", "scan"])
def test_cli_cells_agree_across_blas_thread_counts(tmp_path, experiment):
    # BLAS round-off moves the cells by round-off only: for fig2, under the
    # cycle gauge the four-phase rotations have a unique principal logarithm
    # (without it W_gge(4) read 4.929 on one thread and 4.519 on two); the
    # local-quench sweeps of fig3, fig4 and scan have no such branch choice
    src = Path(__file__).resolve().parents[1] / "src"
    cells = []
    for threads in ("1", "2"):
        out = tmp_path / f"{experiment}-{threads}.csv"
        env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS=threads)
        run = subprocess.run([sys.executable, "-m", "gge_thermo.cli", experiment,
                              "--quenches", "2,4", "--out", str(out)], env=env,
                             capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        cells.append(np.loadtxt(out, delimiter=",", skiprows=1))
    assert np.max(np.abs(cells[0] - cells[1])) <= 1e-10


def test_chain_experiments_decompose_only_real_hamiltonians(monkeypatch):
    # the chains and their states are real, so every Hamiltonian, the
    # four-phase samples included, stays float64 and is decomposed in real
    # arithmetic; the counts take in the matrices decomposed in a stack (the
    # scan's: its chain, its bath and the 1 + 3 equilibrated samples of N = 2
    # and 4, whose closing Hamiltonian is the chain itself; step 0 of a
    # schedule is never equilibrated)
    dtypes = count_eigh(monkeypatch)
    for args, count in ((["fig2", "--n", "10", "--quenches", "2,4,8"], 5),
                        (["fig3", "--n", "10", "--quenches", "2,4"], 6),
                        (["fig4", "--n", "10", "--K", "2", "--quenches", "2,4"], 6),
                        (["scan", "--n", "10", "--quenches", "2,4"], 6)):
        dtypes.clear()
        cli.COMMANDS[args[0]](cli.parse_config(args))
        assert len(dtypes) == count and set(dtypes) == {np.dtype(np.float64)}, args


def test_cli_outputs_are_bit_identical_across_runs(tmp_path, monkeypatch):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["fig2", "--n", "12", "--quenches", "2,4,8", "--seed", "3"]
    assert cli.main(args + ["--out", str(out1)]) == 0
    monkeypatch.setenv("GGE_THERMO_THREADS", "2")    # the sweep's cells on two workers
    assert cli.main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    different = tmp_path / "c.csv"
    assert cli.main(["fig2", "--n", "12", "--quenches", "2,4,8", "--seed", "4",
                     "--out", str(different)]) == 0
    assert out1.read_bytes() != different.read_bytes()


def test_cmd_oracle_check_small_instances():
    for n in (2, 3):
        cfg = cli.parse_config(["oracle-check", "--n", str(n)])
        header, rows, _ = cli.cmd_oracle_check(cfg)
        assert header == ["quantity", "gaussian_value", "dense_value", "abs_diff"]
        for row in rows:
            assert row[3] <= 1e-9, row
    with pytest.raises(ValueError, match="n <= 10"):
        cli.parse_config(["oracle-check", "--n", "11"])


def test_cmd_oracle_check_deterministic():
    cfg = cli.parse_config(["oracle-check", "--n", "3", "--seed", "5"])
    _, rows_a, _ = cli.cmd_oracle_check(cfg)
    _, rows_b, _ = cli.cmd_oracle_check(cfg)
    assert rows_a == rows_b


def test_cmd_scan_emits_verdicts(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    code = cli.main(["scan", "--n", "16", "--quenches", "2,4,8",
                     "--models", "ta-gge,gibbs", "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "verdict[ta-gge]" in printed
    assert "verdict[gibbs]" in printed
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "N,W_ta_gge,W_gibbs"
    assert len(lines) == 4


def test_main_error_paths(tmp_path, capsys):
    assert cli.main(["fig4", "--K", "200", "--n", "150"]) == 1
    assert "error:" in capsys.readouterr().err
    # a repeated model would write two columns of one label
    out = tmp_path / "scan.csv"
    assert cli.main(["scan", "--n", "4", "--quenches", "2", "--models", "ta-gge,ta-gge",
                     "--out", str(out)]) == 1
    assert "distinct labels, got 'ta-gge'" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(SystemExit):
        cli.main(["fig1", "--not-a-flag", "3"])


def test_models_flag_is_a_config_error_where_no_command_reads_it(tmp_path, capsys, monkeypatch):
    # only scan reads --models; fig2 used to accept "--models gibbs" and still
    # write W_exact,W_gge, so the others reject it before building anything
    for experiment in ("fig1", "fig2", "fig3", "fig4", "oracle-check"):
        with pytest.raises(ValueError, match=f"^--models is read by scan only, not by {experiment}$"):
            cli.parse_config([experiment, "--models", "gibbs"])
    out = tmp_path / "fig2.csv"
    assert cli.main(["fig2", "--n", "4", "--quenches", "2", "--models", "gibbs", "--out", str(out)]) == 1
    assert "error: --models is read by scan only, not by fig2" in capsys.readouterr().err
    assert not out.exists()
    assert cli.parse_config(["scan", "--models", "gibbs"]).models == ("gibbs",)
    # the config-file key follows the flag's rule: fig1 used to ignore "models = gibbs"
    # and to reject "models = gibbs,gibbs" for labels it does not read
    cfg = tmp_path / "run.cfg"
    for models in ("gibbs", "gibbs,gibbs"):
        cfg.write_text(f"n = 8\nmodels = {models}\n")
        for experiment in ("fig1", "fig2", "fig3", "fig4", "oracle-check"):
            with pytest.raises(ValueError) as info:
                cli.parse_config([experiment, "--config", str(cfg)])
            assert str(info.value) == f"{cfg}: models is read by scan only, not by {experiment}"
    built = []
    monkeypatch.setattr(cli, "fig2_initial_state", lambda config: built.append(config))
    assert cli.main(["fig2", "--config", str(cfg), "--quenches", "2", "--out", str(out)]) == 1
    assert f"error: {cfg}: models is read by scan only, not by fig2" in capsys.readouterr().err
    assert not built and not out.exists()
    cfg.write_text("models = gibbs\n")
    assert cli.parse_config(["scan", "--config", str(cfg)]).models == ("gibbs",)


def test_repeated_models_are_a_config_error(tmp_path, capsys, monkeypatch):
    # the sweep's rule, named by the parser before any initial state is built
    with pytest.raises(ValueError, match="^models must have distinct labels, got 'ta-gge' more than once$"):
        cli.parse_config(["scan", "--models", "ta-gge,ta-gge"])
    built = []
    monkeypatch.setattr(cli, "fig3_initial_state", lambda config: built.append(config))
    out = tmp_path / "scan.csv"
    assert cli.main(["scan", "--n", "4", "--quenches", "2", "--models", "exact,ta-gge,exact",
                     "--out", str(out)]) == 1
    assert "models must have distinct labels, got 'exact' more than once" in capsys.readouterr().err
    assert not built and not out.exists()


def test_small_fig3_runs_end_to_end(tmp_path):
    out = tmp_path / "f3.csv"
    code = cli.main(["fig3", "--n", "14", "--quenches", "2,4,8", "--seed", "11",
                     "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "N,W_exact,W_gge,W_gibbs,W_gge_inf,W_gibbs_inf"
    assert len(lines) == 4


def test_small_fig4_runs_end_to_end(tmp_path, capsys):
    out = tmp_path / "f4.csv"
    code = cli.main(["fig4", "--n", "20", "--K", "4", "--quenches", "2,4",
                     "--seed", "11", "--out", str(out)])
    assert code == 0
    assert "positive-temperature condition" in capsys.readouterr().out
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "N,W_exact,W_gge,W_gge_inf"


def test_cmd_fig4_builds_each_hamiltonian_once(monkeypatch):
    # the initial chain and bath, then N - 1 local quenches per N are
    # eigen-solved: the temperature check is the thermal model of the sweep,
    # which runs it in lockstep with exact and ta-gge on each N's one schedule,
    # and reads its largest-N cell; that cell equals a Gibbs run of its own
    dtypes = count_eigh(monkeypatch)
    cfg = cli.parse_config(["fig4", "--n", "8", "--K", "2", "--quenches", "2,4,8"])
    _, _, diagnostics = cli.cmd_fig4(cfg)
    assert len(dtypes) == 2 + (1 + 3 + 7)
    ham0, gamma0 = cli.fig4_initial_state(cfg)
    rec = gt.run_schedule(gamma0, gt.local_quench_schedule(ham0, cfg.eps1_peak, 8), gt.GIBBS,
                          keep_states=False)
    satisfied = all(s.duals[0] >= 0.0 for s in rec.steps[1:])
    assert diagnostics[0] == "positive-temperature condition: " + (
        "satisfied" if satisfied else "violated")


def test_cmd_fig4_spares_thermal_failures_below_the_largest_n(monkeypatch, tmp_path, capsys):
    # the thermal model is there for the positive-temperature check alone, read
    # at the largest N: its failure at a smaller N leaves fig4's exit, CSV and
    # diagnostics as they are; at the largest N it stops fig4, naming the cell
    argv = ["fig4", "--n", "8", "--K", "2", "--quenches", "2,4,8"]
    clean = tmp_path / "clean.csv"
    assert cli.main(argv + ["--out", str(clean)]) == 0
    diagnostics = capsys.readouterr().out.replace(str(clean), "")
    scan = cli.pr.min_work_scan

    def failing(n_q):
        def sweep(*args):
            result = scan(*args)
            result.failures[("gibbs", n_q)] = "RuntimeError: step 1: no thermal state"
            return result
        return sweep

    spared = tmp_path / "spared.csv"
    monkeypatch.setattr(cli.pr, "min_work_scan", failing(4))
    assert cli.main(argv + ["--out", str(spared)]) == 0
    assert capsys.readouterr().out.replace(str(spared), "") == diagnostics
    assert spared.read_bytes() == clean.read_bytes()
    stopped = tmp_path / "stopped.csv"
    monkeypatch.setattr(cli.pr, "min_work_scan", failing(8))
    assert cli.main(argv + ["--out", str(stopped)]) == 1
    assert capsys.readouterr().err == "error: gibbs at N = 8: RuntimeError: step 1: no thermal state\n"
    assert not stopped.exists()


def test_import_and_scipy_free_runs_load_no_scipy(tmp_path):
    # no runtime path needs scipy: importing the package, running fig1,
    # oracle-check and fig2 (whose four-phase legs take Schur bases of their
    # rotations), a two-quench four-phase protocol (which samples no rotation)
    # and a dense four-quench one (which does) must not load it, so a fresh
    # interpreter reports the scipy modules it holds
    script = "\n".join([
        "import sys",
        "import numpy as np",
        "import gge_thermo",
        "from gge_thermo import cli",
        "ham = gge_thermo.build_chain(3, [0.0, 1.0, 2.0], 0.3)",
        "gge_thermo.optimal_gge_protocol(np.diag([0.1, 0.5, 0.9]).astype(complex), ham, 2)",
        "h = np.array([[0.0, 0.5, 0.0], [0.5, 1.0, 0.2], [0.0, 0.2, 2.0]])",
        "gge_thermo.optimal_ta_protocol(np.diag([0.1, 0.3, 0.6]), h, 4)",
        f"assert cli.main(['fig1', '--n', '8', '--out', {str(tmp_path / 'fig1.csv')!r}]) == 0",
        f"assert cli.main(['oracle-check', '--n', '3', '--out', {str(tmp_path / 'oracle.csv')!r}]) == 0",
        f"assert cli.main(['fig2', '--n', '12', '--quenches', '2,4,8', "
        f"'--out', {str(tmp_path / 'fig2.csv')!r}]) == 0",
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
    ])
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "[]"
