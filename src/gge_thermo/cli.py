"""Deterministic experiment runner.

Subcommands reproduce the four chain experiments (single-quench
equilibration, unrestricted optimal extraction, local extraction from a
thermal bath, local extraction from a population-inverted bath), run
generic minimum-work scans, and cross-check the correlation-matrix pipeline
against the 2^n dense one.  fig2, fig3, fig4 and scan run their models over
the quench counts on the one sweep, ``protocols.min_work_scan``, which seeds
each exact cell.  Output is a CSV file written atomically; all randomness
flows from PCG64 streams derived from the --seed flag, so equal invocations
at a fixed BLAS thread count produce bit-identical files; across BLAS thread
counts every cell agrees within 1e-10, but files need not be byte-identical.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import tempfile
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from . import dense as qd
from . import fermions as fg
from . import protocols as pr

__all__ = [
    "ExperimentConfig",
    "parse_config",
    "cmd_fig1",
    "cmd_fig2",
    "cmd_fig3",
    "cmd_fig4",
    "cmd_scan",
    "cmd_oracle_check",
    "write_csv",
    "main",
]

EXPERIMENTS = ("fig1", "fig2", "fig3", "fig4", "scan", "oracle-check")
MODEL_NAMES = ("exact", "ta-gge", "gibbs")


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    n: int = 100
    eps: float = 1.0
    eps1: float = 0.1
    g: float = 0.1
    beta0: float = 2.0
    delta: float = 0.15
    eps1_peak: float = 4.3
    K: int = 32
    n1_system: float = 0.1
    N_list: tuple[int, ...] = (2, 4, 8, 16, 32, 64)
    models: tuple[str, ...] = ("exact", "ta-gge")
    seed: int = 12345
    hold_min: float | None = None
    hold_max: float | None = None
    out: str | None = None

    def resolved_holds(self) -> tuple[float, float]:
        lo = 20.0 / self.g if self.hold_min is None else self.hold_min
        hi = 100.0 / self.g if self.hold_max is None else self.hold_max
        return float(lo), float(hi)


EXPERIMENT_DEFAULTS: dict[str, dict] = {
    "fig1": dict(n=100, eps=1.0, g=0.1, beta0=2.0, delta=0.15),
    "fig2": dict(n=100, eps=1.0, g=0.8, N_list=(2, 4, 8, 16, 32, 64, 100),
                 models=("exact", "ta-gge")),
    "fig3": dict(n=100, eps=1.0, eps1=0.1, g=0.5, beta0=0.5, eps1_peak=4.3,
                 N_list=(2, 4, 8, 16, 32, 64), models=("exact", "ta-gge", "gibbs")),
    "fig4": dict(n=150, eps=1.0, eps1=0.1, g=0.5, eps1_peak=1.6, K=32,
                 N_list=(2, 4, 8, 16, 32, 64), models=("exact", "ta-gge")),
    "scan": dict(n=100, eps=1.0, eps1=0.1, g=0.5, beta0=0.5, eps1_peak=4.3,
                 N_list=(2, 4, 8, 16, 32, 64), models=("exact", "ta-gge", "gibbs")),
    "oracle-check": dict(n=3),
}


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in str(text).split(",") if x.strip())
    except ValueError as exc:
        raise ValueError(f"expected a comma-separated integer list, got {text!r}") from exc


def _parse_model_list(text: str) -> tuple[str, ...]:
    models = tuple(x.strip() for x in str(text).split(",") if x.strip())
    for m in models:
        if m not in MODEL_NAMES:
            raise ValueError(f"unknown model {m!r}; choose from {MODEL_NAMES}")
    return models


# The configuration keys a file or a flag may set, each with its parser.
_CONFIG_KEYS = {
    "n": int, "eps": float, "eps1": float, "g": float, "beta0": float, "delta": float,
    "eps1_peak": float, "K": int, "n1_system": float, "N_list": _parse_int_list,
    "models": _parse_model_list, "seed": int, "hold_min": float, "hold_max": float, "out": str,
}
# key -> command-line flag, for the keys that have one
_FLAGS = {
    "n": "--n", "g": "--g", "beta0": "--beta0", "delta": "--delta", "eps1_peak": "--eps1-peak",
    "K": "--K", "N_list": "--quenches", "models": "--models", "seed": "--seed",
    "hold_min": "--hold-min", "hold_max": "--hold-max", "out": "--out",
}


def _read_config_file(path: str) -> dict:
    overrides = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            try:
                overrides[key] = _CONFIG_KEYS[key](value)
            except KeyError:
                raise ValueError(f"{path}:{lineno}: unknown configuration key {key!r}") from None
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {key}: {exc}") from None
    return overrides


def _validate(config: ExperimentConfig) -> ExperimentConfig:
    if not config.g > 0:        # NaN fails this test too
        raise ValueError(f"g must be positive, got {config.g}")
    for key, parse in _CONFIG_KEYS.items():
        value = getattr(config, key)
        if parse is float and value is not None and not math.isfinite(value):
            raise ValueError(f"{key} must be finite, got {value}")
    if config.n < 2:
        raise ValueError(f"n must be at least 2, got {config.n}")
    if not config.seed >= 0:
        raise ValueError(f"seed must be an int >= 0, got {config.seed}")
    if not config.N_list:
        raise ValueError("need at least one quench count")
    pr._quench_counts(config.N_list)
    odd = [x for x in config.N_list if x % 2]
    if config.experiment == "fig2" and odd:
        raise ValueError(f"fig2 quench counts must be even and at least 2, got {odd[0]}")
    if not config.models:
        raise ValueError("models must be non-empty")
    for m in config.models:     # the sweep's rule, checked before any state is built
        if config.models.count(m) > 1:
            raise ValueError(f"models must have distinct labels, got {m!r} more than once")
    lo, hi = config.resolved_holds()
    if lo > hi:
        raise ValueError(f"hold_min {lo} exceeds hold_max {hi}")
    if config.experiment == "fig4" and not 0 <= config.K < config.n:
        raise ValueError(f"K must satisfy 0 <= K < n, got K={config.K}, n={config.n}")
    if config.experiment == "oracle-check" and config.n > 10:
        raise ValueError(f"oracle-check supports n <= 10, got n={config.n}")
    return config


def parse_config(argv) -> ExperimentConfig:
    """Resolve flags over config-file values over per-experiment defaults."""
    parser = argparse.ArgumentParser(
        prog="gge-thermo",
        description="quench-and-equilibrate experiments on fermion chains",
    )
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument("--config", default=None, help="flat key = value file")
    for key, flag in _FLAGS.items():
        parser.add_argument(flag, dest=key, type=_CONFIG_KEYS[key], default=None)
    args = parser.parse_args(argv)
    if args.models is not None and args.experiment != "scan":    # the others run fixed models
        raise ValueError(f"--models is read by scan only, not by {args.experiment}")

    config = replace(ExperimentConfig(experiment=args.experiment),
                     **EXPERIMENT_DEFAULTS[args.experiment])
    if args.config is not None:
        config = replace(config, **_read_config_file(args.config))
    flag_overrides = {key: getattr(args, key) for key in _FLAGS if getattr(args, key) is not None}
    config = replace(config, **flag_overrides)
    return _validate(config)


def _format_cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def write_csv(path: str, header, rows) -> None:
    """Rectangular CSV, comma separator, dot decimals, LF endings, written
    atomically (temp file + rename)."""
    width = len(header)
    for row in rows:
        if len(row) != width:
            raise ValueError(f"row arity {len(row)} does not match header arity {width}")
    directory = os.path.dirname(os.path.abspath(path)) or "."
    if not os.path.isdir(directory):
        raise FileNotFoundError(f"cannot write {path}: no directory {directory}")
    text = ",".join(header) + "\n"
    text += "".join(",".join(_format_cell(v) for v in row) + "\n" for row in rows)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------

FIG1_TIME_POINTS = 2000
FIG1_TIME_SPAN_OVER_G = 200.0     # grid covers t in [0, 200/g]
FIG1_WINDOW_FRACTION = 0.25       # averages taken over the final quarter


def _uniform_chain(config: ExperimentConfig) -> fg.QuadraticHamiltonian:
    return fg.build_chain(config.n, [config.eps] * config.n, config.g)


def _local_chain(config: ExperimentConfig) -> fg.QuadraticHamiltonian:
    eps = [config.eps1] + [config.eps] * (config.n - 1)
    return fg.build_chain(config.n, eps, config.g)


def cmd_fig1(config: ExperimentConfig):
    """Site-0 occupation after a single local quench: exact evolution
    against the constant dephasing and thermal predictions."""
    ham0 = _uniform_chain(config)
    gamma0 = fg.gibbs_correlation(ham0, config.beta0)
    c1 = ham0.c.copy()
    c1[0, 0] += config.delta
    ham1 = fg.QuadraticHamiltonian(c1)

    n1_gge = float(fg.dephase_gge(gamma0, ham1)[0, 0].real)
    beta1, _ = fg.solve_beta(ham1, fg.energy(gamma0, ham1))
    n1_gibbs = float(fg.gibbs_correlation(ham1, beta1)[0, 0].real)

    times = np.linspace(0.0, FIG1_TIME_SPAN_OVER_G / config.g, FIG1_TIME_POINTS)
    g_eta = fg.to_mode_basis(gamma0, ham1)
    row0 = ham1.modes[0, :]
    phases = np.exp(-1j * np.outer(times, ham1.energies))   # (t, mode)
    v = phases * row0
    n1_exact = ((v.conj() @ g_eta) * v).sum(axis=1).real

    window = times >= times[-1] * (1.0 - FIG1_WINDOW_FRACTION)
    avg = float(np.mean(n1_exact[window]))
    diagnostics = [
        f"window average of n1_exact over the final quarter: {avg:.6f}",
        f"n1_gge = {n1_gge:.6f}, n1_gibbs = {n1_gibbs:.6f}, "
        f"|gge - gibbs| = {abs(n1_gge - n1_gibbs):.6f}",
    ]
    header = ["t", "n1_exact", "n1_gge", "n1_gibbs"]
    rows = [[t, x, n1_gge, n1_gibbs] for t, x in zip(times, n1_exact)]
    return header, rows, diagnostics


def fig2_initial_state(config: ExperimentConfig):
    """Mode-diagonal state with uniformly drawn populations."""
    ham0 = _uniform_chain(config)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(config.seed, spawn_key=(0,))))
    populations = rng.uniform(0.0, 1.0, config.n)
    gamma0 = fg.from_mode_basis(np.diag(populations.astype(complex)), ham0)
    return ham0, gamma0


def _models(config: ExperimentConfig, names) -> list:
    """The CLI's one model-name table; the sweep seeds each exact cell."""
    table = {"exact": fg.Exact(*config.resolved_holds()), "ta-gge": fg.GGE, "gibbs": fg.GIBBS}
    return [table[name] for name in names]


def _sweep(config: ExperimentConfig, gamma0, schedule, names) -> pr.ScanResult:
    """The sweep of the named models over the schedules of config.N_list;
    the first failed cell is raised."""
    result = pr.min_work_scan(gamma0, schedule, _models(config, names), config.N_list, config.seed)
    if result.failures:
        (label, n_q), msg = next(iter(result.failures.items()))
        raise RuntimeError(f"{label} at N = {n_q}: {msg}")
    return result


def cmd_fig2(config: ExperimentConfig):
    """Unrestricted optimal extraction versus the majorization ceiling."""
    ham0, gamma0 = fig2_initial_state(config)
    bound = pr.optimal_work_bound(gamma0, ham0)
    # the exact model sits at index 1: its cells draw from spawn_key (1, N)
    result = _sweep(config, gamma0, pr._four_phase(gamma0, ham0), ("ta-gge", "exact"))
    (w_gge, w_exact), s_gge = result.works, result.entropy_production[0]
    header = ["N", "W_exact", "W_gge", "W_bound", "S_produced_gge"]
    rows = [[n_q, w_exact[j], w_gge[j], bound, s_gge[j]] for j, n_q in enumerate(config.N_list)]
    diagnostics = [f"work bound: {bound:.9f}"]
    return header, rows, diagnostics


def fig3_initial_state(config: ExperimentConfig):
    gamma0 = pr.thermal_bath_initial_state(config.n, config.beta0, g=config.g, eps_bulk=config.eps,
                                           system_occupation=config.n1_system)
    return _local_chain(config), gamma0


def cmd_fig3(config: ExperimentConfig):
    """Local extraction from a cold site coupled to a thermal bath."""
    ham0, gamma0 = fig3_initial_state(config)
    schedule = partial(pr.local_quench_schedule, ham0, config.eps1_peak)
    w_exact, w_gge, w_gibbs = _sweep(config, gamma0, schedule, ("exact", "ta-gge", "gibbs")).works
    w_gge_inf, _ = pr.richardson_limit(config.N_list, w_gge)
    w_gibbs_inf, _ = pr.richardson_limit(config.N_list, w_gibbs)
    header = ["N", "W_exact", "W_gge", "W_gibbs", "W_gge_inf", "W_gibbs_inf"]
    rows = [
        [n_q, w_exact[j], w_gge[j], w_gibbs[j], w_gge_inf, w_gibbs_inf]
        for j, n_q in enumerate(config.N_list)
    ]
    diagnostics = [f"W_gge_inf = {w_gge_inf:.9f}, W_gibbs_inf = {w_gibbs_inf:.9f}"]
    return header, rows, diagnostics


def fig4_initial_state(config: ExperimentConfig):
    ham0 = _local_chain(config)
    gamma0 = pr.build_population_inverted_bath(
        config.n, config.K, g=config.g, eps_bulk=config.eps,
        system_occupation=config.n1_system,
    )
    return ham0, gamma0


def fig4_positive_temperature_condition(gamma0, schedule) -> bool:
    """Whether the thermal description keeps a non-negative temperature all
    along the local-quench ``schedule`` (the largest-N one) from ``gamma0``
    (final energy below the flat-state energy at every step)."""
    rec = pr.run_schedule(gamma0, schedule, fg.GIBBS, keep_states=False)
    betas = [s.duals[0] for s in rec.steps if s.duals is not None]
    return bool(all(b >= 0.0 for b in betas))


def cmd_fig4(config: ExperimentConfig):
    """Local extraction from a population-inverted bath."""
    ham0, gamma0 = fig4_initial_state(config)
    n_max, kept = max(config.N_list), []

    def schedule(n):    # keeps the largest-N schedule for the temperature check
        hams = pr.local_quench_schedule(ham0, config.eps1_peak, n)
        if n == n_max:
            kept.append(hams)
        return hams

    w_exact, w_gge = _sweep(config, gamma0, schedule, ("exact", "ta-gge")).works
    w_gge_inf, _ = pr.richardson_limit(config.N_list, w_gge)
    header = ["N", "W_exact", "W_gge", "W_gge_inf"]
    rows = [[n_q, w_exact[j], w_gge[j], w_gge_inf] for j, n_q in enumerate(config.N_list)]
    satisfied = fig4_positive_temperature_condition(gamma0, kept[0])
    diagnostics = [
        "positive-temperature condition: " + ("satisfied" if satisfied else "violated"),
        f"W_gge_inf = {w_gge_inf:.9f}",
    ]
    return header, rows, diagnostics


def cmd_scan(config: ExperimentConfig):
    """Generic minimum-work scan over the local-quench schedule."""
    ham0, gamma0 = fig3_initial_state(config)
    peak = ham0.c.copy()
    peak[0, 0] = config.eps1_peak
    traj = pr.Trajectory((peak, ham0.c), ("linear",))
    result = pr.min_work_scan(gamma0, traj.schedule, _models(config, config.models),
                              config.N_list, config.seed)
    header, rows = result.table()
    diagnostics = [f"verdict[{label}] = {verdict}"
                   for label, verdict in result.verdicts.items()]
    diagnostics += [f"failure[{key}]: {msg}" for key, msg in result.failures.items()]
    return header, rows, diagnostics


def cmd_oracle_check(config: ExperimentConfig):
    """Compare the n x n correlation pipeline against the 2^n dense one on a
    seeded random instance."""
    n = config.n
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(config.seed, spawn_key=(2,))))
    eps_a = rng.uniform(0.5, 1.5, n)
    eps_b = rng.uniform(0.5, 1.5, n)
    g_a = float(rng.uniform(0.2, 0.8))
    g_b = float(rng.uniform(0.2, 0.8))
    ham_a = fg.build_chain(n, eps_a, g_a)
    ham_b = fg.build_chain(n, eps_b, g_b)

    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    w, _ = np.linalg.qr(z)
    populations = rng.uniform(0.05, 0.95, n)
    gamma0 = (w * populations) @ w.conj().T

    rho0 = qd.gaussian_to_dense(gamma0)
    h_a = qd.quadratic_to_dense(ham_a.c)
    h_b = qd.quadratic_to_dense(ham_b.c)

    entries = []

    def compare(label: str, gauss: float, dens: float):
        entries.append([label, gauss, dens, abs(gauss - dens)])

    compare("energy_initial", fg.energy(gamma0, ham_a), float(np.einsum("ij,ji->", h_a, rho0).real))
    compare("entropy_initial", fg.entropy_gaussian(gamma0), qd.vn_entropy(rho0))
    compare("roundtrip_gamma_defect",
            0.0, float(np.max(np.abs(qd.correlation_of_dense(rho0) - gamma0))))

    gamma_gge = fg.dephase_gge(gamma0, ham_a)
    conserved = qd.ConservedSet.from_state(rho0, qd.mode_number_operators(ham_a.modes))
    omega_gge, _ = qd.gge_state_dense(rho0, h_a, conserved)
    gamma_from_dense = qd.correlation_of_dense(omega_gge)
    compare("gge_site0_occupation", float(gamma_gge[0, 0].real),
            float(gamma_from_dense[0, 0].real))
    compare("gge_entropy", fg.entropy_gaussian(gamma_gge), qd.vn_entropy(omega_gge))
    compare("gge_energy", fg.energy(gamma_gge, ham_a),
            float(np.einsum("ij,ji->", h_a, omega_gge).real))

    beta, _ = fg.solve_beta(ham_a, fg.energy(gamma0, ham_a))
    gamma_th = fg.gibbs_correlation(ham_a, beta)
    omega_th, beta_dense = qd.gibbs_state_dense(rho0, h_a)
    compare("gibbs_beta", beta, beta_dense)
    compare("gibbs_site0_occupation", float(gamma_th[0, 0].real),
            float(qd.correlation_of_dense(omega_th)[0, 0].real))
    compare("gibbs_entropy", fg.entropy_gaussian(gamma_th), qd.vn_entropy(omega_th))

    compare("work_of_quench", fg.work_of_quench(gamma0, ham_a, ham_b),
            float(np.einsum("ij,ji->", h_b - h_a, rho0).real))

    # two-quench dephasing protocol, step works compared one by one
    rec = pr.run_schedule(gamma0, [ham_a, ham_b, ham_a], fg.GGE, keep_states=False)
    rho, works_dense = rho0, []
    for h_old, h_new, ham_new in (((h_a, h_b, ham_b)), (h_b, h_a, ham_a)):
        cost = float(np.einsum("ij,ji->", h_new - h_old, rho).real)
        conserved = qd.ConservedSet.from_state(rho, qd.mode_number_operators(ham_new.modes))
        rho, _ = qd.gge_state_dense(rho, h_new, conserved)
        works_dense.append(-cost)
    compare("protocol_step1_work", rec.steps[1].work_extracted, works_dense[0])
    compare("protocol_step2_work", rec.steps[2].work_extracted, works_dense[1])
    compare("protocol_final_energy", rec.steps[-1].energy,
            float(np.einsum("ij,ji->", h_a, rho).real))

    worst = max(e[3] for e in entries)
    header = ["quantity", "gaussian_value", "dense_value", "abs_diff"]
    return header, entries, [f"worst |gaussian - dense| difference: {worst:.3e}"]


COMMANDS = {
    "fig1": cmd_fig1,
    "fig2": cmd_fig2,
    "fig3": cmd_fig3,
    "fig4": cmd_fig4,
    "scan": cmd_scan,
    "oracle-check": cmd_oracle_check,
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        config = parse_config(argv)
        header, rows, diagnostics = COMMANDS[config.experiment](config)
        out = config.out or f"{config.experiment}.csv"
        write_csv(out, header, rows)
    except BrokenPipeError:  # pragma: no cover
        return 1
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in diagnostics:
        print(line)
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
