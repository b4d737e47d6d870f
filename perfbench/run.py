"""gge_thermo benchmark: seeded workloads, end-to-end metrics, traced layer costs.

Run from the repository root:

    python3 perfbench/run.py --workload chain-swarm --seed 1 --seconds 20 --trace 0

``--trace 0`` times closed-loop passes over the workload (one caller, each
operation starts when the previous one returns) and reports the end-to-end
metrics.  ``--trace 1`` alternates untraced and traced passes and reports
per-layer call counts and self times.  Every output is checked; the last
line of standard output is one JSON object with the result.  See README.md.
"""

import os

# Pin the BLAS pool before numpy loads: with the default pool the scan's two
# worker threads and BLAS threads oversubscribe a 2-core host.
BLAS_THREADS = 1
SCAN_WORKERS = 2
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
os.environ["GGE_THERMO_THREADS"] = str(SCAN_WORKERS)

import argparse
import gzip
import hashlib
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
OUT_DIR = ROOT / ".perfbench-out"
DEFAULT_SEED = 12345
SETUP_RUNS = 5
MIN_PASSES = 3
REFERENCE_TOL = 1e-12     # ROADMAP bar for "unchanged" output; informational

# Host-speed reference.  On the shared 2-vCPU host this benchmark was built
# on, the cores slow down by 1.5-1.9x for stretches of seconds to minutes
# while CPU time still equals wall time, so raw times swing by tens of
# percent between identical runs.  A fixed numpy kernel is timed between
# consecutive operations, and each operation's time is reported as
# latency / kernel time * nominal kernel time: seconds at the host speed
# where the kernel takes its nominal time.  The kernel resembles each
# workload's cost mix: small complex eigh calls (numpy call overhead plus
# LAPACK) for the many-small-operation workloads, plus one n = 100 eigh for
# the chain experiments.  Raw medians go to the info line.
# chain-paper has few, long operations, so it can afford the median of 5
# kernel timings per bracket.
KERNELS = {  # workload -> ((matrix size, repeats), ...), nominal seconds, timings per bracket
    "chain-paper": (((6, 6), (100, 1)), 2.2e-3, 5),
    "chain-swarm": (((6, 12),), 1.7e-4, 1),
    "dense-small": (((6, 12),), 1.7e-4, 1),
}


def _hermitian(n: int) -> np.ndarray:
    rng = np.random.default_rng(n)
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return z + z.conj().T


END_TO_END = {  # name -> unit
    "wall_s": "s", "steps_per_s": "1/s", "op_p50_ms": "ms", "op_p99_ms": "ms",
    "setup_s": "s", "peak_rss_mb": "MB",
}
LAYERS = {
    "hermitian": ("eigh", "require_hermitian", "cluster_degenerate"),
    "fermions": ("QuadraticHamiltonian", "to_mode_basis", "from_mode_basis", "mode_populations",
                 "dephase_gge", "evolve_exact", "gibbs_correlation", "solve_beta", "energy",
                 "entropy_gaussian"),
    "dense": ("check_state", "ta_state", "gibbs_state_dense", "gge_state_dense", "evolve_dense",
              "vn_entropy", "gaussian_to_dense", "quadratic_to_dense", "mode_number_operators",
              "correlation_of_dense"),
    "protocols": ("Trajectory.sample", "run_schedule", "run_exact_schedule", "min_work_scan",
                  "optimal_gge_schedule", "optimal_ta_schedule", "optimal_work_bound",
                  "local_quench_schedule"),
    "cli": ("write_csv",),
}
EXPERIMENT_METRICS = ("fig2", "fig3", "fig4", "scan")   # chain-paper per-experiment times


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="import the package, build the inputs and exit (timed by setup_s)")
    p.add_argument("--write-reference", action="store_true",
                   help="store this run's first-pass outputs as the reference (default seed only)")
    return p.parse_args(argv)


def import_package():
    """Import gge_thermo from this checkout's src/, never from elsewhere."""
    if not (SRC / "gge_thermo" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: {SRC / 'gge_thermo'} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import gge_thermo
    if Path(gge_thermo.__file__).resolve().parent != SRC / "gge_thermo":
        raise SystemExit(f"perfbench: imported gge_thermo from {gge_thermo.__file__}, not {SRC}")
    import workloads
    return workloads


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------

class Pass:
    """One closed-loop sweep over the operations; ``check`` verifies its outputs.

    A host-speed kernel runs between consecutive operations, so each one is
    bracketed by two kernel timings (``kernel[i]`` is their mean).
    """

    def __init__(self, workload, ops, kernel, tracer=None):
        clock = time.perf_counter
        self.outputs = [None] * len(ops)
        self.latency = [0.0] * len(ops)
        self.errors = {}
        samples = [kernel()]
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op = i
            t0 = clock()
            try:
                self.outputs[i] = workload.run(op)
            except Exception as exc:  # a failed operation is counted, not fatal
                self.errors[i] = f"{op.kind}: {type(exc).__name__}: {exc}"
            self.latency[i] = clock() - t0
            samples.append(kernel())
        self.kernel = [0.5 * (a + b) for a, b in zip(samples, samples[1:])]
        self.steps = sum(op.steps for op in ops)

    def check(self, workload, ops, keep_values=False) -> "Pass":
        bad, values, self.info = workload.check(ops, self.outputs)
        self.values = values if keep_values else None
        self.failures = {**bad, **self.errors}
        self.outputs = None
        return self


class HostKernel:
    """The fixed reference computation of one workload.  ``ops`` and ``wall``
    turn raw seconds into seconds at the kernel's nominal speed."""

    def __init__(self, workload: str):
        spec, self.nominal, self.timings = KERNELS[workload]
        self.parts = [(_hermitian(n), repeats) for n, repeats in spec]

    def once(self) -> float:
        t0 = time.perf_counter()
        for matrix, repeats in self.parts:
            for _ in range(repeats):
                np.linalg.eigh(matrix)
        return time.perf_counter() - t0

    def __call__(self) -> float:
        return statistics.median(self.once() for _ in range(self.timings))

    def ops(self, passes, n) -> list[float]:
        """Per operation: the median over passes of latency / bracketing kernel time."""
        return [self.nominal * statistics.median(p.latency[i] / p.kernel[i] for p in passes)
                for i in range(n)]

    def wall(self, p) -> float:
        return self.nominal * sum(t / k for t, k in zip(p.latency, p.kernel))


def percentile(values, q):
    s = sorted(values)
    pos = (len(s) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def time_setup(args, kernel) -> list[float]:
    """Host-normalized wall time of fresh set-up subprocesses.  The kernel
    is timed 5 times on either side of each one, since its first call after
    an idle wait runs cold."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    before = statistics.median(kernel.once() for _ in range(5))
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL, timeout=120)
        elapsed = time.perf_counter() - t0
        after = statistics.median(kernel.once() for _ in range(5))
        times.append(kernel.nominal * elapsed / (0.5 * (before + after)))
        before = after
    return times


# ---------------------------------------------------------------------------
# Reference comparison and provenance
# ---------------------------------------------------------------------------

def max_abs_dev(ref, cur) -> float:
    if isinstance(ref, list) and isinstance(cur, list):
        if len(ref) != len(cur):
            return math.inf
        return max((max_abs_dev(a, b) for a, b in zip(ref, cur)), default=0.0)
    if isinstance(ref, (int, float)) and isinstance(cur, (int, float)):
        if math.isnan(ref) and math.isnan(cur):
            return 0.0
        return abs(ref - cur) if not math.isnan(ref - cur) else math.inf
    return 0.0 if ref == cur else math.inf


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json.gz"


def compare_reference(args, values):
    """Worst |output - reference| over every output number, at the default seed."""
    path = reference_path(args.workload)
    if args.write_reference:
        if args.seed != DEFAULT_SEED:
            raise SystemExit("perfbench: references are stored at the default seed only")
        REFERENCE_DIR.mkdir(exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"seed": args.seed, "outputs": values}, fh)
    if args.seed != DEFAULT_SEED or not path.exists():
        return None
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        return max_abs_dev(json.load(fh)["outputs"], values)


def provenance(args, samples) -> dict:
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for f in sorted((SRC / "gge_thermo").glob("*.py")):
        digest.update(f.name.encode() + b"\0" + f.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "commit": commit, "src_sha256": digest.hexdigest(),
        "python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": BLAS_THREADS,
        "scan_workers": SCAN_WORKERS, "nproc": len(os.sched_getaffinity(0)),
        "samples": samples,
    }


# ---------------------------------------------------------------------------
# The two kinds of run
# ---------------------------------------------------------------------------

def untraced_run(args, workload, ops, kernel):
    setup = time_setup(args, kernel)
    passes = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < args.seconds:
        passes.append(Pass(workload, ops, kernel).check(workload, ops, keep_values=not passes))
    op_s = kernel.ops(passes, len(ops))
    wall = sum(op_s)
    metrics = {
        "wall_s": wall,
        "steps_per_s": passes[0].steps / wall,
        "op_p50_ms": 1e3 * percentile(op_s, 50),
        "op_p99_ms": 1e3 * percentile(op_s, 99),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    runs = len(ops) * len(passes)
    samples = {"wall_s": runs, "steps_per_s": runs, "op_p50_ms": runs, "op_p99_ms": runs,
               "setup_s": len(setup), "peak_rss_mb": 1}
    raw = {"raw_wall_s": statistics.median(sum(p.latency) for p in passes),
           "kernel_median_s": statistics.median(k for p in passes for k in p.kernel)}
    return passes, metrics, END_TO_END, samples, [], raw


def traced_run(args, workload, ops, kernel):
    import tracing

    untraced, traced, summaries, problems = [], [], [], []
    spans_file = OUT_DIR / f"spans-{args.workload}-{args.seed}.tsv.gz"
    start = time.perf_counter()
    while len(traced) < 2 or time.perf_counter() - start < args.seconds:
        untraced.append(Pass(workload, ops, kernel).check(workload, ops, keep_values=not untraced))
        tracer = tracing.Tracer()
        tracer.install()
        try:
            run = Pass(workload, ops, kernel, tracer)
        finally:
            tracer.restore()
        run.check(workload, ops)
        left = tracing.leftover_wrappers()
        if left:
            problems.append(f"wrappers not restored: {left[:5]}")
        summary = tracing.summarize(tracer.spans, tracer.counters, SCAN_WORKERS)
        if not traced:
            tracing.write_spans(spans_file, tracer.spans)
        traced.append(run)
        summaries.append(summary)
        module_total, traced_time = sum(summary["module_self_s"].values()), sum(run.latency)
        if module_total > traced_time + 1e-6:
            problems.append(f"module self times sum to {module_total:.6f} s, "
                            f"above the traced wall time {traced_time:.6f} s")

    steps = traced[0].steps
    first = summaries[0]
    for s in summaries[1:]:
        if s["calls"] != first["calls"]:
            diff = sorted(k for k in set(s["calls"]) | set(first["calls"])
                          if s["calls"].get(k) != first["calls"].get(k))
            problems.append(f"call counts differ between traced passes: {diff[:5]}")
    metrics, units = {}, {}

    def put(name, value, unit):
        metrics[name], units[name] = value, unit

    for module, names in LAYERS.items():
        for fn in names:
            key = f"{module}.{fn}"
            put(f"{key}.calls", first["calls"].get(key, 0), "count")
            put(f"{key}.self_s", statistics.median(s["self_s"].get(key, 0.0) for s in summaries), "s")
    eigh_calls = first["calls"].get("hermitian.eigh", 0)
    put("hermitian.eigh.per_step", eigh_calls / steps if steps else 0.0, "calls/step")
    put("protocols.min_work_scan.parallel_eff",
        statistics.median(s["parallel_eff"] for s in summaries), "ratio")
    put("cli.write_csv.bytes", first["counters"].get("cli.write_csv.bytes", 0), "B")
    for module in LAYERS:
        put(f"{module}.self_s", statistics.median(s["module_self_s"][module] for s in summaries), "s")
    traced_wall = statistics.median(kernel.wall(p) for p in traced)
    untraced_wall = statistics.median(kernel.wall(p) for p in untraced)
    put("trace.overhead_frac", traced_wall / untraced_wall - 1.0, "ratio")
    op_s = kernel.ops(untraced, len(ops))
    for kind in EXPERIMENT_METRICS:
        times = [t for t, op in zip(op_s, ops) if op.kind == kind]
        put(f"{kind}_s", times[0] if times else 0.0, "s")

    samples = {name: len(traced) for name in metrics}
    samples["trace.overhead_frac"] = len(traced) + len(untraced)
    for kind in EXPERIMENT_METRICS:
        samples[f"{kind}_s"] = len(untraced)
    raw = {"raw_wall_s_untraced": statistics.median(sum(p.latency) for p in untraced),
           "raw_wall_s_traced": statistics.median(sum(p.latency) for p in traced)}
    return untraced + traced, metrics, units, samples, problems, raw


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    workloads = import_package()
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="csv-") as workdir:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        ops = workload.ops()
        if args.setup_only:
            return 0
        for op in workload.warm_ops():
            workload.run(op)
        kind = traced_run if args.trace else untraced_run
        kernel = HostKernel(args.workload)
        passes, metrics, units, samples, problems, raw = kind(args, workload, ops, kernel)

    attempted = len(ops) * len(passes)
    failures = [f"pass {k}: op {i}: {msg}" for k, p in enumerate(passes)
                for i, msg in sorted(p.failures.items())]
    deviation = compare_reference(args, passes[0].values)
    info = {}
    for p in passes:
        for key, value in p.info.items():
            info[key] = max(info.get(key, value), value)
    report = provenance(args, samples)
    report.update({
        "passes": len(passes), "ops_per_pass": len(ops), "steps_per_pass": passes[0].steps,
        "failed_frac": len(failures) / attempted, "kernel_nominal_s": kernel.nominal, **raw,
        "reference_max_abs_dev": deviation, "reference_tol": REFERENCE_TOL,
        "checks": info, "self_check_problems": problems, "first_failures": failures[:10],
    })

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(passes)} ops/pass={len(ops)}")
    for name, value in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {units[name]:<10} n={samples[name]}")
    print(f"  failed_frac {len(failures)}/{attempted}; reference deviation {deviation}")
    for line in failures[:10] + problems:
        print(f"  ! {line}")
    print("info " + json.dumps(report, default=str))
    correct = not failures and not problems
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": len(failures),
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
