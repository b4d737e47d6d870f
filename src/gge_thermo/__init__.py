"""Thermodynamics of closed quantum systems under quench-and-equilibrate
protocols: time-average, thermal and generalised-Gibbs effective
descriptions, work and entropy accounting, optimal extraction protocols,
and efficient free-fermion simulation through correlation matrices."""

from .hermitian import (
    DEGENERACY_TOL,
    EigenSystem,
    cluster_degenerate,
    require_hermitian,
)
from .fermions import (
    GGE,
    GIBBS,
    Exact,
    Gibbs,
    QuadraticHamiltonian,
    TimeAverageGGE,
    as_hamiltonian,
    build_chain,
    dephase_gge,
    energy,
    entropy_gaussian,
    evolve_exact,
    from_mode_basis,
    gibbs_correlation,
    solve_beta,
    to_mode_basis,
    work_of_quench,
)
from .dense import (
    ConservedSet,
    DualPoint,
    check_state,
    correlation_of_dense,
    gaussian_to_dense,
    gge_state_dense,
    gibbs_state_dense,
    is_passive,
    kl_gap,
    mode_number_operators,
    passive_rearrangement,
    quadratic_to_dense,
    ta_state,
    vn_entropy,
)
from .protocols import (
    ProtocolRecord,
    ScanResult,
    StepRecord,
    Trajectory,
    build_population_inverted_bath,
    local_quench_schedule,
    min_work_scan,
    optimal_gge_protocol,
    optimal_gibbs_protocol,
    optimal_ta_protocol,
    optimal_work_bound,
    richardson_limit,
    run_protocol,
    run_schedule,
    thermal_bath_initial_state,
)

__version__ = "0.1.0"
