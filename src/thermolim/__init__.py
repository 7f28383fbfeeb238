"""thermolim: strong-coupling dynamics of a field mode coupled to N two-level atoms.

Closed-form sector propagators and evolved cat states, Wigner-fringe
diagnostics of superposition washout, perturbative (Dyson-series)
corrections with N-scaling fits, and an exact small-N evolver that
referees every analytic claim.  A reproducible CLI harness drives the
study pipelines; every rate and time is in units of the mode frequency,
so delta, g and t mean Δ/ω, g/ω and ωt and ω itself is not a setting.
"""

__version__ = "0.1.0"

from .errors import (
    CapacityError,
    CutoffError,
    DomainError,
    IntegrationError,
    QuadratureError,
    ThermolimError,
    ValidationError,
)
from .fock import (
    FieldState,
    ModelParams,
    assoc_laguerre,
    cat_norm_closed,
    cat_state,
    choose_cutoff,
    coherent_state,
    displaced_number_state,
    displacement_matrix,
    overlap,
)
from .spins import (
    CollectiveState,
    Moments,
    ProductSpinSpec,
    chi_prime_state,
    chi_state,
    ehrenfest_residual,
    random_spec,
    sigma_moments_bruteforce,
    sigma_moments_closed,
    sigma_x_eigenvalues,
    sigma_z_coupling,
)
from .propagator import (
    apply_uf_sector,
    asymptotic_branch_ratio,
    evolve_cat_leading,
    evolve_fock_leading,
    sector_frame,
)
from .wigner import (
    WignerGrid,
    count_time_zero_crossings,
    default_grid,
    fit_interference_offset,
    fringe_visibility,
    interference_phase_offset,
    time_average,
    w_int_closed,
    w_int_mean,
    wigner_numeric,
)
from .evolver import (
    JointState,
    build_hamiltonian,
    evolve_exact,
    fidelity,
    project_chi,
)
from .dyson import (
    CorrectionRecord,
    first_order_correction,
    oscillatory_integral,
    scaling_fit,
    second_order_correction,
)
from .harness import (
    RunRecord,
    ScenarioConfig,
    load_config,
    parse_config,
    run_scenario,
    run_sweep,
)
