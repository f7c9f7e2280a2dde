"""chaoskit: exact moment calculus for multiple Wiener-Ito and Wigner
integrals of grid step kernels, verified against independent oracles and
Monte Carlo / random-matrix simulation."""

__version__ = "0.1.0"

from .errors import (
    BudgetExceededError,
    ChaosKitError,
    InvalidInputError,
    PreconditionError,
)
from .config import budget, entry_budget, set_entry_budget, set_thread_count
from .kernels import (
    MODELS,
    MODES,
    GridKernel,
    Scalar,
    adjoint,
    as_float,
    constant_kernel,
    exact_sqrt,
    family_kernel,
    fold_scale,
    is_mirror_symmetric,
    is_off_diagonal,
    is_symmetric,
    kernel_from_json,
    kernel_to_json,
    l2_inner,
    l2_norm_sq,
    new_kernel,
    normalize_variance,
    off_diagonal_part,
    refine,
    symmetrize,
)
from .contractions import (
    contract_classical,
    contract_classical_sym,
    contract_free,
)
from .chaos import (
    ChaosExpansion,
    expectation,
    from_kernel,
    moment_via_expansion,
    multiply,
)
from .combinatorics import (
    ContractionTuple,
    catalan,
    classical_coeff,
    count_C,
    dyck_check,
    dyck_path_count,
    enumerate_tuples,
    gaussian_moment,
    limit_value,
    limit_weight,
    semicircle_moment,
)
from .moments import (
    ContractionProfile,
    MomentReport,
    chain_values,
    classical_fourth_identity,
    classical_moment,
    compute_moment,
    contraction_profile,
    convergence_report,
    fourth_moment_gap,
    free_fourth_identity,
    free_moment,
    symmetrized_square_identity,
    wick_oracle_moment,
)
from .simulate import (
    RNG_ALGORITHM,
    SampleConfig,
    derive_rng,
    mc_classical_moment,
    mc_free_moment,
    sample_classical,
    sample_free_gue,
)
