"""Walsh-Fourier summability toolkit.

Exact dyadic-group arithmetic, fast Paley-ordered Walsh-Hadamard transforms,
partial-sum operators, strong/exponential means, sequence-BMO norms, dyadic
maximal and Schipp V-operators, and a reproducible experiment harness.
"""

from .dyadic import (
    DyadicInterval,
    DyadicPoint,
    dirichlet_kernel,
    dyadic_add,
    paley_from_sequency,
    rademacher,
    sequency_from_paley,
    unit_point,
    walsh,
    walsh_matrix,
    walsh_row,
)
from .errors import DataError, ResourceLimitError, UsageError
from .experiments import (
    SummabilityReport,
    run_rodin_1d,
    run_theorem1,
    run_theorem2,
    run_weak_type_suite,
    write_reports_csv,
)
from .generators import FunctionSpec, generate_function, portable_uniforms, spike_height
from .maximal import (
    OperatorField,
    dyadic_maximal,
    dyadic_maximal_1d,
    hybrid_maximal_1,
    hybrid_maximal_2,
    hybrid_v_1,
    hybrid_v_2,
    schipp_v,
    schipp_v_max,
    superlevel_measure,
)
from .means import (
    IndexInterval,
    PhiFunction,
    SummandSequence,
    bmo_function_norm,
    bmo_of_diagonal_sums,
    bmo_sequence_norm,
    bmo_sequence_norm_function_form,
    entropy_functional,
    integer_dyadic_intervals,
    log_phi_mean,
    marcinkiewicz_mean,
    phi_mean,
    strong_mean,
)
from .sums import (
    DiagonalSumField,
    all_partial_sums_1d,
    dyadic_square_sums,
    marginal_maximal_2,
    marginal_sum_1,
    marginal_sum_2,
    partial_sum_1d,
    quadratic_sums,
    rectangular_partial_sum,
)
from .transform import (
    DyadicGrid1D,
    DyadicGrid2D,
    Spectrum1D,
    Spectrum2D,
    inverse_wht_1d,
    inverse_wht_2d,
    naive_wht_1d,
    naive_wht_2d,
    translate,
    wht_1d,
    wht_2d,
)

__version__ = "0.1.0"
