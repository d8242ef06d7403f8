"""Walsh-Fourier summability toolkit.

Exact dyadic-group arithmetic, fast Paley-ordered Walsh-Hadamard transforms,
rectangular and quadratic partial sums, sequence-BMO norms of the diagonal
sums, their exponential (Phi-) means, dyadic maximal and Schipp V-operators,
and a reproducible experiment harness.
"""

from .dyadic import DyadicPoint, rademacher, walsh, walsh_matrix, walsh_row
from .errors import DataError, UsageError
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
    dyadic_maximal,
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
    bmo_of_diagonal_sums,
    bmo_sequence_norm,
    entropy_functional,
    integer_dyadic_intervals,
)
from .sums import (
    DiagonalSumField,
    all_partial_sums_1d,
    dyadic_square_sums,
    partial_sum_1d,
    quadratic_sums,
    rectangular_partial_sum,
)
from .transform import (
    DyadicGrid,
    DyadicGrid1D,
    DyadicGrid2D,
    inverse_wht_1d,
    inverse_wht_2d,
    naive_wht_1d,
    naive_wht_2d,
    wht_1d,
    wht_2d,
)

__version__ = "0.1.0"
