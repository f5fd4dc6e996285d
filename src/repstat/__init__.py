"""repstat: exact dimension and conjugacy-class statistics of finite groups.

Symmetric groups (hook lengths, class equation, Plancherel sampling),
GL_n over finite fields (class-count and degree-sum polynomials), and
small unitriangular groups (coadjoint orbits), all in exact arithmetic.
"""

__version__ = "0.1.0"

from .partitions import (
    Partition,
    conjugate,
    enumerate_partitions,
    hook_lengths,
    partition_count,
)
from .symstats import (
    AngleReport,
    CapExceededError,
    DimRecord,
    Histogram,
    IntegrityError,
    IntervalCounts,
    angle_decay_constant,
    angle_report,
    asymptotic_estimates,
    class_size,
    cos_sq_exact,
    dimension,
    fraction_near_max,
    histogram,
    interval_counts,
    involution_count,
    layer_sums,
    ln_big,
    max_dimension,
    plancherel_mass,
    sweep,
    vk_ratio,
)
from .rsk import SplitMix64, random_permutation, rsk_shape, sample_plancherel
from .qseries import (
    GammaPartialSum,
    QPolynomial,
    TruncatedSeries,
    feit_fine,
    gamma_q,
    gauss_identity_check,
    gl2_census,
    gl_order,
    gow_sum,
    log_constant_ratio,
)
from .kirillov import (
    ALGEBRAS,
    HEIS3,
    UT4,
    NilAlgebra,
    OrbitReport,
    UnsupportedCharacteristicError,
    kirillov_report,
)
