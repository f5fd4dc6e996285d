"""Every size argument below its floor is refused by errors._check_least, in one wording."""

import re
from types import SimpleNamespace

import pytest

from repstat import cli
from repstat.partitions import enumerate_partitions, partition_count
from repstat.qseries import feit_fine, gamma_q, gauss_identity_check, gl2_census, gl_order, gow_sum, log_constant_ratio
from repstat.rsk import SplitMix64, random_permutation, sample_plancherel
from repstat.symstats import (
    angle_report,
    histogram,
    involution_count,
    level_maxima,
    log_mean_dimension_estimate,
    sweep,
)

# (id, call with the size v, the size's name, its floor); the two generator
# functions are reached through next(), where their checks run.
FLOORS = [
    ("cli-sized-range", lambda v: cli._sized_range(v, 60), "nmax", 1),
    ("cli-gl-ratio-q", lambda v: cli._ratio_rows(SimpleNamespace(nmax=3, q=v)), "q", 2),
    ("enumerate_partitions", lambda v: next(enumerate_partitions(v)), "n", 0),
    ("partition_count", partition_count, "n", 0),
    ("feit_fine", feit_fine, "nmax", 0),
    ("gow_sum", gow_sum, "n", 1),
    ("gl_order", gl_order, "n", 1),
    ("gauss_identity_check", gauss_identity_check, "order", 1),
    ("gamma_q", lambda v: gamma_q(2, v), "terms", 1),
    ("log_constant_ratio", lambda v: log_constant_ratio(v, 2), "n", 1),
    ("gl2_census", gl2_census, "q", 2),
    ("take", lambda v: SplitMix64(1).take(v), "count", 0),
    ("random_permutation", lambda v: random_permutation(v, SplitMix64(1)), "n", 0),
    ("sample_plancherel-n", lambda v: next(sample_plancherel(v, 1, 3)), "n", 1),
    ("sample_plancherel-count", lambda v: next(sample_plancherel(5, 1, v)), "count", 1),
    ("involution_count", involution_count, "n", 0),
    ("sweep", sweep, "n", 1),
    ("level_maxima", level_maxima, "nmax", 1),
    ("angle_report", angle_report, "n", 1),
    ("log_mean_dimension_estimate", log_mean_dimension_estimate, "n", 1),
    ("histogram", lambda v: histogram([1.0, 2.0], v), "bins", 1),
]


@pytest.mark.parametrize("call, what, least", [case[1:] for case in FLOORS], ids=[case[0] for case in FLOORS])
def test_size_below_floor_refused_in_one_wording(call, what, least):
    with pytest.raises(ValueError, match=f"^{re.escape(what)} must be at least {least}, got {least - 1}$") as info:
        call(least - 1)
    # Raised by the one helper, not by a hand-written copy of its message.
    assert info.traceback[-1].name == "_check_least"
