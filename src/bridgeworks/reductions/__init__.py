"""Executable hardness reductions.

- sat: 1-in-3 SAT instances, brute-force satisfiability, corpora.
- cov: complementary-vector instances from SAT, and geometric tree pairs
  whose one-bridge decision answers them.
- sums: 3-SUM and k-SUM instances from SAT via positional digit encoding.
- rdbp: restricted distance-decrease instances from vertex cover on cubic
  planar graphs.
"""

from .sat import (
    OneInThreeSatInstance,
    enumerate_clause_patterns,
    enumerate_instances,
    one_in_three_sat_brute_force,
    random_instance,
)
from .cov import (
    CovInstance,
    IffReport,
    OneBridgeReductionParams,
    cov_brute_force,
    cov_to_one_bridge,
    sat_to_cov,
    vectors_complementary,
    verify_one_bridge_iff,
)
from .sums import (
    KSumInstance,
    SumIffReport,
    ThreeSumInstance,
    carry_overflow_example,
    ksum_brute_force,
    repunit,
    sat_to_ksum,
    sat_to_threesum,
    threesum_brute_force,
    verify_ksum_iff,
    verify_threesum_iff,
)
from .rdbp import (
    RdbpIffReport,
    RdbpInstance,
    k4_embedding,
    prism_embedding,
    rdbp_brute_force,
    rdbp_minimum_budget,
    rdbp_subset_decreases_all,
    vc_to_rdbp,
    verify_rdbp_iff,
    vertex_cover_brute_force,
)

__all__ = [
    "OneInThreeSatInstance",
    "enumerate_clause_patterns",
    "enumerate_instances",
    "one_in_three_sat_brute_force",
    "random_instance",
    "CovInstance",
    "IffReport",
    "OneBridgeReductionParams",
    "cov_brute_force",
    "cov_to_one_bridge",
    "sat_to_cov",
    "vectors_complementary",
    "verify_one_bridge_iff",
    "KSumInstance",
    "SumIffReport",
    "ThreeSumInstance",
    "carry_overflow_example",
    "ksum_brute_force",
    "repunit",
    "sat_to_ksum",
    "sat_to_threesum",
    "threesum_brute_force",
    "verify_ksum_iff",
    "verify_threesum_iff",
    "RdbpIffReport",
    "RdbpInstance",
    "k4_embedding",
    "prism_embedding",
    "rdbp_brute_force",
    "rdbp_minimum_budget",
    "rdbp_subset_decreases_all",
    "vc_to_rdbp",
    "verify_rdbp_iff",
    "vertex_cover_brute_force",
]
