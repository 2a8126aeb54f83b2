"""Exact uniform reliability and probabilistic query evaluation for
self-join-free Boolean conjunctive queries, with executable counting
reductions from bipartite independent-set-pair counting."""

from .bipartite import (
    BipartiteGraph,
    independent_pair_count,
    independent_pairs,
    parse_graph,
    profile_stats,
    x_table,
)
from .cq import (
    Atom,
    HierarchyReport,
    Query,
    Term,
    atoms_of,
    classify_hierarchical,
    enumerate_matches,
    noncomparable_pair_and_rst,
    parse_query,
)
from .errors import QReliabError
from .evaluate import pqe_brute, pqe_safe, rewrite_prob1, ur_brute, ur_safe
from .gadgets import (
    GadgetCounts,
    LemmaCheck,
    brute_counts,
    build_gadget,
    closed_counts,
    q1_query,
    qrst_query,
    verify_lemmas,
)
from .instances import (
    Fact,
    Instance,
    ProbAssignment,
    fresh_constant,
    parse_instance,
    parse_prob_map,
)
from .kernels import BACKEND
from .reduction_pqe import (
    PqeReductionRun,
    build_Icd,
    pi_value,
    run_reduction_pqe,
)
from .reduction_ur import (
    ReductionParams,
    ReductionRun,
    alpha_coefficient,
    build_Dp,
    lemma_binary_transform,
    merge_power2,
    np_analytic,
    reduction_params,
    run_reduction,
    weighted_profiles,
)
from .vandermonde import dual_solve, kron_power_sums

__version__ = "0.1.0"

__all__ = [
    "Atom",
    "BACKEND",
    "BipartiteGraph",
    "Fact",
    "GadgetCounts",
    "HierarchyReport",
    "Instance",
    "LemmaCheck",
    "PqeReductionRun",
    "ProbAssignment",
    "QReliabError",
    "Query",
    "ReductionParams",
    "ReductionRun",
    "Term",
    "alpha_coefficient",
    "atoms_of",
    "brute_counts",
    "build_Dp",
    "build_Icd",
    "build_gadget",
    "classify_hierarchical",
    "closed_counts",
    "dual_solve",
    "enumerate_matches",
    "fresh_constant",
    "independent_pair_count",
    "independent_pairs",
    "kron_power_sums",
    "lemma_binary_transform",
    "merge_power2",
    "noncomparable_pair_and_rst",
    "np_analytic",
    "parse_graph",
    "parse_instance",
    "parse_prob_map",
    "parse_query",
    "pi_value",
    "pqe_brute",
    "pqe_safe",
    "profile_stats",
    "q1_query",
    "qrst_query",
    "reduction_params",
    "rewrite_prob1",
    "run_reduction",
    "run_reduction_pqe",
    "ur_brute",
    "ur_safe",
    "verify_lemmas",
    "weighted_profiles",
    "x_table",
]
