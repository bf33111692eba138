"""Exact enumeration and verification of tree hook weight identities.

Everything is computed over the integers (rationals where a formula
divides), so every check is an exact polynomial or integer equality.
Polynomial arithmetic runs through one pure Python term-map kernel,
which lives in hooklab.multipoly beside the MultiPoly class it serves.
"""

from hooklab.hookformula import (
    binary_hook_sum,
    binary_reciprocal_hook_sum,
    cayley_degree_identity,
    cayley_fiber_sums,
    hook_weight_closed_form,
    hook_weight_sum,
    increasing_hook_sum,
    linear_extension_check,
    subset_closed_form,
    top_weight_sum,
    tree_weight_sum,
    uniform_chain_sides,
)
from hooklab.kerov import (
    bedard_goupil,
    binomial_simplification_check,
    block_cycle_permutation,
    count_factorizations,
    factorization_count_closed_form,
    partitions_of,
    signed_factorization_count,
)
from hooklab.multipoly import (
    MultiPoly,
    falling_factorial,
    top_homogeneous,
)
from hooklab.recurrences import (
    closed_polynomial,
    lagrange_series_oracle,
    oracle_closed_form,
    set_partitions,
    split_polynomial,
)
from hooklab.reports import VerdictReport, compare_sides
from hooklab.trees import (
    cayley_count,
    enumerate_binary,
    increasing_count,
    prufer_edges,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # polynomials
    "MultiPoly",
    "falling_factorial",
    "top_homogeneous",
    # trees
    "enumerate_binary",
    "increasing_count",
    "cayley_count",
    "prufer_edges",
    # hook weights and summation identities
    "tree_weight_sum",
    "hook_weight_sum",
    "hook_weight_closed_form",
    "increasing_hook_sum",
    "uniform_chain_sides",
    "binary_hook_sum",
    "binary_reciprocal_hook_sum",
    "linear_extension_check",
    "cayley_degree_identity",
    "cayley_fiber_sums",
    "top_weight_sum",
    # recurrences
    "split_polynomial",
    "closed_polynomial",
    "lagrange_series_oracle",
    "oracle_closed_form",
    "set_partitions",
    "subset_closed_form",
    # factorization counts
    "partitions_of",
    "block_cycle_permutation",
    "count_factorizations",
    "factorization_count_closed_form",
    "bedard_goupil",
    "binomial_simplification_check",
    "signed_factorization_count",
    # reporting
    "VerdictReport",
    "compare_sides",
]
