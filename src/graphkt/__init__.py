"""Exact invariants of graph C*-algebras of finite directed multigraphs.

The library computes K0, K1 and Ext from the vertex matrix of a graph
whose edge multiplicities live in {1, 2, ...} or infinity, implements the
tail construction that removes singular vertices (truncated to keep graphs
finite), and ships a randomized harness that checks the structural
identities these computations must satisfy.

All arithmetic is exact (arbitrary-precision integers throughout).
"""

from .errors import ConditionLViolation, DomainError, ParseError, TailError
from .graphs import (
    INF,
    BlockDecomposition,
    Graph,
    block_decomposition,
    condition_l,
    is_row_finite,
    out_multiplicity,
    singular_vertices,
)
from .intlinalg import (
    AbelianGroup,
    IntMatrix,
    SnfResult,
    cokernel,
    det_bareiss,
    group_format,
    invariant_factors,
    kernel_basis,
    snf,
)
from .ktheory import (
    ExtResult,
    KTheoryResult,
    corollary_applies,
    ext_group,
    k_groups,
    row_matrix,
    stacked_matrix,
)
from .tails import desingularize
from .graphio import emit_graph, parse_graph, parse_matrix
from .harness import (
    RandomGraphParams,
    ea_family,
    random_graph,
    run_properties,
    truncation_scan,
)
from .catalog import CATALOG, verify_catalog

__version__ = "0.1.0"

__all__ = [
    "AbelianGroup",
    "BlockDecomposition",
    "CATALOG",
    "ConditionLViolation",
    "DomainError",
    "ExtResult",
    "Graph",
    "INF",
    "IntMatrix",
    "KTheoryResult",
    "ParseError",
    "RandomGraphParams",
    "SnfResult",
    "TailError",
    "block_decomposition",
    "cokernel",
    "condition_l",
    "corollary_applies",
    "desingularize",
    "det_bareiss",
    "ea_family",
    "emit_graph",
    "ext_group",
    "group_format",
    "invariant_factors",
    "is_row_finite",
    "k_groups",
    "kernel_basis",
    "out_multiplicity",
    "parse_graph",
    "parse_matrix",
    "random_graph",
    "row_matrix",
    "run_properties",
    "singular_vertices",
    "snf",
    "stacked_matrix",
    "truncation_scan",
    "verify_catalog",
]
