"""Isospectral reductions of weighted digraphs.

The package reduces finite weighted digraphs over structural vertex sets
while tracking, exactly, the finite set of complex points at which the
adjacency spectrum is allowed to change.  Edge weights live in the field
of rational functions of one variable with Gaussian-rational
coefficients, so every reduction, spectrum multiplicity, and equality test
is exact; floating point enters only when locating roots numerically.
"""

from .ratfun import (
    GaussianRational,
    ParseError,
    Poly,
    RatFun,
    format_weight,
    parse_weight,
    poly_gcd,
    squarefree_decompose,
)
from .wgraph import (
    DuplicateEdgeError,
    GraphError,
    UnknownVertexError,
    WeightedDigraph,
    complete_bipartite_graph,
    complete_graph,
    merge_parallel,
)
from .structural import (
    EmptyBasicSetError,
    ForbiddenPoint,
    ForbiddenSet,
    StructuralSetError,
    basic_structural_set,
    check_structural_set,
    forbidden_set,
    is_g_pi,
    is_structural_set,
)
from .reduction import (
    Branch,
    FactorizationError,
    all_branches,
    branch_decomposition,
    branch_product,
    common_decomposition,
    enumerate_branches,
    expand,
    loop_bisect,
    prune_off_branch,
    reduce,
    remove_vertex,
    sequential_reduce,
    unique_reduce_to,
    weight_sequence,
)
from .spectrum import (
    SpectralList,
    SpectralPoint,
    char_det,
    char_matrix,
    charpoly_numerators_equal,
    compare_outside,
    spectra_agree_outside,
    spectrum,
    spectrum_minus,
)
from .scc import SccPartition, reduced_scc_check, scc_filter, scc_partition
from .laplacian import (
    NotSimpleError,
    combinatorial_laplacian_graph,
    generalized_laplacian_graph,
    normalized_laplacian_graph,
)
from .isoequiv import (
    bas_equivalent,
    common_reduction,
    isomorphic,
    tau_equivalent,
    tau_min_outdegree_reduce,
    tau_reduce,
)
from .weightset import (
    SUBRING_TESTS,
    WeightOutsideSubringError,
    expected_vertex_count,
    verify_weightset,
    weightset_reduce,
)
from .oracles import (
    all_paths,
    det_leibniz,
    det_ratfun_matrix,
    eig_dense,
    reduce_by_paths,
    spectra_equal_up_to,
)

__version__ = "0.1.0"
