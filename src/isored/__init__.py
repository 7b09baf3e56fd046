"""Isospectral reductions of weighted digraphs.

The package reduces finite weighted digraphs over structural vertex sets
while tracking, exactly, the finite set of complex points at which the
adjacency spectrum is allowed to change.  Edge weights live in the field
of rational functions of one variable with Gaussian-rational
coefficients, so every reduction, spectrum multiplicity, and equality test
is exact; floating point enters only when locating roots numerically.

The core modules load with the package.  The names exported from
``scc``, ``laplacian``, ``isoequiv`` and ``oracles`` load their module on
first access, so a command that never uses them never imports them, nor
numpy through ``oracles``; nothing else imports numpy.
"""

import importlib

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
from .roots import RootLocationError
from .spectrum import (
    SpectralList,
    SpectralPoint,
    char_det,
    char_matrix,
    charpoly_numerators_equal,
    compare_outside,
    spectra_agree_outside,
    spectrum,
)
from .weightset import (
    SUBRING_TESTS,
    WeightOutsideSubringError,
    expected_vertex_count,
    verify_weightset,
    weightset_reduce,
)

_LAZY_NAMES = {
    "scc": ("SccPartition", "reduced_scc_check", "scc_filter", "scc_partition"),
    "laplacian": (
        "NotSimpleError",
        "combinatorial_laplacian_graph",
        "generalized_laplacian_graph",
        "normalized_laplacian_graph",
    ),
    "isoequiv": (
        "bas_equivalent",
        "common_reduction",
        "isomorphic",
        "tau_equivalent",
        "tau_min_outdegree_reduce",
        "tau_reduce",
    ),
    "oracles": (
        "all_paths",
        "branch_product",
        "det_leibniz",
        "det_ratfun_matrix",
        "eig_dense",
        "poly_divmod",
        "poly_gcd_euclid",
        "reduce_by_paths",
        "spectra_equal_up_to",
        "spectrum_minus",
    ),
}
_LAZY_HOME = {name: module for module, names in _LAZY_NAMES.items() for name in names}


def __getattr__(name):
    """Load a non-core module, or one of its exported names, on first access."""
    if name in _LAZY_NAMES:
        return importlib.import_module(f".{name}", __name__)
    if name not in _LAZY_HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


__version__ = "0.1.0"
