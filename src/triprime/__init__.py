"""Graphs on finite permutation groups where two elements are adjacent when
they generate a subgroup whose order has at least k distinct prime divisors
(default k = 3), plus the machinery needed to study them: permutation
arithmetic, element tables, conjugacy classes, the prime graph on element
orders, and a verification harness."""

import os
from importlib import import_module

# numpy's OpenBLAS starts a thread pool when it loads that nothing here uses
# (no matrix products). Unless the caller set OPENBLAS_NUM_THREADS, numpy is
# loaded with it at 1 and the variable is removed again, so subprocesses do
# not inherit it. OpenBLAS reads it once, so when triprime is imported before
# numpy, BLAS runs on one thread for the whole process, its importer included.
if "OPENBLAS_NUM_THREADS" not in os.environ:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    import_module("numpy")
    del os.environ["OPENBLAS_NUM_THREADS"]

from .analysis import (
    LemmaOutcome,
    PrimeGraph,
    VerificationReport,
    check_fpf,
    check_higman,
    check_rdivides,
    is_path_on_three,
    omega_set,
    prime_graph,
    sigma_set,
    verify_theorem,
)
from .graph import (
    DistanceReport,
    DiameterResult,
    IsolatedVertexError,
    NonFGraph,
    adjacent,
    bfs,
    build_graph,
    diameter,
    distance,
    neighbor_order_profile,
)
from .groups import (
    ElementTable,
    OrderCapExceeded,
    PermutationGroup,
    catalog,
    centralizer_elements,
    conjugacy_classes,
    derived_subgroup,
    direct_product,
    enumerate_elements,
    is_solvable,
    load_group,
    normal_closure,
    parse_group_text,
    standard_catalog,
    two_generated_order,
)
from .perm import Permutation, format_cycles, from_cycles, identity, parse_cycles
from .primes import is_squarefree, prime_factors

__version__ = "0.1.0"
