"""Exact counts of complete exceptional sequences for ADE and affine ADE data.

The public surface re-exports the main entry points; see the module
docstrings of :mod:`fecount.counting`, :mod:`fecount.weyl` and
:mod:`fecount.verify` for the underlying formulas and conventions.
"""
from .arith import NonIntegralError
from .counting import (
    CountCache,
    admissible_triples,
    coxeter_number,
    deg_ll_affine,
    deg_ll_dynkin,
    e_affine,
    e_affine_closed,
    e_dynkin_closed,
    e_dynkin_recursive,
    e_forest,
    load_cache,
    save_cache,
)
from .diagrams import (
    ClassificationError,
    DynkinForest,
    DynkinType,
    MarkedGraph,
    OrbifoldTriple,
    classify_forest,
    delete_vertex,
    dynkin_diagram,
    extended_diagram,
)
from .verify import (
    check_hurwitz1,
    check_hurwitz2,
    hurwitz_sweep,
    reproduce_table,
    table_sweep,
)
from .weyl import (
    OracleBudgetExceeded,
    RootSystem,
    UnsupportedRankError,
    absolute_length,
    build_root_system,
    count_reflection_factorizations,
    coxeter_element,
    element_order,
)

__version__ = "0.1.0"

__all__ = [
    "CountCache",
    "ClassificationError",
    "DynkinForest",
    "DynkinType",
    "MarkedGraph",
    "NonIntegralError",
    "OracleBudgetExceeded",
    "OrbifoldTriple",
    "RootSystem",
    "UnsupportedRankError",
    "absolute_length",
    "admissible_triples",
    "build_root_system",
    "check_hurwitz1",
    "check_hurwitz2",
    "classify_forest",
    "count_reflection_factorizations",
    "coxeter_element",
    "coxeter_number",
    "deg_ll_affine",
    "deg_ll_dynkin",
    "delete_vertex",
    "dynkin_diagram",
    "e_affine",
    "e_affine_closed",
    "e_dynkin_closed",
    "e_dynkin_recursive",
    "e_forest",
    "element_order",
    "extended_diagram",
    "hurwitz_sweep",
    "load_cache",
    "reproduce_table",
    "save_cache",
    "table_sweep",
]
