"""Symmetric chain decompositions of cuboids Q_k x n.

Construction, transformation, validation, and exhaustive search for
symmetric chain decompositions of products of graded posets with chains,
with first-class support for detecting and avoiding taut chains (chains
containing a full vertical run of the chain coordinate).
"""

from .chains import (
    SCD,
    ValidationReport,
    is_taut,
    validate_scd,
)
from .constructions import (
    ConstructionError,
    MiddleGraph,
    RegionError,
    collapse,
    expand,
    extend_dimension,
    generate,
    grid_scd,
    hypercube_scd,
    middle_graph,
    product_lift,
    repair,
    shift,
)
from .data_io import (
    ParseError,
    builtin_table,
    parse_scd,
    render_pictorial,
    serialize_scd,
)
from .posets import (
    GradedPoset,
    PosetError,
    build_chain_poset,
    build_cuboid,
    build_hypercube,
    is_rank_symmetric,
    packet_grid,
    poset_times_chain,
    product,
)
from .search import (
    CountOutcome,
    ExistenceResult,
    SearchError,
    SearchOutcome,
    count_scds,
    count_search,
    enumerate_scds,
    exists_nontaut_scd,
)

__version__ = "0.1.0"

__all__ = [
    "SCD",
    "ConstructionError",
    "CountOutcome",
    "ExistenceResult",
    "GradedPoset",
    "MiddleGraph",
    "ParseError",
    "PosetError",
    "RegionError",
    "SearchError",
    "SearchOutcome",
    "ValidationReport",
    "builtin_table",
    "build_chain_poset",
    "build_cuboid",
    "build_hypercube",
    "collapse",
    "count_scds",
    "count_search",
    "enumerate_scds",
    "exists_nontaut_scd",
    "expand",
    "extend_dimension",
    "generate",
    "grid_scd",
    "hypercube_scd",
    "is_rank_symmetric",
    "is_taut",
    "middle_graph",
    "packet_grid",
    "parse_scd",
    "poset_times_chain",
    "product",
    "product_lift",
    "render_pictorial",
    "repair",
    "serialize_scd",
    "shift",
    "validate_scd",
]
