"""Exact bigraded cohomology of graphs over truncated and deformed polynomial algebras."""

from .algebra import (
    Algebra,
    make_deformed,
    make_poly_window,
    make_truncated,
    multiply,
    parse_algebra_spec,
    qdim,
)
from .chromatic import (
    EulerReport,
    Poly,
    chromatic_polynomial,
    euler_check,
)
from .complexes import (
    Cube,
    EnhancedState,
    IntMatrix,
    StateBasis,
    differential,
    enumerate_basis,
    per_edge_image,
)
from .graph import (
    MAX_EDGES,
    ComponentPartition,
    CycleInfo,
    Graph,
    GraphFormatError,
    complete,
    components,
    contract_edge,
    cycle,
    delete_edge,
    load_graph,
    parse_graph_json,
    parse_graph_text,
    path,
    polygon_with_diagonals,
    shortest_cycle_parity,
    simplify,
    wedge,
)
from .homology import (
    AbelianGroup,
    BigradedHomology,
    EngineError,
    SNFResult,
    TRIVIAL_GROUP,
    WindowError,
    cokernel_oracle,
    compiled_kernel_available,
    compute_all,
    degree_range,
    group_from_cyclic,
    homology_group,
    poincare_series,
    smith_normal_form,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
