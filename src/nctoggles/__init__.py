"""Toggle dynamics on noncrossing partitions and independent sets.

The package provides exact (integer / rational) verification of orbit and
homomesy phenomena for toggle actions: noncrossing partitions of [n] under
arc toggles, Kreweras complementation and the Simion-Ullman involution, and
the generalization to vertex toggles on independent sets of graphs,
including 2-cliquish graphs and the skeletal/multigraph bijection.
"""

__version__ = "0.1.0"

from .dynamics import (
    HomomesyReport,
    Orbit,
    Statistic,
    check_homomesy,
    chi_sum_conjugation_check,
    even_orbits_check,
    orbit_average,
    orbits,
    parse_statistic,
    verify_arc_count_theorem,
)
from .core import orbit_partition
from .indsets import (
    CliquishCertificate,
    Multigraph,
    SimpleGraph,
    apply_vertex_word,
    base_graph,
    check_cliquish_with,
    complete_minus_edge,
    cycle_with_edge_triangles,
    enumerate_2cliquish_from_skeletal,
    graph_isomorphic,
    is_2_cliquish,
    is_skeletal,
    multigraph_isomorphic,
    multigraph_to_skeletal,
    pendant_double,
    skeletal_to_multigraph,
    skeletalize,
    toggle_vertex,
    verify_cardinality_homomesy,
)
from .kreweras import (
    eta,
    kreweras_oracle,
    kreweras_power,
    kreweras_prime,
    kreweras_prime_oracle,
    relabel,
    rotate,
    simion_ullman,
)
from .ncpartition import (
    Arc,
    BlockPartition,
    EnumerationLimitError,
    InvalidPartitionError,
    NCPartition,
    Violation,
    ViolationKind,
    catalan,
    enumerate_nc,
    validate,
)
from .toggles import (
    PairType,
    ToggleCounts,
    classify_pair,
    commutes,
    counts,
    noncommuting_count,
    pair_order,
    pair_order_observed,
    toggle,
)
from .words import (
    Orientation,
    ToggleWord,
    admissible_conjugate,
    apply_word,
    column_word,
    functionally_equal,
    is_partial_coxeter,
    kreweras_word,
    orientation_of,
    row_word,
    sinks,
    sources,
)
