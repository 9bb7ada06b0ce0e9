"""Weak integer-additive set-indexers on graph products.

Construct the Cartesian, direct, strong, lexicographic, corona and rooted
products of small graphs; synthesize and verify weak IASI labelings on
them; and compute sparing numbers exactly with an independent-set coverage
oracle cross-checked against the closed-form results.
"""

from .graph_core import (
    BipartiteResult,
    CoronaVertexMap,
    Graph,
    GraphError,
    ProductVertexMap,
    RootedVertexMap,
    cartesian_product,
    complete_graph,
    corona,
    cycle_graph,
    direct_product,
    disjoint_union,
    is_bipartite,
    is_vertex,
    lexicographic_product,
    path_graph,
    restrict_to_layer,
    rooted_product,
    single_vertex,
    star_graph,
    strong_product,
)
from .set_label import (
    IntegerSet,
    LabelError,
    Labeling,
    VerificationReport,
    is_k_uniform,
    mono_indexed_stats,
    restrict_labeling,
    scale_set,
    sumset,
    verify_iasi,
    verify_weak_iasi,
)
from .sparing import (
    CapacityError,
    SparingError,
    SparingResult,
    cycle_parity_of,
    sparing_brute_force,
    sparing_exact,
    sparing_formula_complete,
    sparing_formula_corona,
    sparing_formula_cycle,
    sparing_union,
)
from .constructions import (
    LabelPlan,
    PlanError,
    assign_concrete_sets,
    build_labeling,
    mian_chowla,
    optimal_labeling,
    plan_cartesian,
    plan_corona,
    plan_direct,
    plan_lexicographic,
    plan_rooted,
    plan_strong,
)
from .cli import export_dot, run_sweep, sweep_families

__version__ = "0.1.0"
